import json
import random
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossfree import crossing
from crossfree import tree as tree_module
from crossfree.chains import (
    Chain,
    ChainCollection,
    Ordering,
    check_conditions,
    parse_chain_collection,
    parse_ordering,
)
from crossfree.families import Family, GroundSet, classify_pair, format_set, mask_of
from crossfree.tree import (
    _longest_chain,
    _strict_subset,
    CrossSupportTree,
    ExtractionError,
    MalformedTreeError,
    TreeReport,
    TreeNode,
    build_tree,
    extract_k_crossing_from_tree,
    gen_synthetic_tree,
    prune_root_children,
    tree_from_json,
    tree_to_json,
    validate_tree,
)

FIXTURES = Path(__file__).parent / "fixtures" / "crosstree"
GOLDEN = Path(__file__).parent / "golden"


def load_fixture():
    cc = parse_chain_collection((FIXTURES / "chains.txt").read_text())
    ordering = parse_ordering((FIXTURES / "ordering.txt").read_text(), cc.ground.n)
    tree = tree_from_json((FIXTURES / "tree.json").read_text())
    return tree, cc, ordering


@pytest.fixture
def example():
    return load_fixture()


def preorder_docs(tree):
    """The tree as JSON dicts, and those dicts in preorder, for editing."""
    doc = json.loads(tree_to_json(tree))
    docs, stack = [], [doc]
    while stack:
        node = stack.pop()
        docs.append(node)
        stack.extend(reversed(node["children"]))
    return doc, docs


def test_example_tree_validates(example):
    tree, cc, ordering = example
    report = validate_tree(tree, cc, ordering)
    assert report.ok
    assert not report.malformed
    assert all(not v for v in report.violations.values())


def test_nodes_are_in_preorder(example):
    tree, _, _ = example
    paths = [path for path, _ in tree.nodes()]
    assert len(paths) == 7
    assert paths == sorted(paths)


def test_nodes_deeper_than_recursion_limit():
    node = TreeNode(0, 0)
    for _ in range(1499):
        node = TreeNode(0, 0, (node,))
    tree = CrossSupportTree(TreeNode(0, None, (node,)))
    assert len(tree.nodes()) == 1501
    assert tree.nodes()[-1][0] == (0,) * 1500
    assert tree.height() == 1500


def test_single_node_tree_vacuous():
    g = GroundSet(4)
    cc = ChainCollection(g, (Chain(0b1, (1,)),))
    report = validate_tree(CrossSupportTree(TreeNode(0, None)), cc, Ordering.natural(4))
    assert report.ok and not any(report.advisory.values())


def test_sibling_swap_breaks_t2(example):
    tree, cc, ordering = example
    root = tree.root
    swapped = CrossSupportTree(TreeNode(root.chain, None, (root.children[1], root.children[0])))
    report = validate_tree(swapped, cc, ordering)
    assert not report.ok
    assert report.violations["T2"]


def test_dangling_chain_index_is_malformed(example):
    tree, cc, ordering = example
    bad = CrossSupportTree(TreeNode(99, None, tree.root.children))
    report = validate_tree(bad, cc, ordering)
    assert report.malformed and not report.ok


def test_non_perfect_tree_is_malformed(example):
    tree, cc, ordering = example
    root = tree.root
    flattened = CrossSupportTree(
        TreeNode(root.chain, None, (root.children[0], TreeNode(root.children[1].chain, 1)))
    )
    report = validate_tree(flattened, cc, ordering)
    assert any("not perfect" in m for m in report.malformed)


def test_out_of_range_label_is_t1(example):
    tree, cc, ordering = example
    root = tree.root
    a = root.children[1]
    for label in (9, -1):
        bad_a = TreeNode(a.chain, 1, (a.children[0], TreeNode(a.children[1].chain, label)))
        report = validate_tree(CrossSupportTree(TreeNode(root.chain, None, (root.children[0], bad_a))), cc, ordering)
        assert report.violations["T1"]


def test_prune_keeps_validity(example):
    tree, cc, ordering = example
    for keep in ((0,), (1,), (0, 1)):
        pruned = prune_root_children(tree, keep)
        assert validate_tree(pruned, cc, ordering).ok
        assert len(pruned.root.children) == len(keep)
    with pytest.raises(ValueError):
        prune_root_children(tree, ())
    with pytest.raises(ValueError):
        prune_root_children(tree, (5,))


def test_tree_json_roundtrip(example):
    tree, _cc, _ordering = example
    text = tree_to_json(tree)
    again = tree_from_json(text)
    assert again == tree
    assert tree_to_json(again) == text
    with pytest.raises(MalformedTreeError):
        tree_from_json("[1,2]")


def test_synthetic_trees_validate():
    for seed in range(30):
        height = 1 + seed % 3
        branching = 2 + seed % 2
        h = (height - 1) * (branching - 1) + branching + seed % 3
        tree, cc, ordering = gen_synthetic_tree(height, branching, h, seed)
        report = validate_tree(tree, cc, ordering)
        assert report.ok
        assert not any(report.advisory.values())
        assert tree.height() == height


def test_synthetic_tree_parameter_guards():
    with pytest.raises(ValueError):
        gen_synthetic_tree(3, 3, 2, 0)
    with pytest.raises(ValueError):
        gen_synthetic_tree(6, 3, 20, 0)
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        gen_synthetic_tree(1, 2, 2, -1)


def test_extract_from_synthetic_tree():
    tree, cc, ordering = gen_synthetic_tree(3, 3, 8, 1)
    witness = extract_k_crossing_from_tree(tree, cc, ordering, 3)
    assert len(witness.sets) == 3
    sizes = [m.bit_count() for m in witness.sets]
    assert sizes == sorted(sizes) and len(set(sizes)) == 3
    for i, a in enumerate(witness.sets):
        for b in witness.sets[i + 1 :]:
            rel = classify_pair(a, b, cc.ground).value
            assert rel in ("crossing", "weak-only")


def test_extract_preconditions():
    tree, cc, ordering = gen_synthetic_tree(2, 2, 4, 0)
    with pytest.raises(ExtractionError, match="height"):
        extract_k_crossing_from_tree(tree, cc, ordering, 3)
    tall, cc3, ordering3 = gen_synthetic_tree(3, 2, 5, 0)
    with pytest.raises(ExtractionError, match="children"):
        extract_k_crossing_from_tree(tall, cc3, ordering3, 3)


def test_extract_k2_on_branching2():
    tree, cc, ordering = gen_synthetic_tree(2, 2, 4, 3)
    witness = extract_k_crossing_from_tree(tree, cc, ordering, 2)
    assert len(witness.sets) == 2


def four_nested_chains():
    chains = tuple(Chain(mask_of(range(2, 2 + s)), (0, 1)) for s in (3, 5, 7, 9))
    return ChainCollection(GroundSet(16), chains), Ordering.natural(16)


def test_build_tree_level0_and_level1():
    cc, ordering = four_nested_chains()
    res0 = build_tree(cc, (0, 2), ordering, 0, 1)
    assert res0.tree is not None and res0.tree.root.is_leaf

    res = build_tree(cc, (0, 1, 2, 3), ordering, 1, 1)
    assert res.tree is not None
    assert validate_tree(res.tree, cc, ordering).ok
    assert len(res.tree.root.children) >= 1


def test_build_tree_ignores_repeated_indices():
    cc, ordering = four_nested_chains()
    once = build_tree(cc, (0, 1, 2, 3), ordering, 1, 1)
    twice = build_tree(cc, (0, 0, 1, 1, 2, 2, 3, 3), ordering, 1, 1)
    assert twice.per_root == once.per_root
    assert tree_to_json(twice.tree) == tree_to_json(once.tree)


@pytest.mark.parametrize("selected", [(4,), (0, 4), (-1,), (1, 1, 9, 2)])
def test_build_tree_and_check_conditions_reject_the_same_index(selected):
    cc, ordering = four_nested_chains()
    bad = next(i for i in selected if not 0 <= i < 4)
    with pytest.raises(ValueError) as built:
        build_tree(cc, selected, ordering, 1, 1)
    with pytest.raises(ValueError) as checked:
        check_conditions(cc, selected, ordering, 2, 0)
    assert str(built.value) == str(checked.value) == f"chain index {bad} out of range for 4 chains"


def test_build_tree_and_check_conditions_drop_the_same_repeats():
    cc, ordering = four_nested_chains()
    for repeated, once in (((3, 3, 0), (3, 0)), ((1, 0, 1, 0, 2), (1, 0, 2))):
        assert cc.distinct_indices(repeated) == once
        assert check_conditions(cc, repeated, ordering, 2, 0) == check_conditions(cc, once, ordering, 2, 0)
        twice, single = build_tree(cc, repeated, ordering, 1, 1), build_tree(cc, once, ordering, 1, 1)
        assert list(twice.per_root.items()) == list(single.per_root.items())
        assert twice.tree == single.tree


def incomparable_chains():
    # pairwise incomparable bases: no C_i(x) strictly inside C_j(x)
    chains = tuple(Chain(mask_of([2 + 2 * i, 3 + 2 * i]), (0, 1)) for i in range(4))
    return ChainCollection(GroundSet(12), chains), Ordering.natural(12)


def test_build_tree_fails_without_containments():
    cc, ordering = incomparable_chains()
    res = build_tree(cc, tuple(range(4)), ordering, 1, 1)
    assert res.tree is None


@pytest.mark.parametrize("branching", [0, -2])
def test_build_tree_rejects_branching_below_one(branching):
    # In incomparable_chains no root matches a subtree.
    for cc, ordering in (four_nested_chains(), incomparable_chains()):
        with pytest.raises(ValueError, match="branching"):
            build_tree(cc, tuple(range(4)), ordering, 1, branching)


def nested16():
    """The tree_build_nested16 golden input: 16 chains with nested prefix
    bases that each add 0..5."""
    chains = tuple(Chain(mask_of(range(6, 6 + s)), tuple(range(6))) for s in range(1, 17))
    return ChainCollection(GroundSet(22), chains), Ordering.natural(22)


def test_build_tree_runs_no_matching(monkeypatch):
    calls = []
    matching = crossing._max_bipartite_matching
    monkeypatch.setattr(
        crossing, "_max_bipartite_matching", lambda *args: calls.append(args) or matching(*args)
    )
    cc, ordering = nested16()
    res = build_tree(cc, tuple(range(16)), ordering, 2, 2)
    assert tree_to_json(res.tree) == (GOLDEN / "tree_build_nested16.json").read_text()
    assert calls == []


def test_build_tree_validates_only_the_returned_tree(monkeypatch):
    calls = []
    monkeypatch.setattr(tree_module, "validate_tree", lambda *args: calls.append(args) or validate_tree(*args))
    cc, ordering = nested16()
    res = build_tree(cc, tuple(range(16)), ordering, 2, 2)
    assert tree_to_json(res.tree) == (GOLDEN / "tree_build_nested16.json").read_text()
    assert [args[0] for args in calls] == [res.tree]


def nested_prefix_input(rng):
    """Chains over nested prefixes of one random filler order, each adding
    the labels 0..h-1 in the natural or a random order, under a random
    ordering, with a selection that repeats indices, height 1-3 and
    branching 1-3."""
    h, m = rng.randint(2, 6), rng.randint(2, 16)
    filler = rng.randint(m, 30)
    n = h + filler
    prefix = rng.sample(range(h, n), filler)
    natural = rng.random() < 0.5
    chains = tuple(
        Chain(
            mask_of(prefix[:size]),
            tuple(range(h)) if natural and rng.random() < 0.7 else tuple(rng.sample(range(h), h)),
        )
        for size in rng.sample(range(1, filler + 1), m)
    )
    ordering = Ordering(tuple(rng.sample(range(n), n)))
    selected = [rng.randrange(m) for _ in range(rng.randint(1, 2 * m))]
    return ChainCollection(GroundSet(n), chains), selected, ordering, rng.randint(1, 3), rng.randint(1, 3)


def t5_cli_input():
    """The input of test_cli.py::test_tree_build_failure_reasons[t5]."""
    cc = parse_chain_collection(
        "n 7\nchain 3; 0,1,2\nchain 3,4; 0,1,2\nchain 3,4,6; 0,1,2\nchain 3,4,5,6; 1,0,2\n"
    )
    return cc, (0, 1, 2, 3), parse_ordering("0 4 2 6 5 1 3", 7), 1, 1


def harness_inputs():
    return [t5_cli_input()] + [nested_prefix_input(random.Random(seed)) for seed in range(5000)]


def test_every_assembly_passes_validate_tree(monkeypatch):
    # _assemble_root checks only the branching target; its chain filter
    # must give T1-T5 by construction on every assembly, returned or not.
    assemble = tree_module._assemble_root
    assembled = []

    def checked(cc, ordering, *args):
        root = assemble(cc, ordering, *args)
        if isinstance(root, TreeNode):
            assert validate_tree(CrossSupportTree(root), cc, ordering).ok
            assembled.append(root)
        return root

    monkeypatch.setattr(tree_module, "_assemble_root", checked)
    for cc, selected, ordering, height, branching in harness_inputs():
        build_tree(cc, selected, ordering, height, branching)
    assert len(assembled) >= 5000


def test_chain_order_binds_only_at_level_1(monkeypatch):
    # _assemble_root's docstring shows why: no S-set below depth 0, and
    # none at a later level, grows from left to right. The order can drop
    # a child only where some set lies strictly inside one to its right.
    assemble, longest = tree_module._assemble_root, tree_module._longest_chain
    level = [0]
    binding = []

    def at_level(cc, ordering, roots, i, *args):
        level[0] = CrossSupportTree(roots[i]).height() + 1
        return assemble(cc, ordering, roots, i, *args)

    def recorded(sets):
        sets = list(sets)
        if any(_strict_subset(a, b) for a, b in combinations(sets, 2)):
            binding.append(level[0])
        return longest(sets)

    monkeypatch.setattr(tree_module, "_assemble_root", at_level)
    monkeypatch.setattr(tree_module, "_longest_chain", recorded)
    for cc, selected, ordering, height, branching in harness_inputs():
        build_tree(cc, selected, ordering, height, branching)
    assert len(binding) >= 100 and set(binding) == {1}


def test_chain_filter_drops_a_child_below_depth_0(monkeypatch):
    # Level 2, root 0: the depth-0 S-sets {0-4,15,18} and {0-3,15} nest,
    # but the depth-1 ones {0-4,15,18,19} and {0-3,10-15,21} do not, so
    # the filter there keeps one child. Filtering at depth 0 alone keeps
    # both, and build_tree's final validate_tree fails on T5.
    bases = ["-", "10", "11", "12", "13", "14", "15", "15,24", "15,18", "15,18,19",
             "10,11,12,13,14,15", "10,11,12,13,14,15,21", "10,11,12,13,14,15,21,22"]
    cc = parse_chain_collection(
        "n 26\n"
        + "".join(f"chain {base}; 0,1,2,3,4,5\n" for base in bases)
        + "chain 19,20,21,22,23,25; 0,5,2,3,4,1\n"
    )
    longest = tree_module._longest_chain
    dropped = []

    def recorded(sets):
        sets = list(sets)
        members = longest(sets)
        dropped.extend(s for s in sets if s not in members)
        return members

    monkeypatch.setattr(tree_module, "_longest_chain", recorded)
    res = build_tree(cc, range(14), Ordering.natural(26), 2, 1)
    grandchild = TreeNode(9, 5, ())
    assert res.tree.root == TreeNode(0, None, (TreeNode(8, 5, (grandchild,)),))
    assert res.per_root[0] == "ok"
    assert mask_of([0, 1, 2, 3, *range(10, 16), 21]) in dropped


@pytest.mark.parametrize("height", range(5))
def test_build_tree_reports_every_selected_root(height):
    # Height 3 fails on the nested16 chains; every level excludes some roots.
    cc, ordering = nested16()
    selected = (15, 3, 0, 7, 11, 1, 9, 4, 13, 2, 6, 14, 5, 8, 12, 10)
    res = build_tree(cc, selected, ordering, height, 1)
    assert sorted(res.per_root) == sorted(selected)
    ok = sorted(i for i, reason in res.per_root.items() if reason == "ok")
    if height >= 3:
        assert res.tree is None and ok == []
        assert res.per_root[10] == "excluded at level 1: a top chain below label 3"
    else:
        assert res.tree.root.chain == ok[0]


def test_build_tree_rejects_a_pruned_child_below_branching():
    # Chains 0-19 have nested bases 9..8+s and add 0..8 in order, except
    # chain 9, which adds 6 first: no member below 4 or 5 strictly contains
    # its own there, so level 1 gives it only the children at 8, 7 and 6.
    # At level 2 root 0 matches chain 9 under label 7 (chain 10 took 8),
    # and pruning its child at 8 leaves two children.
    h, m = 9, 20
    added = {9: (6, 0, 1, 2, 3, 4, 5, 7, 8)}
    chains = tuple(Chain(mask_of(range(h, h + s)), added.get(s, tuple(range(h)))) for s in range(m))
    cc = ChainCollection(GroundSet(h + m - 1), chains)
    res = build_tree(cc, range(m), Ordering.natural(h + m - 1), 2, 3)
    assert res.tree is None
    assert res.per_root[0] == "node (1,) has 2 < branching 3"


def shrinks(sets):
    """Each of ``sets`` is a strict subset of the one before it."""
    return all(_strict_subset(b, a) for a, b in zip(sets, sets[1:]))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2**5 - 1), unique=True, max_size=12))
def test_longest_chain_matches_brute_force(sets):
    # sets in child order; combinations keep that order.
    longest = max(r for r in range(len(sets) + 1) for sub in combinations(sets, r) if shrinks(sub))
    chain = _longest_chain(sets)
    assert len(chain) == longest
    assert chain <= set(sets) and shrinks([s for s in sets if s in chain])


def test_longest_chain_beats_the_largest_partition_chain():
    # {0,1,2} > {1,2} > {1} is the longest chain; a minimum chain partition
    # of these four sets has two chains of two.
    sets = (0b111, 0b110, 0b101, 0b010)
    partition = crossing.dilworth_partition(Family(GroundSet(3), sets))
    assert max(len(chain) for chain in partition.chains) == 2
    assert _longest_chain(sets) == {0b010, 0b110, 0b111}


def mutant(seed):
    """A synthetic tree of height 1-2 with one or two seeded defects."""
    rng = random.Random(seed)
    height = rng.randrange(1, 3)
    branching = rng.randrange(2, 4)
    h = (height - 1) * (branching - 1) + branching + rng.randrange(3)
    tree, cc, ordering = gen_synthetic_tree(height, branching, h, rng.randrange(10**9))
    n = cc.ground.n
    chains = list(cc.chains)
    doc, docs = preorder_docs(tree)
    kinds = rng.sample(["swap", "labels", "chains", "added", "ordering"], rng.randrange(1, 3))
    if "swap" in kinds:
        children = rng.choice([d for d in docs if d["children"]])["children"]
        i, j = rng.sample(range(len(children)), 2)
        children[i], children[j] = children[j], children[i]
    if "labels" in kinds:
        for d in docs[1:]:
            if rng.random() < 0.3:
                d["edge_label_from_parent"] = rng.randrange(n + 2)
    if "chains" in kinds:
        for d in docs:
            if rng.random() < 0.3:
                d["chain"] = rng.randrange(len(chains))
    if "added" in kinds:
        idx = rng.randrange(len(chains))
        added = list(chains[idx].added)
        rng.shuffle(added)
        chains[idx] = Chain(chains[idx].base, tuple(added))
    if "ordering" in kinds:
        ordering = Ordering.random(n, rng)
    return tree_from_json(json.dumps(doc)), ChainCollection(cc.ground, tuple(chains)), ordering


def test_validate_mutants_match_golden():
    # One validate_tree(...).as_dict() line per mutant: it pins every
    # message and its order, so a rewrite of the validator must match it.
    lines = (GOLDEN / "tree_validate_mutants.jsonl").read_text().splitlines()
    assert len(lines) == 60
    violated = set()
    for seed, line in enumerate(lines):
        report = validate_tree(*mutant(seed))
        assert json.dumps(report.as_dict(), sort_keys=True) == line, f"mutant {seed}"
        violated.update(ax for ax, msgs in {**report.violations, **report.advisory}.items() if msgs)
    assert violated >= {"T1", "T2", "T3", "T4", "T5", "T6", "T8"}


def t5_all_pairs(tree, cc):
    """T5's messages by the definition: every same-depth pair u left of v,
    taken through their lowest common ancestor, where u is leftmost at its
    depth below that ancestor's child on u's side."""
    s_vals = {
        path: cc.chains[node.chain].below.get(node.edge_label) if path else None
        for path, node in tree.nodes()
    }
    by_depth = {}
    for path in s_vals:
        by_depth.setdefault(len(path), []).append(path)
    out = []
    for paths in by_depth.values():
        for left, right in combinations(paths, 2):
            common = 0
            while left[common] == right[common]:
                common += 1
            if any(left[common + 1 :]):
                continue
            s_left, s_right = s_vals[left], s_vals[right]
            if s_left is not None and s_right is not None and s_right & ~s_left:
                out.append(
                    f"nodes {left},{right}: S {format_set(s_right)} "
                    f"not inside S {format_set(s_left)}"
                )
    return out


def random_wide_tree(rng):
    """A perfect tree of height 1-2 and branching 2-6 with random chain
    indices and labels over chains that each hold a private element, so
    their members differ, and add random elements of one shared pool."""
    n, count = 12, 4
    pool = range(count, n)
    chains = []
    for i in range(count):
        added = rng.sample(pool, rng.randrange(2, len(pool) + 1))
        filler = [e for e in pool if e not in added and rng.random() < 0.5]
        chains.append(Chain(mask_of([i, *filler]), tuple(added)))
    height, branching = rng.randrange(1, 3), rng.randrange(2, 7)

    def build(depth, label):
        children = ()
        if depth < height:
            children = tuple(build(depth + 1, rng.randrange(-1, n + 1)) for _ in range(branching))
        return TreeNode(rng.randrange(count), label, children)

    cc = ChainCollection(GroundSet(n), tuple(chains))
    return CrossSupportTree(build(0, None)), cc, Ordering.natural(n)


def test_t5_matches_all_pairs_definition():
    # validate_tree scans each depth's paths in sorted order and compares u
    # only with the paths right after it that agree with u's before u's
    # last nonzero entry; the oracle takes every pair through its ancestor.
    rng = random.Random(5)
    messages = 0
    for _ in range(60):
        tree, cc, ordering = random_wide_tree(rng)
        report = validate_tree(tree, cc, ordering)
        assert not report.malformed
        assert list(report.violations["T5"]) == t5_all_pairs(tree, cc)
        messages += len(report.violations["T5"])
    assert messages >= 300


any_int = st.one_of(st.integers(-2, 10), st.integers(), st.integers(min_value=2**64))


@settings(max_examples=200, deadline=None)
@given(
    st.dictionaries(st.integers(0, 6), any_int, max_size=2),
    st.dictionaries(st.integers(1, 6), any_int, max_size=3),
)
def test_arbitrary_labels_and_chain_indices_never_crash(chain_at, label_at):
    # Keys are preorder node positions in the fixture tree.
    tree, cc, ordering = load_fixture()
    doc, docs = preorder_docs(tree)
    for pos, chain in chain_at.items():
        docs[pos]["chain"] = chain
    for pos, label in label_at.items():
        docs[pos]["edge_label_from_parent"] = label
    tree = tree_from_json(json.dumps(doc))
    assert isinstance(validate_tree(tree, cc, ordering), TreeReport)
    try:
        extract_k_crossing_from_tree(tree, cc, ordering, 2)
    except ExtractionError:
        pass
