import random
from pathlib import Path

import pytest

from crossfree.chains import Chain, ChainCollection, Ordering, parse_chain_collection, parse_ordering
from crossfree.families import GroundSet, classify_pair, mask_of
from crossfree.tree import (
    CrossSupportTree,
    ExtractionError,
    MalformedTreeError,
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


@pytest.fixture
def example():
    cc = parse_chain_collection((FIXTURES / "chains.txt").read_text())
    ordering = parse_ordering((FIXTURES / "ordering.txt").read_text(), cc.ground.n)
    tree = tree_from_json((FIXTURES / "tree.json").read_text())
    return tree, cc, ordering


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
    assert report.ok and report.advisory_ok


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
    bad_a = TreeNode(a.chain, 1, (a.children[0], TreeNode(a.children[1].chain, 9)))
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
        assert report.advisory_ok
        assert tree.height() == height


def test_synthetic_tree_parameter_guards():
    with pytest.raises(ValueError):
        gen_synthetic_tree(3, 3, 2, 0)
    with pytest.raises(ValueError):
        gen_synthetic_tree(6, 3, 20, 0)


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


def test_build_tree_level0_and_level1():
    g = GroundSet(16)
    chains = tuple(Chain(mask_of(range(2, 2 + s)), (0, 1)) for s in (3, 5, 7, 9))
    cc = ChainCollection(g, chains)
    ordering = Ordering.natural(16)
    res0 = build_tree(cc, (0, 2), ordering, 2, 0, 1)
    assert res0.tree is not None and res0.tree.root.is_leaf

    res = build_tree(cc, (0, 1, 2, 3), ordering, 2, 1, 1)
    assert res.tree is not None
    assert validate_tree(res.tree, cc, ordering).ok
    assert len(res.tree.root.children) >= 1


def test_build_tree_fails_without_containments():
    # pairwise incomparable bases: no C_i(x) strictly inside C_j(x)
    g = GroundSet(12)
    chains = tuple(Chain(mask_of([2 + 2 * i, 3 + 2 * i]), (0, 1)) for i in range(4))
    cc = ChainCollection(g, chains)
    res = build_tree(cc, tuple(range(4)), Ordering.natural(12), 2, 1, 1)
    assert res.tree is None
