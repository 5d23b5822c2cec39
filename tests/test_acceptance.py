"""End-to-end acceptance criteria, one pass/fail line each.

Each test prints exactly one ``ACCEPTANCE <n>: PASS/FAIL`` line (visible
with ``pytest -s`` or in failure output) and asserts the same condition.
"""

import random
from itertools import combinations
from pathlib import Path

from crossfree.chains import (
    Chain,
    ChainCollection,
    check_conditions,
    extract_disjoint_chains,
    parse_chain_collection,
    parse_ordering,
    select_conditioned_chains,
    weak_reduce,
)
from crossfree.cli import main
from crossfree.constructions import gen_cyclic_intervals, gen_random_cross_free
from crossfree.crossing import (
    dilworth_partition,
    find_pairwise_crossing_witness,
    greedy_independent_set,
    turan_floor,
    uniform_bound_report,
)
from crossfree.families import Family, GroundSet, elements_of, mask_of
from crossfree.search import max_cross_free
from crossfree.tree import (
    CrossSupportTree,
    TreeNode,
    extract_k_crossing_from_tree,
    gen_synthetic_tree,
    prune_root_children,
    tree_from_json,
    validate_tree,
)
from oracles import all_subsets, lex_least_optimum, max_antichain_size

FIXTURES = Path(__file__).parent / "fixtures" / "crosstree"
GOLDEN = Path(__file__).parent / "golden"


def report(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"acceptance {num} failed: {detail}"


def test_acceptance_1_laminar_maximum():
    got = {n: max_cross_free(all_subsets(n), 2, "weak").size for n in (3, 4, 5)}
    ok = got == {3: 6, 4: 8, 5: 10}
    report(1, ok, f"weak k=2 maxima over all subsets = {got}, expected 2n")


def test_acceptance_2_strict_2_cross_free():
    results = {n: max_cross_free(all_subsets(n), 2, "strict") for n in (3, 4, 5)}
    ok = all(results[n].size <= 4 * n - 2 for n in (3, 4, 5))
    # n=3: independent full-enumeration oracle
    ok = ok and results[3].size == len(lex_least_optimum(all_subsets(3), 2, "strict")) == 8
    # n=4: only 2-element sets can strictly cross, so the exact value is the
    # 10 other subsets plus the largest crossing-free set of 2-sets.
    pairs = Family(GroundSet(4), tuple(mask_of(c) for c in combinations(range(4), 2)))
    oracle4 = 10 + len(lex_least_optimum(pairs, 2, "strict"))
    ok = ok and results[4].size == oracle4 == 12
    # n=5: cross-check under a ground-element relabeling (value is invariant)
    perm = [3, 0, 4, 1, 2]
    relabeled = Family(
        GroundSet(5),
        tuple(mask_of(perm[e] for e in elements_of(m)) for m in range(32)),
    )
    ok = ok and results[5].size == max_cross_free(relabeled, 2, "strict").size
    sizes = {n: r.size for n, r in results.items()}
    report(2, ok, f"strict k=2 maxima {sizes} match oracles and respect 4n-2")


def test_acceptance_3_interval_bounds():
    got = {
        n: max_cross_free(gen_cyclic_intervals(n, False), 2, "strict").size
        for n in (4, 5, 6)
    }
    ok = got == {4: 10, 5: 14, 6: 18}
    got3 = max_cross_free(gen_cyclic_intervals(6, False), 3, "strict").size
    ok = ok and got3 == 28
    report(3, ok, f"interval maxima k=2 {got} (=4n-6) and k=3 n=6 -> {got3} (=8n-20)")


def test_acceptance_4_dilworth_lemma():
    rng = random.Random(1004)
    checked = 0
    ok = True
    for _ in range(1000):
        n = rng.randrange(3, 8)
        k = rng.choice([3, 4])
        fam = gen_random_cross_free(n, k, "weak", rng.randrange(10**9))
        # members sharing element 0 form an intersecting weakly-k-cross-free family
        inter = Family(fam.ground, tuple(m for m in fam.sets if m & 1))
        if not inter:
            continue
        dec = dilworth_partition(inter)
        members = sorted(m for chain in dec.chains for m in chain)
        ok = ok and len(dec.chains) <= k - 1 and members == sorted(inter.sets)
        if len(inter) <= 12:
            ok = ok and len(dec.chains) == max_antichain_size(inter.sets)
        checked += 1
        if not ok:
            break
    ok = ok and checked >= 900
    report(4, ok, f"{checked} intersecting families: <= k-1 chains, exact minimum")


def test_acceptance_5_uniform_lemma():
    rng = random.Random(1005)
    violations = 0
    ok = True
    for _ in range(1000):
        n = rng.randrange(4, 9)
        level = rng.randrange(1, n)
        pool = [mask_of(c) for c in combinations(range(n), level)]
        picked = tuple(m for m in pool if rng.random() < rng.choice([0.4, 0.9]))
        if not picked:
            continue
        fam = Family(GroundSet(n), picked)
        k = rng.choice([2, 3])
        rep = uniform_bound_report(fam, k)
        if rep.violates:
            violations += 1
            ok = ok and find_pairwise_crossing_witness(fam, k, "weak") is not None
        if not ok:
            break
    ok = ok and violations >= 50
    report(5, ok, f"uniform-bound violations always certified ({violations} violations seen)")


def test_acceptance_6_weak_reduce_lemma():
    rng = random.Random(1006)
    ok = True
    for _ in range(500):
        n = rng.randrange(3, 7)
        k = rng.choice([2, 3, 4])
        fam = gen_random_cross_free(n, k, "strict", rng.randrange(10**9))
        reduced = weak_reduce(fam, k)
        ok = ok and 2 * len(reduced) >= len(fam)
        ok = ok and find_pairwise_crossing_witness(reduced, k, "weak") is None
        if not ok:
            break
    report(6, ok, "500 reductions kept >= half the family, weakly-k-cross-free")


def test_acceptance_7_turan_lemma():
    rng = random.Random(1007)
    ok = True
    for _ in range(500):
        n = rng.randrange(1, 65)
        adj = [0] * n
        p = rng.random()
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < p:
                    adj[i] |= 1 << j
                    adj[j] |= 1 << i
        ok = ok and len(greedy_independent_set(adj)) >= turan_floor(n, adj)
        if not ok:
            break
    report(7, ok, "500 graphs: greedy independent set >= ceil(|V|/(avg degree+1))")


def _fixture():
    cc = parse_chain_collection((FIXTURES / "chains.txt").read_text())
    ordering = parse_ordering((FIXTURES / "ordering.txt").read_text(), cc.ground.n)
    tree = tree_from_json((FIXTURES / "tree.json").read_text())
    return tree, cc, ordering


def test_acceptance_8_tree_axioms_and_mutations():
    tree, cc, ordering = _fixture()
    root = tree.root
    e, a = root.children
    g_, f = e.children
    c, b = a.children

    def cc_mod(idx, chain):
        chains = list(cc.chains)
        chains[idx] = chain
        return ChainCollection(cc.ground, tuple(chains))

    # (mutated tree, chain collection, expected violated axioms or "malformed")
    mutations = [
        ("root children swapped", CrossSupportTree(TreeNode(0, None, (a, e))), cc, ["T2", "T5"]),
        ("inner children swapped", CrossSupportTree(TreeNode(0, None, (TreeNode(e.chain, e.edge_label, (f, g_)), a))), cc, ["T2", "T3", "T5"]),
        ("leaf label outside support", CrossSupportTree(TreeNode(0, None, (TreeNode(e.chain, e.edge_label, (g_, TreeNode(f.chain, 7))), a))), cc, ["T2"]),
        ("duplicate sibling labels", CrossSupportTree(TreeNode(0, None, (e, TreeNode(a.chain, a.edge_label, (c, TreeNode(b.chain, 1)))))), cc, ["T2"]),
        ("chain added order flipped", tree, cc_mod(1, Chain(cc.chains[1].base, (1, 0))), ["T4"]),
        ("non-perfect depth", CrossSupportTree(TreeNode(0, None, (e, TreeNode(a.chain, a.edge_label)))), cc, "malformed"),
        ("derived-set containment broken", tree, cc_mod(2, Chain(mask_of([3, 4, 6]), (8, 0))), ["T5"]),
        ("leftmost label not inherited", CrossSupportTree(TreeNode(0, None, (TreeNode(e.chain, e.edge_label, (TreeNode(g_.chain, 7), f)), a))), cc, ["T2", "T3", "T5"]),
        ("dangling chain index", CrossSupportTree(TreeNode(99, None, root.children)), cc, "malformed"),
        ("label outside ground set", CrossSupportTree(TreeNode(0, None, (e, TreeNode(a.chain, a.edge_label, (c, TreeNode(b.chain, 9)))))), cc, ["T1"]),
    ]

    base_report = validate_tree(tree, cc, ordering)
    ok = base_report.ok
    failures = []
    for name, mtree, mcc, expect in mutations:
        rep = validate_tree(mtree, mcc, ordering)
        violated = sorted(ax for ax, v in rep.violations.items() if v)
        if expect == "malformed":
            good = bool(rep.malformed) and not rep.ok
        else:
            good = not rep.ok and violated == expect
        if not good:
            failures.append(f"{name}: got malformed={bool(rep.malformed)} {violated}")
        ok = ok and good
    report(8, ok, "fixture passes T1-T5; 10 mutations rejected with the right axiom"
           + ("" if not failures else f" ({failures})"))


def test_acceptance_9_derived_checks_and_pruning():
    rng = random.Random(1009)
    ok = True
    count = 0
    while count < 200 and ok:
        height = rng.randrange(1, 4)
        branching = rng.randrange(2, 4)
        h = (height - 1) * (branching - 1) + branching + rng.randrange(0, 3)
        tree, cc, ordering = gen_synthetic_tree(height, branching, h, rng.randrange(10**9))
        rep = validate_tree(tree, cc, ordering)
        ok = ok and rep.ok and not any(rep.advisory.values())
        # T9: pruning root children preserves validity
        width = len(tree.root.children)
        keep = sorted(rng.sample(range(width), rng.randrange(1, width + 1)))
        pruned = prune_root_children(tree, keep)
        prep = validate_tree(pruned, cc, ordering)
        ok = ok and prep.ok and not any(prep.advisory.values())
        count += 1
    report(9, ok, f"{count} synthetic trees: T6-T8 never fail, pruned trees revalidate")


def test_acceptance_10_extraction_lemma():
    ok = True
    instances = 0
    for seed in range(25):
        tree, cc, ordering = gen_synthetic_tree(3, 3, 8 + seed % 3, seed)
        witness = extract_k_crossing_from_tree(tree, cc, ordering, 3)
        sizes = [m.bit_count() for m in witness.sets]
        ok = ok and len(witness.sets) == 3 and sizes == sorted(set(sizes))
        instances += 1
    ok = ok and instances >= 20
    report(10, ok, f"{instances} height-3 trees yielded 3 weakly-crossing sets, sizes increasing")


def test_acceptance_11_selection_pipeline():
    ok = True
    nonempty = 0
    for seed in range(100):
        fam = gen_cyclic_intervals(8, True)
        cc = extract_disjoint_chains(fam, 2)
        # the stated threshold multiplier (3) empties the selection at n=8;
        # conditions must still hold, and with the filter off they must hold
        # on nonempty selections too
        for multiplier in (3, 0):
            selected, ordering, _ = select_conditioned_chains(cc, 3, multiplier, seed)
            rep = check_conditions(cc, selected, ordering, 3, multiplier)
            ok = ok and rep.all_pass
            if multiplier == 0:
                nonempty += bool(selected)
        if not ok:
            break
    ok = ok and nonempty >= 90
    report(11, ok, f"100 seeds pass C1-C4 (n=8, h=2, k=3); {nonempty} nonempty selections")


def _run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out


def test_acceptance_12_cli_determinism_and_goldens(capsys):
    fixture_args = [
        "--chains", str(FIXTURES / "chains.txt"),
        "--ordering", str(FIXTURES / "ordering.txt"),
        str(FIXTURES / "tree.json"),
    ]
    goldens = [
        (["table", "--n", "3..5", "--k", "2", "--universe", "all", "--mode", "weak", "--format", "csv"], "table_all_weak_k2.csv"),
        (["table", "--n", "3..5", "--k", "2", "--universe", "all", "--mode", "strict", "--format", "csv"], "table_all_strict_k2.csv"),
        (["table", "--n", "4..6", "--k", "2", "--universe", "intervals", "--mode", "strict", "--format", "csv"], "table_intervals_strict_k2.csv"),
        (["table", "--n", "6", "--k", "3", "--universe", "intervals", "--mode", "strict", "--format", "csv"], "table_intervals_strict_k3_n6.csv"),
        (["table", "--n", "3..7", "--k", "3..5", "--universe", "intervals", "--mode", "weak", "--format", "csv"], "table_intervals_weak_k3_5.csv"),
        (["tree", "validate", *fixture_args], "tree_validate.txt"),
    ]
    ok = True
    for argv, name in goldens:
        code1, out1 = _run_cli(capsys, argv)
        code2, out2 = _run_cli(capsys, argv)
        expected = (GOLDEN / name).read_text()
        ok = ok and code1 == code2 == 0 and out1 == out2 == expected
    # seeded commands repeat byte-identically as well
    seeded = ["gen", "random", "--n", "6", "--k", "3", "--mode", "strict", "--seed", "123"]
    ok = ok and _run_cli(capsys, seeded) == _run_cli(capsys, seeded)
    report(12, ok, "CLI outputs byte-identical across runs and match golden files")
