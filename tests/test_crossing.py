import inspect
import random
import sys
from fractions import Fraction
from itertools import combinations
from math import ceil

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crossfree.constructions import gen_random_cross_free
from crossfree.crossing import (
    ChainDecomposition,
    Witness,
    _max_bipartite_matching,
    crossing_graph,
    dilworth_partition,
    find_pairwise_crossing_witness,
    greedy_independent_set,
    turan_floor,
    uniform_bound_report,
)
from crossfree.families import (
    Family,
    GroundSet,
    PairRelation,
    classify_pair,
    crosses,
    crossing_row,
    mask_of,
    membership_masks,
    region_tables,
)
from oracles import brute_cliques, max_antichain_size, random_graph


def two_sets_n4():
    g = GroundSet(4)
    return Family(g, tuple(mask_of(c) for c in combinations(range(4), 2)))


def test_crossing_graph_octahedron():
    # Every 2-set over n=4 crosses exactly the four 2-sets sharing one element.
    fam = two_sets_n4()
    graph = crossing_graph(fam, "strict")
    assert all(m.bit_count() == 4 for m in graph.adj)
    assert graph.edge_count == 12
    for i, a in enumerate(fam.sets):
        for j, b in enumerate(fam.sets):
            expect = i != j and (a & b).bit_count() == 1
            assert bool(graph.adj[i] >> j & 1) == expect


def test_unknown_mode_raises():
    fam = two_sets_n4()
    tables = region_tables(membership_masks(fam.sets, 4))
    for call in (
        lambda: crosses(0b11, 0b110, fam.ground, "loose"),
        lambda: crossing_row(0b11, tables, "loose"),
        # An empty family has no rows, so only crossing_graph's check raises.
        lambda: crossing_graph(Family(fam.ground, ()), "loose"),
        # The generator checks the mode itself, for the k <= 3 scan and the
        # k >= 4 kernel path alike.
        lambda: gen_random_cross_free(4, 3, "loose", 0),
        lambda: gen_random_cross_free(4, 4, "loose", 0),
    ):
        with pytest.raises(ValueError, match="unknown mode 'loose'"):
            call()


def test_crossing_graph_edgeless_n3():
    g = GroundSet(3)
    fam = Family(g, tuple(range(8)))
    assert crossing_graph(fam, "strict").edge_count == 0


@st.composite
def indexed_families(draw):
    """Families over n <= 64 with the empty and full set, subsets and supersets."""
    # Small ground sets make shared elements and comparable pairs common.
    n = draw(st.one_of(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=64)))
    full = (1 << n) - 1
    mask = st.integers(min_value=0, max_value=full)
    sets = draw(st.lists(mask, max_size=12))
    if draw(st.booleans()):
        # A core in every member, as in a few large nested sets.
        core = draw(mask)
        sets = [m | core for m in sets]
    if sets:
        # Comparable pairs are rare among random masks for large n.
        for i, m, grow in draw(st.lists(st.tuples(st.integers(0, len(sets) - 1), mask, st.booleans()), max_size=8)):
            sets.append(sets[i] | m if grow else sets[i] & m)
    sets += [m for m in (0, full) if draw(st.booleans())]
    return Family(GroundSet(n), tuple(sets))


_CROSSING_KINDS = {
    "strict": {PairRelation.CROSSING},
    "weak": {PairRelation.CROSSING, PairRelation.WEAK_ONLY},
}


def _random_family(n, size, seed):
    """About 11/8 * size sets over n: random ones, plus meets, joins and
    complements of a few, so comparable and weak-only pairs occur at any n."""
    rng = random.Random(seed)
    full = (1 << n) - 1
    sets = [rng.getrandbits(n) for _ in range(size)]
    pairs = list(zip(sets[: size // 8], sets[size // 8 :]))
    sets += [a & b for a, b in pairs] + [a | b for a, b in pairs] + [full ^ a for a, _ in pairs]
    return Family(GroundSet(n), (0, full, *sets))


@settings(deadline=None)
@given(indexed_families())
@example(Family(GroundSet(2), (0b01, 0b10)))
@example(Family(GroundSet(6), (0b000111, 0b001111, 0b110111)))
# The strategy stops near 22 sets; these index rows of more than one word.
@example(Family(GroundSet(5), tuple(range(32))))
@example(_random_family(64, 144, 64))
@example(Family(GroundSet(9), tuple(m for m in range(512) if 2 <= m.bit_count() <= 3)))
def test_index_rows_match_pairwise_scan(fam):
    assert_index_rows_match_pairwise_scan(fam)


def test_index_rows_match_pairwise_scan_for_every_n():
    for n in range(1, 65):
        assert_index_rows_match_pairwise_scan(_random_family(n, 24, n))


def assert_index_rows_match_pairwise_scan(fam):
    sets, g = fam.sets, fam.ground
    rel = {(i, j): classify_pair(a, b, g) for i, a in enumerate(sets) for j, b in enumerate(sets)}
    for mode, kinds in _CROSSING_KINDS.items():
        adj = crossing_graph(fam, mode).adj
        assert adj == tuple(
            sum(1 << j for j in range(len(sets)) if rel[i, j] in kinds) for i in range(len(sets))
        )


def pairwise_random_cross_free(n, k, mode, seed):
    """The generator with one crosses() call per kept set and brute-force
    cliques, as the slow oracle."""
    ground = GroundSet(n)
    order = list(range(1 << n))
    random.Random(seed).shuffle(order)
    kept, adj = [], []
    for cand in order:
        nb = sum(1 << i for i, m in enumerate(kept) if crosses(cand, m, ground, mode))
        if brute_cliques(adj, nb, k - 1) is None:
            for i in range(len(kept)):
                if nb >> i & 1:
                    adj[i] |= 1 << len(kept)
            adj.append(nb)
            kept.append(cand)
    return Family(ground, tuple(kept))


@settings(deadline=None)
@given(
    st.integers(min_value=1, max_value=7),
    st.integers(min_value=2, max_value=4),
    st.sampled_from(sorted(_CROSSING_KINDS)),
    st.integers(min_value=0, max_value=2**64 - 1),
)
# At n=9 the k >= 4 path's region tables span 3 runs of elements, the last
# one short.
@example(9, 4, "strict", 2026)
@example(9, 4, "weak", 5)
# The k <= 3 scan's masks over all 2^n subsets: 2 bits at n=1, exactly one
# byte at n=3, 32 bytes at n=8, 64 at n=9.
@example(1, 2, "strict", 0)
@example(1, 3, "weak", 0)
@example(3, 2, "weak", 1)
@example(3, 3, "strict", 1)
@example(8, 2, "strict", 7)
@example(8, 3, "weak", 7)
@example(9, 3, "strict", 2026)
@example(9, 2, "weak", 5)
def test_gen_random_matches_pairwise_generator(n, k, mode, seed):
    assert gen_random_cross_free(n, k, mode, seed) == pairwise_random_cross_free(n, k, mode, seed)


def test_witness_found_and_verified():
    g = GroundSet(4)
    fam = Family(g, (mask_of([0, 1]), mask_of([1, 2]), mask_of([0, 2])))
    w = find_pairwise_crossing_witness(fam, 3, "strict")
    assert w is not None
    assert set(w.sets) == set(fam.sets)


def test_witness_none_n3_strict():
    fam = Family(GroundSet(3), tuple(range(8)))
    assert find_pairwise_crossing_witness(fam, 2, "strict") is None


def test_witness_weak_triangle_n3():
    g = GroundSet(3)
    fam = Family(g, (0b11, 0b110, 0b101))
    w = find_pairwise_crossing_witness(fam, 3, "weak")
    assert w is not None and len(w.sets) == 3


def test_witness_rejects_a_pair_that_does_not_cross():
    # {0,1} and {0,1,2} are comparable, so they cross in neither mode.
    for mode in ("strict", "weak"):
        with pytest.raises(ValueError, match=f"does not cross in {mode} mode"):
            Witness(GroundSet(4), (0b11, 0b111), mode)


def test_witness_is_lexicographically_least():
    # Two disjoint strict-crossing pairs over n=4; the lex-least clique under
    # canonical order must be returned.
    g = GroundSet(4)
    fam = Family(g, (mask_of([0, 1]), mask_of([0, 2]), mask_of([1, 2]), mask_of([1, 3])))
    w = find_pairwise_crossing_witness(fam, 2, "strict")
    assert w.sets == (mask_of([0, 1]), mask_of([0, 2]))


def test_witness_matches_exhaustive_enumeration():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randrange(2, 6)
        g = GroundSet(n)
        fam = Family(g, tuple(rng.randrange(1 << n) for _ in range(rng.randrange(1, 11))))
        for mode in ("strict", "weak"):
            for k in (2, 3):
                found = find_pairwise_crossing_witness(fam, k, mode)
                cliques = [
                    combo
                    for combo in combinations(fam.sets, k)
                    if all(crosses(a, b, g, mode) for a, b in combinations(combo, 2))
                ]
                assert (found is not None) == bool(cliques)
                if found is not None:
                    # lex-least by canonical index = first in enumeration order
                    assert found.sets == cliques[0]


def test_dilworth_examples():
    g = GroundSet(3)
    assert len(dilworth_partition(Family(g, (0, 0b1, 0b11))).chains) == 1
    dec = dilworth_partition(Family(g, (0b11, 0b110, 0b111)))
    assert len(dec.chains) == 2
    assert set(dec.max_antichain) == {0b11, 0b110}


@pytest.mark.parametrize("chain", [(0b11, 0b1), (0b1, 0b1), (0b1, 0b10)])
def test_chain_decomposition_rejects_a_chain_not_increasing(chain):
    with pytest.raises(ValueError, match="chain not strictly increasing"):
        ChainDecomposition((chain,), ())


def test_dilworth_matches_brute_force():
    rng = random.Random(3)
    for _ in range(80):
        n = rng.randrange(2, 7)
        g = GroundSet(n)
        fam = Family(g, tuple(rng.randrange(1 << n) for _ in range(rng.randrange(1, 13))))
        dec = dilworth_partition(fam)
        # chains partition the family
        members = [m for chain in dec.chains for m in chain]
        assert sorted(members) == sorted(fam.sets)
        assert len(dec.chains) == max_antichain_size(fam.sets)


def superset_rows(fam):
    """Dilworth's succ rows by a pairwise scan: the strict supersets of each member."""
    sets = fam.sets
    return [
        sum(1 << j for j, b in enumerate(sets) if a & ~b == 0 and j != i)
        for i, a in enumerate(sets)
    ]


def reference_matching(n, succ):
    """Kuhn's loop with a visited mask and a complement per step, as the oracle."""
    match_right = [-1] * n
    for root in range(n):
        path, via, visited = [root], [], 0
        while path:
            m = succ[path[-1]] & ~visited
            if not m:
                path.pop()
                if via:
                    via.pop()
                continue
            low = m & -m
            visited |= low
            v = low.bit_length() - 1
            via.append(v)
            if match_right[v] == -1:
                for u, w in zip(path, via):
                    match_right[w] = u
                break
            path.append(match_right[v])
    return match_right


@st.composite
def small_families(draw):
    """Families over n <= 8: the power set, or a random subfamily of it."""
    n = draw(st.integers(min_value=1, max_value=8))
    if draw(st.booleans()):
        sets = range(1 << n)
    else:
        sets = draw(st.lists(st.integers(min_value=0, max_value=(1 << n) - 1), max_size=60))
    return Family(GroundSet(n), tuple(sets))


@settings(deadline=None)
@given(small_families())
@example(Family(GroundSet(8), tuple(range(1 << 8))))
# Many failed roots and long augmenting paths, so the dead right vertices
# the fast loop skips are many and lie on the reference's paths.
@example(Family(GroundSet(10), tuple(range(1 << 10))))
@example(Family(GroundSet(12), tuple(random.Random(12).sample(range(1 << 12), 300))))
def test_matching_matches_reference(fam):
    succ = superset_rows(fam)
    n = len(fam.sets)
    assert _max_bipartite_matching(n, succ) == reference_matching(n, succ)


def test_dilworth_deeper_than_recursion_limit():
    # All 512 subsets of a 9-set need augmenting paths far longer than the
    # headroom left here; the chain count is the middle binomial C(9, 4).
    fam = Family(GroundSet(9), tuple(range(1 << 9)))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 100)
    try:
        dec = dilworth_partition(fam)
    finally:
        sys.setrecursionlimit(limit)
    assert len(dec.chains) == len(dec.max_antichain) == 126


def test_greedy_independent_set_trivial_graphs():
    assert greedy_independent_set([0] * 8) == tuple(range(8))
    full = [(0b11111 & ~(1 << v)) for v in range(5)]
    assert len(greedy_independent_set(full)) == 1
    assert turan_floor(0, ()) == 0


def test_greedy_independent_set_meets_turan_floor():
    graph = crossing_graph(two_sets_n4(), "strict")
    chosen = greedy_independent_set(graph.adj)
    assert len(chosen) >= turan_floor(len(graph.adj), graph.adj) == 2


def test_turan_floor_random_graphs():
    rng = random.Random(7)
    for _ in range(100):
        n = rng.randrange(1, 40)
        adj = random_graph(rng, n, rng.random())
        # turan_floor's integer formula against the rational one
        avg = Fraction(sum(m.bit_count() for m in adj), n)
        assert turan_floor(n, adj) == ceil(n / (avg + 1))
        assert len(greedy_independent_set(adj)) >= turan_floor(n, adj)


def test_uniform_bound_report():
    g = GroundSet(4)
    rep = uniform_bound_report(Family(g, (0b11, 0b1100)), 2)
    assert rep.is_uniform and rep.level == 2
    assert rep.bound == Fraction(2) and not rep.violates

    rep = uniform_bound_report(Family(g, (0b11, 0b110, 0b1100)), 2)
    assert rep.violates
    w = find_pairwise_crossing_witness(Family(g, (0b11, 0b110, 0b1100)), 2, "weak")
    assert w is not None

    rep = uniform_bound_report(Family(g, (0b1, 0b11)), 2)
    assert not rep.is_uniform and rep.bound is None and not rep.violates

    # Only the empty set has size 0, so (k-1)n/0 bounds nothing.
    rep = uniform_bound_report(Family(g, (0,)), 3)
    assert rep.is_uniform and rep.level == 0 and rep.bound is None
    assert rep.size == 1 and not rep.violates
