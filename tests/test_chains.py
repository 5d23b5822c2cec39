import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossfree.chains import (
    Chain,
    ChainCollection,
    NotCrossFreeError,
    Ordering,
    check_conditions,
    extract_disjoint_chains,
    parse_chain_collection,
    parse_ordering,
    select_conditioned_chains,
    serialize_chain_collection,
    serialize_ordering,
    successor_graph,
    weak_reduce,
)
from crossfree.constructions import gen_laminar_max, gen_random_cross_free
from crossfree.crossing import find_pairwise_crossing_witness
from crossfree.families import Family, GroundSet, mask_of


def test_weak_reduce_all_subsets_n3():
    fam = Family(GroundSet(3), tuple(range(8)))
    reduced = weak_reduce(fam, 2)
    assert len(reduced) == 4
    assert find_pairwise_crossing_witness(reduced, 2, "weak") is None


def test_weak_reduce_singleton_and_trivial_pair():
    g = GroundSet(3)
    fam = Family(g, (0b11,))
    assert weak_reduce(fam, 2).sets == fam.sets
    fam = Family(g, (0, 0b111))
    assert len(weak_reduce(fam, 2)) == 1


def test_weak_reduce_rejects_non_cross_free_input():
    g = GroundSet(4)
    fam = Family(g, (mask_of([0, 1]), mask_of([1, 2])))
    with pytest.raises(NotCrossFreeError) as info:
        weak_reduce(fam, 2)
    assert len(info.value.witness.sets) == 2


def test_weak_reduce_half_size_guarantee():
    rng = random.Random(21)
    for _ in range(60):
        n = rng.randrange(3, 7)
        k = rng.choice([2, 3, 4])
        fam = gen_random_cross_free(n, k, "strict", rng.randrange(10**6))
        reduced = weak_reduce(fam, k)
        assert 2 * len(reduced) >= len(fam)
        assert find_pairwise_crossing_witness(reduced, k, "weak") is None


def test_successor_graph_examples():
    g = GroundSet(2)
    graph = successor_graph(Family(g, (0, 0b1, 0b11)))
    assert graph.out_edges == ((1,), (2,), ())
    assert graph.exceptional == (False, False, False)

    graph = successor_graph(Family(g, (0, 0b1, 0b10)))
    assert graph.out_edges == ((1, 2), (), ())
    assert graph.exceptional == (True, False, False)
    assert graph.in_degrees == (0, 1, 1)
    assert graph.edge_count == 2


def test_successor_graph_matches_pair_scan():
    fam = gen_laminar_max(4)
    graph = successor_graph(fam)
    expected = set()
    for i, a in enumerate(fam.sets):
        for j, b in enumerate(fam.sets):
            if a != b and a & ~b == 0 and b.bit_count() == a.bit_count() + 1:
                expected.add((i, j))
    got = {(i, j) for i, outs in enumerate(graph.out_edges) for j in outs}
    assert got == expected


def test_successor_graph_degree_bounds_on_cross_free_families():
    rng = random.Random(4)
    for _ in range(30):
        n = rng.randrange(3, 7)
        k = rng.choice([2, 3])
        fam = gen_random_cross_free(n, k, "weak", rng.randrange(10**6))
        graph = successor_graph(fam)
        for i, m in enumerate(fam.sets):
            if m:
                assert graph.out_degrees[i] <= 2 * (k - 1)
            if m.bit_count() >= 3:
                assert graph.in_degrees[i] <= k - 1


def test_chain_accessors():
    chain = Chain(mask_of([3, 4]), (0, 1))
    assert chain.h == 2
    assert chain.members == (mask_of([3, 4]), mask_of([0, 3, 4]), mask_of([0, 1, 3, 4]))
    assert chain.top == mask_of([0, 1, 3, 4])
    assert chain.member_below(0) == mask_of([3, 4])
    assert chain.member_below(1) == mask_of([0, 3, 4])
    assert chain.size_range() == (2, 4)
    with pytest.raises(KeyError):
        chain.member_below(5)


@st.composite
def chain_specs(draw):
    n = draw(st.integers(min_value=1, max_value=64))
    base = draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    rest = [e for e in range(n) if not base >> e & 1]
    added = draw(st.permutations(rest))[: draw(st.integers(min_value=0, max_value=len(rest)))]
    return n, base, tuple(added)


@given(chain_specs())
def test_chain_matches_plain_scan(case):
    n, base, added = case
    chain = Chain(base, added)
    members = tuple(base | mask_of(added[:i]) for i in range(len(added) + 1))
    assert chain.members == members
    assert chain.support_mask == mask_of(added)
    assert chain.top == base | mask_of(added)
    for x in range(n):
        if x in added:
            below = max((m for m in members if not m >> x & 1), key=int.bit_count)
            assert chain.member_below(x) == below
        else:
            with pytest.raises(KeyError):
                chain.member_below(x)
    if added:
        with pytest.raises(ValueError, match="already present"):
            Chain(base, added + added[-1:])
    if base:
        with pytest.raises(ValueError, match="already present"):
            Chain(base, added + (base.bit_length() - 1,))


def test_chain_collection_rejects_shared_members():
    g = GroundSet(4)
    with pytest.raises(ValueError, match="share"):
        ChainCollection(g, (Chain(0b1, (1,)), Chain(0b1, (2,))))


def test_extract_example():
    g = GroundSet(4)
    fam = Family(g, (0, 0b1, 0b11, 0b100, 0b1100))
    cc = extract_disjoint_chains(fam, 1)
    assert [(c.base, c.added) for c in cc.chains] == [(0, (0,)), (0b100, (3,))]


def test_extract_long_chain():
    g = GroundSet(6)
    masks = [mask_of(range(i)) for i in range(7)]
    cc = extract_disjoint_chains(Family(g, tuple(masks)), 2)
    assert len(cc) == 2
    assert all(c.h == 2 for c in cc.chains)


def test_extract_no_edges():
    fam = Family(GroundSet(4), (0b1, 0b110))
    assert len(extract_disjoint_chains(fam, 1)) == 0


def test_extract_residual_has_no_path():
    rng = random.Random(14)
    for _ in range(20):
        n = rng.randrange(3, 7)
        fam = gen_random_cross_free(n, 3, "strict", rng.randrange(10**6))
        h = rng.choice([1, 2])
        cc = extract_disjoint_chains(fam, h)
        used = {m for c in cc.chains for m in c.members}
        residual = Family(fam.ground, tuple(m for m in fam.sets if m not in used))
        assert len(extract_disjoint_chains(residual, h)) == 0


def recursive_extract(fam, h):
    """The depth-first search without memo: slow, exponential oracle."""
    out = successor_graph(fam).out_edges
    used = [False] * len(fam)
    paths = []

    def extend(path):
        if len(path) == h + 1:
            return True
        for j in out[path[-1]]:
            if not used[j] and j not in path:
                path.append(j)
                if extend(path):
                    return True
                path.pop()
        return False

    while True:
        for s in range(len(fam)):
            path = [s]
            if not used[s] and extend(path):
                break
        else:
            return paths
        for i in path:
            used[i] = True
        paths.append(tuple(fam.sets[i] for i in path))


@st.composite
def families_and_h(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    # one bit per subset of the ground set, so dense families are common
    keep = draw(st.integers(min_value=0, max_value=(1 << (1 << n)) - 1))
    masks = tuple(m for m in range(1 << n) if keep >> m & 1)
    return Family(GroundSet(n), masks), draw(st.integers(min_value=1, max_value=n + 1))


@settings(max_examples=300, deadline=None)
@given(families_and_h())
def test_extract_matches_recursive_search(case):
    fam, h = case
    cc = extract_disjoint_chains(fam, h)
    assert [c.members for c in cc.chains] == recursive_extract(fam, h)


def test_extract_full_power_set_n12():
    fam = Family(GroundSet(12), tuple(range(1 << 12)))
    cc = extract_disjoint_chains(fam, 12)
    assert len(cc) == 1
    assert (cc.chains[0].base, cc.chains[0].top) == (0, (1 << 12) - 1)


def test_ordering():
    o = Ordering((2, 0, 1))
    assert o.position(2) == 0
    assert o.before(2, 1) and not o.before(1, 0)
    assert Ordering.natural(3).perm == (0, 1, 2)
    with pytest.raises(ValueError):
        Ordering((0, 0, 1))


def test_select_disjoint_supports_keeps_everything():
    # Disjoint supports, h=1, huge bases: no stage can filter.
    g = GroundSet(22)
    chains = tuple(Chain(mask_of(range(4 + 6 * i, 10 + 6 * i)), (i,)) for i in range(3))
    cc = ChainCollection(g, chains)
    for seed in range(5):
        selected, ordering, trace = select_conditioned_chains(cc, 2, 3, seed)
        assert selected == (0, 1, 2)
        assert check_conditions(cc, selected, ordering, 2, 3).all_pass


def test_select_incomparable_below_forces_exclusion():
    g = GroundSet(6)
    chains = (Chain(mask_of([1, 2]), (0,)), Chain(mask_of([3, 4]), (0,)))
    cc = ChainCollection(g, chains)
    for seed in range(10):
        selected, _o, _t = select_conditioned_chains(cc, 2, 0, seed)
        assert len([i for i in selected if i in (0, 1)]) <= 1


def test_check_conditions_empty_selection_vacuous():
    g = GroundSet(4)
    cc = ChainCollection(g, (Chain(0b1, (1,)),))
    rep = check_conditions(cc, (), Ordering.natural(4), 3)
    assert rep.all_pass


def test_check_conditions_c3_violation():
    g = GroundSet(8)
    # shared support element, comparable members below, interleaved sizes
    chains = (Chain(mask_of([1, 2]), (0,)), Chain(mask_of([1, 2, 3]), (0,)))
    cc = ChainCollection(g, chains)
    rep = check_conditions(cc, (0, 1), Ordering.natural(8), 2, 0)
    assert rep.c1.passed and not rep.c3.passed


def test_check_conditions_c2_c4_violations():
    g = GroundSet(8)
    cc = ChainCollection(g, (Chain(mask_of([4, 5]), (1, 0)),))
    rep = check_conditions(cc, (0,), Ordering.natural(8), 2, 1)
    assert not rep.c2.passed
    assert not rep.c4.passed  # base size 2 < 1*2*2
    assert rep.as_dict()["C2"]["passed"] is False


def test_selection_trace_shrinks():
    fam = gen_random_cross_free(6, 3, "strict", 8)
    cc = extract_disjoint_chains(fam, 1)
    selected, ordering, trace = select_conditioned_chains(cc, 3, 0, 13)
    i0, i1, i2, i3, i = (set(trace.stage_sets[s]) for s in ("I0", "I1", "I2", "I3", "I"))
    assert i <= i3 <= i2 <= i1 <= i0
    assert check_conditions(cc, selected, ordering, 3, 0).all_pass


def test_chain_file_roundtrip():
    g = GroundSet(9)
    cc = ChainCollection(g, (Chain(mask_of([3, 4]), (0, 1)), Chain(mask_of([5]), (7, 8))))
    text = serialize_chain_collection(cc)
    again = parse_chain_collection(text)
    assert [(c.base, c.added) for c in again.chains] == [(c.base, c.added) for c in cc.chains]
    assert serialize_chain_collection(again) == text


def test_ordering_file_roundtrip():
    o = Ordering((2, 0, 1))
    assert parse_ordering(serialize_ordering(o), 3).perm == o.perm
    with pytest.raises(Exception):
        parse_ordering("0 1", 3)
