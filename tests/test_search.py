import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossfree import crossing, kernel, symmetry
from crossfree.constructions import gen_cyclic_intervals
from crossfree.crossing import find_pairwise_crossing_witness
from crossfree.families import Family, GroundSet, elements_of
from crossfree.search import (
    SearchInfeasibleError,
    _formula_for,
    bound_table,
    format_table_csv,
    format_table_text,
    max_cross_free,
)
from oracles import all_subsets, lex_least_optimum


def test_n3_strict_everything_fits():
    result = max_cross_free(all_subsets(3), 2, "strict")
    assert result.size == 8


def test_n4_strict_k2_value():
    result = max_cross_free(all_subsets(4), 2, "strict")
    assert result.size == 12
    assert result.size <= 4 * 4 - 2


def test_intervals_k2_matches_formula():
    for n, want in ((4, 10), (5, 14), (6, 18)):
        fam = gen_cyclic_intervals(n, False)
        assert max_cross_free(fam, 2, "strict").size == want == 4 * n - 6


def assert_matches_oracle(fam, k, mode):
    """``max_cross_free`` returns the oracle's lex-least optimum and its size.

    The oracle's family is k-cross-free by construction, so equality also
    proves the answer sound, with no crossing graph or clique kernel.
    """
    result = max_cross_free(fam, k, mode)
    best = lex_least_optimum(fam, k, mode)
    assert (result.best.sets, result.size) == (best, len(best))


def seeded_universes(seed, count, n_lo, n_hi, max_sets):
    """``count`` random (family, k, mode) cases from ``random.Random(seed)``."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randrange(n_lo, n_hi)
        fam = Family(
            GroundSet(n), tuple(rng.randrange(1 << n) for _ in range(rng.randrange(1, max_sets)))
        )
        mode = rng.choice(["strict", "weak"])
        yield fam, rng.choice([2, 3]), mode


def test_soundness_best_is_witness_free():
    """Matching the oracle's k-cross-free family proves the answer witness-free."""
    for case in seeded_universes(2, 20, 2, 5, 13):
        assert_matches_oracle(*case)


def test_exactness_against_brute_force():
    for case in seeded_universes(6, 25, 3, 6, 14):
        assert_matches_oracle(*case)


def test_lexicographically_least_optimum():
    result = max_cross_free(all_subsets(4), 2, "strict")
    rerun = max_cross_free(all_subsets(4), 2, "strict")
    assert result.best.sets == rerun.best.sets
    # any other optimum of the same size must not be lexicographically smaller:
    # spot-check by verifying the non-2-element sets are all present (they are
    # pairwise non-crossing and lex-precede most 2-sets in canonical order).
    non_pairs = [m for m in all_subsets(4).sets if m.bit_count() != 2]
    assert all(m in result.best.sets for m in non_pairs)


@st.composite
def small_universes(draw):
    """A family of at most 18 sets over n <= 7, a k of 2-5 and a mode."""
    n = draw(st.integers(min_value=1, max_value=7))
    masks = draw(st.lists(st.integers(min_value=0, max_value=(1 << n) - 1), max_size=18))
    k = draw(st.sampled_from((2, 3, 4, 5)))
    mode = draw(st.sampled_from(["strict", "weak"]))
    return Family(GroundSet(n), tuple(masks)), k, mode


@settings(deadline=None, max_examples=300)
@given(small_universes())
def test_best_is_lexicographically_least_optimum(case):
    assert_matches_oracle(*case)


def test_search_matches_reference_search():
    """The search matches the reference, ``lex_least_optimum``, on a dense universe.

    The 2-subsets of {0..4} cross when they meet, so at k=4 the doll pass's
    clique checks must find stars of four pairs; random draws seldom make a
    universe this dense.
    """
    pairs = Family(GroundSet(5), tuple(m for m in range(32) if m.bit_count() == 2))
    for k in (2, 3, 4, 5):
        for mode in ("strict", "weak"):
            assert_matches_oracle(pairs, k, mode)


@st.composite
def symmetric_universes(draw, max_n=6, max_sets=16):
    """A union of orbits of a ground-set permutation group, a k of 2-4 and a mode.

    The group is generated by an n-cycle (cyclic), an n-cycle and a
    reflection (dihedral), an n-cycle and a transposition (symmetric) or a
    transposition alone, all along a random ordering of the ground set.
    Each seed set adds its whole orbit, unless that would exceed max_sets.
    """
    n = draw(st.integers(min_value=2, max_value=max_n))
    order = draw(st.permutations(range(n)))
    cycle = {order[i]: order[(i + 1) % n] for i in range(n)}
    reflect = {order[i]: order[-1 - i] for i in range(n)}
    swap = {e: e for e in range(n)} | {order[0]: order[1], order[1]: order[0]}
    gens = draw(st.sampled_from(([cycle], [cycle, reflect], [cycle, swap], [swap])))
    sets = set()
    for seed in draw(st.lists(st.integers(min_value=0, max_value=(1 << n) - 1), max_size=max_sets)):
        orbit, todo = {seed}, [seed]
        while todo:
            m = todo.pop()
            for g in gens:
                image = sum(1 << g[e] for e in elements_of(m))
                if image not in orbit:
                    orbit.add(image)
                    todo.append(image)
        if len(sets | orbit) <= max_sets:
            sets |= orbit
    k = draw(st.sampled_from((2, 3, 4)))
    return Family(GroundSet(n), tuple(sets)), k, draw(st.sampled_from(["strict", "weak"]))


@settings(deadline=None, max_examples=300)
@given(symmetric_universes())
def test_symmetric_universes_match_oracles(case):
    assert_matches_oracle(*case)


TABLE_CASES = [
    ("intervals", 2, "strict", 786),
    ("intervals", 3, "strict", 1106),
    ("intervals", 4, "strict", 1172),
    ("all", 2, "strict", 147),
    ("all", 3, "strict", 328),
    ("all", 4, "strict", 492),
    ("all", 3, "weak", 529),
    ("all", 4, "weak", 2993),
]


def test_table_cases_node_counts(monkeypatch):
    """The eight ``table`` cases (intervals n=8, all subsets n=5) keep their
    doll and lex nodes, never fetch the group and ask the kernel only k >= 2."""

    def no_group(fam):
        raise AssertionError("search fetched the symmetry group")

    monkeypatch.setattr(symmetry, "set_orbits", no_group)
    monkeypatch.setattr(crossing, "set_orbits", no_group)
    nodes = []
    with mock.patch.object(kernel, "find_k_clique_in", side_effect=kernel.find_k_clique_in) as calls:
        for universe, k, mode, want in TABLE_CASES:
            fam = gen_cyclic_intervals(8, False) if universe == "intervals" else all_subsets(5)
            nodes.append(max_cross_free(fam, k, mode).nodes_explored)
    assert nodes == [want for *_, want in TABLE_CASES]
    assert sum(nodes) == 7553
    assert calls.call_count == 10015
    assert min(call.args[2] for call in calls.call_args_list) >= 2


@pytest.mark.parametrize("n, want", [(9, 52), (10, 60)])
def test_interval_bound_is_tight_beyond_table_caps(n, want):
    """Strict intervals at k=3 meet the interval bound past ``table``'s n <= 8."""
    result = max_cross_free(gen_cyclic_intervals(n, False), 3, "strict")
    assert result.size == _formula_for("intervals", "strict", 3, n)[0] == want
    assert find_pairwise_crossing_witness(result.best, 3, "strict") is None


def test_monotone_in_k():
    fam = gen_cyclic_intervals(5, False)
    sizes = [max_cross_free(fam, k, "strict").size for k in (2, 3, 4)]
    assert sizes == sorted(sizes)


def test_universe_cap():
    with pytest.raises(SearchInfeasibleError):
        max_cross_free(all_subsets(13), 2, "strict")
    with pytest.raises(ValueError):
        max_cross_free(all_subsets(3), 1, "strict")


def test_bound_table_weak_k2():
    rows = bound_table([3, 4, 5], [2], ["all"], "weak")
    assert [(r.n, r.exact, r.formula, r.tight) for r in rows] == [
        (3, 6, 6, "yes"),
        (4, 8, 8, "yes"),
        (5, 10, 10, "yes"),
    ]


def test_bound_table_small_n_regime_is_na():
    rows = bound_table([4], [3], ["all"], "strict")
    (row,) = rows
    assert row.exact == 14
    assert row.formula == 12  # 8n-20 at n=4
    assert row.tight == "N/A"  # exact exceeds the small-n formula


def test_bound_table_interval_row():
    rows = bound_table([4], [2], ["intervals"], "strict")
    (row,) = rows
    assert row.exact == row.formula == 10 and row.tight == "yes"


def test_bound_table_feasibility_guards():
    with pytest.raises(SearchInfeasibleError):
        bound_table([6], [2], ["all"], "weak")
    with pytest.raises(SearchInfeasibleError):
        bound_table([9], [2], ["intervals"], "strict")
    with pytest.raises(ValueError):
        bound_table([4], [2], ["nope"], "strict")


def test_table_renderers():
    rows = bound_table([3, 4], [2], ["all"], "weak")
    text = format_table_text(rows)
    assert text.splitlines()[0].startswith("n  k")
    csv_text = format_table_csv(rows)
    lines = csv_text.splitlines()
    assert lines[0] == "n,k,universe,mode,exact,formula,formula_name,tight"
    assert lines[1] == "3,2,all,weak,6,6,laminar 2n,yes"
