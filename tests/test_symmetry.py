import random
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossfree import crossing
from crossfree.chains import weak_reduce
from crossfree.cli import main
from crossfree.constructions import gen_cyclic_intervals, gen_laminar_max, gen_random_cross_free
from crossfree.families import Family, GroundSet, elements_of, serialize_family
from crossfree.search import _universe_family, max_cross_free
from crossfree.symmetry import generators, set_orbits
from oracles import all_subsets, relabel


def edges(n, pairs):
    return Family(GroundSet(n), tuple(1 << a | 1 << b for a, b in pairs))


# Two triangles and a hexagon: every element lies in two edges, so
# refinement alone cannot tell the parts apart, and some second leaves
# match elements by a permutation that is no automorphism.
TRIANGLES_AND_HEXAGON = edges(
    12, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)] + [(6 + i, 6 + (i + 1) % 6) for i in range(6)]
)


FAMILIES = {
    "intervals24": gen_cyclic_intervals(24, False),
    "intervals24-relabelled": relabel(gen_cyclic_intervals(24, False), random.Random(101)),
    "intervals9-trivial": relabel(gen_cyclic_intervals(9, True), random.Random(5)),
    "all5": all_subsets(5),
    "laminar8": gen_laminar_max(8),
    "laminar7-relabelled": relabel(gen_laminar_max(7), random.Random(3)),
    "random12": gen_random_cross_free(12, 5, "strict", 3),
    "random8-weak": gen_random_cross_free(8, 3, "weak", 1),
    "triangles-and-hexagon": TRIANGLES_AND_HEXAGON,
}


# The sorted orbit sizes of each family.
ORBIT_SIZES = {
    "intervals24": [24] * 23,
    "intervals24-relabelled": [24] * 23,
    "intervals9-trivial": [1] * 2 + [9] * 8,
    "all5": [1, 1, 5, 5, 10, 10],
    "laminar8": [1, 1, 2, 4, 8],
    "laminar7-relabelled": [1] * 6 + [2, 2, 4],
    "random12": [1] * 124,
    "random8-weak": [1] * 24,
    "triangles-and-hexagon": [6, 6],
}


def orbit_sizes(fam):
    return sorted(orbit.bit_count() for orbit in set(set_orbits(fam)))


@pytest.mark.parametrize("name", FAMILIES)
def test_orbit_sizes_are_pinned(name):
    assert orbit_sizes(FAMILIES[name]) == ORBIT_SIZES[name]


def test_intervals37_with_trivial_sets_have_38_orbits():
    assert orbit_sizes(relabel(gen_cyclic_intervals(37, True), random.Random(7))) == [1, 1] + [37] * 36


@pytest.mark.parametrize("name", FAMILIES)
def test_generators_map_the_family_onto_itself(name):
    fam = FAMILIES[name]
    n = fam.ground.n
    members = set(fam.sets)
    for perm in generators(fam):
        assert sorted(perm) == list(range(n))
        assert {sum(1 << perm[e] for e in elements_of(m)) for m in fam.sets} == members


@pytest.mark.parametrize("name", FAMILIES)
def test_orbits_partition_the_sets_by_size(name):
    fam = FAMILIES[name]
    orbits = set_orbits(fam)
    assert len(orbits) == len(fam)
    for v, orbit in enumerate(orbits):
        assert orbit >> v & 1
        members = elements_of(orbit)
        assert all(orbits[u] == orbit for u in members)
        assert len({fam.sets[u].bit_count() for u in members}) == 1
    covered = 0
    for orbit in set(orbits):
        assert not covered & orbit
        covered |= orbit
    assert covered == (1 << len(fam)) - 1


@pytest.mark.parametrize("seed", [None, 101])
def test_strict_intervals_n24_have_one_orbit_per_length(seed):
    fam = gen_cyclic_intervals(24, False)
    if seed is not None:
        fam = relabel(fam, random.Random(seed))
    assert len(set(set_orbits(fam))) == 23


@pytest.mark.parametrize("n", range(1, 11))
def test_all_subsets_have_one_orbit_per_size(n):
    assert len(set(set_orbits(all_subsets(n)))) == n + 1


def test_random_family_is_asymmetric():
    fam = gen_random_cross_free(12, 5, "strict", 3)
    assert generators(fam) == []
    assert set_orbits(fam) == [1 << v for v in range(len(fam))]


def test_triangles_and_hexagon_keep_their_parts_apart():
    orbits = set_orbits(TRIANGLES_AND_HEXAGON)
    sets = TRIANGLES_AND_HEXAGON.sets
    triangle = sum(1 << i for i, s in enumerate(sets) if s < 1 << 6)
    assert all(orbits[i] & triangle in (0, orbits[i]) for i in range(len(sets)))


def brute_orbits(fam):
    """orbits[i]: the sets that some permutation of the ground set mapping
    fam onto itself sends set i to. Those permutations form a group, so
    these are its orbits."""
    n, sets = fam.ground.n, fam.sets
    index = {s: i for i, s in enumerate(sets)}
    orbits = [0] * len(sets)
    for perm in permutations(range(n)):
        images = [index.get(sum(1 << perm[e] for e in elements_of(s))) for s in sets]
        if None not in images:
            for i, j in enumerate(images):
                orbits[i] |= 1 << j
    return orbits


@st.composite
def small_families(draw):
    """Random sets over n <= 6, closed half the time under the powers of a
    random permutation, so that many families have a nontrivial group."""
    n = 6 - draw(st.integers(0, 5))
    sets = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=20))
    if draw(st.booleans()):
        perm = random.Random(draw(st.integers(0, 2**32))).sample(range(n), n)
        for _ in range(n):
            sets = sorted(set(sets) | {sum(1 << perm[e] for e in elements_of(s)) for s in sets})
    return Family(GroundSet(n), tuple(sets))


def test_orbits_match_brute_force():
    seen = {"examples": 0, "symmetric": 0}

    @settings(deadline=None, max_examples=1000)
    @given(small_families())
    def check(fam):
        oracle = brute_orbits(fam)
        orbits = set_orbits(fam)
        assert all(orbit & ~oracle[v] == 0 for v, orbit in enumerate(orbits))
        assert orbits == oracle
        seen["examples"] += 1
        seen["symmetric"] += oracle != [1 << v for v in range(len(fam))]

    check()
    assert seen["symmetric"] >= seen["examples"] // 4


def affine_plane_3():
    # The 12 lines of the affine plane over Z_3; point (x, y) is element 3x + y.
    lines = {frozenset(((x + t * dx) % 3, (y + t * dy) % 3) for t in range(3))
             for x in range(3) for y in range(3) for dx, dy in ((0, 1), (1, 0), (1, 1), (1, 2))}
    return Family(GroundSet(9), tuple(sum(1 << 3 * x + y for x, y in line) for line in lines))


def projective_space_3_2():
    # The 35 lines {a, b, a ^ b} of PG(3, 2); point v is element v - 1.
    lines = {1 << a - 1 | 1 << b - 1 | 1 << (a ^ b) - 1 for a in range(1, 16) for b in range(a + 1, 16)}
    return Family(GroundSet(15), tuple(lines))


@pytest.mark.parametrize("design", [affine_plane_3, projective_space_3_2])
def test_lines_of_a_design_are_one_orbit(design):
    # Every pair of points lies on one line, so the pair counts cannot tell
    # points apart; the search must still find a group transitive on lines.
    fam = design()
    assert set(set_orbits(fam)) == {(1 << len(fam)) - 1}


# The exact searches of the search benchmark: (universe, n, k, mode).
TABLE_SEARCHES = [("intervals", 8, k, "strict") for k in (2, 3, 4)] + [
    ("all", 5, k, mode) for k, mode in ((2, "strict"), (3, "strict"), (4, "strict"), (3, "weak"), (4, "weak"))
]


def test_cheap_witness_searches_never_look_for_the_group(monkeypatch, tmp_path, capsys):
    # Searches that end quickly pay nothing for orbital fixing: the end of
    # each exact search, random generation and its reduction, and a large
    # check that finds a witness at once.
    searched = []

    def record(fam):
        searched.append(fam)
        return set_orbits(fam)

    monkeypatch.setattr(crossing, "set_orbits", record)
    for universe, n, k, mode in TABLE_SEARCHES:
        max_cross_free(_universe_family(universe, n), k, mode)
    for seed in range(5):
        weak_reduce(gen_random_cross_free(10, 3, "strict", seed), 3)
    path = tmp_path / "intervals37.txt"
    path.write_text(serialize_family(gen_cyclic_intervals(37, True)))
    assert main(["check", "--k", "3", str(path)]) == 1
    capsys.readouterr()
    assert searched == []
