import random

import pytest

from crossfree import crossing
from crossfree.chains import weak_reduce
from crossfree.cli import main
from crossfree.constructions import gen_cyclic_intervals, gen_laminar_max, gen_random_cross_free
from crossfree.families import Family, GroundSet, elements_of, serialize_family
from crossfree.search import _universe_family, max_cross_free
from crossfree.symmetry import generators, set_orbits


def relabel(fam, seed):
    n = fam.ground.n
    perm = random.Random(seed).sample(range(n), n)
    return Family(fam.ground, tuple(sum(1 << perm[e] for e in elements_of(m)) for m in fam.sets))


def all_subsets(n):
    return Family(GroundSet(n), tuple(range(1 << n)))


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
    "intervals24-relabelled": relabel(gen_cyclic_intervals(24, False), 101),
    "intervals9-trivial": relabel(gen_cyclic_intervals(9, True), 5),
    "all5": all_subsets(5),
    "laminar8": gen_laminar_max(8),
    "laminar7-relabelled": relabel(gen_laminar_max(7), 3),
    "random12": gen_random_cross_free(12, 5, "strict", 3),
    "random8-weak": gen_random_cross_free(8, 3, "weak", 1),
    "triangles-and-hexagon": TRIANGLES_AND_HEXAGON,
}


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
        fam = relabel(fam, seed)
    assert len(set(set_orbits(fam))) == 23


@pytest.mark.parametrize("n", range(1, 8))
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
