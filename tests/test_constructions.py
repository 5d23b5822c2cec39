import hashlib
import random

import pytest

from crossfree.constructions import (
    gen_cyclic_intervals,
    gen_laminar_max,
    gen_random_cross_free,
)
from crossfree.crossing import find_pairwise_crossing_witness
from crossfree.families import (
    complement_closure,
    elements_of,
    family_predicates,
    mask_of,
    serialize_family,
)
from oracles import all_subsets, lex_least_optimum


def test_cyclic_interval_masks():
    # Every generated interval against a plain wrap-around oracle.
    for n in range(1, 13):
        for include_trivial in (False, True):
            expected = {
                sum(1 << e for e in {(start + off) % n for off in range(length)})
                for start in range(n)
                for length in range(1, n)
            }
            if include_trivial:
                expected |= {0, (1 << n) - 1}
            fam = gen_cyclic_intervals(n, include_trivial)
            assert fam.sets == tuple(sorted(expected, key=lambda m: (m.bit_count(), m)))
            assert len(fam) == n * (n - 1) + (2 if include_trivial else 0)


def test_laminar_examples():
    assert gen_laminar_max(1).sets == (0, 0b1)
    fam = gen_laminar_max(3)
    assert set(fam.sets) == {0, 0b1, 0b10, 0b100, 0b11, 0b111}


@pytest.mark.parametrize("n", range(1, 17))
def test_laminar_size_and_laminarity(n):
    fam = gen_laminar_max(n)
    assert len(fam) == 2 * n
    assert family_predicates(fam).is_laminar


def test_laminar_closure_is_2_cross_free():
    for n in range(3, 8):
        closure = complement_closure(gen_laminar_max(n))
        assert find_pairwise_crossing_witness(closure, 2, "strict") is None
        assert len(closure) >= 4 * n - 6


def test_interval_counts():
    assert len(gen_cyclic_intervals(4, False)) == 12
    assert len(gen_cyclic_intervals(4, True)) == 14
    fam = gen_cyclic_intervals(5, False)
    assert len(fam) == 20
    assert mask_of([4, 0]) in fam.sets


def test_intervals_rotation_invariant():
    for n in (4, 5, 7):
        fam = gen_cyclic_intervals(n, False)
        for r in range(1, n):
            rotated = {mask_of((e + r) % n for e in elements_of(m)) for m in fam.sets}
            assert rotated == set(fam.sets)


def test_random_cross_free_n3_all_subsets():
    for seed in (0, 1, 2):
        assert len(gen_random_cross_free(3, 2, "strict", seed)) == 8


def test_random_cross_free_verified_and_deterministic():
    rng = random.Random(9)
    for _ in range(25):
        n = rng.randrange(3, 7)
        k = rng.randrange(2, 5)
        mode = rng.choice(["strict", "weak"])
        seed = rng.randrange(10**6)
        fam = gen_random_cross_free(n, k, mode, seed)
        assert find_pairwise_crossing_witness(fam, k, mode) is None
        assert fam.sets == gen_random_cross_free(n, k, mode, seed).sets


def test_random_cross_free_is_maximal():
    # Greedy keeps every subset that stays witness-free, so adding any
    # missing subset must create a k-witness.
    fam = gen_random_cross_free(4, 2, "strict", 42)
    from crossfree.families import Family

    for extra in range(16):
        if extra in fam.sets:
            continue
        bigger = Family(fam.ground, fam.sets + (extra,))
        assert find_pairwise_crossing_witness(bigger, 2, "strict") is not None


def test_random_cross_free_not_above_exact_maximum():
    cap = len(lex_least_optimum(all_subsets(4), 2, "strict"))
    for seed in range(5):
        assert len(gen_random_cross_free(4, 2, "strict", seed)) <= cap


# n, k, mode, size and a sha256 prefix of the serialization, at seed 3.
PINNED_RANDOM = [
    (12, 2, "strict", 44, "c932861fa4dc94e1"),
    (12, 3, "strict", 68, "03fa0ba569498e0c"),
    (12, 3, "weak", 40, "bf37455b90ac812b"),
    (16, 3, "strict", 96, "47350b49415be919"),
    (16, 2, "weak", 32, "9e8db1a4ee8e7253"),
    (12, 4, "strict", 94, "94865edfc91fc38a"),
    (12, 5, "strict", 124, "a0d62d0db9258091"),
    (12, 6, "strict", 148, "6fe9b68b24ff6f73"),
]


@pytest.mark.parametrize(
    "n, k, mode, size, digest",
    PINNED_RANDOM,
    ids=[f"{k}-{size}-{digest}" for _, k, _, size, digest in PINNED_RANDOM],
)
def test_random_cross_free_n12_pinned(n, k, mode, size, digest):
    # Seed 3 at sizes the hypothesis comparison with the pairwise generator
    # does not reach: for k <= 3 the bitset scan over all 2^n subsets, for
    # k >= 4 a colored kernel search over each candidate's crossing
    # neighbours. The families are pinned by size and by a prefix of the
    # sha256 of their serialization.
    fam = gen_random_cross_free(n, k, mode, 3)
    assert len(fam) == size
    assert hashlib.sha256(serialize_family(fam).encode()).hexdigest()[:16] == digest
