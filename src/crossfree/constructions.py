"""Generators for extremal and structured fixture families.

The random generator uses Python's ``random.Random`` (Mersenne Twister)
seeded with the caller's 64-bit seed; identical seeds give identical
families on every platform.
"""

from __future__ import annotations

import random

from . import kernel
from .crossing import find_pairwise_crossing_witness
from .families import Family, GroundSet, add_to_tables, crossing_row, elements_of, mask_of, region_tables

# Largest n for gen_random_cross_free, which lists all 2^n subsets.
MAX_RANDOM_GROUND = 20


def gen_laminar_max(n: int) -> Family:
    """A laminar family of size exactly 2n.

    The empty set, all singletons, and the internal nodes of a balanced
    binary partition tree of 0..n-1 (left part gets the ceiling half); the
    root is the full ground set.
    """
    ground = GroundSet(n)
    masks = {0}
    for e in range(n):
        masks.add(1 << e)

    def split(lo: int, hi: int):
        if hi - lo < 2:
            return
        masks.add(mask_of(range(lo, hi)))
        mid = lo + (hi - lo + 1) // 2
        split(lo, mid)
        split(mid, hi)

    split(0, n)
    fam = Family(ground, tuple(masks))
    if len(fam) != 2 * n:
        raise AssertionError
    return fam


def gen_cyclic_intervals(n: int, include_trivial: bool) -> Family:
    """All n(n-1) nonempty proper cyclic intervals; trivial sets optional."""
    ground = GroundSet(n)
    masks = []
    for start in range(n):
        for length in range(1, n):
            masks.append(mask_of((start + off) % n for off in range(length)))
    if include_trivial:
        masks.extend([0, ground.full_mask])
    return Family(ground, tuple(masks))


def gen_random_cross_free(n: int, k: int, mode: str, seed: int) -> Family:
    """Randomized greedy maximal k-cross-free family, deterministic per seed.

    Iterates the 2^n subsets in a seed-shuffled order and keeps a subset
    whenever it does not complete k pairwise-crossing members; each
    candidate's crossing neighbours among the kept sets are one row of their
    region tables, which each kept set extends in place. The output is
    re-verified witness-free before returning; that re-check still runs on
    the same clique kernel, with no independent certificate. n is capped at
    MAX_RANDOM_GROUND, checked before the 2^n candidates are listed.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    ground = GroundSet(n)
    if n > MAX_RANDOM_GROUND:
        raise ValueError(
            f"random generation scans all 2^n subsets; n must be <= {MAX_RANDOM_GROUND}, got {n}"
        )
    order = list(range(1 << n))
    random.Random(seed).shuffle(order)
    kept: list[int] = []
    tables = region_tables([0] * n)  # of kept, by insertion index
    adj: list[int] = []  # crossing adjacency among kept, by insertion index
    for cand in order:
        nb = crossing_row(cand, tables, mode)
        # A new k-witness must include cand, i.e. a (k-1)-clique among its
        # crossing neighbors.
        if kernel.find_k_clique_in(adj, nb, k - 1) is None:
            idx = len(kept)
            for u in elements_of(nb):
                adj[u] |= 1 << idx
            adj.append(nb)
            kept.append(cand)
            add_to_tables(tables, cand, idx, ground.full_mask)
    fam = Family(ground, tuple(kept))
    if find_pairwise_crossing_witness(fam, k, mode) is not None:
        raise AssertionError
    return fam
