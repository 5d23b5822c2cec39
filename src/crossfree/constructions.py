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
    whenever it does not complete k pairwise-crossing members. For k <= 3,
    ``_scan_bitsets`` decides each candidate with one bit test; for k >= 4,
    a kernel search over its crossing row in the kept sets' region tables,
    which each kept set extends in place. The kernel re-verifies the output
    before returning; for k <= 3 that re-check shares no code with the scan.
    n is capped at MAX_RANDOM_GROUND, checked before listing 2^n candidates.
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
    if k <= 3:
        kept = _scan_bitsets(order, n, k, mode)
    else:
        kept = []
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


def _scan_bitsets(order: list[int], n: int, k: int, mode: str) -> list[int]:
    """Kept sets of the greedy scan for k <= 3, one bit test per candidate.

    Bit S of a 2^n-bit mask stands for subset S; a kept set's row holds the
    subsets crossing it, built from has[e], the subsets containing e, and not
    from ``crossing_row``, which the re-check's crossing graph reads. A
    k-witness through a candidate needs a (k-1)-clique of its kept
    neighbours, so refuse is the union of the kept rows for k=2 and the
    subsets crossing both ends of a crossing kept pair for k=3.
    """
    if mode not in ("strict", "weak"):
        raise ValueError(f"unknown mode {mode!r}")
    nbytes = ((1 << n) + 7) // 8
    has: list[int] = []
    for j in range(n):  # from 2^j subsets to 2^(j+1), each period doubled
        w = 1 << j
        has = [m | m << w for m in has] + [((1 << w) - 1) << w]
    kept, rows, refuse = [], [], 0  # rows are kept for k=3 only
    bits = bytes(nbytes)  # refuse, copied at each keep for bit tests
    for cand in order:
        if bits[cand >> 3] >> (cand & 7) & 1:
            continue
        meet = leave = 0  # subsets that meet cand, that leave it
        within = cover = -1  # subsets holding cand, holding its complement
        for e, m in enumerate(has):
            if cand >> e & 1:
                meet, within = meet | m, within & m
            else:
                leave, cover = leave | m, cover & m
        row = meet & leave & ~within & (~cover if mode == "strict" else -1)
        if k == 2:
            refuse |= row
        else:
            own, near = row.to_bytes(nbytes, "little"), 0  # near: kept rows crossing cand
            for u, r in zip(kept, rows):
                if own[u >> 3] >> (u & 7) & 1:
                    near |= r
            refuse |= row & near
            rows.append(row)
        kept.append(cand)
        bits = refuse.to_bytes(nbytes, "little")
    return kept
