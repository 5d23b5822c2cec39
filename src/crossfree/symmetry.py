"""Automorphisms of a set family, as set orbits for orbital fixing.

A permutation of the ground set that maps a family's sets onto themselves
maps crossing pairs to crossing pairs in both modes. ``set_orbits`` finds
such automorphisms by individualisation and refinement (McKay & Piperno,
"Practical graph isomorphism, II", J. Symbolic Comput. 60, 2014) on the
pair-count weights: per size class of sets, w[e][f] ranks the counts of
sets holding both e and f, and w[e][e] those holding e. Every automorphism
preserves w, and a refinement round on it is O(n^2) small-int work.

- If the w[e][e] are distinct, only the identity is an automorphism;
- ``_refine`` splits the element colours until the colouring is equitable;
- the first path individualises the first element of the first
  non-singleton cell and refines, until the colouring is discrete;
- from the deepest level up, each other element y of that level's cell that
  the generators found so far do not reach is individualised in its place.
  Unless the refined cell sizes then differ from the first path's (so no
  automorphism maps the path's element to y), first elements lead on to a
  second discrete colouring, and matching equal colours gives a permutation,
  kept only if it maps the family onto itself.

If every permutation passes, the generators give the whole group: at each
level they reach every element of the cell that an automorphism fixing the
earlier levels' elements reaches. A failure may hide a generator, since w
sees nothing beyond pairs (as in a projective plane), so the search then
restarts on the element-set incidence structure. That one may miss a
generator, which only makes the orbits finer: every kept one is checked.
"""

from __future__ import annotations

from functools import partial
from itertools import groupby
from operator import add

from .families import Family, membership_masks


def _ranks(keys) -> list[int]:
    """Each key's rank among the distinct keys, so ranks depend on the keys alone."""
    rank = {t: r for r, t in enumerate(sorted(set(keys)))}
    return [rank[t] for t in keys]


def _weights(sets, n: int):
    """The weight rows w[e], or None if the diagonal tells all elements apart.
    Canonical order makes each size class one run of sets."""
    mems = [membership_masks(list(run), n) for _, run in groupby(sets, int.bit_count)]
    if len({tuple(m[e].bit_count() for m in mems) for e in range(n)}) == n:
        return None
    pairs = [(e, f) for e in range(n) for f in range(e, n)]
    ranks = _ranks([tuple((m[e] & m[f]).bit_count() for m in mems) for e, f in pairs])
    w = [[0] * n for _ in range(n)]
    for (e, f), r in zip(pairs, ranks):
        w[e][f] = w[f][e] = r
    return w


def _refine(signatures, colour: list[int]) -> list[int]:
    """Coarsest equitable refinement of a dense element colouring: recolour
    by the ranks of signatures(colour), each led by the old colour so that
    cells keep their order, until no cell splits."""
    cells = len(set(colour))
    while cells < len(colour):
        colour = _ranks(signatures(colour))
        if len(set(colour)) == cells:
            break
        cells = len(set(colour))
    return colour


def _pair_signatures(w, colour: list[int]):
    """e's colour, w[e][e] and the multiset of (colour, weight) over its
    row, each pair packed in one int (every weight is a rank below n^2)."""
    scaled = [c * len(w) ** 2 for c in colour]
    return [(c, row[e], tuple(sorted(map(add, scaled, row)))) for e, (c, row) in enumerate(zip(colour, w))]


def _incidence_signatures(sets, mem, colour: list[int]):
    """e's colour and its count of sets per set colour, where a set's colour
    is its count of elements per element colour."""
    emask = [0] * (max(colour) + 1)
    for e, c in enumerate(colour):
        emask[c] |= 1 << e
    sig = _ranks([tuple((s & m).bit_count() for m in emask) for s in sets])
    smask = [0] * (max(sig) + 1)
    for i, r in enumerate(sig):
        smask[r] |= 1 << i
    return [(c, *((m & t).bit_count() for t in smask)) for c, m in zip(colour, mem)]


def _individualise(colour: list[int], x: int) -> list[int]:
    """x alone keeps its rank; the rest of its cell and every later cell move up one."""
    cx = colour[x]
    return [c + (c > cx or (c == cx and e != x)) for e, c in enumerate(colour)]


def _descend(signatures, colour: list[int], path=None) -> list[int]:
    """Individualise the first element of the first non-singleton cell and
    refine, until the colouring is discrete; record (colouring, cell) per
    level in path when one is given."""
    while True:
        ordered = sorted(colour)
        target = next((a for a, b in zip(ordered, ordered[1:]) if a == b), None)
        if target is None:
            return colour
        cell = [e for e, c in enumerate(colour) if c == target]
        if path is not None:
            path.append((colour, cell))
        colour = _refine(signatures, _individualise(colour, cell[0]))


def _images(sets, index, perm) -> list[int] | None:
    """The index of each set's image under perm, or None if one is no
    member; tables[b][v] is the image of the byte v at bit 8b."""
    tables = []
    for base in range(0, len(perm), 8):
        table = [0] * (1 << len(perm[base : base + 8]))
        for v in range(1, len(table)):
            low = v & -v
            table[v] = table[v ^ low] | 1 << perm[base + low.bit_length() - 1]
        tables.append(table)
    images = []
    for s in sets:
        image = 0
        for table in tables:
            image |= table[s & 255]
            s >>= 8
        i = index.get(image)
        if i is None:
            return None
        images.append(i)
    return images


def _orbit_masks(size: int, pairs) -> list[int]:
    """orbit[v]: mask of v's class in the equivalence on 0..size-1 that pairs generate."""
    root = list(range(size))

    def find(v):
        while root[v] != v:
            root[v] = v = root[root[v]]
        return v

    for a, b in pairs:
        root[find(a)] = find(b)
    masks = [0] * size
    for v in range(size):
        masks[find(v)] |= 1 << v
    return [masks[find(v)] for v in range(size)]


def _search(sets, n: int, signatures, exact: bool):
    """(perm, images) per generator found: perm[e] on the ground set, and
    images[i], the index of set i's image, from perm's check. When exact,
    None at the first permutation that fails its check."""
    index = {s: i for i, s in enumerate(sets)}
    path = []
    first = _descend(signatures, _refine(signatures, [0] * n), path)
    shapes = [sorted(colour) for colour, _ in path[1:]] + [sorted(first)]
    found = []
    orbit = [1 << e for e in range(n)]
    for level in reversed(range(len(path))):
        colour, cell = path[level]
        for y in cell[1:]:
            if orbit[cell[0]] >> y & 1:
                continue
            below = _refine(signatures, _individualise(colour, y))
            if sorted(below) != shapes[level]:
                continue
            at = sorted(range(n), key=_descend(signatures, below).__getitem__)
            perm = [at[c] for c in first]
            images = _images(sets, index, perm)
            if images is not None:
                found.append((perm, images))
                orbit = _orbit_masks(n, ((e, p[e]) for p, _ in found for e in range(n)))
            elif exact:
                return None
    return found


def _generators(fam: Family):
    """_search on the weights, then on the incidence structure if a check failed."""
    sets, n = fam.sets, fam.ground.n
    w = _weights(sets, n)
    if w is None:
        return []
    found = _search(sets, n, partial(_pair_signatures, w), True)
    if found is None:
        found = _search(sets, n, partial(_incidence_signatures, sets, membership_masks(sets, n)), False)
    return found


def generators(fam: Family) -> list[list[int]]:
    """Ground-set permutations, as perm[e], each checked to map fam.sets onto itself."""
    return [perm for perm, _ in _generators(fam)]


def set_orbits(fam: Family) -> list[int]:
    """orbits[i]: index mask of the members that the found generators map set i to."""
    return _orbit_masks(len(fam.sets), (pair for _, images in _generators(fam) for pair in enumerate(images)))
