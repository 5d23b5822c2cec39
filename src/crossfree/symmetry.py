"""Automorphisms of a set family, as set orbits for orbital fixing.

A permutation g of the ground set is an automorphism of a family when it
maps the family's sets onto themselves. It then maps crossing pairs to
crossing pairs in both modes, so it is an automorphism of the crossing
graph too. ``set_orbits`` finds such permutations by partition refinement
and individualisation on the element-set incidence structure (McKay &
Piperno, "Practical graph isomorphism, II", J. Symbolic Comput. 60, 2014):

- ``_refine`` splits the element colours until the colouring is equitable:
  the sets take the colour of their count of elements per element colour,
  and the elements that of their count of sets per set colour;
- the first path individualises the first element of the first
  non-singleton cell and refines, until every element has its own colour;
- from the deepest level up, each other element of that level's cell,
  unless the generators found so far already map the path's element to it,
  is individualised in its place, and the same rule leads on to a second
  discrete colouring. Matching equal colours gives a permutation, which is
  kept only if it maps the family onto itself.

The search is not complete: the second path follows first elements, not
every choice, so it may miss a generator. A missed generator only makes
the orbits finer, which costs a search speed but never an answer, since
every kept generator has been checked.
"""

from __future__ import annotations

from .families import Family, elements_of, membership_masks


def _refine(sets, mem, colour: list[int]) -> list[int]:
    """Coarsest equitable refinement of a dense element colouring.

    mem is the family's membership index. New ranks sort by old rank first,
    so refinement keeps the order of the cells, and ranks depend on the
    structure alone, never on element or set labels.
    """
    n = len(colour)
    cells = len(set(colour))
    while cells < n:
        emask = [0] * cells
        for e, c in enumerate(colour):
            emask[c] |= 1 << e
        sig = [tuple((s & m).bit_count() for m in emask) for s in sets]
        rank = {t: r for r, t in enumerate(sorted(set(sig)))}
        smask = [0] * len(rank)
        for i, t in enumerate(sig):
            smask[rank[t]] |= 1 << i
        esig = [(colour[e], *((mem[e] & m).bit_count() for m in smask)) for e in range(n)]
        rank = {t: r for r, t in enumerate(sorted(set(esig)))}
        colour = [rank[t] for t in esig]
        if len(rank) == cells:
            break
        cells = len(rank)
    return colour


def _individualise(colour: list[int], x: int) -> list[int]:
    """x alone keeps its rank; the rest of its cell and every later cell move up one."""
    cx = colour[x]
    return [c + (c > cx or (c == cx and e != x)) for e, c in enumerate(colour)]


def _descend(sets, mem, colour: list[int], path=None) -> list[int]:
    """Individualise the first element of the first non-singleton cell and
    refine, until the colouring is discrete; record (colouring, cell) per
    level in path when one is given."""
    while True:
        counts = [0] * len(colour)
        for c in colour:
            counts[c] += 1
        target = next((c for c, m in enumerate(counts) if m > 1), None)
        if target is None:
            return colour
        cell = [e for e, c in enumerate(colour) if c == target]
        if path is not None:
            path.append((colour, cell))
        colour = _refine(sets, mem, _individualise(colour, cell[0]))


def _image(s: int, perm) -> int:
    image = 0
    for e in elements_of(s):
        image |= 1 << perm[e]
    return image


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


def generators(fam: Family) -> list[list[int]]:
    """Ground-set permutations, as perm[e], each checked to map fam.sets onto itself."""
    sets, n = fam.sets, fam.ground.n
    mem = membership_masks(sets, n)
    members = set(sets)
    path = []
    first = _descend(sets, mem, _refine(sets, mem, [0] * n), path)
    gens = []
    orbit = [1 << e for e in range(n)]
    for colour, cell in reversed(path):
        x = cell[0]
        for y in cell[1:]:
            if orbit[x] >> y & 1:
                continue
            leaf = _descend(sets, mem, _refine(sets, mem, _individualise(colour, y)))
            at = [0] * n
            for e, c in enumerate(leaf):
                at[c] = e
            perm = [at[c] for c in first]
            if all(_image(s, perm) in members for s in sets):
                gens.append(perm)
                orbit = _orbit_masks(n, ((e, p[e]) for p in gens for e in range(n)))
    return gens


def set_orbits(fam: Family) -> list[int]:
    """orbits[i]: index mask of the members that the found generators map set i to."""
    index = {s: i for i, s in enumerate(fam.sets)}
    pairs = [(i, index[_image(s, perm)]) for perm in generators(fam) for i, s in enumerate(fam.sets)]
    return _orbit_masks(len(fam.sets), pairs)
