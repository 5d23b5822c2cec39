"""Clique search kernel over int-bitmask adjacency.

The graph is given as ``adj``: a sequence where ``adj[v]`` is the bitmask of
neighbors of v. The search is an include-first DFS over an explicit stack of
(clique, candidates, need) entries, so no recursion depth grows with k or
with the graph. Each step branches on the lowest candidate vertex, so the
first k-clique found is the lexicographically least one (as a sorted index
tuple). Pruning uses a greedy coloring bound, which only discards branches
that cannot contain a k-clique, so the lex-least contract survives. The
bound colors the whole candidate set once, at entry; the spine of roots
is never bounded again. Inside a root's subtree every node that still
needs more than two vertices colors its own candidates, starting with the
root's neighbors, a much smaller set than the live one. k=2 is a scan for
the lex-least edge, one AND per vertex and no stack; so is every node
that needs two more vertices.

``find_k_clique`` may also take the graph's orbits for orbital fixing
(Margot, "Exploiting orbits in symmetric ILP", Math. Program. 98, 2003);
see ``_search``.
"""

from __future__ import annotations

from .families import elements_of

IMPLEMENTATION = "python"


def _color_bound(adj, cand: int, need: int) -> int:
    """Number of greedy color classes covering cand, capped at need.

    Any clique inside cand has at most one vertex per independent color
    class, so the class count is an admissible upper bound on clique size.
    A class takes the lowest uncolored vertex, then repeatedly the lowest
    uncolored vertex not adjacent to any taken one. Each taken vertex
    leaves m, the uncolored set, at once.
    """
    classes = 0
    m = cand
    while m:
        classes += 1
        if classes >= need:
            return classes
        avail = m
        while avail:
            low = avail & -avail
            m ^= low
            avail &= ~(adj[low.bit_length() - 1] | low)
    return classes


# find_k_clique asks for orbits once the refuted roots' subtrees together
# have cost more than this much work per vertex of the graph. A node counts
# 1, plus its candidate count when it runs the color bound or the k=2 scan.
_FIX_AFTER = 16


def _search(adj, live: int, k: int, orbits=None):
    """The one search behind ``find_k_clique_in`` and ``find_k_clique``.

    k=2 skips the DFS and never asks for orbits. In ascending order, the
    first live v whose row meets the live vertices after it, with the
    lowest such neighbor, is the edge the DFS would return. v leaves the
    live set before its row is read, so a self-loop never counts.

    The color bound on the whole live set runs once, before the spine, so
    a graph with fewer than k colors ends at once. The outer loop is the
    exclude spine: it takes the live roots in index order and runs the
    include-first DFS in each root's subtree, where every node that needs
    more than two vertices bounds its candidates, from the root's own
    neighbors down; the spine itself is not bounded. A node that needs two
    vertices runs the k=2 scan on its candidates, all above its clique, for
    the edge its subtree would find first, and costs 1 + |cand|. A refuted
    root v lies in no k-clique, as every lower root has left the live set
    for lying in none. With orbits (passed only with every vertex live), an
    automorphism maps k-cliques to k-cliques, so v's whole orbit leaves
    the live roots; the clique found is still the lex-least one. Finding
    the orbits costs a group search, so orbits() is called at most once,
    when the work spent on refuted roots, summed over all of them, first
    exceeds ``_FIX_AFTER * len(adj)``, and the roots refuted up to then
    drop their orbits at once. Many cheap refutations thus add up to a
    fetch as one costly refutation does.

    Neither public function calls the other, so a wrapper installed on one
    of them sees exactly the calls made to it.
    """
    if k <= 0:
        return ()
    if k == 2:
        while live:
            low = live & -live
            live ^= low
            later = adj[low.bit_length() - 1] & live
            if later:
                return (low.bit_length() - 1, (later & -later).bit_length() - 1)
        return None
    if _color_bound(adj, live, k) < k:
        return None
    orbit = None
    spent = 0
    while live.bit_count() >= k:
        low = live & -live
        live ^= low
        v = low.bit_length() - 1
        stack = [(low, live & adj[v], k - 1)]
        while stack:
            spent += 1
            clique, cand, need = stack.pop()
            if need <= 0:
                return elements_of(clique)
            size = cand.bit_count()
            if size < need:
                continue
            spent += size
            if need == 2:
                edge = _search(adj, cand, 2)
                if edge is not None:
                    return elements_of(clique) + edge
                continue
            if _color_bound(adj, cand, need) < need:
                continue
            low = cand & -cand
            rest = cand ^ low
            # Pushed last, the include child is explored first.
            stack.append((clique, rest, need))
            stack.append((clique | low, rest & adj[low.bit_length() - 1], need - 1))
        if orbit is not None:
            live &= ~orbit[v]
        elif orbits is not None and spent > _FIX_AFTER * len(adj):
            orbit = orbits()
            for u in range(v + 1):
                live &= ~orbit[u]
    return None


def find_k_clique_in(adj, cand: int, k: int):
    """Lexicographically least k-clique with all vertices inside cand, or None."""
    return _search(adj, cand, k)


def find_k_clique(adj, k: int, orbits=None):
    """Lexicographically least k-clique of the whole graph, or None.

    orbits, when given, is a zero-argument callable returning one mask per
    vertex v: v's orbit under automorphisms of the graph (any subgroup will
    do). The search then drops the orbit of every refuted root (see
    ``_search``).
    """
    return _search(adj, (1 << len(adj)) - 1, k, orbits)
