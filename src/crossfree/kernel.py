"""Clique search kernel over int-bitmask adjacency.

The graph is given as ``adj``: a sequence where ``adj[v]`` is the bitmask of
neighbors of v. Vertices are explored in ascending index order, so the first
k-clique found by the DFS is the lexicographically least one (as a sorted
index tuple). Pruning uses a greedy coloring bound, which only discards
branches that cannot contain a k-clique, so the lex-least contract survives.
"""

from __future__ import annotations

IMPLEMENTATION = "python"


def _color_bound(adj, cand: int, need: int) -> int:
    """Number of greedy color classes covering cand, capped at need.

    Any clique inside cand has at most one vertex per independent color
    class, so the class count is an admissible upper bound on clique size.
    """
    classes = 0
    m = cand
    while m:
        classes += 1
        if classes >= need:
            return classes
        avail = m
        cls = 0
        while avail:
            low = avail & -avail
            v = low.bit_length() - 1
            cls |= low
            avail &= ~adj[v]
            avail &= ~low
        m &= ~cls
    return classes


def _search(adj, cand: int, k: int):
    """Shared DFS behind both public entry points.

    Neither public function calls the other, so a wrapper installed on one
    of them sees exactly the calls made to it.
    """
    if k <= 0:
        return ()
    stack = []

    def dfs(cand: int, need: int) -> bool:
        if need == 0:
            return True
        if cand.bit_count() < need:
            return False
        if need > 2 and _color_bound(adj, cand, need) < need:
            return False
        c = cand
        while c:
            low = c & -c
            v = low.bit_length() - 1
            c ^= low
            if c.bit_count() + 1 < need:
                return False
            stack.append(v)
            if dfs(adj[v] & c, need - 1):
                return True
            stack.pop()
        return False

    if dfs(cand, k):
        return tuple(stack)
    return None


def find_k_clique_in(adj, cand: int, k: int):
    """Lexicographically least k-clique with all vertices inside cand, or None."""
    return _search(adj, cand, k)


def find_k_clique(adj, k: int):
    """Lexicographically least k-clique of the whole graph, or None."""
    return _search(adj, (1 << len(adj)) - 1, k)
