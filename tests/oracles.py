"""Slow, independent helpers that several test modules share.

Each helper has one home here, so every module checks against the same
oracle and builds its random inputs the same way.
"""

from itertools import combinations

from crossfree.families import Family, GroundSet, crosses, elements_of, mask_of


def all_subsets(n):
    """The family of all 2^n subsets of {0, ..., n-1}."""
    return Family(GroundSet(n), tuple(range(1 << n)))


def relabel(fam, rng):
    """``fam`` under the ground-set permutation ``rng.sample(range(n), n)``."""
    n = fam.ground.n
    perm = rng.sample(range(n), n)
    return Family(fam.ground, tuple(mask_of(perm[e] for e in elements_of(m)) for m in fam.sets))


def random_graph(rng, n, p):
    """Adjacency masks of a random graph: each edge i < j, drawn in row
    order, is present when ``rng.random() < p``."""
    adj = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return adj


def brute_cliques(adj, cand, k):
    """The lexicographically least k-clique of the graph ``adj`` inside the
    vertex mask ``cand``, as a tuple of vertices, or None."""
    verts = [v for v in range(len(adj)) if cand >> v & 1]
    for combo in combinations(verts, k):
        if all(adj[a] >> b & 1 for a, b in combinations(combo, 2)):
            return combo
    return None


def max_antichain_size(sets):
    """The size of a largest antichain under inclusion, by trying every
    subfamily from the largest size down."""
    for size in range(len(sets), 0, -1):
        for combo in combinations(sets, size):
            if all(a & ~b and b & ~a for a, b in combinations(combo, 2)):
                return size
    return 0


def lex_least_optimum(fam, k, mode):
    """The lexicographically least largest subfamily of ``fam`` with no k
    pairwise-crossing sets, as a tuple of its sets in ``fam``'s order.

    Sizes are tried from ``len(fam)`` down. At each size a DFS adds indices
    in ``combinations`` order, and index j joins only when no k - 1 chosen
    sets that cross j also cross each other pairwise. Being k-cross-free
    is hereditary, so this drops no family of the size sought, and the
    first family found is the least one.
    """
    sets = fam.sets
    cross = [
        {i for i in range(len(sets)) if crosses(sets[i], sets[j], fam.ground, mode)}
        for j in range(len(sets))
    ]

    def extend(chosen, start, size):
        if len(chosen) == size:
            return chosen
        for j in range(start, len(sets) - size + len(chosen) + 1):
            near = [i for i in chosen if i in cross[j]]
            if not any(
                all(b in cross[a] for a, b in combinations(group, 2))
                for group in combinations(near, k - 1)
            ):
                found = extend(chosen + [j], j + 1, size)
                if found is not None:
                    return found
        return None

    for size in range(len(sets), -1, -1):
        found = extend([], 0, size)
        if found is not None:
            return tuple(sets[i] for i in found)
