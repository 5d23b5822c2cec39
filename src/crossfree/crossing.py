"""Crossing graphs, exact witness search, Dilworth partition, degree bounds.

The crossing graph of a family has one vertex per member (canonical order)
and an edge where the pair crosses under the chosen mode. A family fails to
be k-cross-free exactly when this graph contains a k-clique; the witness
search is therefore an exact clique search.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from . import kernel
from .families import (
    Family,
    GroundSet,
    _Frozen,
    crosses,
    crossing_row,
    elements_of,
    mask_of,
    membership_masks,
    region_tables,
)
from .symmetry import set_orbits

if TYPE_CHECKING:
    from fractions import Fraction

MODES = ("strict", "weak")


class CrossingGraph(NamedTuple):
    """Symmetric adjacency over family indices; adj[i] is a vertex bitmask."""

    adj: tuple[int, ...]

    @property
    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self.adj) // 2


class Witness(_Frozen):
    """k sets that pairwise cross under the declared mode; re-verified."""

    __slots__ = _fields = ("ground", "sets", "mode")

    def __init__(self, ground: GroundSet, sets: tuple[int, ...], mode: str):
        for i, a in enumerate(sets):
            for b in sets[i + 1 :]:
                if not crosses(a, b, ground, mode):
                    raise ValueError(f"witness pair {a:#x},{b:#x} does not cross in {mode} mode")
        object.__setattr__(self, "ground", ground)
        object.__setattr__(self, "sets", sets)
        object.__setattr__(self, "mode", mode)


class ChainDecomposition(_Frozen):
    """A partition of a family into inclusion chains, with a max antichain."""

    __slots__ = _fields = ("chains", "max_antichain")

    def __init__(self, chains: tuple[tuple[int, ...], ...], max_antichain: tuple[int, ...]):
        for chain in chains:
            for a, b in zip(chain, chain[1:]):
                if not (a & ~b == 0 and a != b):
                    raise ValueError("chain not strictly increasing by inclusion")
        object.__setattr__(self, "chains", chains)
        object.__setattr__(self, "max_antichain", max_antichain)


def crossing_graph(fam: Family, mode: str) -> CrossingGraph:
    """Adjacency from the family's membership index, one crossing row per set.

    Vertex order is the canonical family order.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    tables = region_tables(membership_masks(fam.sets, fam.ground.n))
    return CrossingGraph(tuple(crossing_row(a, tables, mode) for a in fam.sets))


def find_pairwise_crossing_witness(fam: Family, k: int, mode: str):
    """Lexicographically least k-subfamily that pairwise crosses, or None.

    Complete search: returns None only when no k pairwise-crossing members
    exist in the family.

    A ground-set permutation that maps the family onto itself maps crossing
    pairs to crossing pairs, so the family's set orbits (``set_orbits``)
    are orbits of the crossing graph. The kernel uses them for orbital
    fixing: a refuted root lies in no k-clique, so neither does any set in
    its orbit. It asks for them only once the refuted roots together have
    cost more than ``kernel._FIX_AFTER`` steps of work per set of the
    family, so calls that end quickly never search for the group. The
    witness is the same lex-least one either way.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    graph = crossing_graph(fam, mode)
    # Positional: the kernel may be wrapped as f(adj, *rest).
    clique = kernel.find_k_clique(graph.adj, k, lambda: set_orbits(fam))
    if clique is None:
        return None
    return Witness(fam.ground, tuple(fam.sets[i] for i in clique), mode)


def _max_bipartite_matching(n: int, succ: list[int]) -> list[int]:
    """Kuhn's algorithm on left/right copies of 0..n-1; succ[i] is a bitmask.

    Returns match_right: for each right vertex, its matched left vertex or -1.
    Each root's augmenting-path DFS is a loop over an explicit alternating
    path: path[i] is a left vertex and via[i] the right vertex leading from
    it to path[i + 1]. unvisited is a right-vertex bitmask per root that
    starts as live and loses every scanned right vertex, so succ[u] &
    unvisited is what u has left to try, with no complement built per step.
    Deterministic: left vertices processed ascending, neighbors ascending.

    live drops every right vertex a failed root scanned. Such a vertex is
    matched, and so is every right vertex its alternating paths reach: the
    failed search covered all of them. A path that enters one can never
    leave this closed set for a free vertex, so no later augmentation runs
    through it, and its matching, hence the closure, never changes. Entering
    a dead vertex would only lead a DFS through dead vertices to a dead end,
    so skipping them leaves every root's first augmenting path, and with it
    the matching, exactly as without the mask.
    """
    match_right = [-1] * n
    live = (1 << n) - 1
    for root in range(n):
        path, via, unvisited = [root], [], live
        while path:
            m = succ[path[-1]] & unvisited
            if not m:
                path.pop()  # dead end: back up to the previous left vertex
                if via:
                    via.pop()
                continue
            low = m & -m
            unvisited ^= low
            v = low.bit_length() - 1
            via.append(v)
            w = match_right[v]
            if w == -1:
                for u, v in zip(path, via):
                    match_right[v] = u
                break
            path.append(w)
        else:
            live &= unvisited  # no augmenting path: the scanned vertices are dead
    return match_right


def dilworth_partition(fam: Family) -> ChainDecomposition:
    """Exact minimum chain partition with a maximum antichain certificate.

    The subset relation is its own transitive closure, so a minimum chain
    cover is n minus a maximum matching in the bipartite comparability
    graph; the antichain comes from the Koenig vertex cover of the same
    matching, and the two cardinalities agree (Dilworth duality).
    """
    sets = fam.sets
    n = len(sets)
    # succ[i]: the strict supersets of sets[i], the AND of the membership
    # masks of its elements over every other member.
    masks = membership_masks(sets, fam.ground.n)
    full = (1 << n) - 1
    succ = []
    for i, s in enumerate(sets):
        row = full ^ 1 << i
        for e in elements_of(s):
            row &= masks[e]
        succ.append(row)
    match_right = _max_bipartite_matching(n, succ)
    match_left = [-1] * n
    for v, u in enumerate(match_right):
        if u != -1:
            match_left[u] = v

    # Chains: follow matched successor edges from chain heads. Heads come in
    # ascending index, so the chains are in canonical order of their heads.
    chains = []
    for head in range(n):
        if match_right[head] != -1:
            continue
        chain = [sets[head]]
        i = match_left[head]
        while i != -1:
            chain.append(sets[i])
            i = match_left[i]
        chains.append(tuple(chain))

    # Koenig cover: alternating reachability from unmatched left vertices.
    # A matched left vertex w is reached only through its own matched right
    # vertex v, and masking out seen_right scans each v once, so w is new
    # when v is. An unmatched v would end an augmenting path; w != -1 keeps
    # a wrong matching from failing on 1 << -1 before the duality check.
    stack = [u for u in range(n) if match_left[u] == -1]
    seen_left = mask_of(stack)
    seen_right = 0
    while stack:
        m = succ[stack.pop()] & ~seen_right
        seen_right |= m
        while m:
            low = m & -m
            m ^= low
            w = match_right[low.bit_length() - 1]
            if w != -1:
                seen_left |= 1 << w
                stack.append(w)
    # Cover = (left not reached) + (right reached); antichain = uncovered elems.
    antichain = tuple(sets[i] for i in elements_of(seen_left & ~seen_right))
    dec = ChainDecomposition(tuple(chains), antichain)
    if len(dec.chains) != len(antichain):
        raise AssertionError("Dilworth duality violated")
    return dec


def greedy_independent_set(adj) -> tuple[int, ...]:
    """Independent vertex set of size >= |V|/(avg degree + 1).

    Minimum-degree greedy removal; ties broken by smallest index. The
    independence of the result is re-verified before returning.
    """
    n = len(adj)
    alive = (1 << n) - 1
    chosen = []
    while alive:
        best_v = -1
        best_d = n + 1
        for v in elements_of(alive):
            d = (adj[v] & alive).bit_count()
            if d < best_d:
                best_d = d
                best_v = v
        chosen.append(best_v)
        alive &= ~(adj[best_v] | (1 << best_v))
    chosen.sort()
    for i, u in enumerate(chosen):
        for v in chosen[i + 1 :]:
            if adj[u] >> v & 1:
                raise AssertionError("greedy independent set is not independent")
    return tuple(chosen)


def turan_floor(n_vertices: int, adj) -> int:
    """ceil(|V| / (average degree + 1)) = ceil(|V|^2 / (|V| + degree sum));
    the guaranteed greedy output size."""
    if n_vertices == 0:
        return 0
    return -(-n_vertices * n_vertices // (n_vertices + sum(m.bit_count() for m in adj)))


class UniformBoundReport(NamedTuple):
    is_uniform: bool
    level: int | None
    bound: Fraction | None
    size: int
    violates: bool


def uniform_bound_report(fam: Family, k: int) -> UniformBoundReport:
    """Size-vs-(k-1)n/l report for an l-uniform family.

    A violation certifies that k pairwise weakly-crossing members exist
    (checked in tests, not here).
    """
    sizes = {m.bit_count() for m in fam.sets}
    if len(sizes) != 1:
        return UniformBoundReport(False, None, None, len(fam), False)
    level = sizes.pop()
    if level == 0:
        return UniformBoundReport(True, 0, None, len(fam), False)
    from fractions import Fraction  # here only: it costs start-up
    bound = Fraction((k - 1) * fam.ground.n, level)
    return UniformBoundReport(True, level, bound, len(fam), len(fam) > bound)
