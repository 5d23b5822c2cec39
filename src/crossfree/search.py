"""Exact maximum k-cross-free subfamily search and bound tables.

The search is a single include-first branch and bound over the canonical
vertex order of the universe's crossing graph, run with an explicit stack of
(chosen, candidates) bitmask pairs, so no recursion depth grows with the
universe. Every candidate of a node is admissible: no (k-1)-clique of the
chosen sets lies in its crossing neighbourhood, so adding it makes no
k-clique. Including v can only break that for a neighbour u of v, and only
through a (k-1)-clique containing v, so the filter looks for a
(k-2)-clique in chosen ∩ N(v) ∩ N(u) and keeps the other candidates
unchecked. Most of these queries are answered inline: for k=2 every
neighbour goes, and an empty mask keeps u; only k >= 4 with a nonempty
mask asks the clique kernel.

The spine of the search tree, the nodes with nothing chosen, takes one
root after another, and the family's symmetry group lets it drop each
explored root's whole orbit (orbital branching: Ostrowski, Linderoth,
Rossi & Smriglio, "Orbital branching", Math. Program. 126, 2011). The
group (``symmetry.set_orbits``) is fetched once, at entry.

A node is pruned unless its upper bound strictly beats the incumbent. The
cover bound is asked as a threshold test that stops summing once the answer
is settled, so it prunes the same nodes as the full sum. The subtree
holding the first optimum in include-first order is therefore never pruned,
and later optima of equal size never replace it, so the search returns the
lexicographically least optimum in one pass, the orbits dropped from the
spine included (see ``max_cross_free``). The search is complete, so the
result is always proven optimal.

Bound-comparison conventions, used everywhere: counts over the all-subsets
universe include the empty set and the full set; counts over the cyclic
interval universe exclude both.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from . import kernel
from .constructions import gen_cyclic_intervals
from .crossing import crossing_graph, find_pairwise_crossing_witness
from .families import Family, GroundSet, elements_of
from .symmetry import set_orbits

MAX_UNIVERSE = 4096


class SearchInfeasibleError(ValueError):
    pass


@dataclass(frozen=True)
class SearchResult:
    best: Family
    size: int
    proven_optimal: bool
    nodes_explored: int


def _level_caps(universe: Family, k: int, mode: str) -> dict[int, int]:
    """Admissible per-cardinality caps on any k-cross-free selection.

    Two distinct size-l sets sharing an element weakly-cross, and cross
    strictly when l < n/2, so each element lies in at most k-1 of them;
    summing over elements caps the level at (k-1)n/l.
    """
    n = universe.ground.n
    caps = {}
    for level in range(1, n):
        if mode == "weak" or 2 * level < n:
            caps[level] = (k - 1) * n // level
    return caps


def _cover_exceeds(adj, cand: int, k: int, slack: int) -> bool:
    """Whether the greedy clique cover bound of cand exceeds slack.

    The bound covers cand greedily by disjoint cliques, each grown from the
    lowest remaining vertex; any k-clique-free selection takes at most
    min(|Q|, k-1) of each clique Q. Each clique adds at least 1 and at most
    its size, so the full sum lies between the running total and the
    running total plus the popcount of what is left of cand. The loop
    returns as soon as either end settles the comparison, with the answer
    the full sum would give.
    """
    total = 0
    cap = k - 1
    while total <= slack:
        if total + cand.bit_count() <= slack:
            return False
        low = cand & -cand
        clique = low
        ext = cand & adj[low.bit_length() - 1]
        while ext:
            bit = ext & -ext
            clique |= bit
            ext &= adj[bit.bit_length() - 1]
        cand &= ~clique
        size = clique.bit_count()
        total += size if size < cap else cap
    return True


def max_cross_free(universe: Family, k: int, mode: str) -> SearchResult:
    """Exact maximum-size subfamily with no k pairwise-crossing members.

    Deterministic: the optimum value is unique and the returned family is
    the lexicographically least optimum under canonical order.

    Invariant: every vertex in a node's ``cand`` can join ``chosen``
    without completing a k-clique. When v is included, a candidate outside
    N(v) keeps that property untested, and a neighbour u keeps it exactly
    when chosen ∩ N(v) ∩ N(u) holds no (k-2)-clique; for k=2 the empty
    clique always exists, so every neighbour of v is dropped, and for k=3
    any member is a 1-clique, so u stays exactly when that mask is empty.
    Only k >= 4 with a nonempty mask calls ``kernel.find_k_clique_in``.

    A node with ``slack = best_size - |chosen|`` is pruned when the level
    bound or the greedy clique cover bound is at most ``slack``, which is
    the test ``|chosen| + min(cover, level) <= best_size``. The cover test
    stops as soon as its running total settles the comparison, so it
    prunes exactly the nodes the full sum would. Before the first incumbent
    ``slack`` is negative and no node is pruned, the empty-``cand`` leaf
    included.

    Spine: the nodes with ``chosen == 0`` form the root exclude spine, and
    the roots are the vertices it branches on, in increasing order.
    ``set_orbits(universe)`` is fetched once at entry, and each spine
    exclude child drops ``orbit[v]``, not just v, so every spine ``cand``
    is a union of orbits. When that child is popped, v's include subtree
    is fully explored.

    This keeps the optimum and the lex-least answer. Every vertex below a
    root u left ``cand`` as a root below u or in the orbit of one. Let S
    be an optimum that meets a dropped orbit, u the least root whose orbit
    S meets and g an automorphism mapping a member of S to u. g preserves
    the crossing graph and every orbit, so g(S) is an optimum that holds u
    and avoids the orbit of every root below u: it lies in u's include
    subtree, which was searched before u's orbit was dropped. If S does
    not hold u, its members are all above u, so g(S) is lexicographically
    smaller. The lex-least optimum therefore meets no dropped orbit or
    holds that root u as its least member; either way it lies in the
    include subtree of its least member, a root, and is found first there,
    as without the group.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if len(universe) > MAX_UNIVERSE:
        raise SearchInfeasibleError(f"universe of {len(universe)} sets exceeds {MAX_UNIVERSE}")
    graph = crossing_graph(universe, mode)
    adj = graph.adj
    sets = universe.sets
    caps = _level_caps(universe, k, mode)
    level_masks: dict[int, int] = {}
    for v, m in enumerate(sets):
        lvl = m.bit_count()
        level_masks[lvl] = level_masks.get(lvl, 0) | 1 << v
    capped = tuple((mask, caps[lvl]) for lvl, mask in level_masks.items() if lvl in caps)
    # Level masks are disjoint, so their sum is their union.
    uncapped = sum(mask for lvl, mask in level_masks.items() if lvl not in caps)

    def level_bound(chosen: int, cand: int) -> int:
        total = (cand & uncapped).bit_count()
        for mask, cap in capped:
            total += min((cand & mask).bit_count(), max(0, cap - (chosen & mask).bit_count()))
        return total

    best_size = -1
    best_mask = 0
    nodes = 0
    orbit = set_orbits(universe)
    stack = [(0, (1 << len(sets)) - 1)]
    while stack:
        chosen, cand = stack.pop()
        nodes += 1
        count = chosen.bit_count()
        slack = best_size - count
        if level_bound(chosen, cand) <= slack or not _cover_exceeds(adj, cand, k, slack):
            continue
        if not cand:
            best_size, best_mask = count, chosen
            continue
        low = cand & -cand
        v = low.bit_length() - 1
        rest = cand ^ low
        kept = rest & ~adj[v]
        if k > 2:
            near = chosen & adj[v]
            m = rest & adj[v]
            while m:
                bit = m & -m
                m ^= bit
                clash = near & adj[bit.bit_length() - 1]
                if not clash or k > 3 and kernel.find_k_clique_in(adj, clash, k - 2) is None:
                    kept |= bit
        if not chosen:
            rest &= ~orbit[v]
        # Pushed last, the include child is explored first.
        stack.append((chosen, rest))
        stack.append((chosen | low, kept))

    best = Family(universe.ground, tuple(sets[v] for v in elements_of(best_mask)))
    assert len(best) == best_size
    assert find_pairwise_crossing_witness(best, k, mode) is None if best_size >= k else True
    return SearchResult(best, best_size, True, nodes)


def brute_force_max(universe: Family, k: int, mode: str) -> int:
    """Independent oracle: enumerate subfamilies by descending size."""
    from itertools import combinations

    graph = crossing_graph(universe, mode)
    adj = graph.adj
    nverts = len(universe)
    for size in range(nverts, -1, -1):
        for combo in combinations(range(nverts), size):
            m = 0
            for v in combo:
                m |= 1 << v
            if kernel.find_k_clique_in(adj, m, k) is None:
                return size
    return 0


# --- bound tables -----------------------------------------------------------


@dataclass(frozen=True)
class BoundRow:
    n: int
    k: int
    universe: str
    mode: str
    exact: int
    formula: int | None
    formula_name: str
    tight: str  # "yes" | "no" | "N/A"


def _formula_for(universe: str, mode: str, k: int, n: int) -> tuple[int | None, str]:
    if universe == "all" and mode == "weak" and k == 2:
        return 2 * n, "laminar 2n"
    if universe == "all" and mode == "strict" and k == 2:
        return 4 * n - 2, "2-cross-free 4n-2"
    if universe == "all" and mode == "strict" and k == 3:
        return 8 * n - 20, "8n-20"
    if universe == "intervals" and mode == "strict":
        return 4 * (k - 1) * n - 2 * comb(2 * k - 1, 2), "interval bound"
    return None, "-"


def _universe_family(universe: str, n: int) -> Family:
    if universe == "all":
        if n > 5:
            raise SearchInfeasibleError("all-subsets universe is limited to n <= 5")
        ground = GroundSet(n)
        return Family(ground, tuple(range(1 << n)))
    if universe == "intervals":
        if n > 8:
            raise SearchInfeasibleError("interval universe is limited to n <= 8")
        return gen_cyclic_intervals(n, include_trivial=False)
    raise ValueError(f"unknown universe {universe!r}")


def bound_table(n_values, k_values, universes, mode: str) -> list[BoundRow]:
    """Exact values next to the closed-form bounds, one row per (n, k, universe)."""
    rows = []
    for n in n_values:
        for k in k_values:
            for universe in universes:
                fam = _universe_family(universe, n)
                result = max_cross_free(fam, k, mode)
                formula, name = _formula_for(universe, mode, k, n)
                if formula is None or result.size > formula:
                    tight = "N/A"
                else:
                    tight = "yes" if result.size == formula else "no"
                rows.append(
                    BoundRow(n, k, universe, mode, result.size, formula, name, tight)
                )
    return rows


def format_table_text(rows) -> str:
    headers = ("n", "k", "universe", "mode", "exact", "formula", "formula_name", "tight")
    grid = [headers] + [
        (
            str(r.n),
            str(r.k),
            r.universe,
            r.mode,
            str(r.exact),
            "-" if r.formula is None else str(r.formula),
            r.formula_name,
            r.tight,
        )
        for r in rows
    ]
    widths = [max(len(row[i]) for row in grid) for i in range(len(headers))]
    lines = [
        "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
        for row in grid
    ]
    return "\n".join(lines) + "\n"


def format_table_csv(rows) -> str:
    import csv
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["n", "k", "universe", "mode", "exact", "formula", "formula_name", "tight"])
    for r in rows:
        writer.writerow(
            [r.n, r.k, r.universe, r.mode, r.exact, "" if r.formula is None else r.formula, r.formula_name, r.tight]
        )
    return buf.getvalue()
