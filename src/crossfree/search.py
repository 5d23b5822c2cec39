"""Exact maximum k-cross-free subfamily search and bound tables.

The search is a single include-first branch and bound over the canonical
vertex order of the universe's crossing graph, run with an explicit stack of
(chosen, candidates) bitmask pairs, so no recursion depth grows with the
universe. A node is pruned unless its upper bound strictly beats the
incumbent. The subtree holding the first optimum in include-first order is
therefore never pruned, and later optima of equal size never replace it, so
the search returns the lexicographically least optimum in one pass. The
search is complete, so the result is always proven optimal.

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


def _cover_bound(adj, cand: int, k: int) -> int:
    """Greedy disjoint clique cover of cand, from the lowest vertex.

    Any k-clique-free selection takes at most min(|Q|, k-1) of each clique Q.
    """
    total = 0
    while cand:
        low = cand & -cand
        clique = low
        ext = cand & adj[low.bit_length() - 1]
        while ext:
            bit = ext & -ext
            clique |= bit
            ext &= adj[bit.bit_length() - 1]
        cand &= ~clique
        total += min(clique.bit_count(), k - 1)
    return total


def max_cross_free(universe: Family, k: int, mode: str) -> SearchResult:
    """Exact maximum-size subfamily with no k pairwise-crossing members.

    Deterministic: the optimum value is unique and the returned family is
    the lexicographically least optimum under canonical order.
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
    stack = [(0, (1 << len(sets)) - 1)]
    while stack:
        chosen, cand = stack.pop()
        nodes += 1
        count = chosen.bit_count()
        if count + min(_cover_bound(adj, cand, k), level_bound(chosen, cand)) <= best_size:
            continue
        if not cand:
            best_size, best_mask = count, chosen
            continue
        low = cand & -cand
        rest = cand ^ low
        included = chosen | low
        kept = 0
        m = rest
        while m:
            bit = m & -m
            m ^= bit
            if kernel.find_k_clique_in(adj, included & adj[bit.bit_length() - 1], k - 1) is None:
                kept |= bit
        # Pushed last, the include child is explored first.
        stack.append((chosen, rest))
        stack.append((included, kept))

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
