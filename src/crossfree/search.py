"""Exact maximum k-cross-free subfamily search and bound tables.

The search is a Russian-doll search (Verfaillie, Lemaître & Schiex,
"Russian doll search for solving constraint optimization problems", AAAI
1996) over the canonical vertex order of the universe's crossing graph,
with Östergård's suffix bound ("A fast algorithm for the maximum clique
problem", Discrete Appl. Math. 120, 2002). A doll pass finds, from the
last vertex back to the first, the optimum inside each suffix of the
order; a lex pass then returns the first family of the whole optimum's
size in include-first order, which is the lexicographically least
optimum. Both passes run one DFS over an explicit stack of (chosen,
candidates) bitmask pairs, so no recursion depth grows with the universe,
and prune a node whose suffix optimum cannot reach the size sought. The
search is complete, so the result is always proven optimal (see
``max_cross_free``).

Bound-comparison conventions, used everywhere: counts over the all-subsets
universe include the empty set and the full set; counts over the cyclic
interval universe exclude both.
"""

from __future__ import annotations

from math import comb
from typing import NamedTuple

from . import kernel
from .constructions import gen_cyclic_intervals
from .crossing import crossing_graph, find_pairwise_crossing_witness
from .families import Family, GroundSet, elements_of

MAX_UNIVERSE = 4096


class SearchInfeasibleError(ValueError):
    pass


class SearchResult(NamedTuple):
    best: Family
    size: int
    nodes_explored: int


def max_cross_free(universe: Family, k: int, mode: str) -> SearchResult:
    """Exact maximum-size subfamily with no k pairwise-crossing members.

    Deterministic: the optimum value is unique and the returned family is
    the lexicographically least optimum under canonical order.

    Invariant: every vertex in a node's ``cand`` can join ``chosen``
    without completing a k-clique. ``include(chosen, rest, v)`` keeps it
    when v joins: a candidate outside N(v) stays untested, and a neighbour
    u stays exactly when chosen ∩ N(v) ∩ N(u) holds no (k-2)-clique; for
    k=2 the empty clique always exists, so every neighbour of v is
    dropped, and for k=3 any member is a 1-clique, so u stays exactly when
    that mask is empty. Only k >= 4 with a nonempty mask calls
    ``kernel.find_k_clique_in``.

    Doll pass: c[i] is the size of the largest admissible family inside
    the vertices >= i, with c[n] = 0, computed for i = n-1 down to 0.
    Dropping i from such a family leaves one inside the vertices > i, so
    c[i+1] <= c[i] <= c[i+1] + 1, and c[i] = c[i+1] + 1 exactly when some
    admissible family holding i has c[i+1] + 1 members. When i and its
    admissible candidates hold no k-clique, they are the largest family
    holding i and give c[i] at once; otherwise ``first`` looks for such a
    family. Being k-clique-free is hereditary, so the extension of any
    node inside its ``cand`` has at most c[low(cand)] members, and
    ``first`` prunes a node that cannot reach ``size`` even with
    min(c[low(cand)], |cand|) more; every c it reads is already exact.

    Lex pass: ``first(0, all, c[0])``. Its DFS branches on the lowest
    candidate and takes the include child first, so it meets families of
    one size in lexicographic order of their sorted index tuples, and the
    bound only drops nodes with no family of ``size`` below them. The
    first family it returns is therefore the lexicographically least
    optimum.

    ``nodes_explored`` counts the nodes ``first`` pops in both passes.
    The result's size and k-cross-freeness are re-checked, the latter still
    on the same clique kernel, with no independent certificate.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if len(universe) > MAX_UNIVERSE:
        raise SearchInfeasibleError(f"universe of {len(universe)} sets exceeds {MAX_UNIVERSE}")
    adj = crossing_graph(universe, mode).adj
    sets = universe.sets
    n = len(sets)

    def include(chosen: int, rest: int, v: int) -> int:
        """The members of rest still admissible once v joins chosen."""
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
        return kept

    c = [0] * (n + 1)
    nodes = 0

    def first(chosen: int, cand: int, size: int) -> int | None:
        """First family of size members, in include-first order, that
        extends chosen inside cand; None when there is none."""
        nonlocal nodes
        stack = [(chosen, cand)]
        while stack:
            chosen, cand = stack.pop()
            nodes += 1
            count = chosen.bit_count()
            if count == size:
                return chosen
            if not cand:
                continue
            low = cand & -cand
            v = low.bit_length() - 1
            if count + min(c[v], cand.bit_count()) < size:
                continue
            rest = cand ^ low
            # Pushed last, the include child is explored first.
            stack.append((chosen, rest))
            stack.append((chosen | low, include(chosen, rest, v)))
        return None

    full = (1 << n) - 1
    for i in range(n - 1, -1, -1):
        cand = include(0, full ^ ((2 << i) - 1), i)
        if kernel.find_k_clique_in(adj, 1 << i | cand, k) is None:
            c[i] = max(c[i + 1], 1 + cand.bit_count())
        else:
            c[i] = c[i + 1] + (first(1 << i, cand, c[i + 1] + 1) is not None)
    best_mask = first(0, full, c[0])

    best = Family(universe.ground, tuple(sets[v] for v in elements_of(best_mask)))
    if len(best) != c[0] or c[0] >= k and find_pairwise_crossing_witness(best, k, mode) is not None:
        raise AssertionError
    return SearchResult(best, c[0], nodes)


# --- bound tables -----------------------------------------------------------


class BoundRow(NamedTuple):
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
    """Exact values next to the closed-form bounds, one row per (n, k, universe).

    A repeated universe counts once.
    """
    universes = tuple(dict.fromkeys(universes))
    rows = []
    for n in n_values:
        for k in k_values:
            for universe in universes:
                fam = _universe_family(universe, n)
                result = max_cross_free(fam, k, mode)
                formula, name = _formula_for(universe, mode, k, n)
                if formula is not None and formula < 0:
                    formula, name = None, "-"  # a negative closed form bounds nothing
                if formula is None or result.size > formula:
                    tight = "N/A"
                else:
                    tight = "yes" if result.size == formula else "no"
                rows.append(
                    BoundRow(n, k, universe, mode, result.size, formula, name, tight)
                )
    return rows


def format_table_text(rows) -> str:
    grid = [BoundRow._fields] + [tuple("-" if v is None else str(v) for v in r) for r in rows]
    widths = [max(len(row[i]) for row in grid) for i in range(len(grid[0]))]
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
    writer.writerow(BoundRow._fields)
    writer.writerows(("" if v is None else v for v in r) for r in rows)
    return buf.getvalue()
