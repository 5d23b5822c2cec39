"""Chain machinery: weak reduction, successor graph, chain extraction,
randomized conditioned selection, and the C1-C4 condition checker.

A continuous chain is stored as a base set plus the ordered elements added
one at a time; ``member_below(x)`` is the largest member not containing x.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .crossing import (
    dilworth_partition,
    find_pairwise_crossing_witness,
    greedy_independent_set_adj,
)
from .families import (
    Family,
    FamilyFormatError,
    GroundSet,
    elements_of,
    format_set,
    parse_element,
    parse_set_line,
    split_header,
)


class NotCrossFreeError(ValueError):
    """Input family fails its declared cross-freeness; carries the witness."""

    def __init__(self, witness):
        super().__init__(
            "family is not cross-free; witness: "
            + "; ".join(format_set(m) for m in witness.sets)
        )
        self.witness = witness


def weak_reduce(fam: Family, k: int) -> Family:
    """A weakly-k-cross-free subquotient of size at least half the input.

    For a chosen element x, either the members avoiding x or the
    complements of the members containing x form a weakly-k-cross-free
    family; x is chosen to maximize the retained size, ties to smallest x.
    """
    witness = find_pairwise_crossing_witness(fam, k, "strict")
    if witness is not None:
        raise NotCrossFreeError(witness)
    n = fam.ground.n
    total = len(fam)
    best_x = 0
    best_key = (-1, -1)
    for x in range(n):
        avoid = sum(1 for m in fam.sets if not m >> x & 1)
        value = avoid if 2 * avoid >= total else total - avoid
        # on equal size, prefer the branch that keeps members unchanged
        if (value, avoid) > best_key:
            best_key = (value, avoid)
            best_x = x
    avoid = tuple(m for m in fam.sets if not m >> best_x & 1)
    if 2 * len(avoid) >= total:
        reduced = Family(fam.ground, avoid)
    else:
        full = fam.ground.full_mask
        reduced = Family(
            fam.ground, tuple(full & ~m for m in fam.sets if m >> best_x & 1)
        )
    return reduced


@dataclass(frozen=True)
class SuccessorGraph:
    """Directed edges A -> A+{x} inside a family; indices are canonical."""

    family: Family
    out_edges: tuple[tuple[int, ...], ...]

    @property
    def in_degrees(self) -> tuple[int, ...]:
        deg = [0] * len(self.family)
        for outs in self.out_edges:
            for j in outs:
                deg[j] += 1
        return tuple(deg)

    @property
    def out_degrees(self) -> tuple[int, ...]:
        return tuple(len(o) for o in self.out_edges)

    @property
    def exceptional(self) -> tuple[bool, ...]:
        return tuple(len(o) >= 2 for o in self.out_edges)

    @property
    def edge_count(self) -> int:
        return sum(len(o) for o in self.out_edges)


def successor_graph(fam: Family) -> SuccessorGraph:
    """All and only the single-element-extension edges of the family."""
    index = {m: i for i, m in enumerate(fam.sets)}
    n = fam.ground.n
    out = []
    for m in fam.sets:
        targets = []
        for x in range(n):
            if not m >> x & 1:
                j = index.get(m | 1 << x)
                if j is not None:
                    targets.append(j)
        out.append(tuple(sorted(targets)))
    return SuccessorGraph(fam, tuple(out))


@dataclass(frozen=True)
class Chain:
    """Continuous chain base < base+{x1} < ... < base+{x1..xh}.

    ``members`` (base first) and ``support_mask`` (the added elements) are
    computed once, on construction.
    """

    base: int
    added: tuple[int, ...]

    def __post_init__(self):
        members = [self.base]
        m = self.base
        for x in self.added:
            if m >> x & 1:
                raise ValueError(f"added element {x} already present")
            m |= 1 << x
            members.append(m)
        object.__setattr__(self, "members", tuple(members))
        object.__setattr__(self, "support_mask", m & ~self.base)

    @property
    def h(self) -> int:
        return len(self.added)

    @property
    def top(self) -> int:
        return self.members[-1]

    def member_below(self, x: int) -> int:
        """Largest member not containing x, defined for x in the support."""
        if not self.support_mask >> x & 1:
            raise KeyError(f"element {x} not in chain support")
        return self.members[self.added.index(x)]

    def size_range(self) -> tuple[int, int]:
        lo = self.base.bit_count()
        return lo, lo + self.h


@dataclass(frozen=True)
class ChainCollection:
    """Indexed pairwise-disjoint continuous chains over one ground set."""

    ground: GroundSet
    chains: tuple[Chain, ...]

    def __post_init__(self):
        seen: set[int] = set()
        for c in self.chains:
            for m in c.members:
                self.ground.check_mask(m)
                if m in seen:
                    raise ValueError(f"chains share member {format_set(m)}")
                seen.add(m)

    def __len__(self):
        return len(self.chains)

    def uniform_h(self) -> int:
        hs = {c.h for c in self.chains}
        if len(hs) != 1:
            raise ValueError("chains do not all have the same size")
        return hs.pop()


@dataclass(frozen=True)
class Ordering:
    """Total order on ground elements; perm lists elements most-first."""

    perm: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.perm) != list(range(len(self.perm))):
            raise ValueError("ordering must be a permutation of 0..n-1")
        pos = [0] * len(self.perm)
        for p, x in enumerate(self.perm):
            pos[x] = p
        object.__setattr__(self, "_pos", tuple(pos))

    def position(self, x: int) -> int:
        return self._pos[x]

    def before(self, x: int, y: int) -> bool:
        return self._pos[x] < self._pos[y]

    @staticmethod
    def natural(n: int) -> "Ordering":
        return Ordering(tuple(range(n)))

    @staticmethod
    def random(n: int, rng: random.Random) -> "Ordering":
        return Ordering(tuple(rng.sample(range(n), n)))


def extract_disjoint_chains(fam: Family, h: int) -> ChainCollection:
    """Greedy maximal collection of vertex-disjoint continuous chains.

    Repeatedly takes the lexicographically least available directed path of
    length h in the successor graph (by canonical indices), found by an
    explicit-stack depth-first search that remembers dead ends. Greedy
    maximal, not maximum; the residual graph has no further length-h path.
    """
    if h < 1:
        raise ValueError(f"h must be >= 1, got {h}")
    out = successor_graph(fam).out_edges
    n = len(fam)
    # closed[j]: j is on a taken chain, or no long enough path of open
    # vertices starts at j. Starts come in canonical (ascending size) order,
    # so a later start never needs a shorter path from j: dead ends stay dead.
    closed = [False] * n
    chains = []
    for s in range(n):
        if closed[s]:
            continue
        # Successor edges strictly grow the set, so a path never repeats a
        # vertex; the first complete path in this order is the least one.
        found, nexts = [s], [iter(out[s])]
        while found and len(found) <= h:
            j = next((j for j in nexts[-1] if not closed[j]), None)
            if j is None:
                closed[found.pop()] = True
                nexts.pop()
            else:
                found.append(j)
                nexts.append(iter(out[j]))
        if not found:
            continue
        for i in found:
            closed[i] = True
        base = fam.sets[found[0]]
        added = []
        m = base
        for i in found[1:]:
            step = fam.sets[i] & ~m
            added.append(step.bit_length() - 1)
            m = fam.sets[i]
        chains.append(Chain(base, tuple(added)))
    return ChainCollection(fam.ground, tuple(chains))


@dataclass
class SelectionTrace:
    """Chain-index sets after each selection stage: I0, I1, I2, I3 and I."""

    stage_sets: dict[str, tuple[int, ...]] = field(default_factory=dict)


def select_conditioned_chains(
    cc: ChainCollection, k: int, min_size_multiplier: int, seed: int
) -> tuple[tuple[int, ...], Ordering, SelectionTrace]:
    """Four filtering stages producing an index set satisfying C1-C4.

    Stage 1 picks one Dilworth chain per element at random and keeps chains
    fully inside the picks (C1); stage 2 keeps chains whose added sequence
    agrees with a random total order (C2); stage 3 takes a greedy
    independent set of the conflict graph (C3); stage 4 drops chains whose
    minimum member is smaller than min_size_multiplier*k*h (C4).
    """
    h = cc.uniform_h()
    n = cc.ground.n
    rng = random.Random(seed)
    trace = SelectionTrace()
    all_idx = tuple(range(len(cc)))
    trace.stage_sets["I0"] = all_idx

    # Stage 1 (C1): per-element random Dilworth chain.
    chosen_chain: dict[int, frozenset[int]] = {}
    for x in range(n):
        tops = sorted(
            {c.member_below(x) | 1 << x for c in cc.chains if c.support_mask >> x & 1}
        )
        if not tops:
            continue
        dec = dilworth_partition(Family(cc.ground, tuple(tops)))
        pick = rng.randrange(len(dec.chains))
        chosen_chain[x] = frozenset(dec.chains[pick])
    i1 = tuple(
        i
        for i in all_idx
        if all(
            cc.chains[i].member_below(x) | 1 << x in chosen_chain[x]
            for x in cc.chains[i].added
        )
    )
    trace.stage_sets["I1"] = i1

    # Stage 2 (C2): random total order; keep chains added in increasing order.
    ordering = Ordering.random(n, rng)
    i2 = tuple(
        i
        for i in i1
        if all(
            ordering.before(x, y)
            for x, y in zip(cc.chains[i].added, cc.chains[i].added[1:])
        )
    )
    trace.stage_sets["I2"] = i2

    # Stage 3 (C3): greedy independent set of the conflict graph.
    adj = [0] * len(i2)
    for a, i in enumerate(i2):
        for b in range(a + 1, len(i2)):
            j = i2[b]
            ci, cj = cc.chains[i], cc.chains[j]
            if ci.support_mask & cj.support_mask:
                lo_i, hi_i = ci.size_range()
                lo_j, hi_j = cj.size_range()
                if lo_i <= hi_j and lo_j <= hi_i:
                    adj[a] |= 1 << b
                    adj[b] |= 1 << a
    i3 = tuple(i2[a] for a in greedy_independent_set_adj(adj))
    trace.stage_sets["I3"] = i3

    # Stage 4 (C4): minimum member size filter.
    threshold = min_size_multiplier * k * h
    selected = tuple(i for i in i3 if cc.chains[i].base.bit_count() >= threshold)
    trace.stage_sets["I"] = selected
    return selected, ordering, trace


@dataclass(frozen=True)
class ConditionReport:
    passed: bool
    violations: tuple[str, ...]


@dataclass(frozen=True)
class ConditionsReport:
    c1: ConditionReport
    c2: ConditionReport
    c3: ConditionReport
    c4: ConditionReport

    @property
    def all_pass(self) -> bool:
        return all(r.passed for r in (self.c1, self.c2, self.c3, self.c4))

    def as_dict(self):
        return {
            name: {"passed": r.passed, "violations": list(r.violations)}
            for name, r in (("C1", self.c1), ("C2", self.c2), ("C3", self.c3), ("C4", self.c4))
        }


def check_conditions(
    cc: ChainCollection,
    selected,
    ordering: Ordering,
    k: int,
    min_size_multiplier: int = 3,
) -> ConditionsReport:
    """Exhaustive verification of C1-C4 over the selected chain indices."""
    selected = tuple(selected)
    for i in selected:
        if not 0 <= i < len(cc):
            raise ValueError(f"selected index {i} out of range")
    h = cc.uniform_h()

    v1, v2, v3, v4 = [], [], [], []
    for a, i in enumerate(selected):
        ci = cc.chains[i]
        for j in selected[a + 1 :]:
            cj = cc.chains[j]
            common = ci.support_mask & cj.support_mask
            for x in elements_of(common):
                bi, bj = ci.member_below(x), cj.member_below(x)
                if bi & ~bj and bj & ~bi:
                    v1.append(f"chains {i},{j}: incomparable members below element {x}")
            if common:
                lo_i, hi_i = ci.size_range()
                lo_j, hi_j = cj.size_range()
                if lo_i <= hi_j and lo_j <= hi_i:
                    v3.append(f"chains {i},{j}: member sizes interleave")
        for x, y in zip(ci.added, ci.added[1:]):
            if not ordering.before(x, y):
                v2.append(f"chain {i}: added {x} before {y} against the ordering")
        if ci.base.bit_count() < min_size_multiplier * k * h:
            v4.append(
                f"chain {i}: minimum member size {ci.base.bit_count()}"
                f" < {min_size_multiplier * k * h}"
            )
    return ConditionsReport(
        ConditionReport(not v1, tuple(v1)),
        ConditionReport(not v2, tuple(v2)),
        ConditionReport(not v3, tuple(v3)),
        ConditionReport(not v4, tuple(v4)),
    )


# --- file formats -----------------------------------------------------------


def parse_chain_collection(text: str) -> ChainCollection:
    """Family-file header plus one line per chain: 'chain <base>; <x1,...,xh>'."""
    ground, body = split_header(text)
    chains = []
    for lineno, line in body:
        if not line.startswith("chain "):
            raise FamilyFormatError(f"expected 'chain <base>; <added>', got {line!r}", lineno)
        spec = line[len("chain ") :]
        if ";" not in spec:
            raise FamilyFormatError("missing ';' between base and added elements", lineno)
        base_txt, added_txt = (part.strip() for part in spec.split(";", 1))
        base = parse_set_line(base_txt, ground, lineno)
        if not added_txt:
            raise FamilyFormatError("chain has no added elements", lineno)
        added = tuple(parse_element(tok, ground, lineno) for tok in added_txt.split(","))
        try:
            chains.append(Chain(base, added))
        except ValueError as exc:
            raise FamilyFormatError(str(exc), lineno) from None
    return ChainCollection(ground, tuple(chains))


def serialize_chain_collection(cc: ChainCollection) -> str:
    out = [f"n {cc.ground.n}"]
    for c in cc.chains:
        out.append(f"chain {format_set(c.base)}; {','.join(str(x) for x in c.added)}")
    return "\n".join(out) + "\n"


def parse_ordering(text: str, n: int) -> Ordering:
    """One line of space-separated elements, most-preferred first."""
    tokens = text.split()
    try:
        perm = tuple(int(t) for t in tokens)
    except ValueError as exc:
        raise FamilyFormatError(f"bad ordering token: {exc}") from None
    if sorted(perm) != list(range(n)):
        raise FamilyFormatError(f"ordering is not a permutation of 0..{n - 1}")
    return Ordering(perm)


def serialize_ordering(ordering: Ordering) -> str:
    return " ".join(str(x) for x in ordering.perm) + "\n"
