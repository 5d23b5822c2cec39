"""Ground sets, subset masks, and set families over at most 64 elements.

A subset of the ground set {0, ..., n-1} is stored as a plain int bitmask
(element e is in the set iff bit e is set), so a subset is one machine word
and all region computations are bitwise ops.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass, field

MAX_GROUND = 64


class FamilyFormatError(ValueError):
    """Raised for malformed family / chain / ordering files."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"{message} at line {line}"
        super().__init__(message)
        self.line = line


@dataclass(frozen=True)
class GroundSet:
    """The n-element ground set {0, ..., n-1}."""

    n: int

    def __post_init__(self):
        if not 1 <= self.n <= MAX_GROUND:
            raise ValueError(f"ground set size must be in [1, {MAX_GROUND}], got {self.n}")

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def check_mask(self, mask: int) -> int:
        if mask < 0 or mask & ~self.full_mask:
            raise ValueError(f"mask {mask:#x} has bits outside ground set of size {self.n}")
        return mask


def mask_of(elements) -> int:
    """Bitmask of an iterable of elements."""
    m = 0
    for e in elements:
        m |= 1 << e
    return m


def elements_of(mask: int) -> tuple[int, ...]:
    """Ascending elements of a bitmask."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def canonical_key(mask: int) -> tuple[int, int]:
    """Sort key: ascending cardinality, ties by numeric value."""
    return (mask.bit_count(), mask)


@dataclass(frozen=True)
class Family:
    """A deduplicated family of subsets in canonical order.

    The empty set and the full ground set are both legal members.
    """

    ground: GroundSet
    sets: tuple[int, ...]

    def __post_init__(self):
        for m in self.sets:
            self.ground.check_mask(m)
        canon = tuple(sorted(set(self.sets), key=canonical_key))
        object.__setattr__(self, "sets", canon)

    def __len__(self):
        return len(self.sets)

    def __contains__(self, mask):
        return mask in set(self.sets)

    def index(self, mask: int) -> int:
        return self.sets.index(mask)


class PairRelation(enum.Enum):
    """Exhaustive, mutually exclusive taxonomy of an unordered set pair."""

    CROSSING = "crossing"
    WEAK_ONLY = "weak-only"
    COMPARABLE = "comparable"
    DISJOINT = "disjoint"
    EQUAL = "equal"


def classify_pair(a: int, b: int, ground: GroundSet) -> PairRelation:
    """Classify the pair (a, b) over the given ground set.

    Crossing: all four regions a\\b, b\\a, a&b, and the outside are nonempty.
    Weak-only: a&b, a\\b, b\\a nonempty but a|b covers the ground set.
    The empty set is comparable to everything (and equal to itself).
    """
    ground.check_mask(a)
    ground.check_mask(b)
    if a == b:
        return PairRelation.EQUAL
    only_a = a & ~b
    only_b = b & ~a
    if not only_a or not only_b:
        return PairRelation.COMPARABLE
    inter = a & b
    if not inter:
        return PairRelation.DISJOINT
    outside = ~(a | b) & ground.full_mask
    return PairRelation.CROSSING if outside else PairRelation.WEAK_ONLY


_WEAK_KINDS = (PairRelation.CROSSING, PairRelation.WEAK_ONLY)


def is_weakly_crossing(a: int, b: int, ground: GroundSet) -> bool:
    """True iff a&b, a\\b, b\\a are all nonempty."""
    return classify_pair(a, b, ground) in _WEAK_KINDS


def crosses(a: int, b: int, ground: GroundSet, mode: str) -> bool:
    """Pair predicate under the given mode ('strict' or 'weak')."""
    rel = classify_pair(a, b, ground)
    if mode == "strict":
        return rel is PairRelation.CROSSING
    if mode == "weak":
        return rel in _WEAK_KINDS
    raise ValueError(f"unknown mode {mode!r}")


@dataclass(frozen=True)
class FamilyPredicates:
    is_chain: bool
    is_continuous_chain: bool
    is_antichain: bool
    is_intersecting: bool
    is_laminar: bool

    def as_dict(self):
        return {
            "is_chain": self.is_chain,
            "is_continuous_chain": self.is_continuous_chain,
            "is_antichain": self.is_antichain,
            "is_intersecting": self.is_intersecting,
            "is_laminar": self.is_laminar,
        }


def family_predicates(fam: Family) -> FamilyPredicates:
    """Chain / antichain / intersecting / laminar flags for a family."""
    sets = fam.sets
    ground = fam.ground
    is_chain = True
    is_antichain = True
    is_intersecting = True
    is_laminar = True
    n = len(sets)
    for i in range(n):
        a = sets[i]
        if not a:
            is_intersecting = False
        for j in range(i + 1, n):
            b = sets[j]
            rel = classify_pair(a, b, ground)
            if rel is not PairRelation.COMPARABLE:
                is_chain = False
            if rel is PairRelation.COMPARABLE:
                is_antichain = False
            if not a & b:
                is_intersecting = False
            if rel in _WEAK_KINDS:
                is_laminar = False
    is_continuous = is_chain
    if is_chain:
        # Canonical order sorts a chain by cardinality already.
        for i in range(n - 1):
            if sets[i + 1].bit_count() != sets[i].bit_count() + 1:
                is_continuous = False
                break
    return FamilyPredicates(is_chain, is_continuous, is_antichain, is_intersecting, is_laminar)


def complement_closure(fam: Family) -> Family:
    """The family together with the complement of each member."""
    full = fam.ground.full_mask
    return Family(fam.ground, fam.sets + tuple(full & ~m for m in fam.sets))


def split_header(text: str) -> tuple[GroundSet, list[tuple[int, str]]]:
    """Parse the ``n <int>`` header line and return the lines after it.

    Blank lines and ``#`` comment lines are skipped everywhere; each
    remaining line is returned stripped, with its 1-based line number.
    """
    ground = None
    body = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if ground is not None:
            body.append((lineno, line))
            continue
        parts = line.split()
        if len(parts) != 2 or parts[0] != "n":
            raise FamilyFormatError(f"expected header 'n <int>', got {line!r}", lineno)
        try:
            n = int(parts[1])
        except ValueError:
            raise FamilyFormatError(f"bad ground set size {parts[1]!r}", lineno) from None
        if not 1 <= n <= MAX_GROUND:
            raise FamilyFormatError(f"n={n} outside [1, {MAX_GROUND}]", lineno)
        ground = GroundSet(n)
    if ground is None:
        raise FamilyFormatError("missing 'n <int>' header")
    return ground, body


def parse_family(text: str) -> Family:
    """Parse the family file format.

    Line 1 is ``n <int>``; each later line is a set given as comma-separated
    ascending 0-based integers, or ``-`` for the empty set. ``#`` starts a
    comment line. Duplicate sets are merged with a warning.
    """
    ground, body = split_header(text)
    masks = []
    seen = set()
    for lineno, line in body:
        mask = parse_set_line(line, ground, lineno)
        if mask in seen:
            warnings.warn(f"duplicate set {format_set(mask)!r} at line {lineno} merged", stacklevel=2)
        else:
            seen.add(mask)
            masks.append(mask)
    return Family(ground, tuple(masks))


def parse_element(tok: str, ground: GroundSet, lineno=None) -> int:
    """Parse one ground-set element of a set or chain line."""
    tok = tok.strip()
    try:
        e = int(tok)
    except ValueError:
        raise FamilyFormatError(f"malformed set element {tok!r}", lineno) from None
    if e < 0:
        raise FamilyFormatError(f"elements must be nonnegative, got {tok}", lineno)
    if e >= ground.n:
        raise FamilyFormatError(f"element {e} >= n={ground.n}", lineno)
    return e


def parse_set_line(line: str, ground: GroundSet, lineno=None) -> int:
    """Parse one set: '-' or comma-separated ascending integers."""
    if line == "-":
        return 0
    mask = 0
    prev = -1
    for tok in line.split(","):
        e = parse_element(tok, ground, lineno)
        if e <= prev:
            raise FamilyFormatError(f"elements must be ascending, got {e}", lineno)
        prev = e
        mask |= 1 << e
    return mask


def format_set(mask: int) -> str:
    if not mask:
        return "-"
    return ",".join(str(e) for e in elements_of(mask))


def serialize_family(fam: Family) -> str:
    """Canonical family file text; stable under a parse/serialize round trip."""
    out = [f"n {fam.ground.n}"]
    out.extend(format_set(m) for m in fam.sets)
    return "\n".join(out) + "\n"
