"""Ground sets, subset masks, and set families over at most 64 elements.

A subset of the ground set {0, ..., n-1} is stored as a plain int bitmask
(element e is in the set iff bit e is set), so a subset is one machine word
and all region computations are bitwise ops.

A set's crossing row against a whole family goes through the family's
membership index: one int per ground element whose bit i is set iff the
element lies in the i-th member (the bitboard idea of San Segundo et al.,
Comput. Oper. Res. 2011). The members that meet, leave, contain or miss
the set are unions and intersections of index masks, read from OR/AND
tables over each run of 4 elements (the "Four Russians" trick of Arlazarov
et al., 1970), so the row costs n/4 lookups instead of one Python-level
comparison per member. ``crossing_row`` is the tables' one reader.
``classify_pair`` and ``crosses`` stay the per-pair oracle, and
``family_predicates`` reads ``classify_pair`` one pair at a time.
"""

from __future__ import annotations

import enum
import warnings
from operator import attrgetter
from typing import NamedTuple

MAX_GROUND = 64


class FamilyFormatError(ValueError):
    """Raised for malformed family / chain / ordering files."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"{message} at line {line}"
        super().__init__(message)
        self.line = line


class _Frozen:
    """Base of the checked value types. ``__init__`` runs the checks and
    sets each slot once with ``object.__setattr__``; assignment raises
    afterwards. Equality, hashing, repr and pickling read the constructor
    fields named in ``_fields``, as a frozen dataclass's would."""

    __slots__ = ()

    def __init_subclass__(cls):
        # Reads the fields in C: their tuple, or the one field's value.
        cls._key = attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({args})"

    def __reduce__(self):
        return type(self), tuple([getattr(self, f) for f in self._fields])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class GroundSet(_Frozen):
    """The n-element ground set {0, ..., n-1}."""

    __slots__ = _fields = ("n",)

    def __init__(self, n: int):
        if not 1 <= n <= MAX_GROUND:
            raise ValueError(f"ground set size must be in [1, {MAX_GROUND}], got {n}")
        object.__setattr__(self, "n", n)

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


class Family(_Frozen):
    """A deduplicated family of subsets in canonical order.

    The empty set and the full ground set are both legal members.
    """

    __slots__ = _fields = ("ground", "sets")

    def __init__(self, ground: GroundSet, sets: tuple[int, ...]):
        if sets and (min(sets) < 0 or max(sets) > ground.full_mask):
            for m in sets:  # names the first bad mask
                ground.check_mask(m)
        object.__setattr__(self, "ground", ground)
        # By value, then stably by size: the order of canonical_key.
        object.__setattr__(self, "sets", tuple(sorted(sorted(set(sets)), key=int.bit_count)))

    def __len__(self):
        return len(self.sets)


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


def crosses(a: int, b: int, ground: GroundSet, mode: str) -> bool:
    """Pair predicate under the given mode ('strict' or 'weak')."""
    rel = classify_pair(a, b, ground)
    if mode == "strict":
        return rel is PairRelation.CROSSING
    if mode == "weak":
        return rel in (PairRelation.CROSSING, PairRelation.WEAK_ONLY)
    raise ValueError(f"unknown mode {mode!r}")


def membership_masks(sets, n: int) -> list[int]:
    """The membership index of a list of sets over {0, ..., n-1}.

    masks[e] has bit i set iff element e lies in sets[i]. Every set must be
    below 2^n, as ``Family`` guarantees: the n-digit binary strings of the
    sets, last set first, are joined, and element e's digit string is the
    slice that takes every n-th digit from position n-1-e.
    """
    if not sets:
        return [0] * n
    bits = "".join(format(s, f"0{n}b") for s in reversed(sets))
    return [int(bits[j::n], 2) for j in reversed(range(n))]


def region_tables(masks) -> list[tuple[list[int], list[int]]]:
    """OR and AND tables of an index, one pair per run of 4 ground elements.

    tables[r] holds, for each subset v of elements 4r..4r+3 (bit j is
    element 4r+j), the OR and the AND of their masks; the empty AND is -1.
    A short last run ignores its missing elements by repeating its tables.
    """
    tables = []
    for c in range(0, len(masks), 4):
        ors, ands = [0], [-1]
        # One loop for both tables: 2/3 the time of two comprehensions (CPython 3.11).
        for m in masks[c : c + 4]:
            for i in range(len(ors)):
                ors.append(ors[i] | m)
                ands.append(ands[i] & m)
        reps = 16 // len(ors)
        tables.append((ors * reps, ands * reps))
    return tables


def crossing_row(a: int, tables, mode: str) -> int:
    """Index mask of the members that cross set a under the given mode.

    Over the members b indexed by ``region_tables(masks)``, inter holds
    those with a&b nonempty, beyond those with b\\a nonempty, within those
    containing a, and ~cover those with some element outside a|b. A run of
    4 elements costs one lookup for its elements in a (v) and one for the
    rest (15 ^ v). The row is inter & beyond & ~within (plus & ~cover in
    strict mode); inter bounds it to the indexed members, and a member
    equal to a is never in beyond, so it is never in its own row.
    """
    inter = beyond = 0
    within = cover = -1
    for ors, ands in tables:
        v = a & 15
        a >>= 4
        inter |= ors[v]
        within &= ands[v]
        beyond |= ors[15 ^ v]
        cover &= ands[15 ^ v]
    row = inter & beyond & ~within
    if mode == "strict":
        return row & ~cover
    if mode == "weak":
        return row
    raise ValueError(f"unknown mode {mode!r}")


class FamilyPredicates(NamedTuple):
    is_chain: bool
    is_continuous_chain: bool
    is_antichain: bool
    is_intersecting: bool
    is_laminar: bool


def family_predicates(fam: Family) -> FamilyPredicates:
    """Chain / antichain / intersecting / laminar flags for a family.

    By definition, from the ``classify_pair`` relation of each pair of
    members: laminar means every pair is nested or disjoint, and
    intersecting also needs every member nonempty, as a member must meet
    itself.
    """
    sets, g = fam.sets, fam.ground
    rels = {classify_pair(a, b, g) for i, a in enumerate(sets) for b in sets[i + 1 :]}
    comparable, disjoint = PairRelation.COMPARABLE, PairRelation.DISJOINT
    is_chain = rels <= {comparable}
    # Canonical order sorts a chain by cardinality already.
    is_continuous = is_chain and all(b.bit_count() == a.bit_count() + 1 for a, b in zip(sets, sets[1:]))
    return FamilyPredicates(
        is_chain,
        is_continuous,
        comparable not in rels,
        all(sets) and disjoint not in rels,
        rels <= {comparable, disjoint},
    )


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
            n = parse_natural(parts[1])
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


def parse_natural(tok: str) -> int:
    """The value of a token of ASCII digits; ValueError for anything else,
    such as whitespace, a sign, a '_' or a non-ASCII digit, all of which
    int() takes."""
    if not (tok.isascii() and tok.isdigit()):
        raise ValueError(f"expected ASCII digits, got {tok!r}")
    return int(tok)


def parse_element(tok: str, ground: GroundSet, lineno=None) -> int:
    """Parse one ground-set element of a set or chain line."""
    tok = tok.strip()
    try:
        e = parse_natural(tok)
    except ValueError:
        raise FamilyFormatError(f"malformed set element {tok!r}", lineno) from None
    if e >= ground.n:
        raise FamilyFormatError(f"element {e} >= n={ground.n}", lineno)
    return e


def parse_set_line(line: str, ground: GroundSet, lineno=None) -> int:
    """Parse one set: '-' or comma-separated ascending integers."""
    if line == "-":
        return 0
    mask = 0
    prev = -1
    n = ground.n
    # int() reads each token as parse_element does unless the line has a
    # non-ASCII character, a sign or a '_'; then parse_element reads each.
    plain = line.isascii() and "-" not in line and "+" not in line and "_" not in line
    for tok in line.split(","):
        try:
            e = int(tok) if plain else parse_element(tok, ground, lineno)
        except ValueError:
            e = -1
        if not prev < e < n:
            # A bad token raises its own error first; otherwise e <= prev.
            e = parse_element(tok, ground, lineno)
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
