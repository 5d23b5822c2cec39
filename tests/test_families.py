import random
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crossfree.families import (
    Family,
    FamilyFormatError,
    GroundSet,
    PairRelation,
    canonical_key,
    classify_pair,
    complement_closure,
    crosses,
    crossing_row,
    elements_of,
    family_predicates,
    format_set,
    mask_of,
    membership_masks,
    parse_element,
    parse_family,
    parse_natural,
    parse_set_line,
    region_tables,
    serialize_family,
)


def test_ground_set_bounds():
    GroundSet(1)
    GroundSet(64)
    with pytest.raises(ValueError):
        GroundSet(0)
    with pytest.raises(ValueError):
        GroundSet(65)


def test_mask_roundtrip():
    assert mask_of([0, 2, 5]) == 0b100101
    assert elements_of(0b100101) == (0, 2, 5)
    assert elements_of(0) == ()


def test_family_canonical_order_and_dedup():
    g = GroundSet(3)
    fam = Family(g, (0b110, 0b1, 0b110, 0b111, 0))
    assert fam.sets == (0, 0b1, 0b110, 0b111)
    assert len(fam) == 4
    assert 0b110 in fam.sets
    assert fam.sets.index(0b111) == 3


def test_family_rejects_out_of_range_mask():
    with pytest.raises(ValueError):
        Family(GroundSet(2), (0b100,))


def test_family_names_the_first_bad_mask_in_input_order():
    with pytest.raises(ValueError, match="mask 0x10 has bits outside"):
        Family(GroundSet(3), (0b1, 0b10000, 0b1000, 0b10))
    with pytest.raises(ValueError, match="mask 0x8 has bits outside"):
        Family(GroundSet(3), (0b1000, 0b1, 0b10000))


def test_family_rejects_negative_mask():
    with pytest.raises(ValueError, match="mask -0x1 has bits outside"):
        Family(GroundSet(3), (0b1, -1))


@given(st.integers(1, 64).flatmap(lambda n: st.tuples(st.just(n), st.lists(st.integers(0, (1 << n) - 1)))))
def test_family_order_is_canonical_key_order(case):
    n, sets = case
    assert Family(GroundSet(n), tuple(sets)).sets == tuple(sorted(set(sets), key=canonical_key))


def test_classify_pair_cases():
    g4 = GroundSet(4)
    g3 = GroundSet(3)
    assert classify_pair(mask_of([0, 1]), mask_of([1, 2]), g4) is PairRelation.CROSSING
    assert classify_pair(mask_of([0, 1]), mask_of([1, 2]), g3) is PairRelation.WEAK_ONLY
    assert classify_pair(mask_of([0, 1]), mask_of([0, 1, 2]), g4) is PairRelation.COMPARABLE
    assert classify_pair(mask_of([0]), mask_of([1]), g4) is PairRelation.DISJOINT
    assert classify_pair(mask_of([0, 1]), mask_of([0, 1]), g4) is PairRelation.EQUAL
    # the empty set is comparable to everything
    assert classify_pair(0, mask_of([1, 2]), g4) is PairRelation.COMPARABLE
    assert classify_pair(0, 0, g4) is PairRelation.EQUAL


def test_no_strict_crossing_below_n4():
    g = GroundSet(3)
    for a in range(8):
        for b in range(8):
            assert classify_pair(a, b, g) is not PairRelation.CROSSING


@st.composite
def mask_pairs(draw):
    n = draw(st.integers(min_value=1, max_value=10))
    a = draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    b = draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    return n, a, b


@given(mask_pairs())
def test_classify_symmetric(case):
    n, a, b = case
    g = GroundSet(n)
    assert classify_pair(a, b, g) is classify_pair(b, a, g)


@given(mask_pairs(), st.randoms(use_true_random=False))
def test_crossing_invariant_under_relabeling(case, rnd):
    n, a, b = case
    g = GroundSet(n)
    perm = list(range(n))
    rnd.shuffle(perm)

    def relabel(mask):
        return mask_of(perm[e] for e in elements_of(mask))

    for mode in ("strict", "weak"):
        assert crosses(a, b, g, mode) == crosses(relabel(a), relabel(b), g, mode)


@given(mask_pairs())
def test_strict_crossing_invariant_under_complement(case):
    n, a, b = case
    g = GroundSet(n)
    ca = g.full_mask & ~a
    strict = classify_pair(a, b, g) is PairRelation.CROSSING
    assert strict == (classify_pair(ca, b, g) is PairRelation.CROSSING)


@given(mask_pairs())
def test_crossing_needs_room(case):
    n, a, b = case
    g = GroundSet(n)
    if classify_pair(a, b, g) is PairRelation.CROSSING:
        assert min(a.bit_count(), b.bit_count()) >= 2
        assert (a | b).bit_count() <= n - 1


def pairwise_predicates(fam):
    """family_predicates from the bit regions of each pair, as the slow oracle."""
    sets = fam.sets
    pairs = list(combinations(sets, 2))
    # A pair is comparable when a\b or b\a is empty, and crosses at least
    # weakly when a\b, b\a and a&b are all nonempty.
    comparable = [not (a & ~b and b & ~a) for a, b in pairs]
    is_chain = all(comparable)
    return {
        "is_chain": is_chain,
        "is_continuous_chain": is_chain
        and all(b.bit_count() == a.bit_count() + 1 for a, b in zip(sets, sets[1:])),
        "is_antichain": not any(comparable),
        "is_intersecting": all(sets) and all(a & b for a, b in pairs),
        "is_laminar": not any(a & ~b and b & ~a and a & b for a, b in pairs),
    }


@st.composite
def predicate_families(draw):
    n = draw(st.integers(min_value=1, max_value=64))
    full = (1 << n) - 1
    mask = st.integers(min_value=0, max_value=full)
    base = draw(st.lists(st.one_of(st.just(0), st.just(full), mask), max_size=12))
    if draw(st.booleans()):
        # A chain from the empty set, one element at a time, hits the chain
        # and continuous-chain flags; sampling a few of its members hits an
        # uneven chain.
        order = draw(st.permutations(range(n)))
        chain = [mask_of(order[:size]) for size in range(n + 1)]
        base += draw(st.lists(st.sampled_from(chain), max_size=n + 1)) if draw(st.booleans()) else chain
    return Family(GroundSet(n), tuple(base))


@settings(deadline=None)
@given(predicate_families())
def test_family_predicates_match_pairwise_scan(fam):
    assert family_predicates(fam)._asdict() == pairwise_predicates(fam)


def test_family_predicates_examples():
    g2 = GroundSet(2)
    p = family_predicates(Family(g2, (0, 0b1, 0b11)))
    assert p.is_chain and p.is_continuous_chain and p.is_laminar
    assert not p.is_antichain and not p.is_intersecting

    g3 = GroundSet(3)
    p = family_predicates(Family(g3, (0b1, 0b10, 0b100)))
    assert p.is_antichain and p.is_laminar and not p.is_intersecting

    p = family_predicates(Family(g3, (0b11, 0b110)))
    assert p.is_antichain and p.is_intersecting and not p.is_laminar


def test_continuous_chain_needs_unit_steps():
    g = GroundSet(4)
    p = family_predicates(Family(g, (0b1, 0b111)))
    assert p.is_chain and not p.is_continuous_chain


def test_is_weakly_crossing():
    g = GroundSet(3)
    assert crosses(0b11, 0b110, g, "weak")
    assert not crosses(0b1, 0b11, g, "weak")


def test_complement_closure():
    g = GroundSet(2)
    assert complement_closure(Family(g, (0b1,))).sets == (0b1, 0b10)
    fam = Family(g, (0, 0b11))
    assert complement_closure(fam).sets == fam.sets


def test_parse_family_basic():
    fam = parse_family("n 3\n-\n0\n0,1\n")
    assert fam.ground.n == 3
    assert fam.sets == (0, 0b1, 0b11)


def test_parse_family_comments_and_duplicates():
    with pytest.warns(UserWarning, match="duplicate"):
        fam = parse_family("# header comment\nn 3\n0,1\n0,1\n")
    assert fam.sets == (0b11,)


def test_parse_family_errors():
    with pytest.raises(FamilyFormatError, match=r"element 5 >= n=2 at line 2"):
        parse_family("n 2\n5\n")
    with pytest.raises(FamilyFormatError, match="header"):
        parse_family("0,1\n")
    with pytest.raises(FamilyFormatError, match="ascending"):
        parse_family("n 3\n1,0\n")
    with pytest.raises(FamilyFormatError):
        parse_family("n 70\n")


def test_serialize_roundtrip_stable():
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randrange(1, 9)
        fam = Family(
            GroundSet(n),
            tuple(rng.randrange(1 << n) for _ in range(rng.randrange(0, 10))),
        )
        text = serialize_family(fam)
        again = parse_family(text)
        assert again.sets == fam.sets
        assert serialize_family(again) == text


def test_format_set():
    assert format_set(0) == "-"
    assert format_set(0b101) == "0,2"


def loop_membership_masks(sets, n):
    """membership_masks by one big-int OR per element per set, as the slow oracle."""
    masks = [0] * n
    for i, s in enumerate(sets):
        for e in elements_of(s):
            masks[e] |= 1 << i
    return masks


def loop_set_regions(a, masks):
    """Index masks (inter, beyond, within, outside) of set a, one step per
    ground element, as the slow oracle for crossing_row.

    Over the indexed members b: inter holds those with a&b nonempty, beyond
    those with b\\a nonempty, within those containing a, and outside those
    with some element outside a|b. within is -1 when a is empty, and
    outside may be negative.
    """
    inter = beyond = outside = 0
    within = -1
    for e, m in enumerate(masks):
        if a >> e & 1:
            inter |= m
            within &= m
        else:
            beyond |= m
            outside |= ~m
    return inter, beyond, within, outside


@st.composite
def indexed_sets(draw):
    """(n, sets, a): a list of sets over n <= 64 and one more set to row."""
    n = draw(st.one_of(st.integers(min_value=1, max_value=9), st.integers(min_value=1, max_value=64)))
    full = (1 << n) - 1
    mask = st.one_of(st.just(0), st.just(full), st.integers(min_value=0, max_value=full))
    return n, draw(st.lists(mask, max_size=80)), draw(mask)


# Ground sizes around the 4-element runs of the tables and the word size;
# a list of more than 64 sets makes index masks wider than a word.
_INDEX_EXAMPLES = [
    (1, [], 0),
    (1, [0, 1, 1], 1),
    (3, [0b101, 0b010, 0b111, 0], 0b110),
    (4, list(range(16)), 0b0110),
    (5, [m * 3 % 32 for m in range(32)], 0b10011),
    (63, [], (1 << 63) - 1),
    (63, [(1 << 63) - 1, 1 << 62, 0b1011 << 58, 0], 0b1111 << 59),
    (64, [(1 << 64) - 1, 1 << 63, 0, 0xF0F0_F0F0_F0F0_F0F0], 0),
    (64, [random.Random(7).getrandbits(64) for _ in range(100)], 0xFFFF_0000_FFFF_0000),
]


def _with_examples(test):
    for case in _INDEX_EXAMPLES:
        test = example(case)(test)
    return test


@settings(deadline=None)
@given(indexed_sets())
@_with_examples
def test_membership_masks_match_loop(case):
    n, sets, _ = case
    assert membership_masks(sets, n) == loop_membership_masks(sets, n)


@settings(deadline=None)
@given(indexed_sets())
@_with_examples
def test_crossing_row_matches_loop(case):
    n, sets, a = case
    masks = loop_membership_masks(sets, n)
    tables = region_tables(masks)
    inter, beyond, within, outside = loop_set_regions(a, masks)
    weak = inter & beyond & ~within
    assert crossing_row(a, tables, "weak") == weak
    assert crossing_row(a, tables, "strict") == weak & outside


def loop_parse_set_line(line, ground, lineno=None):
    """parse_set_line with one parse_element call per token, as the slow oracle."""
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


def _parse_outcome(parse, line, ground):
    try:
        return "ok", parse(line, ground, 7)
    except FamilyFormatError as exc:
        return "error", str(exc), exc.line


def test_parse_set_line_matches_per_token_loop():
    tokens = ["-", "0", "1", " 2", "3 ", "5", "9", "12", "-1", "-0", "x", "", " ", "+3", "1_0", "07", "٣", "1e2"]
    rng = random.Random(22)
    for _ in range(3000):
        ground = GroundSet(rng.randrange(1, 13))
        line = ",".join(rng.choice(tokens) for _ in range(rng.randrange(1, 5)))
        expected = _parse_outcome(loop_parse_set_line, line, ground)
        assert _parse_outcome(parse_set_line, line, ground) == expected, line


def test_parse_natural_takes_only_ascii_digits():
    assert [parse_natural(t) for t in ("0", "07", "12")] == [0, 7, 12]
    # int() reads the last seven as numbers.
    for tok in ("", "1 2", "\u00b2", " 1", "+3", "-0", "-1", "1_0", "\u0663", "\uff11"):
        with pytest.raises(ValueError, match="expected ASCII digits"):
            parse_natural(tok)
    # parse_element takes the whitespace around a token, as int() does.
    assert [parse_element(t, GroundSet(13)) for t in (" 12\t", "\u00a03\u2003")] == [12, 3]
