"""The public contract of the package's 19 value and record types.

Each type is built twice from equal fields, once by position and once by
keyword, so the constructor's field names and order are pinned too. Two
such instances compare equal, hash alike when the type is hashable, survive
a pickle round trip, and refuse assignment to, or deletion of, any
attribute. ``SelectionTrace`` is the one record whose field is a dict
filled in place; it is checked for equality and pickling only.
"""

import pickle
from fractions import Fraction

import pytest

from crossfree.chains import (
    Chain,
    ChainCollection,
    ConditionsReport,
    Ordering,
    SelectionTrace,
    SuccessorGraph,
)
from crossfree.crossing import (
    ChainDecomposition,
    CrossingGraph,
    UniformBoundReport,
    Witness,
)
from crossfree.families import Family, FamilyPredicates, GroundSet
from crossfree.search import BoundRow, SearchResult
from crossfree.tree import BuildResult, CrossSupportTree, TreeNode, TreeReport


def family():
    return Family(GroundSet(4), (0b0110, 0b0011, 0b0011))


# type -> (positional args, keyword args, hashable); both build equal instances.
CASES = {
    GroundSet: ((5,), dict(n=5), True),
    Family: ((GroundSet(4), (6, 3, 3)), dict(ground=GroundSet(4), sets=(3, 6)), True),
    Witness: ((GroundSet(4), (3, 6), "strict"), dict(ground=GroundSet(4), sets=(3, 6), mode="strict"), True),
    ChainDecomposition: ((((1, 3),), (1,)), dict(chains=((1, 3),), max_antichain=(1,)), True),
    Chain: ((1, (1, 2)), dict(base=1, added=(1, 2)), True),
    ChainCollection: (
        (GroundSet(3), (Chain(1, (1,)),)),
        dict(ground=GroundSet(3), chains=(Chain(base=1, added=(1,)),)),
        True,
    ),
    Ordering: (((2, 0, 1),), dict(perm=(2, 0, 1)), True),
    FamilyPredicates: (
        (True, False, True, False, True),
        dict(is_chain=True, is_continuous_chain=False, is_antichain=True, is_intersecting=False, is_laminar=True),
        True,
    ),
    CrossingGraph: (((2, 1),), dict(adj=(2, 1)), True),
    UniformBoundReport: (
        (True, 2, Fraction(3), 4, True),
        dict(is_uniform=True, level=2, bound=Fraction(3), size=4, violates=True),
        True,
    ),
    SuccessorGraph: ((family(), ((), ())), dict(family=family(), out_edges=((), ())), True),
    SelectionTrace: (({"I0": (0, 1)},), dict(stage_sets={"I0": (0, 1)}), False),
    ConditionsReport: (({"C1": ("x",)},), dict(violations={"C1": ("x",)}), False),
    SearchResult: ((family(), 2, 7), dict(best=family(), size=2, nodes_explored=7), True),
    BoundRow: (
        (3, 2, "all", "strict", 10, 10, "2-cross-free 4n-2", "yes"),
        dict(n=3, k=2, universe="all", mode="strict", exact=10, formula=10,
             formula_name="2-cross-free 4n-2", tight="yes"),
        True,
    ),
    TreeNode: ((0, None, (TreeNode(1, 2),)), dict(chain=0, edge_label=None, children=(TreeNode(1, 2),)), True),
    CrossSupportTree: ((TreeNode(0, None),), dict(root=TreeNode(0, None)), True),
    TreeReport: (((), {"T1": ()}, {"T6": ()}), dict(malformed=(), violations={"T1": ()}, advisory={"T6": ()}), False),
    BuildResult: ((None, {0: "no pool"}), dict(tree=None, per_root={0: "no pool"}), False),
}

TYPES = list(CASES)


def test_nineteen_types():
    assert len(TYPES) == 19


def build(cls):
    args, kwargs, _ = CASES[cls]
    return cls(*args), cls(**kwargs)


@pytest.mark.parametrize("cls", TYPES, ids=lambda c: c.__name__)
def test_equal_fields_compare_equal(cls):
    a, b = build(cls)
    assert a == b and not a != b


def test_checked_types_compare_every_field():
    g = GroundSet(4)
    pairs = [
        (g, GroundSet(5)),
        (Family(g, (3,)), Family(GroundSet(5), (3,))),
        (Family(g, (3,)), Family(g, (3, 6))),
        (Witness(g, (3, 6), "strict"), Witness(g, (3, 6), "weak")),
        (ChainDecomposition(((1, 3),), (1,)), ChainDecomposition(((1, 3),), (3,))),
        (Chain(1, (1,)), Chain(1, (1, 2))),
        (ChainCollection(GroundSet(3), (Chain(1, (1,)),)), ChainCollection(GroundSet(3), ())),
        (Ordering((0, 1)), Ordering((1, 0))),
    ]
    for a, b in pairs:
        assert a != b and not a == b


@pytest.mark.parametrize("cls", [c for c in TYPES if CASES[c][2]], ids=lambda c: c.__name__)
def test_hashable_types_hash_by_value(cls):
    a, b = build(cls)
    assert hash(a) == hash(b) and len({a, b}) == 1


@pytest.mark.parametrize("cls", TYPES, ids=lambda c: c.__name__)
def test_pickle_round_trip(cls):
    a, _ = build(cls)
    assert pickle.loads(pickle.dumps(a)) == a


# Attributes computed from the fields; they are read-only too.
DERIVED = {Chain: ("members", "support_mask", "below")}


@pytest.mark.parametrize("cls", [c for c in TYPES if c is not SelectionTrace], ids=lambda c: c.__name__)
def test_attributes_are_read_only(cls):
    a, b = build(cls)
    for name in (*CASES[cls][1], *DERIVED.get(cls, ()), "not_a_field"):
        before = getattr(a, name, None)
        with pytest.raises(AttributeError):
            setattr(a, name, before)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a == b


def test_derived_attributes_match_fields():
    chain = Chain(0b1, (2, 1))
    assert chain.members == (0b1, 0b101, 0b111)
    assert chain.support_mask == 0b110
    assert chain.below == {2: 0b1, 1: 0b101}
    order = Ordering((2, 0, 1))
    assert [order.position(x) for x in range(3)] == [1, 2, 0]
    assert order.before(2, 0) and not order.before(1, 0)
    assert Family(GroundSet(3), (0b111, 0b1, 0b10, 0b1)).sets == (0b1, 0b10, 0b111)


@pytest.mark.parametrize("perm", [(0, 0), (1, 2), (0, 2, 3)])
def test_ordering_must_be_a_permutation(perm):
    with pytest.raises(ValueError, match=r"^ordering must be a permutation of 0\.\.n-1$"):
        Ordering(perm)


@pytest.mark.parametrize("n", [0, -1, 65])
def test_ground_set_size_range(n):
    with pytest.raises(ValueError, match=rf"^ground set size must be in \[1, 64\], got {n}$"):
        GroundSet(n)
