"""Value semantics of the package's immutable records: equality and hashing
by fields within one class, no tuple behaviour, read-only fields."""

import copy
import inspect
import pickle
from fractions import Fraction

import pytest

from lensknots import (
    CheckResult,
    Decoration,
    GroupDescription,
    LegendrianClass,
    MountainRange,
    ShuffleClass,
    Slope,
    SurgeryChain,
    SweepReport,
    TorusState,
    contact_mcg,
    contact_mcg_rel_torus,
    decoration,
    enumerate_tight,
    inclusion_kernel,
    legendrian_classification,
    mountain_range,
    smooth_mcg,
    stabilize,
)


def _peak(p, q, plus_counts):
    return legendrian_classification(p, q, ShuffleClass(decoration(p, q), plus_counts))[0]


# Per record class: a builder that makes a fresh record on every call, and a
# record of the same class with other field values.
RECORDS = {
    Slope: (lambda: Slope(-24, 10), Slope(-12, 7)),
    TorusState: (lambda: TorusState(Slope(1, 2)), TorusState(Slope(1, 3))),
    CheckResult: (lambda: CheckResult("count"), CheckResult("count", "L(3,1)")),
    SweepReport: (
        lambda: SweepReport(3, (CheckResult("count"),), 0.5),
        SweepReport(3, (CheckResult("count"),), 0.25),
    ),
    GroupDescription: (
        lambda: GroupDescription("Z2", ("sigma",)),
        GroupDescription("Z2", ("tau",)),
    ),
    SurgeryChain: (lambda: SurgeryChain((-5, -3)), SurgeryChain((-5, -3), "last")),
    Decoration: (lambda: decoration(12, 5), decoration(9, 2)),
    ShuffleClass: (
        lambda: ShuffleClass(decoration(12, 5), (1, 0)),
        ShuffleClass(decoration(12, 5), (0, 1)),
    ),
    LegendrianClass: (lambda: _peak(12, 5, (1, 0)), stabilize(_peak(12, 5, (1, 0)), "+")),
    MountainRange: (
        lambda: mountain_range(12, 5, ShuffleClass(decoration(12, 5), (1, 0)), "k1", 2),
        mountain_range(12, 5, ShuffleClass(decoration(12, 5), (1, 0)), "k1", 3),
    ),
}
CLASSES = pytest.mark.parametrize("cls", list(RECORDS), ids=lambda c: c.__name__)


def _names(cls):
    """Field names, in order: the constructor's parameters."""
    return list(inspect.signature(cls).parameters)


def _fields(record):
    return tuple(getattr(record, name) for name in _names(type(record)))


@CLASSES
def test_equal_fields_compare_and_hash_equal(cls):
    make, other = RECORDS[cls]
    a, b = make(), make()
    assert type(a) is cls and a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert a != other and not a == other


@CLASSES
def test_never_equal_to_a_tuple_or_another_record(cls):
    a = RECORDS[cls][0]()
    assert a != _fields(a) and _fields(a) != a
    for other_cls, (make, _) in RECORDS.items():
        if other_cls is not cls:
            assert a != make()
    with pytest.raises(TypeError):
        a < a  # noqa: B015
    with pytest.raises(TypeError):
        iter(a)


@CLASSES
def test_fields_are_read_only(cls):
    a = RECORDS[cls][0]()
    before = _fields(a)
    for name in _names(cls):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert _fields(a) == before


@CLASSES
def test_usable_as_dict_keys(cls):
    make, other = RECORDS[cls]
    table = {make(): "first", other: "other"}
    assert table[make()] == "first"
    assert len({make(), make(), other}) == 2


@CLASSES
def test_copy_and_pickle_keep_the_value(cls):
    a = RECORDS[cls][0]()
    assert copy.copy(a) == a
    assert copy.deepcopy(a) == a
    assert pickle.loads(pickle.dumps(a)) == a


def test_reprs():
    assert repr(Slope(-12, 5)) == "Slope(-12/5)"
    assert repr(CheckResult("count")) == (
        "CheckResult(name='count', counterexample=None, cases=0, seconds=0.0)"
    )
    assert repr(SurgeryChain((-3, -2))) == "SurgeryChain(framings=(-3, -2), meridian_of='first')"
    assert repr(TorusState(Slope(1, 2))) == "TorusState(dividing_slope=Slope(1/2))"
    assert repr(_peak(3, 1, (1,))) == (
        "LegendrianClass(knot='k1', tb_q=Fraction(-2, 3), rot_q=Fraction(-1, 3), "
        "structure=ShuffleClass(decoration=Decoration(p=3, q=1, "
        "path=(Slope(-3), Slope(-2), Slope(-1), Slope(0)), blocks=(1,), steps=((1, 0),), "
        "peak_tb=(-2, -2), knots=('k1', '-k1')), plus_counts=(1,)))"
    )


def test_fields_by_keyword():
    assert Slope(num=3, den=6) == Slope(1, 2)
    assert GroupDescription("trivial", cont0_trivial=True).generators == ()
    assert LegendrianClass(
        knot="k1", tb_q=Fraction(-1), rot_q=Fraction(0), structure=None
    ) == LegendrianClass("k1", Fraction(-1), Fraction(0), None)


def test_mcg_rows_compare_equal_across_lookups():
    # L(7,1) and L(9,1) share the q = 1 row; L(8,3) and L(15,4) the q^2 = 1 row.
    for lookup in (smooth_mcg, contact_mcg, contact_mcg_rel_torus, inclusion_kernel):
        for (p, q), (p2, q2) in [((7, 1), (9, 1)), ((8, 3), (15, 4))]:
            a, b = lookup(p, q), lookup(p2, q2)
            assert a == b and hash(a) == hash(b)
            assert {a: lookup.__name__}[b] == lookup.__name__
    assert contact_mcg(7, 1) == GroupDescription("trivial", cont0_trivial=True)
    assert contact_mcg(7, 1) != GroupDescription("trivial")
    assert contact_mcg(8, 3) == GroupDescription("Z2", ("sigma",), True)


# The records with sequence fields; each stores such a field as the tuple of
# its argument, so the sequence it was given does not change the value.
SEQUENCE_RECORDS = pytest.mark.parametrize(
    "cls",
    [ShuffleClass, GroupDescription, MountainRange, SweepReport, Decoration, SurgeryChain],
    ids=lambda c: c.__name__,
)


def _rebuilt(record, seq):
    """The record built again from its fields, each tuple field given as
    seq(list(field))."""
    return type(record)(*(seq(list(v)) if isinstance(v, tuple) else v for v in _fields(record)))


@SEQUENCE_RECORDS
def test_a_record_built_from_lists_is_the_tuple_built_value(cls):
    a = RECORDS[cls][0]()
    b = _rebuilt(a, list)
    assert any(isinstance(v, tuple) for v in _fields(a))
    assert b == a and hash(b) == hash(a)
    assert _fields(b) == _fields(a)
    assert all(type(v) is tuple for v, u in zip(_fields(b), _fields(a)) if isinstance(u, tuple))
    assert repr(b) == repr(a)


def test_a_mountain_range_built_from_an_iterator_is_the_tuple_built_value():
    a = RECORDS[MountainRange][0]()
    b = MountainRange(a.knot, iter(list(a.peak)), a.depth)
    assert b == a and hash(b) == hash(a)
    assert b.points == a.points == b.points


def test_a_length_check_still_refuses_an_iterator():
    with pytest.raises(TypeError):
        ShuffleClass(decoration(12, 5), iter([1, 0]))
    with pytest.raises(TypeError):
        GroupDescription("Z2", iter(["sigma"]))


def test_a_list_built_class_is_one_of_the_enumerated_classes():
    classes = enumerate_tight(12, 5)
    ts = ShuffleClass(decoration(12, 5), [1, 0])
    assert ts in classes and classes.index(ts) == 2
    assert {ts: "+-"}[classes[2]] == "+-"
