"""Value semantics of the immutable classes built on `core.Value`.

Each class hashes as the tuple of its fields, in field order, so every set
and dict order (and so every bench digest) stays what it was when these
classes were frozen dataclasses; the repr texts below were recorded from
those dataclasses.
"""

from fractions import Fraction as F

import pytest

from setmeans.cesaro import MergeParams
from setmeans.core import Interval, IntervalUnion
from setmeans.errors import SemanticError
from setmeans.means import CellCover, MeanOutcome, OscillatingIsoSet, Schedule
from setmeans.setexpr import Cantor, Dense, Finite, IntervalSet, Seq, Seq2, Union
from setmeans.terms import DoubleGeoTerm, GeoTerm, PowTerm, TermFun, TinyTerm
from setmeans.topology import AccPoint

POW = PowTerm(F(1), 1)
POW_TEXT = "PowTerm(c=Fraction(1, 1), p=1)"
TF = TermFun((POW,))
TF_TEXT = f"TermFun(terms=({POW_TEXT},), start=1)"
ZERO = Finite((F(0),))
ZERO_TEXT = "Finite(points=(Fraction(0, 1),))"
UNIT = Interval(F(0), F(1))

# (instance, its fields in order, the frozen dataclass's repr of it)
CASES = [
    (Interval(F(0), F(1), False, True), (F(0), F(1), False, True), "[0, 1)"),
    (IntervalUnion((UNIT,)), ((UNIT,),), "[0, 1]"),
    (PowTerm(F(1, 2), 3), (F(1, 2), 3), "PowTerm(c=Fraction(1, 2), p=3)"),
    (GeoTerm(F(1), F(1, 2)), (F(1), F(1, 2)), "GeoTerm(c=Fraction(1, 1), r=Fraction(1, 2))"),
    (
        DoubleGeoTerm(F(1), F(1, 2), 2),
        (F(1), F(1, 2), 2),
        "DoubleGeoTerm(c=Fraction(1, 1), r=Fraction(1, 2), s=2)",
    ),
    (TF, ((POW,), 1), TF_TEXT),
    (
        TinyTerm(F(1), F(1, 2), 5000, F(1, 10**6)),
        (F(1), F(1, 2), 5000, F(1, 10**6)),
        "TinyTerm(c=Fraction(1, 1), r=Fraction(1, 2), exponent=5000, bound=Fraction(1, 1000000))",
    ),
    (
        Finite((F(0), F(1, 2))),
        ((F(0), F(1, 2)),),
        "Finite(points=(Fraction(0, 1), Fraction(1, 2)))",
    ),
    (Seq(F(0), TF), (F(0), TF), f"Seq(limit=Fraction(0, 1), tail={TF_TEXT})"),
    (
        Seq2(F(1), TF, TF),
        (F(1), TF, TF),
        f"Seq2(limit=Fraction(1, 1), outer={TF_TEXT}, inner={TF_TEXT})",
    ),
    (IntervalSet(UNIT), (UNIT,), "IntervalSet(iv=[0, 1])"),
    (Dense(F(0), F(1)), (F(0), F(1)), "Dense(lo=Fraction(0, 1), hi=Fraction(1, 1))"),
    (Cantor(3, 1), (F(3), F(1)), "Cantor(alpha=Fraction(3, 1), beta=Fraction(1, 1))"),
    (
        Union((ZERO, Seq(F(0), TF))),
        ((ZERO, Seq(F(0), TF)),),
        f"Union(parts=({ZERO_TEXT}, Seq(limit=Fraction(0, 1), tail={TF_TEXT})))",
    ),
    (
        AccPoint(F(0), False, True),
        (F(0), False, True),
        "AccPoint(value=Fraction(0, 1), left_sided=False, right_sided=True)",
    ),
    (
        MeanOutcome("converged", 0.5, F(1, 2), 1e-3, (0.25, 0.75), "r", ((1.0, 0.5),)),
        ("converged", 0.5, F(1, 2), 1e-3, (0.25, 0.75), "r", ((1.0, 0.5),)),
        "MeanOutcome(status='converged', value=0.5, exact=Fraction(1, 2), err_est=0.001, "
        "band=(0.25, 0.75), reason='r', trace=((1.0, 0.5),))",
    ),
    (
        Schedule("delta", 1, 10),
        ("delta", 1, 10, 1e-4, 3, True),
        "Schedule(kind='delta', start_exp=1, end_exp=10, tol=0.0001, stability_window=3, "
        "early_stop=True)",
    ),
    (MergeParams(F(3, 10)), (F(3, 10),), "MergeParams(alpha=Fraction(3, 10))"),
]

IDS = [type(case[0]).__name__ for case in CASES]


@pytest.mark.parametrize("x, fields, text", CASES, ids=IDS)
def test_a_value_is_its_field_tuple(x, fields, text):
    assert hash(x) == hash(fields)
    assert x == type(x)(*fields) and hash(type(x)(*fields)) == hash(x)
    assert repr(x) == text


@pytest.mark.parametrize("x, fields, text", CASES, ids=IDS)
def test_a_value_refuses_assignment(x, fields, text):
    name = type(x).__slots__[0]
    with pytest.raises(AttributeError):
        setattr(x, name, fields[0])
    with pytest.raises(AttributeError):
        delattr(x, name)
    with pytest.raises(AttributeError):
        x.other = 1
    assert getattr(x, name) == fields[0]


def test_equality_is_strict_on_class():
    assert Seq(F(0), TF) != Seq2(F(0), TF, TF)
    assert PowTerm(F(1), 1) != GeoTerm(F(1), F(1, 2))
    # equal field tuples in two classes are still two values
    dense, cantor = Dense(F(1), F(2)), Cantor(1, 2)
    assert dense != cantor and len({dense, cantor}) == 2
    assert dense.__eq__(cantor) is NotImplemented and dense.__eq__((F(1), F(2))) is NotImplemented


def test_a_cell_cover_hashes_by_its_cells_and_refuses_assignment():
    cover = CellCover(4, (F(0), F(1)), ((0, 1),), (lambda: iter([[3]]),))
    assert cover.cells == (3,) and hash(cover) == hash((4, (F(0), F(1)), ((0, 1),), (3,)))
    assert cover == CellCover(4, (F(0), F(1)), ((0, 1),), (lambda: iter([[3]]),))
    empty = CellCover(4, (F(0), F(1)), ((0, 1),), ())
    assert repr(empty) == (
        "CellCover(n=4, base=(Fraction(0, 1), Fraction(1, 1)), spans=((0, 1),), runs=())"
    )
    with pytest.raises(AttributeError):
        cover.n = 5


def test_keyword_construction():
    out = MeanOutcome(status="exact", exact=F(1, 3), value=1 / 3)
    assert (out.status, out.exact, out.band, out.trace) == ("exact", F(1, 3), None, ())
    sched = Schedule(kind="grid", start_exp=2, end_exp=9, early_stop=False)
    assert sched == Schedule("grid", 2, 9, 1e-4, 3, False)
    assert Interval(lo=F(0), hi=F(1), hi_open=True) == Interval(F(0), F(1), False, True)


def test_constructors_normalize_and_validate():
    assert type(Cantor(3, 1).alpha) is F and type(Cantor().beta) is F
    # a union flattens the unions among its parts, and needs two parts
    a, b, c = ZERO, Seq(F(0), TF), Cantor()
    assert Union((a, Union((b, c)))) == Union((a, b, c))
    assert Union((a, Union((b, c)))).parts == (a, b, c)
    with pytest.raises(SemanticError):
        Union((a,))
    with pytest.raises(ValueError):
        Interval(F(1), F(0))
    with pytest.raises(ValueError):
        Schedule("delta", 1, 2)


def test_mutable_instances_keep_their_own_state():
    one, two = OscillatingIsoSet(), OscillatingIsoSet()
    one.ensure_stages(2)
    assert len(one._counts) == 2 and two._counts == []
