"""The contract of the eleven value types: immutable records that are
built from their fields by position or keyword, validated on
construction, and compared, hashed, repr'd, copied and pickled field by
field; and the start-up cost of the command line, which must not load
the dataclass machinery."""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from twobridge import (
    BoundarySlopeRecord,
    ContinuedFraction,
    ConwayForm,
    DomainError,
    LambdaValue,
    NiWuPair,
    ObstructionReport,
    SchubertForm,
    SeifertMatrix,
    SlopeSystem,
    SlopeWeights,
    SurgerySlope,
    Verdict,
)

SRC = Path(__file__).resolve().parents[1] / "src"

_KNOT = SchubertForm(5, 2)
_RECORD = BoundarySlopeRecord(ContinuedFraction((0, 2, -2)), 2, 0, 0, 1)

# (type, field names, field values, repr, values its __post_init__ refuses or None)
CASES = [
    (ContinuedFraction, ("terms",), ((0, 2, 3),), "ContinuedFraction(terms=(0, 2, 3))", ((),)),
    (SchubertForm, ("alpha", "beta"), (5, 2), "SchubertForm(alpha=5, beta=2)", (4, 1)),
    (ConwayForm, ("entries",), ((2, -2),), "ConwayForm(entries=(2, -2))", ((2, 3),)),
    (SeifertMatrix, ("diagonal",), ((1, -1),), "SeifertMatrix(diagonal=(1, -1))", ((1, 0),)),
    (
        BoundarySlopeRecord,
        ("cf", "n_plus", "n_minus", "slope", "weight"),
        (ContinuedFraction((0, 2, -2)), 2, 0, 0, 1),
        "BoundarySlopeRecord(cf=ContinuedFraction(terms=(0, 2, -2)), n_plus=2, n_minus=0,"
        " slope=0, weight=1)",
        None,
    ),
    (
        SlopeSystem,
        ("knot", "records", "longitude_index"),
        (_KNOT, (_RECORD,), 0),
        "SlopeSystem(knot=SchubertForm(alpha=5, beta=2), records=(BoundarySlopeRecord("
        "cf=ContinuedFraction(terms=(0, 2, -2)), n_plus=2, n_minus=0, slope=0, weight=1),),"
        " longitude_index=0)",
        None,
    ),
    (
        SlopeWeights,
        ("knot", "weights"),
        (_KNOT, ((-4, 1), (0, 1), (4, 1))),
        "SlopeWeights(knot=SchubertForm(alpha=5, beta=2), weights=((-4, 1), (0, 1), (4, 1)))",
        None,
    ),
    (SurgerySlope, ("p", "q"), (3, 2), "SurgerySlope(p=3, q=2)", (2, 4)),
    (
        LambdaValue,
        ("value", "seminorm", "hypotheses_ok", "caveats"),
        (Fraction(-3, 2), Fraction(1), False, ("a caveat",)),
        "LambdaValue(value=Fraction(-3, 2), seminorm=Fraction(1, 1), hypotheses_ok=False,"
        " caveats=('a caveat',))",
        (Fraction(0), Fraction(0), False, ()),
    ),
    (
        ObstructionReport,
        ("knot", "mirrored", "name", "crossing_number", "delta_second", "sigma",
         "casson_difference", "verdict", "caveats"),
        (_KNOT, False, "4_1", 4, -2, 0, Fraction(0), Verdict.NO_COSMETIC_BOYER_LINES, ()),
        "ObstructionReport(knot=SchubertForm(alpha=5, beta=2), mirrored=False, name='4_1',"
        " crossing_number=4, delta_second=-2, sigma=0, casson_difference=Fraction(0, 1),"
        " verdict=<Verdict.NO_COSMETIC_BOYER_LINES: 'NoCosmetic_BoyerLines'>, caveats=())",
        None,
    ),
    (NiWuPair, ("p", "q1"), (5, 2), "NiWuPair(p=5, q1=2)", (5, 1)),
]

_IDS = [case[0].__name__ for case in CASES]


@pytest.fixture(params=CASES, ids=_IDS)
def case(request):
    return request.param


def test_every_value_type_is_covered():
    exported = {ContinuedFraction, SchubertForm, ConwayForm, SeifertMatrix, BoundarySlopeRecord,
                SlopeSystem, SlopeWeights, SurgerySlope, LambdaValue, ObstructionReport, NiWuPair}
    assert {case[0] for case in CASES} == exported


def test_fields_and_match_args(case):
    cls, fields, values, _repr, _bad = case
    obj = cls(*values)
    assert cls.__match_args__ == fields
    assert tuple(getattr(obj, name) for name in fields) == values


def test_repr(case):
    cls, _fields, values, text, _bad = case
    assert repr(cls(*values)) == text


def test_equality_and_hash(case):
    cls, _fields, values, _repr, _bad = case
    obj, same = cls(*values), cls(*values)
    assert obj is not same
    assert obj == same and not obj != same
    assert hash(obj) == hash(same) == hash(values)


def test_unequal_to_a_tuple_and_to_another_class_with_the_same_fields(case):
    cls, _fields, values, _repr, _bad = case
    obj = cls(*values)
    twin = type("Twin", (cls,), {})(*values)
    assert obj != values and values != obj
    assert obj != twin and twin != obj


def test_fields_cannot_be_assigned_or_deleted(case):
    cls, fields, values, _repr, _bad = case
    obj = cls(*values)
    with pytest.raises(AttributeError):
        setattr(obj, fields[0], values[0])
    with pytest.raises(AttributeError):
        obj.not_a_field = 1
    with pytest.raises(AttributeError):
        delattr(obj, fields[0])
    assert tuple(getattr(obj, name) for name in fields) == values


def test_positional_and_keyword_construction(case):
    cls, fields, values, _repr, _bad = case
    expected = cls(*values)
    assert cls(**dict(zip(fields, values))) == expected
    assert cls(values[0], **dict(zip(fields[1:], values[1:]))) == expected


def test_wrong_arguments_raise_type_error(case):
    cls, fields, values, _repr, _bad = case
    with pytest.raises(TypeError):
        cls(*values[:-1])  # missing
    with pytest.raises(TypeError):
        cls(*values, values[-1])  # extra positional
    with pytest.raises(TypeError):
        cls(*values, not_a_field=1)  # extra keyword
    with pytest.raises(TypeError):
        cls(*values, **{fields[0]: values[0]})  # duplicate


@pytest.mark.parametrize("cls, bad", [(c[0], c[4]) for c in CASES if c[4]],
                         ids=[c[0].__name__ for c in CASES if c[4]])
def test_post_init_validates(cls, bad):
    with pytest.raises(DomainError):
        cls(*bad)


def test_copy_and_pickle_round_trip(case):
    cls, _fields, values, _repr, _bad = case
    obj = cls(*values)
    copies = [copy.copy(obj), copy.deepcopy(obj)]
    copies += [pickle.loads(pickle.dumps(obj, protocol))
               for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for other in copies:
        assert type(other) is cls
        assert other == obj and hash(other) == hash(obj)


def test_cli_import_loads_no_dataclass_machinery():
    """`import twobridge.cli` is most of a command's start-up; dataclasses
    alone brings in inspect, ast, dis and tokenize."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    probe = "import sys{}; print(' '.join(m for m in ('dataclasses', 'inspect') if m in sys.modules))"
    already = subprocess.run([sys.executable, "-c", probe.format("")], capture_output=True,
                             text=True, env=env, check=True).stdout.split()
    if already:
        pytest.skip(f"the interpreter's start-up already loads {', '.join(already)}")
    loaded = subprocess.run([sys.executable, "-c", probe.format(", twobridge.cli")],
                            capture_output=True, text=True, env=env, check=True).stdout.split()
    assert loaded == []
