"""The value records of lhv, detector and quantum: construction, checks,
immutability, equality and repr."""

import re

import pytest

from ghzdet.detector import DetectorParams
from ghzdet.lhv import CorrelationSet, FeasibilityReport, JointDistribution8
from ghzdet.quantum import GHZState

# (record type, field names in order, valid values, defaults left out of the
#  values, keyword arguments that fail its check, the ValueError message)
RECORDS = [
    (CorrelationSet, ("e_a", "e_b", "e_c", "e_abc"), (0.1, 0.2, 0.3, -0.4), {},
     dict(e_a=0.1, e_b=0.2, e_c=1.2, e_abc=0.0), "e_c=1.2 outside [-1, 1]"),
    (JointDistribution8, ("probs",), ((0.125,) * 8,), {},
     dict(probs=(0.125,) * 7), "expected 8 atom probabilities"),
    (FeasibilityReport, ("feasible", "slacks", "f_value"), (True, (0.5,) * 8, 2.0), {},
     None, None),
    (DetectorParams, ("d", "gamma", "p_pair", "p_twopair", "e_ghz"), (0.5, 0.1, 0.25, 0.75),
     {"e_ghz": 1.0}, dict(d=0.5, gamma=0.1, p_pair=0.25, p_twopair=0.5),
     "p_pair + p_twopair = 0.75, must be 1"),
    (GHZState, ("visibility",), (), {"visibility": 1.0},
     dict(visibility=1.5), "visibility=1.5 outside [-1, 1]"),
]


@pytest.mark.parametrize("cls, fields, values, defaults, bad, message", RECORDS,
                         ids=[r[0].__name__ for r in RECORDS])
def test_record_semantics(cls, fields, values, defaults, bad, message):
    record = cls(*values)
    expected = dict(zip(fields, values), **defaults)
    assert list(expected) == list(fields)
    assert cls(**expected) == record
    assert {name: getattr(record, name) for name in fields} == expected

    if bad is not None:
        with pytest.raises(ValueError, match=re.escape(message)):
            cls(**bad)

    with pytest.raises(AttributeError):
        setattr(record, fields[0], getattr(record, fields[0]))
    with pytest.raises(AttributeError):
        record.extra = 1

    twin = cls(*expected.values())
    assert twin == record and hash(twin) == hash(record)
    assert repr(record).startswith(f"{cls.__name__}(")
    assert all(f"{name}=" in repr(record) for name in fields)


CHECKED = [r for r in RECORDS if r[4] is not None]


@pytest.mark.parametrize("cls, fields, values, defaults, bad, message", CHECKED,
                         ids=[r[0].__name__ for r in CHECKED])
def test_make_and_replace_are_checked(cls, fields, values, defaults, bad, message):
    record = cls(*values)
    assert cls._make(record) == record and type(cls._make(record)) is cls
    assert record._replace() == record and type(record._replace()) is cls
    with pytest.raises(ValueError, match=re.escape(message)):
        cls._make(dict(zip(fields, record), **bad).values())
    with pytest.raises(ValueError, match=re.escape(message)):
        record._replace(**bad)
