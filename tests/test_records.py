"""The behaviour every record type of the library keeps: its repr, its
equality and hash over its fields, refusal of assignment and deletion,
keyword construction, and copy and pickle round trips; and the order
of knot names.
"""

import copy
import inspect
import operator
import pickle

import pytest

from pseudoknots.bracket import KnotName, TableEntry, Unknown
from pseudoknots.chords import DecoratedChordDiagram
from pseudoknots.diagram import PseudoPD, Vertex, parse_pd
from pseudoknots.flype import FlypeSite
from pseudoknots.gauss import GaussToken, PseudoGaussDiagram, parse_gauss
from pseudoknots.laurent import LaurentPolynomial
from pseudoknots.moves import MoveSite
from pseudoknots.wereset import WereSet


def pd_fields(text):
    d = parse_pd(text)
    return {"ids": d.ids, "signs": d.signs, "labels": d.labels, "crossings": d.crossings}


def tokens(text):
    return {"tokens": parse_gauss(text).tokens}


UNKNOT = KnotName(0, 1, 0)
POLY = LaurentPolynomial({1: 1, -2: 3})

# (class, keywords of a value, keywords of a different value, the value's repr)
RECORDS = [
    (Vertex, {"id": 0, "sign": None, "edges": (1, 1, 2, 2)},
     {"id": 0, "sign": 1, "edges": (1, 1, 2, 2)},
     "Vertex(id=0, sign=None, edges=(1, 1, 2, 2))"),
    (PseudoPD, pd_fields("P(1,1,2,2)"), pd_fields("P(1,2,2,3) P(3,4,4,1)"),
     "PseudoPD(ids=(0,), signs=(None,), labels=(1, 1, 2, 2), "
     "crossings=(((1, 1, 2, 2), None),))"),
    (KnotName, {"crossing_number": 3, "index": 1, "sign": -1},
     {"crossing_number": 3, "index": 1, "sign": 1},
     "KnotName(crossing_number=3, index=1, sign=-1)"),
    (Unknown, {"jones": POLY}, {"jones": POLY.invert_variable()},
     "Unknown(jones=LaurentPolynomial(3*t^-2 + t))"),
    (TableEntry, {"name": UNKNOT, "amphichiral": True, "jones": LaurentPolynomial({0: 1})},
     {"name": UNKNOT, "amphichiral": False, "jones": LaurentPolynomial({0: 1})},
     "TableEntry(name=KnotName(crossing_number=0, index=1, sign=0), amphichiral=True, "
     "jones=LaurentPolynomial(1))"),
    (WereSet, {"precrossings": 1, "entries": {UNKNOT: 2}, "unknown": {}},
     {"precrossings": 1, "entries": {}, "unknown": {POLY: 2}},
     "WereSet(precrossings=1, entries={KnotName(crossing_number=0, index=1, sign=0): 2}, "
     "unknown={})"),
    (GaussToken, {"id": 1, "over": True, "sign": -1}, {"id": 1, "over": False, "sign": -1},
     "GaussToken(id=1, over=True, sign=-1)"),
    (PseudoGaussDiagram, tokens("O1-,U1-"), tokens("U1-,O1-"),
     "PseudoGaussDiagram(id_at=(1, 1), over_at=(True, False), sign_at=(-1, -1))"),
    (DecoratedChordDiagram, {"size": 2, "chords": ((0, 1, 1),)},
     {"size": 2, "chords": ((0, 1, 0),)},
     "DecoratedChordDiagram(size=2, chords=((0, 1, 1),))"),
    (FlypeSite, {"crossing": 1, "tangle": frozenset({2})},
     {"crossing": 1, "tangle": frozenset({2, 3})},
     "FlypeSite(crossing=1, tangle=frozenset({2}))"),
    (MoveSite, {"kind": "R1-", "data": (1,)}, {"kind": "R1-", "data": (2,)},
     "MoveSite(kind='R1-', data=(1,))"),
]
IDS = [cls.__name__ for cls, *_ in RECORDS]


@pytest.mark.parametrize("cls, fields, other, text", RECORDS, ids=IDS)
def test_a_record_compares_over_its_fields(cls, fields, other, text):
    value, equal, different = cls(**fields), cls(**fields), cls(**other)
    assert list(inspect.signature(cls).parameters) == list(fields)
    assert repr(value) == text
    assert value == equal and not value != equal
    assert value != different and not value == different
    # a value of another type holding the same data is never equal
    data = tuple(fields.values())
    assert value != data and not value == data
    if cls is WereSet:
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == hash(equal)


@pytest.mark.parametrize("cls, fields, other, text", RECORDS, ids=IDS)
def test_a_record_refuses_assignment_and_deletion(cls, fields, other, text):
    value = cls(**fields)
    name = next(iter(inspect.signature(type(value)).parameters))
    for attr in (name, "extra", *vars(value)):
        with pytest.raises(AttributeError):
            setattr(value, attr, 0)
        with pytest.raises(AttributeError):
            delattr(value, attr)
    assert value == cls(**fields)


@pytest.mark.parametrize("cls, fields, other, text", RECORDS, ids=IDS)
def test_a_record_survives_copy_and_pickle(cls, fields, other, text):
    value = cls(**fields)
    for twin in (copy.copy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is cls and twin == value and repr(twin) == text


def test_each_were_set_gets_fresh_dicts():
    a, b = WereSet(2), WereSet(2)
    assert a.entries == a.unknown == {} and a == b
    assert a.entries is not b.entries and a.unknown is not b.unknown
    a.entries[UNKNOT] = 4
    assert b.entries == {}


def test_knot_names_order_by_their_fields():
    names = [KnotName(3, 1, 1), KnotName(0, 1, 0), KnotName(3, 1, -1), KnotName(2, 5, 0)]
    assert sorted(names) == [KnotName(0, 1, 0), KnotName(2, 5, 0), KnotName(3, 1, -1),
                             KnotName(3, 1, 1)]
    low, high = KnotName(3, 1, -1), KnotName(3, 1, 1)
    assert low < high and low <= high and high > low and high >= low and low <= low
    assert not (high < low or high <= low or low > high or low >= high)
    for op in (operator.lt, operator.le, operator.gt, operator.ge):
        with pytest.raises(TypeError):
            op(low, (3, 1, 1))

