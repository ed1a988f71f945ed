"""The immutable value classes: construction, equality, hash, repr and
immutability, the same for each."""

import pytest

from glmn_weights import (
    BorelWord,
    Box,
    Modulus,
    OrbitMatrix,
    PairIndex,
    StepOrder,
    SuperRank,
    VerificationReport,
    Weight,
)

# each class, its fields by keyword, and its repr
CASES = (
    (SuperRank, {"M": 1, "N": 2}, "SuperRank(M=1, N=2)"),
    (Weight, {"lam": (1,), "theta": (2, 3)}, "Weight(lam=(1,), theta=(2, 3))"),
    (Modulus, {"p": 3}, "Modulus(p=3)"),
    (OrbitMatrix, {"size": 2, "entries": ((1, 1, 0),)}, "OrbitMatrix(size=2, entries=((1, 1, 0),))"),
    (Box, {"lo": -1, "hi": 2}, "Box(lo=-1, hi=2)"),
    (
        VerificationReport,
        {"check_name": "image", "total": 3, "failures": (), "backend": "pure"},
        "VerificationReport(check_name='image', total=3, failures=(), backend='pure')",
    ),
    (BorelWord, {"word": (2, 1, 3)}, "BorelWord(word=(2, 1, 3))"),
    (
        StepOrder,
        {"M": 1, "steps": (PairIndex(1, 1),)},
        "StepOrder(M=1, steps=(PairIndex(i=1, j=1),))",
    ),
)


@pytest.mark.parametrize("cls,fields,text", CASES, ids=[c[0].__name__ for c in CASES])
def test_value_class(cls, fields, text):
    v = cls(**fields)
    same = cls(*fields.values())
    assert v == same and not v != same and hash(v) == hash(same)
    assert repr(v) == text
    assert v != tuple(fields.values())
    for name, value in fields.items():
        assert getattr(v, name) == value
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(v, name, value)
        with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
            delattr(v, name)
    with pytest.raises(AttributeError):
        v.other = 1
    assert v == same


def test_value_classes_compare_by_class_and_fields():
    # equal only to an instance of the same class, whatever the fields
    assert SuperRank(1, 2) != Box(1, 2)
    assert Box(1, 2) != SuperRank(1, 2)
    assert SuperRank(1, 2) != SuperRank(1, 3)
    assert len({SuperRank(1, 2), Box(1, 2), SuperRank(1, 2)}) == 2
    # fields given as lists are stored as tuples: equal weights hash equal
    w = Weight([1, 0], [2, 1, 0])
    assert w == Weight((1, 0), (2, 1, 0)) and hash(w) == hash(Weight((1, 0), (2, 1, 0)))
    assert w != Weight((1, 0), (2, 1, 1))
    assert BorelWord([2, 1, 3]) == BorelWord((2, 1, 3))


def test_step_order_caches_are_not_fields():
    # a cached index list is not a field: it changes neither == nor hash
    a, b = StepOrder(2, ((2, 1), (1, 1), (2, 2))), StepOrder(2, ((2, 1), (1, 1), (2, 2)))
    assert a.indices == ((1, 0), (0, 0), (1, 1))
    assert a == b and hash(a) == hash(b)
    assert repr(a) == repr(b)
