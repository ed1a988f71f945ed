import pytest
from hypothesis import given
from hypothesis import strategies as st

from glmn_weights.core import (
    Modulus,
    SuperRank,
    ThetaSplit,
    ValidationError,
    Weight,
    congruent_zero,
    join_theta,
    split_theta,
)


def test_congruent_zero_exact_regime():
    p0 = Modulus(0)
    assert congruent_zero(0, p0)
    assert not congruent_zero(1, p0)
    assert not congruent_zero(-1, p0)


def test_congruent_zero_mod_p():
    assert congruent_zero(-4, Modulus(2))
    assert not congruent_zero(3, Modulus(2))
    assert congruent_zero(6, Modulus(3))
    assert congruent_zero(-3, Modulus(3))
    assert not congruent_zero(4, Modulus(5))


@given(st.integers(min_value=-10**6, max_value=10**6), st.sampled_from([2, 3, 5, 7, 11]))
def test_congruent_zero_periodicity(a, p):
    mod = Modulus(p)
    assert congruent_zero(a, mod) == congruent_zero(a + p, mod)
    assert congruent_zero(a, mod) == congruent_zero(-a, mod)


def test_modulus_accepts_zero_and_primes():
    for p in (0, 2, 3, 5, 7, 11, 13, 97, 2**61 - 1):
        assert Modulus(p).p == p


def test_modulus_rejects_composites_and_negatives():
    # 2047, 3215031751 and 318665857834031151167461 are strong pseudoprimes
    # (to base 2, to bases 2..7, and to bases 2..37); 561 is a Carmichael number
    for p in (1, 4, 6, 8, 9, 15, -2, -7, 2047, 561, 3215031751, 318665857834031151167461):
        with pytest.raises(ValidationError):
            Modulus(p)
    with pytest.raises(ValidationError, match="below 3317044064679887385961981"):
        Modulus(2**89 - 1)  # a prime beyond the exact range of the primality test


def test_rank_validation():
    assert SuperRank(0, 1).total == 1
    assert SuperRank(2, 3).total == 5
    SuperRank(7, 8)
    for M, N in ((3, 3), (4, 3), (-1, 2), (2, 0), (False, True), (0, True), (1.0, 2)):
        with pytest.raises(ValidationError):
            SuperRank(M, N)


def test_weight_shape_checks():
    r = SuperRank(2, 3)
    w = Weight((1, 0), (2, 1, 0))
    assert w.matches(r)
    w.require_rank(r)
    bad = Weight((1,), (2, 1, 0))
    assert not bad.matches(r)
    with pytest.raises(ValidationError):
        bad.require_rank(r)
    for bad_entry in (1.5, True, "1"):
        with pytest.raises(ValidationError):
            Weight((bad_entry,), (0,))
        with pytest.raises(ValidationError):
            Weight((), (0, bad_entry))

    class Int(int):
        pass

    assert Weight((Int(3),), (0,)).lam == (3,)


def test_split_theta_examples():
    assert split_theta(Weight((1,), (2, 0)), SuperRank(1, 2)) == ThetaSplit((2, 0), ())
    assert split_theta(Weight((1,), (2, 0, -1)), SuperRank(1, 3)) == ThetaSplit((2, 0), (-1,))
    assert split_theta(Weight((), (5,)), SuperRank(0, 1)) == ThetaSplit((5,), ())


def test_split_join_roundtrip():
    for M, N in ((0, 1), (1, 2), (2, 3), (2, 5), (3, 7)):
        r = SuperRank(M, N)
        theta = tuple(range(-N, 0))
        w = Weight(tuple(range(M)), theta)
        s = split_theta(w, r)
        assert len(s.head) == M + 1
        assert len(s.tail) == N - M - 1
        assert join_theta(s) == theta


def test_weight_json_roundtrip():
    w = Weight((1, -2), (3, 0, -1))
    assert Weight.from_json_dict(w.to_json_dict()) == w
    assert w.to_json_dict() == {"lambda": [1, -2], "theta": [3, 0, -1]}


def test_weight_json_rejects_malformed():
    r = SuperRank(1, 2)
    for obj in (
        {"lambda": [1]},
        {"lambda": [1], "theta": [0, 0], "extra": 1},
        {"lambda": 1, "theta": [0, 0]},
        {"lambda": [1], "theta": ["x", 0]},
        [1, 2, 3],
    ):
        with pytest.raises(ValidationError):
            Weight.from_json_dict(obj, r)
    with pytest.raises(ValidationError):
        Weight.from_json_dict({"lambda": [1, 2], "theta": [0, 0]}, r)
