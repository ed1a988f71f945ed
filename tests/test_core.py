from itertools import product
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from glmn_weights.core import (
    Modulus,
    SuperRank,
    ValidationError,
    Weight,
    _chains,
    _dominant_pairs,
    box_weights,
    congruent_zero,
    dominant_weights,
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
    w.require_rank(r)
    bad = Weight((1,), (2, 1, 0))
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


def _non_increasing(seq):
    return all(a >= b for a, b in zip(seq, seq[1:]))


@pytest.mark.parametrize("M,N", ((0, 1), (1, 2), (2, 3), (3, 4), (2, 5)))
@pytest.mark.parametrize("lo,hi", ((0, 0), (-1, 1), (-3, -1), (-2, 2)))
def test_dominant_weights_are_the_dominant_box_weights(M, N, lo, hi):
    got = list(dominant_weights(M, N, lo, hi))
    want = [
        w for w in box_weights(M, N, lo, hi)
        if _non_increasing(w.lam) and _non_increasing(w.theta)
    ]
    assert got == want  # same weights, same lexicographic order
    w = hi - lo + 1
    assert len(got) == comb(w + M - 1, M) * comb(w + N - 1, N)


@pytest.mark.parametrize("M,N", ((0, 1), (1, 2), (2, 3), (3, 4)))
@pytest.mark.parametrize("widen", (0, 1, 3))
def test_dominant_weights_with_a_wider_lambda_range(M, N, widen):
    lo, hi = -1, 1
    got = list(_dominant_pairs(M, N, lo, hi, hi + widen))
    want = [
        (lam, theta)
        for lam in product(range(lo, hi + widen + 1), repeat=M)
        for theta in product(range(lo, hi + 1), repeat=N)
        if _non_increasing(lam) and _non_increasing(theta)
    ]
    assert got == want
    assert len(got) == comb(3 + widen + M - 1, M) * comb(3 + N - 1, N)


@pytest.mark.parametrize("M,N", ((0, 0), (0, 1), (1, 2)))
def test_dominant_weights_of_an_empty_range(M, N):
    # like box_weights: no coordinates give the one empty weight, else none
    assert list(dominant_weights(M, N, 1, 0)) == list(box_weights(M, N, 1, 0))
    # an empty lambda range: no weight, unless there is no lambda
    want = [((), (0,) * N)] if M == 0 else []
    assert list(_dominant_pairs(M, N, 0, 0, -1)) == want


def _product_filter(M, N, lo, hi, lam_hi):
    return [
        (lam, theta)
        for lam in product(range(lo, lam_hi + 1), repeat=M)
        for theta in product(range(lo, hi + 1), repeat=N)
        if _non_increasing(lam) and _non_increasing(theta)
    ]


@pytest.mark.parametrize("M", (0, 1, 2, 3))
@pytest.mark.parametrize("lo,hi", ((-1, 1), (0, 0), (2, 1)))
def test_the_chain_walk_against_a_product_filter(M, lo, hi):
    # each chain, and the pairs of chains with lambda_hi below lo, equal to
    # hi and hi + 3: the same tuples in the same lexicographic order as a
    # brute-force filter, including the empty ranges (lo > hi, lam_hi < lo)
    for k in range(M + 3):
        assert list(_chains(k, lo, hi)) == [
            c for c in product(range(lo, hi + 1), repeat=k) if _non_increasing(c)
        ]
    for N in (M + 1, M + 2):
        for lam_hi in (lo - 1, hi, hi + 3):
            want = _product_filter(M, N, lo, hi, lam_hi)
            assert list(_dominant_pairs(M, N, lo, hi, lam_hi)) == want
        want = _product_filter(M, N, lo, hi, hi)
        assert list(_dominant_pairs(M, N, lo, hi)) == want
        assert [(w.lam, w.theta) for w in dominant_weights(M, N, lo, hi)] == want


@pytest.mark.parametrize("lo,hi", ((0, 0), (0, 1)))
def test_dominant_weights_long_chains(lo, hi):
    # chains far longer than Python's recursion limit
    got = list(dominant_weights(1, 1200, lo, hi))
    want = [
        Weight((a,), (hi,) * k + (lo,) * (1200 - k))
        for a in range(lo, hi + 1)
        for k in range(1201 if hi > lo else 1)
    ]
    assert got == want


def test_dominant_weights_stream():
    # a box of 2 * 10**9 + 1 values per coordinate: only a generator that
    # never lists the chains can yield the first weight at once
    first = next(dominant_weights(0, 2, -(10**9), 10**9))
    assert (first.lam, first.theta) == ((), (-(10**9), -(10**9)))
