import pytest

from glmn_weights.classify import (
    GroupConvention,
    is_mixed_highest_weight,
    is_relevant_orbit,
    is_standard_dominant,
    orbit_representative,
)
from glmn_weights.core import DimensionMismatch, Modulus, SuperRank, Weight, box_weights


def W(lam, theta):
    return Weight(tuple(lam), tuple(theta))


def test_standard_dominant_examples():
    r = SuperRank(2, 3)
    assert is_standard_dominant(W((2, 1), (3, 0, 0)), r)
    assert not is_standard_dominant(W((1, 2), (0, 0, 0)), r)
    assert is_standard_dominant(W((), (5,)), SuperRank(0, 1))
    assert is_standard_dominant(W((), (5, 5)), SuperRank(0, 2))
    assert is_standard_dominant(W((-4,), (0, -1)), SuperRank(1, 2))


def test_mixed_highest_weight_examples():
    r = SuperRank(2, 3)
    assert is_mixed_highest_weight(W((1, 0), (1, 0, 0)), r, Modulus(2))
    assert not is_mixed_highest_weight(W((1, 1), (0, 0, 0)), r, Modulus(2))
    assert is_mixed_highest_weight(W((1,), (2, 2)), SuperRank(1, 2), Modulus(3))
    # M = 0: lambda is empty and no diagonal sum is tested
    assert is_mixed_highest_weight(W((), (7,)), SuperRank(0, 1), Modulus(2))
    assert is_mixed_highest_weight(W((), (1, 1)), SuperRank(0, 2), Modulus(0))


def test_relevant_orbit_examples():
    r = SuperRank(2, 3)
    assert is_relevant_orbit(W((0, 1), (0, 0, 1)), r, Modulus(2), GroupConvention.UMINUS)
    assert is_relevant_orbit(W((1, 0), (1, 0, 0)), r, Modulus(2), GroupConvention.UPLUS)
    assert is_relevant_orbit(W((0, 1), (0, 0, 1)), r, Modulus(0), GroupConvention.UMINUS)
    assert not is_relevant_orbit(W((1, 2), (1, 1, 2)), r, Modulus(0), GroupConvention.UMINUS)
    # chains of length 0 and 1 hold under both conventions
    for convention in GroupConvention:
        assert is_relevant_orbit(W((), (7,)), SuperRank(0, 1), Modulus(2), convention)
    r1 = SuperRank(1, 2)
    assert is_relevant_orbit(W((3,), (-3, 5)), r1, Modulus(0), GroupConvention.UMINUS)
    assert not is_relevant_orbit(W((3,), (-3, 5)), r1, Modulus(0), GroupConvention.UPLUS)


def test_relevant_chain_runs_through_the_split_boundary():
    # theta_{M+1} > theta'_1 breaks the UPLUS chain even though both segments
    # are internally monotone
    r = SuperRank(1, 3)
    p = Modulus(2)
    assert not is_relevant_orbit(W((3,), (1, 0, 2)), r, p, GroupConvention.UPLUS)
    assert is_relevant_orbit(W((3,), (2, 1, 0)), r, p, GroupConvention.UPLUS)


def test_mixed_equals_relevant_uplus_on_boxes():
    for M, N in ((1, 2), (2, 3)):
        r = SuperRank(M, N)
        for p in (0, 2, 3, 5):
            mod = Modulus(p)
            for w in box_weights(M, N, -2, 2):
                assert is_mixed_highest_weight(w, r, mod) == is_relevant_orbit(
                    w, r, mod, GroupConvention.UPLUS
                )


def test_negation_duality_between_conventions():
    # entrywise negation flips every chain inequality and preserves the
    # equality pattern and the vanishing sums, so it swaps the conventions
    r = SuperRank(2, 3)
    for p in (0, 2, 3):
        mod = Modulus(p)
        for w in box_weights(2, 3, -2, 2):
            neg = W(tuple(-x for x in w.lam), tuple(-x for x in w.theta))
            assert is_relevant_orbit(w, r, mod, GroupConvention.UPLUS) == is_relevant_orbit(
                neg, r, mod, GroupConvention.UMINUS
            )


def test_exact_relevance_implies_modular_relevance():
    r = SuperRank(2, 3)
    for conv in GroupConvention:
        for w in box_weights(2, 3, -2, 2):
            if is_relevant_orbit(w, r, Modulus(0), conv):
                for p in (2, 3, 5):
                    assert is_relevant_orbit(w, r, Modulus(p), conv)


def test_large_prime_matches_exact_on_small_box():
    # every |lambda_i + theta_i| <= 4 < 7 inside the box
    r = SuperRank(2, 3)
    for conv in GroupConvention:
        for w in box_weights(2, 3, -2, 2):
            assert is_relevant_orbit(w, r, Modulus(7), conv) == is_relevant_orbit(
                w, r, Modulus(0), conv
            )


def test_mixed_implies_dominant():
    r = SuperRank(2, 4)
    for p in (0, 2, 5):
        mod = Modulus(p)
        for w in box_weights(2, 4, -1, 1):
            if is_mixed_highest_weight(w, r, mod):
                assert is_standard_dominant(w, r)


def test_orbit_representative_examples():
    m = orbit_representative(W((1,), (2, 0)), SuperRank(1, 2))
    assert m.size == 2
    assert m.entries == ((1, 1, -3), (2, 1, -2), (2, 2, 0))

    m = orbit_representative(W((), (0,)), SuperRank(0, 1))
    assert m.size == 1
    assert m.entries == ((1, 1, 0),)

    m = orbit_representative(W((1,), (1, 0, 2)), SuperRank(1, 3))
    assert m.entries == ((1, 1, -2), (2, 1, -1), (2, 2, 0), (3, 3, -2))


def test_orbit_representative_pattern_shape():
    r = SuperRank(2, 5)
    w = W((3, 1), (4, 2, 0, -1, -2))
    m = orbit_representative(w, r)
    assert m.size == 5
    assert len(m.entries) == r.M + (r.M + 1) + (r.N - r.M - 1)
    exponent = {(row, col): e for row, col, e in m.entries}
    assert set(exponent) == {(1, 1), (2, 2), (3, 1), (3, 2), (3, 3), (4, 4), (5, 5)}
    assert exponent[1, 1] == -(3 + 4)
    assert exponent[3, 1] == -4
    assert exponent[3, 3] == -0
    assert exponent[4, 4] == 1
    assert (1, 2) not in exponent


def test_orbit_representative_entries_are_row_major():
    # every rank up to (3|6): the cells the docstring names, sorted by
    # (row, column), with a weight whose entries are all distinct
    for M in range(4):
        for N in range(M + 1, 7):
            lam, theta = tuple(range(10, 10 + M)), tuple(range(-1, -1 - N, -1))
            m = orbit_representative(W(lam, theta), SuperRank(M, N))
            cells = {(i, i): -(lam[i - 1] + theta[i - 1]) for i in range(1, M + 1)}
            cells.update({(M + 1, c): -theta[c - 1] for c in range(1, M + 2)})
            cells.update({(r, r): -theta[r - 1] for r in range(M + 2, N + 1)})
            assert m.entries == tuple(sorted((r, c, e) for (r, c), e in cells.items()))


def test_orbit_representative_zero_exponents_are_structural():
    m = orbit_representative(W((0,), (0, 0)), SuperRank(1, 2))
    assert m.entries == ((1, 1, 0), (2, 1, 0), (2, 2, 0))


def test_orbit_representative_injective_on_box():
    r = SuperRank(1, 3)
    seen = {}
    for w in box_weights(1, 3, -1, 1):
        m = orbit_representative(w, r)
        assert m not in seen, f"{w} and {seen[m]} share a representative"
        seen[m] = w


def test_dimension_mismatch_raises():
    r = SuperRank(2, 3)
    w = W((1,), (0, 0))
    for call in (
        lambda: is_standard_dominant(w, r),
        lambda: is_mixed_highest_weight(w, r, Modulus(2)),
        lambda: is_relevant_orbit(w, r, Modulus(2), GroupConvention.UPLUS),
        lambda: orbit_representative(w, r),
    ):
        with pytest.raises(DimensionMismatch):
            call()
