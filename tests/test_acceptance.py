"""Acceptance suite: every structural claim checked at desk scale, one
pass/fail line per criterion (run with -s or -rA to see them)."""

from itertools import permutations, product

from glmn_weights import classify, kernels, serganova
from glmn_weights.classify import GroupConvention, is_relevant_orbit
from glmn_weights.core import Modulus, SuperRank, Weight, congruent_zero
from glmn_weights.oracle import (
    Box,
    enumerate_box,
    verify_image,
    verify_order_invariance,
    verify_theorem,
    verify_trace_invariants,
)
from glmn_weights.roots import all_pairs, excess_pairs, pair_leq
from glmn_weights.serganova import all_linear_extensions, forward, inverse, order_v1, order_v2


def report(name, ok):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_1_image_set_equality():
    ok = True
    for M, N in ((1, 2), (2, 3)):
        for p in (2, 3, 5):
            r = verify_image(SuperRank(M, N), Modulus(p), Box(-2, 2))
            ok = ok and r.passed and r.failures == ()
    report("1 image set equality", ok)


def test_criterion_2_bijectivity_roundtrip():
    rank = SuperRank(2, 3)
    box = Box(-2, 2)
    ok = True
    for p in (2, 3):
        mod = Modulus(p)
        order = order_v1(2)
        for w in enumerate_box(rank, box):
            fwd, _ = forward(w, mod, order, rank)
            ok = ok and inverse(fwd, mod, order, rank)[0] == w
        mixed = lambda w: classify.is_mixed_highest_weight(w, rank, mod)
        for m in enumerate_box(rank, box, mixed):
            inv, _ = inverse(m, mod, order, rank)
            ok = ok and forward(inv, mod, order, rank)[0] == m
    report("2 bijectivity roundtrip", ok)


def _extension_count_by_permutation_filter(M):
    count = 0
    pairs = all_pairs(M)
    n = len(pairs)
    for perm in permutations(pairs):
        if all(
            not (perm[b] != perm[a] and pair_leq(perm[b], perm[a]))
            for a in range(n)
            for b in range(a + 1, n)
        ):
            count += 1
    return count


def test_criterion_3_order_extension_invariance():
    ok = len(all_linear_extensions(2)) == 2 == _extension_count_by_permutation_filter(2)
    ok = ok and verify_order_invariance(SuperRank(2, 3), Modulus(2), Box(-1, 1)).passed
    backtrack_count = len(all_linear_extensions(3))
    ok = ok and backtrack_count == _extension_count_by_permutation_filter(3)
    ok = ok and verify_order_invariance(SuperRank(3, 4), Modulus(2), Box(-1, 1)).passed
    report("3 order extension invariance", ok)


def test_criterion_4_main_theorem_set_equality():
    ok = True
    for M, N in ((1, 2), (2, 3)):
        for p in (2, 3, 5):
            r = verify_theorem(SuperRank(M, N), Modulus(p), Box(-2, 2))
            ok = ok and r.passed
    report("4 main theorem set equality", ok)


def test_criterion_5_trace_invariants():
    ok = True
    for M, N in ((2, 3), (2, 4)):
        for p in (2, 3):
            r = verify_trace_invariants(SuperRank(M, N), Modulus(p), Box(-2, 2))
            ok = ok and r.passed
    # explicit dummy-entry check at N = 4: trailing theta entries never move
    rank = SuperRank(2, 4)
    mod = Modulus(2)
    for w in enumerate_box(rank, Box(-1, 1)):
        for order in (order_v1(2), order_v2(2)):
            _, tr = forward(w, mod, order, rank)
            for rec in tr.records:
                ok = ok and rec.state_after.theta[3:] == w.theta[3:]
    report("5 trace invariants", ok)


def test_criterion_6_root_identification():
    ok = True
    for M in range(0, 8):
        for N in range(M + 1, 9):
            ok = ok and excess_pairs(SuperRank(M, N)) == all_pairs(M)
    report("6 root identification", ok)


def test_criterion_7_generic_vs_modular_consistency():
    rank = SuperRank(2, 3)
    box = Box(-2, 2)
    ok = True
    for conv in GroupConvention:
        for w in enumerate_box(rank, box):
            exact = is_relevant_orbit(w, rank, Modulus(0), conv)
            if exact:
                for p in (2, 3, 5):
                    ok = ok and is_relevant_orbit(w, rank, Modulus(p), conv)
            ok = ok and is_relevant_orbit(w, rank, Modulus(7), conv) == exact
    report("7 generic vs modular consistency", ok)


def test_criterion_8_harness_falsifiability(monkeypatch):
    rank = SuperRank(2, 3)
    box = Box(-1, 1)
    mod = Modulus(2)
    pure = kernels.pure

    real = congruent_zero
    monkeypatch.setattr(serganova, "congruent_zero", lambda a, p: not real(a, p))
    inverted = verify_image(rank, mod, box, backend=pure)
    inverted_theorem = verify_theorem(rank, mod, box, backend=pure)
    monkeypatch.undo()

    def shifted_b_range(w, rk, p, convention):
        chain = (
            classify._non_decreasing
            if convention is GroupConvention.UMINUS
            else classify._non_increasing
        )
        if not (chain(w.lam) and chain(w.theta)):
            return False
        for i in range(1, rk.M):  # theta checks start one position late
            if w.theta[i] == w.theta[i + 1] and not congruent_zero(w.theta[i] + w.lam[i], p):
                return False
        for i in range(1, rk.M):
            if w.lam[i - 1] == w.lam[i] and not congruent_zero(w.theta[i] + w.lam[i], p):
                return False
        return True

    monkeypatch.setattr(classify, "is_relevant_orbit", shifted_b_range)
    shifted = verify_theorem(rank, mod, box, backend=pure)
    monkeypatch.undo()

    def swapped_inequality(w, rk, p, convention):
        chain = (
            classify._non_increasing
            if convention is GroupConvention.UMINUS
            else classify._non_decreasing
        )
        if not (chain(w.lam) and chain(w.theta)):
            return False
        return classify._vanishing_on_equalities(w.lam, w.theta, rk.M, p)

    monkeypatch.setattr(classify, "is_relevant_orbit", swapped_inequality)
    swapped = verify_theorem(rank, mod, box, backend=pure)
    monkeypatch.undo()

    # no chain condition: the theorem check sees non-dominant weights only
    # as neighbours of dominant ones, and must still catch this
    def chain_dropped(w, rk, p, convention):
        return classify._vanishing_on_equalities(w.lam, w.theta, rk.M, p)

    monkeypatch.setattr(classify, "is_relevant_orbit", chain_dropped)
    dropped = verify_theorem(rank, mod, box, backend=pure)
    monkeypatch.undo()

    ok = (
        len(inverted.failures) > 0
        and len(inverted_theorem.failures) > 0
        and len(shifted.failures) > 0
        and len(swapped.failures) > 0
        and len(dropped.failures) > 0
    )
    report("8 harness falsifiability", ok)
