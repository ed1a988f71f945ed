"""Parity between the compiled backend and the reference, and backend
selection.  The compiled scans are compared with the pure backend, which
delegates to the public modules, so agreement pins the compiled kernels to
the reference implementation; their failure reports, which correct steps
never produce, are compared with a step replay written here."""

import struct
from itertools import product

import pytest

from glmn_weights import kernels
from glmn_weights.classify import GroupConvention, is_relevant_orbit
from glmn_weights.core import Modulus, SuperRank, Weight
from glmn_weights.serganova import all_linear_extensions, order_v1, order_v2

needs_compiled = pytest.mark.skipif(
    not kernels.compiled_available(), reason="compiled backend not built"
)


def steps_of(order):
    return tuple((s.i, s.j) for s in order.steps)


def test_backend_selection(monkeypatch):
    monkeypatch.delenv("GLMN_WEIGHTS_PURE", raising=False)
    default = kernels.active_backend()
    if kernels.compiled_available():
        assert default is kernels.compiled
    else:
        assert default is kernels.pure
    monkeypatch.setenv("GLMN_WEIGHTS_PURE", "1")
    assert kernels.active_backend() is kernels.pure
    monkeypatch.setenv("GLMN_WEIGHTS_PURE", "0")
    assert kernels.active_backend() is not kernels.pure or not kernels.compiled_available()


@needs_compiled
def test_scan_parity():
    s1 = steps_of(order_v1(2))
    s2 = steps_of(order_v2(2))
    orders = tuple(steps_of(o) for o in all_linear_extensions(2))
    for p in (0, 2, 3):
        args = (2, 3, p, -1, 1)
        assert kernels.compiled.scan_image(*args, s1, 20) == kernels.pure.scan_image(
            *args, s1, 20
        )
        assert kernels.compiled.scan_order(*args, s1, orders, 20) == kernels.pure.scan_order(
            *args, s1, orders, 20
        )
        assert kernels.compiled.scan_trace(*args, s1, s2, 20) == kernels.pure.scan_trace(
            *args, s1, s2, 20
        )
        if p != 0:
            assert kernels.compiled.scan_theorem(*args, s1, 20) == kernels.pure.scan_theorem(
                *args, s1, 20
            )


@needs_compiled
def test_scan_parity_rank_with_dummies():
    s1 = steps_of(order_v1(2))
    s2 = steps_of(order_v2(2))
    args = (2, 4, 3, -1, 1)
    assert kernels.compiled.scan_trace(*args, s1, s2, 20) == kernels.pure.scan_trace(
        *args, s1, s2, 20
    )
    assert kernels.compiled.scan_image(*args, s1, 20) == kernels.pure.scan_image(*args, s1, 20)


@needs_compiled
def test_scan_parity_deeper_rank():
    s1 = steps_of(order_v1(3))
    s2 = steps_of(order_v2(3))
    args = (3, 5, 2, 0, 1)
    assert kernels.compiled.scan_image(*args, s1, 20) == kernels.pure.scan_image(*args, s1, 20)
    assert kernels.compiled.scan_theorem(*args, s1, 20) == kernels.pure.scan_theorem(
        *args, s1, 20
    )
    assert kernels.compiled.scan_trace(*args, s1, s2, 20) == kernels.pure.scan_trace(
        *args, s1, s2, 20
    )


@needs_compiled
def test_scan_parity_degenerate_m0():
    args = (0, 2, 2, -2, 2)
    assert kernels.compiled.scan_image(*args, (), 20) == kernels.pure.scan_image(*args, (), 20)
    assert kernels.compiled.scan_theorem(*args, (), 20) == kernels.pure.scan_theorem(
        *args, (), 20
    )
    assert kernels.compiled.scan_order(*args, (), ((),), 20) == kernels.pure.scan_order(
        *args, (), ((),), 20
    )
    assert kernels.compiled.scan_trace(*args, (), (), 20) == kernels.pure.scan_trace(
        *args, (), (), 20
    )


def scan_calls(M, N, p, lo, hi, cap=20):
    """The four scans with the canonical orders, as (scan, args) pairs."""
    s1, s2 = steps_of(order_v1(M)), steps_of(order_v2(M))
    orders = tuple(steps_of(o) for o in all_linear_extensions(M))
    box = (M, N, p, lo, hi)
    return (
        ("scan_image", (*box, s1, cap)),
        ("scan_theorem", (*box, s1, cap)),
        ("scan_order", (*box, s1, orders, cap)),
        ("scan_trace", (*box, s1, s2, cap)),
    )


LONG_MAX = 2 ** (8 * struct.calcsize("l") - 1) - 1


@needs_compiled
def test_compiled_rejects_oversized_ranks():
    with pytest.raises(ValueError):
        kernels.compiled.scan_image(40, 41, 2, 0, 0, (), 20)
    # Boxes whose coordinates, moved by the transform and summed over a
    # weight, leave C long, and a modulus beyond it: the compiled scans
    # refuse them before visiting a weight (the last box used to hang).
    for M, N, p, lo, hi in (
        (2, 3, 2, 2**63 - 3, 2**63 - 2),
        (2, 3, 2, -(2**63), -(2**63) + 1),
        (1, 2, 2, 2**63 - 2, 2**63 - 1),
        (2, 3, 2**63 + 29, 0, 1),
    ):
        for scan, args in scan_calls(M, N, p, lo, hi):
            with pytest.raises(OverflowError):
                getattr(kernels.compiled, scan)(*args)
    # At (1|2) the bound is 3 * (max(|lo|, |hi|) + 2) <= LONG_MAX: the last
    # box inside it runs and agrees with the pure backend, one step out does not.
    top = LONG_MAX // 3 - 2
    for lo, hi in ((top - 1, top), (-top, -top + 1)):
        for scan, args in scan_calls(1, 2, 2, lo, hi):
            assert getattr(kernels.compiled, scan)(*args) == getattr(kernels.pure, scan)(*args)
    for lo, hi in ((top, top + 1), (-top - 1, -top)):
        for scan, args in scan_calls(1, 2, 2, lo, hi):
            with pytest.raises(OverflowError):
                getattr(kernels.compiled, scan)(*args)


def replay(lam, theta, p, steps, inverse=False):
    """The transform, step by step, independent of the library."""
    lam, theta = list(lam), list(theta)
    move = -1 if inverse else 1
    for i, j in steps[::-1] if inverse else steps:
        s = lam[i - 1] + theta[j - 1]
        if (s % p if p else s) != 0:
            lam[i - 1] -= move
            theta[j - 1] += move
    return tuple(lam), tuple(theta)


def is_dominant(lam, theta):
    return list(lam) == sorted(lam, reverse=True) and list(theta) == sorted(theta, reverse=True)


@needs_compiled
def test_compiled_failure_reports():
    # Reversed steps are not a linear extension, so the scans must report
    # failures: kinds, tuples, order index, flags, box order and cap as
    # documented.
    M, N, p, lo, hi = 2, 3, 2, -1, 1
    rank, mod = SuperRank(M, N), Modulus(p)
    v1 = steps_of(order_v1(M))
    rv1, rv2 = v1[::-1], steps_of(order_v2(M))[::-1]
    orders = (v1, rv1)
    box = [(c[:M], c[M:]) for c in product(range(lo, hi + 1), repeat=M + N)]
    order_fails, theorem_fails = [], []
    for lam, theta in box:
        if is_dominant(lam, theta):
            ref = replay(lam, theta, p, v1)
            for idx, order in enumerate(orders):
                if replay(lam, theta, p, order) != ref:
                    order_fails.append(("order_mismatch", lam, theta, idx))
        pred = is_relevant_orbit(Weight(lam, theta), rank, mod, GroupConvention.UPLUS)
        pre = replay(lam, theta, p, rv1, inverse=True)
        alg = is_dominant(*pre) and replay(*pre, p, rv1) == (lam, theta)
        if pred != alg:
            theorem_fails.append(("theorem_mismatch", lam, theta, pred, alg))
    dominant = sum(is_dominant(lam, theta) for lam, theta in box)
    assert len(order_fails) > 3 and len(theorem_fails) > 3
    for cap in (1, 3, len(box)):
        total, fails = kernels.compiled.scan_order(M, N, p, lo, hi, v1, orders, cap)
        assert (total, fails) == (2 * dominant, order_fails[:cap])
        total, fails = kernels.compiled.scan_theorem(M, N, p, lo, hi, rv1, cap)
        assert (total, fails) == (len(box), theorem_fails[:cap])

    image_kinds = {
        "forward_not_in_mixed", "inverse_forward_roundtrip",
        "inverse_not_in_dominant", "forward_inverse_roundtrip",
    }
    trace_kinds = {
        f"{kind}_{tag}"
        for kind in ("sum_conservation", "congruence_memory", "dummy_theta")
        for tag in ("v1", "v2")
    } | {"lambda_monotone_v1", "theta_monotone_v2"}
    cap = 4
    _, image_fails = kernels.compiled.scan_image(M, N, p, lo, hi, rv1, cap)
    _, trace_fails = kernels.compiled.scan_trace(M, N, p, lo, hi, rv1, rv2, cap)
    for fails, kinds, extra in ((image_fails, image_kinds, 0), (trace_fails, trace_kinds, 1)):
        assert 0 < len(fails) <= cap
        for f in fails:
            assert len(f) == 3 + extra and f[0] in kinds
            assert len(f[1]) == M and len(f[2]) == N
            assert all(type(v) is int for v in f[1] + f[2] + f[3:])
            assert is_dominant(f[1], f[2])
        weights = [f[1] + f[2] for f in fails]
        assert weights == sorted(weights)
    assert all(1 <= f[3] <= len(rv1) for f in trace_fails)
