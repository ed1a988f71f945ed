"""Parity between the compiled backend and the reference, and backend
selection.  The compiled per-weight hooks are compared with the public
transform and predicates directly; the compiled scans are compared with the
pure backend, which delegates to the public modules, so agreement pins the
compiled kernels to the reference implementation."""

from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from glmn_weights import classify, kernels, serganova
from glmn_weights.classify import GroupConvention
from glmn_weights.core import Modulus, SuperRank, Weight
from glmn_weights.serganova import StepOrder, all_linear_extensions, order_v1, order_v2

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


def assert_raw_transform_parity(lam, theta, p, steps):
    """The compiled raw transforms agree with the reference ones."""
    rank = SuperRank(len(lam), len(theta))
    args = (Weight(lam, theta), Modulus(p), StepOrder(rank.M, steps), rank)
    fwd, _ = serganova.forward(*args)
    inv, _ = serganova.inverse(*args)
    assert kernels.compiled.forward_raw(lam, theta, p, steps) == (fwd.lam, fwd.theta)
    assert kernels.compiled.inverse_raw(lam, theta, p, steps) == (inv.lam, inv.theta)


@needs_compiled
def test_raw_transform_parity_on_box():
    s1 = steps_of(order_v1(2))
    for p in (0, 2, 3):
        for coords in product(range(-2, 3), repeat=5):
            assert_raw_transform_parity(coords[:2], coords[2:], p, s1)


@needs_compiled
def test_raw_predicate_parity_on_box():
    rank = SuperRank(2, 3)
    for coords in product(range(-2, 3), repeat=5):
        lam, theta = coords[:2], coords[2:]
        w = Weight(lam, theta)
        assert kernels.compiled.is_dominant_raw(lam, theta) == classify.is_standard_dominant(
            w, rank
        )
        for p in (0, 2, 5):
            mod = Modulus(p)
            assert kernels.compiled.is_mixed_raw(
                lam, theta, p
            ) == classify.is_mixed_highest_weight(w, rank, mod)
            for inc, conv in ((True, GroupConvention.UMINUS), (False, GroupConvention.UPLUS)):
                assert kernels.compiled.is_relevant_raw(
                    lam, theta, p, inc
                ) == classify.is_relevant_orbit(w, rank, mod, conv)


@needs_compiled
@given(
    st.tuples(*[st.integers(min_value=-40, max_value=40)] * 3),
    st.tuples(*[st.integers(min_value=-40, max_value=40)] * 4),
    st.sampled_from([0, 2, 3, 7]),
)
def test_raw_transform_parity_hypothesis(lam, theta, p):
    assert_raw_transform_parity(lam, theta, p, steps_of(order_v1(3)))


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


@needs_compiled
def test_compiled_rejects_oversized_ranks():
    with pytest.raises(ValueError):
        kernels.compiled.scan_image(40, 41, 2, 0, 0, (), 20)
