import json
from dataclasses import replace

import pytest

from glmn_weights import classify, kernels, serganova
from glmn_weights.classify import GroupConvention
from glmn_weights.core import CapacityError, Modulus, SuperRank, ValidationError, Weight, congruent_zero
from glmn_weights.oracle import (
    Box,
    enumerate_box,
    run_check,
    verify_image,
    verify_order_invariance,
    verify_theorem,
    verify_trace_invariants,
)


def test_enumerate_box_counts():
    r = SuperRank(1, 2)
    assert sum(1 for _ in enumerate_box(r, Box(0, 1))) == 8
    dom = lambda w: classify.is_standard_dominant(w, r)
    assert sum(1 for _ in enumerate_box(r, Box(0, 1), dom)) == 6
    assert list(enumerate_box(SuperRank(0, 1), Box(0, 0))) == [Weight((), (0,))]


def test_enumerate_box_is_lexicographic_and_deterministic():
    r = SuperRank(1, 2)
    first = list(enumerate_box(r, Box(-1, 0)))
    second = list(enumerate_box(r, Box(-1, 0)))
    assert first == second
    assert first[:3] == [
        Weight((-1,), (-1, -1)),
        Weight((-1,), (-1, 0)),
        Weight((-1,), (0, -1)),
    ]
    assert first[-1] == Weight((0,), (0, 0))


def test_enumerate_box_limit():
    with pytest.raises(CapacityError):
        enumerate_box(SuperRank(2, 3), Box(-2, 2), limit=100)
    with pytest.raises(CapacityError):
        verify_image(SuperRank(2, 3), Modulus(2), Box(-2, 2), limit=100)


def test_box_validation():
    for lo, hi in ((2, -2), (True, True), (False, 1), (0, True), (0, 1.0)):
        with pytest.raises(ValidationError):
            Box(lo, hi)
    with pytest.raises(ValidationError):
        verify_image(SuperRank(1, 2), Modulus(2), Box(-1, 1), failure_cap=0)


def test_verify_image_passes():
    report = verify_image(SuperRank(1, 2), Modulus(2), Box(-2, 2))
    assert report.passed and report.failures == ()
    assert report.check_name == "image"
    report = verify_image(SuperRank(2, 3), Modulus(3), Box(-2, 2))
    assert report.passed


def test_verify_image_instance_count():
    # box [0,1] at rank (1|2): 6 dominant weights plus 4 mixed ones
    report = verify_image(SuperRank(1, 2), Modulus(2), Box(0, 1))
    assert report.total == 10


def test_verify_image_exact_modulus():
    assert verify_image(SuperRank(2, 3), Modulus(0), Box(-2, 2)).passed


def test_verify_order_invariance_passes():
    report = verify_order_invariance(SuperRank(2, 3), Modulus(2), Box(-1, 1))
    assert report.passed
    dominant_count = sum(
        1
        for w in enumerate_box(SuperRank(2, 3), Box(-1, 1))
        if classify.is_standard_dominant(w, SuperRank(2, 3))
    )
    assert report.total == dominant_count * 2  # two linear extensions at M=2
    assert verify_order_invariance(SuperRank(3, 4), Modulus(2), Box(-1, 1)).passed


def test_verify_order_capacity():
    with pytest.raises(CapacityError):
        verify_order_invariance(SuperRank(3, 4), Modulus(2), Box(-1, 1), cap=3)


def test_verify_theorem_passes():
    for M, N in ((1, 2), (2, 3)):
        for p in (2, 5):
            report = verify_theorem(SuperRank(M, N), Modulus(p), Box(-2, 2))
            assert report.passed
            assert report.total == 5 ** (M + N)


def test_verify_theorem_rejects_exact_modulus():
    with pytest.raises(ValidationError):
        verify_theorem(SuperRank(1, 2), Modulus(0), Box(-1, 1))


def test_verify_trace_invariants_passes():
    assert verify_trace_invariants(SuperRank(2, 3), Modulus(2), Box(-2, 2)).passed
    assert verify_trace_invariants(SuperRank(2, 4), Modulus(3), Box(-1, 1)).passed


def test_passing_reports_survive_sub_boxes():
    # monotonicity of exhaustive checks: a pass on the big box forces a pass
    # on any sub-box
    big = verify_image(SuperRank(2, 3), Modulus(2), Box(-2, 2))
    small = verify_image(SuperRank(2, 3), Modulus(2), Box(-1, 1))
    assert big.passed and small.passed


def test_reports_are_deterministic():
    a = verify_theorem(SuperRank(2, 3), Modulus(3), Box(-1, 1))
    b = verify_theorem(SuperRank(2, 3), Modulus(3), Box(-1, 1))
    assert a == b
    assert json.dumps(a.to_json_dict()) == json.dumps(b.to_json_dict())


def test_report_json_shape():
    obj = verify_image(SuperRank(1, 2), Modulus(2), Box(-1, 1)).to_json_dict()
    assert set(obj) == {"check_name", "total", "failures", "passed", "backend"}
    assert obj["passed"] is True
    assert obj["failures"] == []
    assert obj["backend"] == kernels.active_backend().name


# Boxes at both ends of the 64-bit range, and a prime modulus above it: the
# transform and the sums leave C long there, so the scan must run on the pure
# backend and still pass.
BEYOND_C_LONG = (
    (2, Box(2**63 - 3, 2**63 - 2)),
    (2, Box(-(2**63), -(2**63) + 1)),
    (2**63 + 29, Box(0, 1)),
)


@pytest.mark.parametrize("p,box", BEYOND_C_LONG, ids=("max", "min", "big-p"))
@pytest.mark.parametrize("check", ("image", "order", "theorem", "trace"))
def test_scans_beyond_c_long_run_on_the_pure_backend(check, p, box):
    backends = [None] + ([kernels.compiled] if kernels.compiled_available() else [])
    for be in backends:
        report = run_check(check, SuperRank(2, 3), Modulus(p), box, backend=be)
        assert report.passed, report.failures[:2]
        assert report.backend == "pure"


# --- mutation checks: prove the harness can fail -------------------------
#
# Each mutation swaps one ingredient for a deliberately broken variant and
# runs the pure backend, which resolves its ingredients through the public
# modules at call time.


def _pure():
    return kernels.pure


def test_mutation_inverted_congruence_breaks_image(monkeypatch):
    real = congruent_zero
    monkeypatch.setattr(serganova, "congruent_zero", lambda a, p: not real(a, p))
    report = verify_image(SuperRank(2, 3), Modulus(2), Box(-1, 1), backend=_pure())
    assert not report.passed
    assert len(report.failures) > 0
    assert {"kind", "weight"} <= set(report.failures[0])


def _shifted_b_range(w, rank, p, convention):
    # theta-equality checks start at i = 2 instead of i = 1
    lam, theta = w.lam, w.theta
    chain = (
        classify._non_decreasing if convention is GroupConvention.UMINUS else classify._non_increasing
    )
    if not (chain(lam) and chain(theta)):
        return False
    for i in range(1, rank.M):
        if theta[i] == theta[i + 1] and not congruent_zero(theta[i] + lam[i], p):
            return False
    for i in range(1, rank.M):
        if lam[i - 1] == lam[i] and not congruent_zero(theta[i] + lam[i], p):
            return False
    return True


def test_mutation_shifted_b_range_breaks_theorem(monkeypatch):
    monkeypatch.setattr(classify, "is_relevant_orbit", _shifted_b_range)
    report = verify_theorem(SuperRank(2, 3), Modulus(2), Box(-1, 1), backend=_pure())
    assert not report.passed
    assert len(report.failures) > 0


def _swapped_inequality(w, rank, p, convention):
    # chain direction flipped: UPLUS reads non-decreasing
    lam, theta = w.lam, w.theta
    chain = (
        classify._non_increasing if convention is GroupConvention.UMINUS else classify._non_decreasing
    )
    if not (chain(lam) and chain(theta)):
        return False
    return classify._vanishing_on_equalities(lam, theta, rank.M, p)


def test_mutation_swapped_inequality_breaks_theorem(monkeypatch):
    monkeypatch.setattr(classify, "is_relevant_orbit", _swapped_inequality)
    report = verify_theorem(SuperRank(2, 3), Modulus(2), Box(-1, 1), backend=_pure())
    assert not report.passed
    assert len(report.failures) > 0


def test_mutation_failures_are_capped_and_ordered(monkeypatch):
    real = congruent_zero
    monkeypatch.setattr(serganova, "congruent_zero", lambda a, p: not real(a, p))
    report = verify_image(
        SuperRank(2, 3), Modulus(2), Box(-1, 1), backend=_pure(), failure_cap=5
    )
    assert not report.passed
    assert len(report.failures) == 5
    weights = [
        (tuple(f["weight"]["lambda"]), tuple(f["weight"]["theta"])) for f in report.failures
    ]
    assert weights == sorted(weights)


def test_mutation_order_failures_name_the_broken_order(monkeypatch):
    # one linear extension gives a wrong result; the report must name it
    rank, mod = SuperRank(3, 4), Modulus(2)
    broken = serganova.all_linear_extensions(3)[-1]
    assert broken != serganova.order_v1(3)
    real = serganova.forward

    def forward(w, p, order, rank):
        out, tr = real(w, p, order, rank)
        if order == broken:
            out = Weight(out.lam, out.theta[:-1] + (out.theta[-1] + 1,))
        return out, tr

    monkeypatch.setattr(serganova, "forward", forward)
    report = verify_order_invariance(rank, mod, Box(-1, 1), backend=_pure(), failure_cap=5)
    assert len(report.failures) == 5
    assert all(f["order"] == [list(s) for s in broken.steps] for f in report.failures)


def test_compiled_backend_at_larger_scale():
    # beyond the desk-scale boxes: bigger ranks, dummies, and a wide box
    if not kernels.compiled_available():
        pytest.skip("compiled backend not built")
    be = kernels.compiled
    for M, N, p, lo, hi in ((3, 4, 5, -2, 2), (4, 6, 3, -1, 1), (2, 3, 7, -6, 6)):
        r, mod, box = SuperRank(M, N), Modulus(p), Box(lo, hi)
        assert verify_image(r, mod, box, backend=be).passed
        assert verify_theorem(r, mod, box, backend=be).passed
        assert verify_trace_invariants(r, mod, box, backend=be).passed
        assert verify_order_invariance(r, mod, box, backend=be).passed


def test_backends_agree_on_reports():
    if not kernels.compiled_available():
        pytest.skip("compiled backend not built")
    for maker in (
        lambda be: verify_image(SuperRank(2, 3), Modulus(2), Box(-1, 1), backend=be),
        lambda be: verify_theorem(SuperRank(2, 3), Modulus(3), Box(-1, 1), backend=be),
        lambda be: verify_order_invariance(SuperRank(2, 3), Modulus(2), Box(-1, 1), backend=be),
        lambda be: verify_trace_invariants(SuperRank(2, 4), Modulus(2), Box(-1, 1), backend=be),
    ):
        pure, compiled = maker(kernels.pure), maker(kernels.compiled)
        assert (pure.backend, compiled.backend) == ("pure", "compiled")
        assert replace(compiled, backend="pure") == pure
