import json
from itertools import starmap
from math import comb

import pytest

from glmn_weights import classify, kernels, serganova
from glmn_weights.classify import GroupConvention
from glmn_weights.core import (
    CapacityError,
    InternalConsistencyError,
    Modulus,
    SuperRank,
    ValidationError,
    Weight,
    _dominant_pairs,
    box_weights,
    congruent_zero,
    dominant_weights,
)
from glmn_weights.oracle import (
    Box,
    VerificationReport,
    _extension_through,
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


def test_limit_counts_the_weights_a_check_visits():
    # (2|3), box -2:2: 3,125 box weights, 525 dominant ones, and 735 in the
    # theorem check's widened walk
    rank, mod, box = SuperRank(2, 3), Modulus(2), Box(-2, 2)
    with pytest.raises(CapacityError):
        enumerate_box(rank, box, limit=1000)
    # the dominant walk counts the 525 weights it visits, not the box
    assert len(list(enumerate_box(rank, box, limit=525, dominant=True))) == 525
    with pytest.raises(CapacityError, match="visits 525 weights"):
        enumerate_box(rank, box, limit=524, dominant=True)
    assert verify_image(rank, mod, box, limit=1000).passed
    for check in ("image", "order", "trace"):
        assert run_check(check, rank, mod, box, limit=525).passed
        with pytest.raises(CapacityError):
            run_check(check, rank, mod, box, limit=524)
    with pytest.raises(CapacityError, match="visits 1260 weights"):
        verify_theorem(rank, mod, box, limit=1000)
    assert verify_theorem(rank, mod, box, limit=1260).total == 1260


def test_enumerate_limit_counts_the_dominant_walk():
    # (1|2), box 0:1: 8 box weights, 6 of them dominant
    rank, box = SuperRank(1, 2), Box(0, 1)
    walked = list(enumerate_box(rank, box, limit=6, dominant=True))
    assert walked == [w for w in enumerate_box(rank, box) if classify.is_standard_dominant(w, rank)]
    assert len(walked) == 6
    with pytest.raises(CapacityError, match="visits 6 weights, over the enumeration limit 5"):
        enumerate_box(rank, box, limit=5, dominant=True)
    with pytest.raises(CapacityError, match="visits 8 weights"):
        enumerate_box(rank, box, limit=6)


def test_box_validation():
    for lo, hi in ((2, -2), (True, True), (False, 1), (0, True), (0, 1.0)):
        with pytest.raises(ValidationError):
            Box(lo, hi)
    with pytest.raises(ValidationError):
        verify_image(SuperRank(1, 2), Modulus(2), Box(-1, 1), failure_cap=0)
    # a limit below 1 is refused as invalid, not reported as over capacity
    rank, mod, box = SuperRank(1, 2), Modulus(2), Box(-1, 1)
    for limit in (0, -1):
        with pytest.raises(ValidationError, match="limit must be at least 1"):
            enumerate_box(rank, box, limit=limit)
        for verify in (verify_image, verify_order_invariance, verify_theorem,
                       verify_trace_invariants):
            with pytest.raises(ValidationError, match="limit must be at least 1"):
                verify(rank, mod, box, limit=limit)
    # a limit or failure cap that is not an integer is refused on every
    # backend, before a scan runs
    for bad in (2.5, True, "3"):
        with pytest.raises(ValidationError, match="limit must be an integer"):
            enumerate_box(rank, box, limit=bad)
        for be in _backends():
            with pytest.raises(ValidationError, match="limit must be an integer"):
                verify_image(rank, mod, box, limit=bad, backend=be)
            with pytest.raises(ValidationError, match="failure cap must be an integer"):
                verify_image(rank, mod, box, failure_cap=bad, backend=be)


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
    # the 5 edges of the lattice of order ideals at M=2, and the top
    # comparison, per dominant weight
    assert report.total == dominant_count * 6
    report = verify_order_invariance(SuperRank(3, 4), Modulus(2), Box(-1, 1))
    assert report.passed and report.total == Box(-1, 1).dominant_count(SuperRank(3, 4)) * 22
    # M = 0: no edge, but the top comparison still counts each weight
    assert verify_order_invariance(SuperRank(0, 2), Modulus(2), Box(-1, 1)).total == 6


def test_verify_order_capacity():
    # the cap bounds the order ideals the walk holds per weight: 14 at M=3
    with pytest.raises(CapacityError, match="14 order ideals"):
        verify_order_invariance(SuperRank(3, 4), Modulus(2), Box(-1, 1), cap=3)
    with pytest.raises(CapacityError):
        verify_order_invariance(SuperRank(3, 4), Modulus(2), Box(-1, 1), cap=13)
    assert verify_order_invariance(SuperRank(3, 4), Modulus(2), Box(-1, 1), cap=14).passed
    # M = 5 (132 ideals, 292,864 linear extensions) runs at the default cap
    for be in _backends():
        report = verify_order_invariance(SuperRank(5, 6), Modulus(2), Box(-1, 1), backend=be)
        assert report.passed and report.total == Box(-1, 1).dominant_count(SuperRank(5, 6)) * 331


def all_extensions_walk(rank, p, box):
    """The order check as it was stated first, written here: every linear
    extension gives each dominant weight of the box the result of the
    first one.  Returns the weights on which some extension disagrees."""
    orders = serganova.all_linear_extensions(rank.M)
    return [
        w
        for w in dominant_weights(rank.M, rank.N, box.lo, box.hi)
        if len({serganova.forward(w, p, o, rank) for o in orders}) > 1
    ]


def _parity_context_steps(lam, theta, indices, p, d=1):
    # at (1, 1) at rank (2|3), also move theta_3 when lambda_2 is odd:
    # (2, 2), incomparable with (1, 1), changes lambda_2, so the two orders
    # of those steps disagree
    for a, b in indices:
        _REAL_STEPS(lam, theta, ((a, b),), p, d)
        if (a, b) == (0, 0) and len(lam) == 2 and len(theta) == 3 and lam[1] % 2:
            theta[2] += d


_REAL_STEPS = serganova._steps


@pytest.mark.parametrize("M,N", ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5)))
def test_lattice_walk_agrees_with_every_extension(monkeypatch, M, N):
    # On the transform the two walks pass together; under a step that does
    # not commute, a failing extension walk means a failing lattice walk
    # (the lattice argument: agreeing edges make every extension agree).
    rank = SuperRank(M, N)
    boxes = [(Box(-1, 1), 2), (Box(-1, 1), 3), (Box(-2, 1), 2), (Box(0, 2), 5)]
    for box, p in boxes[: 2 if M == 4 else 4]:
        mod = Modulus(p)
        for be in _backends():
            assert verify_order_invariance(rank, mod, box, backend=be).passed
        assert all_extensions_walk(rank, mod, box) == []
    if M == 2:
        monkeypatch.setattr(serganova, "_steps", _parity_context_steps)
        for box, p in boxes:
            mod = Modulus(p)
            report = verify_order_invariance(rank, mod, box, backend=_pure(), failure_cap=10**6)
            disagreeing = all_extensions_walk(rank, mod, box)
            assert disagreeing and not report.passed
            named = {(tuple(f["weight"]["lambda"]), tuple(f["weight"]["theta"]))
                     for f in report.failures}
            assert {(w.lam, w.theta) for w in disagreeing} <= named


def test_verify_theorem_passes():
    # total: the dominant weights of the box, and those of the box widened
    # by one (the one (1, 1) step) in lambda
    for M, N in ((1, 2), (2, 3)):
        for p in (0, 2, 5):
            report = verify_theorem(SuperRank(M, N), Modulus(p), Box(-2, 2))
            assert report.passed
            assert report.total == (comb(5 + M - 1, M) + comb(6 + M - 1, M)) * comb(5 + N - 1, N)


def test_verify_theorem_passes_in_the_exact_regime():
    # p = 0, the generic side of the statement
    for M, N, lo, hi, total in ((1, 2, -3, 3, 420), (2, 3, -2, 2, 1260),
                                (3, 4, -2, 2, 6370), (2, 4, -3, 3, 13440)):
        report = verify_theorem(SuperRank(M, N), Modulus(0), Box(lo, hi))
        assert report.passed and report.total == total


def relevant_and_image(M, N, p, lo, hi):
    """The relevant dominant weights of the box, and the image: the forward
    results of the widened dominant walk that land in the box and pull back."""
    rank, mod, order = SuperRank(M, N), Modulus(p), serganova.order_v1(M)
    relevant = {
        w for w in dominant_weights(M, N, lo, hi)
        if classify.is_relevant_orbit(w, rank, mod, GroupConvention.UPLUS)
    }
    image = set()
    for d in starmap(Weight, _dominant_pairs(M, N, lo, hi, hi + 1)):
        w = serganova.forward(d, mod, order, rank)
        in_box = all(lo <= v <= hi for v in w.lam + w.theta)
        if in_box and serganova.inverse(w, mod, order, rank) == d:
            image.add(w)
    return relevant, image


@pytest.mark.parametrize("M,N,lo,hi", ((2, 3, -3, 3), (1, 2, -4, 2), (3, 4, -2, 2)))
def test_the_sets_at_p_specialise_to_the_exact_regime(M, N, lo, hi):
    # The limit p -> infinity: the p = 0 sets lie inside those at p, and
    # equal them once p > 2 max(|lo|, |hi|), past which no diagonal sum
    # lambda_i + theta_i of a box weight vanishes mod p without being 0;
    # below that bound they differ on these boxes.
    exact, exact_image = relevant_and_image(M, N, 0, lo, hi)
    assert exact == exact_image
    bound = 2 * max(abs(lo), abs(hi))
    for p in (2, 3, 5, 7, 11, 13):
        relevant, image = relevant_and_image(M, N, p, lo, hi)
        assert relevant == image
        assert exact <= relevant
        assert (relevant == exact) == (p > bound), p


def test_verify_trace_invariants_passes():
    assert verify_trace_invariants(SuperRank(2, 3), Modulus(2), Box(-2, 2)).passed
    assert verify_trace_invariants(SuperRank(2, 4), Modulus(3), Box(-1, 1)).passed


def _backends():
    """Every available backend, the pure one first."""
    return [kernels.pure] + ([kernels.compiled] if kernels.compiled_available() else [])


@pytest.mark.parametrize("M,N", ((2, 3), (3, 4)))
def test_image_and_trace_totals_count_the_box(M, N):
    # Totals against an independent count over the whole box: a scan that
    # drops or repeats a dominant weight changes them.
    rank, mod, box = SuperRank(M, N), Modulus(2), Box(-2, 1)
    dominant = sum(1 for w in enumerate_box(rank, box) if classify.is_standard_dominant(w, rank))
    mixed = sum(
        1 for w in enumerate_box(rank, box) if classify.is_mixed_highest_weight(w, rank, mod)
    )
    assert 0 < mixed < dominant < box.count(rank)
    for be in _backends():
        assert verify_trace_invariants(rank, mod, box, backend=be).total == dominant
        assert verify_image(rank, mod, box, backend=be).total == dominant + mixed


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
    for be in [None, *_backends()]:
        report = run_check(check, SuperRank(2, 3), Modulus(p), box, backend=be)
        assert report.passed, report.failures[:2]
        assert report.backend == "pure"


@pytest.mark.parametrize("check", ("image", "theorem", "trace"))
def test_ranks_beyond_the_compiled_buffers_run_on_the_pure_backend(check):
    # 65 coordinates, one more than the compiled scans hold, and a theta
    # chain far longer than Python's recursion limit
    for rank in (SuperRank(32, 33), SuperRank(2, 1200)):
        for be in [None, *_backends()]:
            report = run_check(check, rank, Modulus(2), Box(0, 0), backend=be)
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


def _chain_dropped(w, rank, p, convention):
    # no chain condition at all: only the vanishing condition is tested
    return classify._vanishing_on_equalities(w.lam, w.theta, rank.M, p)


def _lambda_chain_dropped(w, rank, p, convention):
    return classify._non_increasing(w.theta) and _chain_dropped(w, rank, p, convention)


def _theta_chain_dropped(w, rank, p, convention):
    return classify._non_increasing(w.lam) and _chain_dropped(w, rank, p, convention)


@pytest.mark.parametrize("mutant", (_chain_dropped, _lambda_chain_dropped, _theta_chain_dropped))
def test_mutation_chain_dropped_breaks_theorem(monkeypatch, mutant):
    # the predicate side sees no non-dominant weight but the neighbours of
    # the dominant ones; a dropped chain condition accepts some of them
    monkeypatch.setattr(classify, "is_relevant_orbit", mutant)
    report = verify_theorem(SuperRank(2, 3), Modulus(2), Box(-1, 1), backend=_pure())
    assert not report.passed
    assert any(
        not classify.is_standard_dominant(Weight(f["weight"]["lambda"], f["weight"]["theta"]),
                                          SuperRank(2, 3))
        for f in report.failures
    )


def full_box_theorem(M, N, p, lo, hi, steps, failure_cap):
    """The theorem scan over the whole box, a desk-scale reference: on every
    box weight, the relevance predicate against membership in the image
    (inverse dominant and round-tripping)."""
    rank, mod = SuperRank(M, N), Modulus(p)
    order = serganova.StepOrder(M, steps)
    total = 0
    failures = []
    for w in box_weights(M, N, lo, hi):
        total += 1
        pred = classify.is_relevant_orbit(w, rank, mod, GroupConvention.UPLUS)
        a = serganova.inverse(w, mod, order, rank)
        alg = (
            classify.is_standard_dominant(a, rank)
            and serganova.forward(a, mod, order, rank) == w
        )
        if pred != alg and len(failures) < failure_cap:
            failures.append(("theorem_mismatch", w.lam, w.theta, bool(pred), bool(alg)))
    return total, failures


def _inverted_congruence(monkeypatch):
    monkeypatch.setattr(serganova, "congruent_zero", lambda a, p: not congruent_zero(a, p))


THEOREM_MUTANTS = {
    "intact": lambda mp: None,
    "inverted-congruence": _inverted_congruence,
    "shifted-b": lambda mp: mp.setattr(classify, "is_relevant_orbit", _shifted_b_range),
    "swapped-inequality": lambda mp: mp.setattr(classify, "is_relevant_orbit", _swapped_inequality),
    "chain-dropped": lambda mp: mp.setattr(classify, "is_relevant_orbit", _chain_dropped),
}


@pytest.mark.parametrize("mutant", THEOREM_MUTANTS)
@pytest.mark.parametrize("M,N", ((1, 2), (2, 3), (3, 4)))
def test_theorem_chain_walks_agree_with_the_full_box(monkeypatch, mutant, M, N):
    # Same verdict as the whole-box reference, and every failure the chain
    # walks name is one of its counterexamples.
    THEOREM_MUTANTS[mutant](monkeypatch)
    steps = serganova.order_v1(M).steps
    for lo, hi, p in ((-1, 1, 2), (-1, 1, 3), (-2, 2, 3), (-1, 1, 0), (-2, 2, 0)):
        _, want = full_box_theorem(M, N, p, lo, hi, steps, 10**9)
        _, got = kernels.pure.scan_theorem(M, N, p, lo, hi, steps, 10**9)
        assert bool(got) == bool(want) == (mutant != "intact"), (lo, hi, p)
        assert set(got) <= set(want)


def whole_order_steps(M, run):
    """A serganova._steps substitute: each call that runs the whole column
    order at M, forward (d = 1) or reversed (d = -1), as forward, inverse
    and the scans' transforms do, becomes run(lam, theta, d, real), where
    real(lam, theta) takes those steps on the lists in place.  Other calls,
    such as the lattice walk's one-step lists, run intact."""
    ahead, steps = serganova.order_v1(M).indices, serganova._steps

    def substitute(lam, theta, indices, p, d=1):
        indices = tuple(indices)
        if indices == (ahead if d == 1 else ahead[::-1]):
            run(lam, theta, d, lambda lam, theta: steps(lam, theta, indices, p, d))
        else:
            steps(lam, theta, indices, p, d)

    return substitute


def test_theorem_hits_must_pull_back(monkeypatch):
    # forward sends a second dominant weight onto the image of the first:
    # counted twice, that image would stand in for the one it hides, so the
    # hidden image must be named
    rank, mod, box = SuperRank(1, 2), Modulus(2), Box(-1, 1)
    order, real = serganova.order_v1(1), serganova.forward
    hits = [
        (d, w)
        for d in starmap(Weight, _dominant_pairs(1, 2, -1, 1, 2))
        for w in [real(d, mod, order, rank)]
        if all(-1 <= v <= 1 for v in w.lam + w.theta)
    ]
    (d1, _), (d2, w2) = hits[:2]

    def run(lam, theta, d, steps):
        if d == 1 and Weight(lam, theta) == d2:
            lam[:], theta[:] = d1.lam, d1.theta
        steps(lam, theta)

    assert verify_theorem(rank, mod, box, backend=_pure()).passed
    monkeypatch.setattr(serganova, "_steps", whole_order_steps(1, run))
    assert serganova.forward(d2, mod, order, rank) == real(d1, mod, order, rank)
    report = verify_theorem(rank, mod, box, backend=_pure())
    assert [f["weight"] for f in report.failures] == [w2.to_json_dict()]


def test_theorem_hits_must_be_dominant(monkeypatch):
    # forward sends one dominant weight to a non-dominant one (its image with
    # two theta entries swapped), which inverse and the predicate accept: that
    # hit must not stand in for the dominant image it displaced
    rank, mod, box = SuperRank(1, 2), Modulus(2), Box(-1, 1)
    order = serganova.order_v1(1)
    real_forward, real_pred = serganova.forward, classify.is_relevant_orbit
    d0, w0 = next(
        (d, w)
        for d in starmap(Weight, _dominant_pairs(1, 2, -1, 1, 2))
        for w in [real_forward(d, mod, order, rank)]
        if all(-1 <= v <= 1 for v in w.lam + w.theta) and w.theta[0] != w.theta[1]
    )
    swapped = Weight(w0.lam, w0.theta[::-1])

    def run(lam, theta, d, steps):
        if d == 1 and Weight(lam, theta) == d0:  # forward(d0) is swapped
            lam[:], theta[:] = swapped.lam, swapped.theta
            return
        if d == -1 and Weight(lam, theta) == swapped:  # inverse(swapped) is d0
            lam[:], theta[:] = w0.lam, w0.theta
        steps(lam, theta)

    monkeypatch.setattr(serganova, "_steps", whole_order_steps(1, run))
    assert serganova.forward(d0, mod, order, rank) == swapped
    assert serganova.inverse(swapped, mod, order, rank) == d0
    monkeypatch.setattr(
        classify, "is_relevant_orbit", lambda w, *args: w == swapped or real_pred(w, *args))
    report = verify_theorem(rank, mod, box, backend=_pure())
    assert [f["weight"] for f in report.failures] == [w0.to_json_dict()]


def test_theorem_scan_refuses_a_transform_that_leaves_the_walk(monkeypatch):
    # forward and inverse still undo each other, but forward lowers lambda_1
    # by two more than its steps: dominant preimages then lie beyond the
    # widened walk, the counts differ with no weight to name, and the scan
    # must raise rather than pass
    def run(lam, theta, d, steps):
        if d == -1:
            lam[0] += 2
        steps(lam, theta)
        if d == 1:
            lam[0] -= 2

    monkeypatch.setattr(serganova, "_steps", whole_order_steps(1, run))
    with pytest.raises(InternalConsistencyError, match="outside the walk"):
        verify_theorem(SuperRank(1, 2), Modulus(2), Box(-1, 1), backend=_pure())


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
    # forward broken for the column order only: every edge of the lattice
    # agrees, so the top comparison must catch it, and it names v1
    rank, mod = SuperRank(3, 4), Modulus(2)
    broken = serganova.order_v1(3)

    def run(lam, theta, d, steps):
        steps(lam, theta)
        if d == 1:
            theta[-1] += 1

    monkeypatch.setattr(serganova, "_steps", whole_order_steps(3, run))
    report = verify_order_invariance(rank, mod, Box(-1, 1), backend=_pure(), failure_cap=5)
    assert len(report.failures) == 5
    assert all(f["order"] == [list(s) for s in broken.steps] for f in report.failures)


def test_mutation_order_broken_step_fails_at_an_edge(monkeypatch):
    # a step that also writes theta_3, outside its pair (1, 1), when
    # lambda_2 is odd: forward under v1 (2,1), (1,1), (2,2) runs the same
    # step, so the top ideal agrees with it; the edge that steps (1, 1)
    # after (2, 2) disagrees, and the named order must reach the ideal
    # {(2,1), (2,2)} and then step (1, 1)
    monkeypatch.setattr(serganova, "_steps", _parity_context_steps)
    rank, mod = SuperRank(2, 3), Modulus(2)
    report = verify_order_invariance(rank, mod, Box(-1, 1), backend=_pure(), failure_cap=100)
    named = serganova.StepOrder(2, ((2, 1), (2, 2), (1, 1)))
    assert all(f["order"] == [list(s) for s in named.steps] for f in report.failures)
    # exactly the weights on which the two extensions disagree: those where
    # (2, 2) moves lambda_2 and so flips its parity
    v1 = serganova.order_v1(2)
    disagreeing = [
        {"lambda": list(w.lam), "theta": list(w.theta)}
        for w in dominant_weights(2, 3, -1, 1)
        if serganova.forward(w, mod, named, rank) != serganova.forward(w, mod, v1, rank)
    ]
    assert len(disagreeing) > 3
    assert [f["weight"] for f in report.failures] == disagreeing


def test_failures_name_an_extension_through_their_edge():
    # for every comparison of the lattice walk, the named order is a linear
    # extension that reaches I - x by first edges and then steps x
    for M in range(5):
        v1 = serganova.order_v1(M).steps
        ideals = serganova.ideal_lattice(M)
        sets = {0: frozenset()}
        for I, J, x in ideals:
            sets.setdefault(I, sets[J] | {x})
        for k, (I, J, x) in enumerate(ideals):
            order = serganova.StepOrder(M, tuple(_extension_through(v1, ideals, k)))
            assert set(order.steps[: len(sets[J])]) == sets[J]
            assert order.steps[len(sets[J])] == x
        assert tuple(_extension_through(v1, ideals, len(ideals))) == v1


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
        same = VerificationReport(compiled.check_name, compiled.total, compiled.failures, "pure")
        assert same == pure


def two_trace_walk(M, N, p, lo, hi, steps_v1, steps_v2, failure_cap):
    """The trace check as one serganova.walk per order: the reference that
    pins the trace scan, which steps lists itself, against the public walk."""
    rank, mod = SuperRank(M, N), Modulus(p)
    total = 0
    failures = []
    for w in dominant_weights(M, N, lo, hi):
        total += 1
        base = sum(w.lam) + sum(w.theta)
        for tag, steps, chain in (("v1", steps_v1, "lambda"), ("v2", steps_v2, "theta")):
            order = serganova.StepOrder(M, steps)
            for k, (i, j), _, s, lam, theta in serganova.walk(w, mod, order, rank):
                for kind, broken in (
                    (chain + "_monotone", not classify._non_increasing(
                        lam if tag == "v1" else theta[: M + 1])),
                    ("sum_conservation", sum(lam) + sum(theta) != base),
                    ("congruence_memory", not congruent_zero(lam[i - 1] + theta[j - 1] - s, mod)),
                    ("dummy_theta", tuple(theta[M + 1 :]) != w.theta[M + 1 :]),
                ):
                    if broken and len(failures) < failure_cap:
                        failures.append((f"{kind}_{tag}", w.lam, w.theta, k))
    return total, failures


def _misdirected_steps(lam, theta, indices, p, d=1):
    # a move puts its unit in the last theta entry instead of theta_j: at
    # (1|2) that breaks the theta chain, at (1|3) it moves a trailing entry,
    # and the diagonal sum is not kept
    for a, b in indices:
        before = lam[a]
        _REAL_STEPS(lam, theta, ((a, b),), p, d)
        if lam[a] != before:
            theta[b] -= d
            theta[-1] += d


def _leaking_steps(lam, theta, indices, p, d=1):
    # a move takes d from lambda_i but gives theta_j nothing: neither the
    # total nor the diagonal sum is kept
    for a, b in indices:
        before = lam[a]
        _REAL_STEPS(lam, theta, ((a, b),), p, d)
        if lam[a] != before:
            theta[b] -= d


def _reversed_steps(lam, theta, indices, p, d=1):
    # a move takes its unit from theta_j and gives it to lambda_i
    _REAL_STEPS(lam, theta, indices, p, -d)


TRACE_MUTANTS = {
    "intact": lambda mp: None,
    "inverted-congruence": _inverted_congruence,
    "misdirected-step": lambda mp: mp.setattr(serganova, "_steps", _misdirected_steps),
    "leaking-step": lambda mp: mp.setattr(serganova, "_steps", _leaking_steps),
    "reversed-step": lambda mp: mp.setattr(serganova, "_steps", _reversed_steps),
}

# the failure kinds each mutant gives over the inputs of the test below; a
# lambda chain breaks only with two lambda entries, under the reversed step
TRACE_MUTANT_KINDS = {
    "intact": set(),
    "inverted-congruence": set(),
    "misdirected-step": {"theta_monotone_v2", "dummy_theta_v1", "dummy_theta_v2",
                         "congruence_memory_v1", "congruence_memory_v2"},
    "leaking-step": {"sum_conservation_v1", "sum_conservation_v2",
                     "congruence_memory_v1", "congruence_memory_v2"},
    "reversed-step": {"lambda_monotone_v1", "theta_monotone_v2"},
}


@pytest.mark.parametrize("mutant", TRACE_MUTANTS)
def test_shared_trace_reports_what_two_traces_report(monkeypatch, mutant):
    # The trace scan steps lists itself; its failures, their tags and their
    # order are those of one serganova.walk per order.  At
    # M = 1 the column and the row order are one order; at M = 2 and 3 they
    # differ.  A substitute only reaches the pure backend; the compiled one
    # runs intact.
    inputs = ((1, 2, 2, -3, 3), (1, 2, 3, -2, 4), (1, 3, 2, -2, 2),
              (2, 3, 2, -2, 2), (3, 4, 3, -1, 1))
    intact = {}
    for be in _backends():
        for M, N, p, lo, hi in inputs:
            steps_v1 = tuple(tuple(s) for s in serganova.order_v1(M).steps)
            steps_v2 = tuple(tuple(s) for s in serganova.order_v2(M).steps)
            assert (steps_v1 == steps_v2) == (M == 1)
            for cap in (1, 3, 10**6):
                args = (M, N, p, lo, hi, steps_v1, steps_v2, cap)
                intact[be.name, args] = be.scan_trace(*args)
                assert intact[be.name, args] == two_trace_walk(*args)
    TRACE_MUTANTS[mutant](monkeypatch)
    kinds = set()
    for (name, args), result in intact.items():
        if name == "pure":
            got, want = kernels.pure.scan_trace(*args), two_trace_walk(*args)
            assert got == want
            kinds |= {kind for kind, *_ in want[1]}
        else:
            assert kernels.compiled.scan_trace(*args) == result
    assert kinds == TRACE_MUTANT_KINDS[mutant]
    # every kind of trace failure occurs under some mutant
    assert set().union(*TRACE_MUTANT_KINDS.values()) == {
        "lambda_monotone_v1", "theta_monotone_v2", "sum_conservation_v1", "sum_conservation_v2",
        "congruence_memory_v1", "congruence_memory_v2", "dummy_theta_v1", "dummy_theta_v2",
    }


def weight_level_image(M, N, p, lo, hi, steps, failure_cap):
    """The image check as a walk of weight-level calls, serganova.forward
    and inverse and the classify predicates: the reference that pins the
    image scan, which steps lists itself, against the public functions."""
    rank, mod = SuperRank(M, N), Modulus(p)
    order = serganova.StepOrder(M, steps)
    total = 0
    failures = []

    def note(kind, w):
        if len(failures) < failure_cap:
            failures.append((kind, w.lam, w.theta))

    for w in dominant_weights(M, N, lo, hi):
        total += 1
        m = serganova.forward(w, mod, order, rank)
        if not classify.is_mixed_highest_weight(m, rank, mod):
            note("forward_not_in_mixed", w)
        if serganova.inverse(m, mod, order, rank) != w:
            note("inverse_forward_roundtrip", w)
        if classify.is_mixed_highest_weight(w, rank, mod):
            total += 1
            a = serganova.inverse(w, mod, order, rank)
            if not classify.is_standard_dominant(a, rank):
                note("inverse_not_in_dominant", w)
            if serganova.forward(a, mod, order, rank) != w:
                note("forward_inverse_roundtrip", w)
    return total, failures


# the image failure kinds each mutant of TRACE_MUTANTS gives over the inputs
# of the test below
IMAGE_MUTANT_KINDS = {
    "intact": set(),
    "inverted-congruence": {"forward_not_in_mixed", "inverse_not_in_dominant"},
    "misdirected-step": {"forward_not_in_mixed", "inverse_forward_roundtrip",
                         "forward_inverse_roundtrip"},
    "leaking-step": {"forward_not_in_mixed", "inverse_forward_roundtrip",
                     "forward_inverse_roundtrip"},
    "reversed-step": {"forward_not_in_mixed", "inverse_not_in_dominant"},
}


@pytest.mark.parametrize("mutant", TRACE_MUTANTS)
def test_image_scan_reports_what_weight_level_calls_report(monkeypatch, mutant):
    # The image scan steps lists itself; its total, its failures and their
    # order are those of the weight-level walk, intact and under each
    # mutant, at every cap.  A substitute only reaches the pure backend; the
    # compiled one runs intact.
    inputs = ((0, 1, -3, 3), (1, 2, -3, 3), (1, 3, -2, 2), (2, 3, -2, 2), (3, 4, -1, 1))
    intact = {}
    for be in _backends():
        for M, N, lo, hi in inputs:
            steps = tuple(tuple(s) for s in serganova.order_v1(M).steps)
            for p in (0, 2, 3):
                for cap in (1, 3, 10**6):
                    args = (M, N, p, lo, hi, steps, cap)
                    intact[be.name, args] = be.scan_image(*args)
                    assert intact[be.name, args] == weight_level_image(*args)
    TRACE_MUTANTS[mutant](monkeypatch)
    kinds = set()
    for (name, args), result in intact.items():
        if name == "pure":
            got, want = kernels.pure.scan_image(*args), weight_level_image(*args)
            assert got == want, args
            kinds |= {kind for kind, *_ in want[1]}
        else:
            assert kernels.compiled.scan_image(*args) == result
    assert kinds == IMAGE_MUTANT_KINDS[mutant]
    # every kind of image failure occurs under some mutant
    assert set().union(*IMAGE_MUTANT_KINDS.values()) == {
        "forward_not_in_mixed", "inverse_forward_roundtrip",
        "inverse_not_in_dominant", "forward_inverse_roundtrip",
    }


def _vanishing_from_theta_2(lam, theta, M, p):
    # theta-equality checks start at i = 2 instead of i = 1
    for i in range(1, M):
        if theta[i] == theta[i + 1] and not congruent_zero(theta[i] + lam[i], p):
            return False
    for i in range(1, M):
        if lam[i - 1] == lam[i] and not congruent_zero(theta[i] + lam[i], p):
            return False
    return True


@pytest.mark.parametrize("M,N", ((1, 2), (2, 3), (3, 4)))
def test_mutation_shifted_vanishing_breaks_image(monkeypatch, M, N):
    # the image scan reads the mixed condition from classify when it starts,
    # on the walked weights and on their images alike
    rank, mod, box = SuperRank(M, N), Modulus(2), Box(-1, 1)
    assert verify_image(rank, mod, box, backend=_pure()).passed
    monkeypatch.setattr(classify, "_vanishing_on_equalities", _vanishing_from_theta_2)
    report = verify_image(rank, mod, box, backend=_pure())
    assert {f["kind"] for f in report.failures} == {"inverse_not_in_dominant"}
