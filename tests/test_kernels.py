"""Parity between the compiled backend and the reference, and backend
selection.  The compiled scans are compared with the pure backend, which
delegates to the public modules, so agreement pins the compiled kernels to
the reference implementation; their failure reports, which correct steps
never produce, are compared with a step replay written here."""

import random
import struct
from itertools import product

import pytest

from glmn_weights import kernels
from glmn_weights.classify import GroupConvention, is_relevant_orbit
from glmn_weights.core import Modulus, SuperRank, Weight
from glmn_weights.serganova import ideal_lattice, order_v1, order_v2

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
    ideals = ideal_lattice(2)
    for p in (0, 2, 3):
        args = (2, 3, p, -1, 1)
        assert kernels.compiled.scan_image(*args, s1, 20) == kernels.pure.scan_image(
            *args, s1, 20
        )
        assert kernels.compiled.scan_order(*args, s1, ideals, 20) == kernels.pure.scan_order(
            *args, s1, ideals, 20
        )
        as_lists = [[I, J, list(x)] for I, J, x in ideals]
        assert kernels.compiled.scan_order(*args, s1, as_lists, 20) == kernels.pure.scan_order(
            *args, s1, ideals, 20
        )
        assert kernels.compiled.scan_trace(*args, s1, s2, 20) == kernels.pure.scan_trace(
            *args, s1, s2, 20
        )
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
    assert kernels.compiled.scan_order(*args, (), (), 20) == kernels.pure.scan_order(
        *args, (), (), 20
    )
    assert kernels.compiled.scan_trace(*args, (), (), 20) == kernels.pure.scan_trace(
        *args, (), (), 20
    )


def malformed(ideals):
    """The lattice table with the pairs of its edges in reverse order: it
    keeps the structure the scans require, so they walk it, but its steps
    disagree on many weights."""
    return tuple((I, J, ideals[-1 - k][2]) for k, (I, J, _) in enumerate(ideals))


def scan_calls(M, N, p, lo, hi, cap=20, reverse=False):
    """The four scans with the canonical orders and the lattice table, as
    (scan, args) pairs; reverse=True reverses the steps and the pairs of
    the table's edges (malformed)."""
    s1, s2 = steps_of(order_v1(M)), steps_of(order_v2(M))
    ideals = ideal_lattice(M)
    if reverse:
        s1, s2, ideals = s1[::-1], s2[::-1], malformed(ideals)
    box = (M, N, p, lo, hi)
    return (
        ("scan_image", (*box, s1, cap)),
        ("scan_theorem", (*box, s1, cap)),
        ("scan_order", (*box, s1, ideals, cap)),
        ("scan_trace", (*box, s1, s2, cap)),
    )


LONG_MAX = 2 ** (8 * struct.calcsize("l") - 1) - 1


@needs_compiled
def test_compiled_rejects_oversized_ranks():
    # more coordinates than the compiled buffers hold: a capacity refusal,
    # which oracle answers by running the pure backend
    with pytest.raises(OverflowError):
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


def is_member(lam, theta, p, steps):
    """In the image of the dominant set: the inverse is dominant and maps
    forward onto the weight again."""
    pre = replay(lam, theta, p, steps, inverse=True)
    return is_dominant(*pre) and replay(*pre, p, steps) == (tuple(lam), tuple(theta))


def dominant_box(M, N, lo, hi, lam_hi):
    """The dominant weights with lambda in [lo, lam_hi] and theta in [lo, hi],
    in lexicographic order."""
    return [
        (lam, theta)
        for lam in product(range(lo, lam_hi + 1), repeat=M)
        for theta in product(range(lo, hi + 1), repeat=N)
        if is_dominant(lam, theta)
    ]


def chain_walk_theorem(M, N, p, lo, hi, steps):
    """The theorem scan written with replay: (total, uncapped failures).
    Algorithmic side over the box widened by the (1, 1) steps in lambda, the
    count of relevant dominant weights of the box, and the naming pass."""
    rank, mod = SuperRank(M, N), Modulus(p)
    widened = dominant_box(M, N, lo, hi, hi + sum(1 for s in steps if s == (1, 1)))
    box = dominant_box(M, N, lo, hi, hi)

    def pred(lam, theta):
        return is_relevant_orbit(Weight(lam, theta), rank, mod, GroupConvention.UPLUS)

    fails, hits = [], 0
    for d in widened:
        w = replay(*d, p, steps)
        if not all(lo <= v <= hi for v in w[0] + w[1]):
            continue
        pulls = replay(*w, p, steps, inverse=True) == d
        hits += pulls and is_dominant(*w)
        if not pred(*w) and (pulls or is_member(*w, p, steps)):
            fails.append(("theorem_mismatch", *w, False, True))
    if hits != sum(pred(*w) for w in box) or fails:
        fails += [
            ("theorem_mismatch", *w, True, False)
            for w in box
            if pred(*w) and not is_member(*w, p, steps)
        ]
    return len(widened) + len(box), fails


@pytest.mark.parametrize("M,N", ((1, 2), (2, 3), (3, 4)))
def test_dominant_preimages_lie_in_the_widened_box(M, N):
    # Forward only lowers lambda and raises theta, lambda_1 moves only at
    # (1, 1) and theta_{M+1} never moves: so a dominant preimage of a box
    # weight has lambda in [lo, hi + c], c the number of (1, 1) steps, and
    # theta in [lo, hi].  Brute force over every box weight, for the
    # canonical orders, reversed ones and random step lists with repeats.
    rng = random.Random(M)
    pairs = [(i, j) for i in range(1, M + 1) for j in range(1, i + 1)]
    v1, v2 = steps_of(order_v1(M)), steps_of(order_v2(M))
    step_lists = [v1, v2, v1[::-1], v2[::-1]]
    step_lists += [tuple(rng.choices(pairs, k=2 * len(pairs))) for _ in range(4)]
    step_lists.append(((1, 1),) * 3 + v1)
    widest = 0
    for steps in step_lists:
        c = sum(1 for s in steps if s == (1, 1))
        for p in (0, 2, 3, 5):
            for lo, hi in ((-1, 1), (-2, 1)):
                for co in product(range(lo, hi + 1), repeat=M + N):
                    lam, theta = replay(co[:M], co[M:], p, steps, inverse=True)
                    if is_dominant(lam, theta):
                        assert all(lo <= v <= hi + c for v in lam), (steps, p, co)
                        assert all(lo <= v <= hi for v in theta), (steps, p, co)
                        widest = max(widest, lam[0] - hi - c)
    assert widest == 0  # the widening is needed: some preimage reaches hi + c


@needs_compiled
@pytest.mark.parametrize("p", (0, 2, 3))
def test_compiled_theorem_walk_widens_by_the_11_steps(p):
    # step lists with no (1, 1) step, with one, and with three: the widened
    # walk, and so the total and the failures, follow their count
    v1 = steps_of(order_v1(2))
    for steps in (v1[1:], v1, v1[::-1], ((1, 1),) * 2 + v1, ((2, 1), (2, 2)) * 2):
        total, fails = chain_walk_theorem(2, 3, p, -1, 1, steps)
        assert kernels.compiled.scan_theorem(2, 3, p, -1, 1, steps, 1000) == (total, fails)


def lattice_walk(M, N, p, lo, hi, steps, ideals):
    """The order scan written with replay: (total, uncapped failures).  The
    first edge of an ideal sets its state, every further edge must give
    the same state, and the top state must equal the replay of steps."""
    fails = []
    for lam, theta in dominant_box(M, N, lo, hi, hi):
        states = {0: (lam, theta)}
        for k, (I, J, x) in enumerate(ideals):
            state = replay(*states[J], p, (tuple(x),))
            if I not in states:
                states[I] = state
            elif state != states[I]:
                fails.append(("order_mismatch", lam, theta, k))
        top = ideals[-1][0] if ideals else 0
        if replay(lam, theta, p, steps) != states[top]:
            fails.append(("order_mismatch", lam, theta, len(ideals)))
    return len(dominant_box(M, N, lo, hi, hi)) * (len(ideals) + 1), fails


@needs_compiled
def test_compiled_failure_reports():
    # Reversed steps are not a linear extension, and a table with its pairs
    # reversed is not the lattice, so the scans must report failures:
    # kinds, tuples, comparison index, flags, box order and cap as
    # documented.
    M, N, p, lo, hi = 2, 3, 2, -1, 1
    rank, mod = SuperRank(M, N), Modulus(p)
    v1 = steps_of(order_v1(M))
    rv1, rv2 = v1[::-1], steps_of(order_v2(M))[::-1]
    box = [(c[:M], c[M:]) for c in product(range(lo, hi + 1), repeat=M + N)]
    box_mismatches = []
    for lam, theta in box:
        pred = is_relevant_orbit(Weight(lam, theta), rank, mod, GroupConvention.UPLUS)
        if pred != is_member(lam, theta, p, rv1):
            box_mismatches.append(("theorem_mismatch", lam, theta, pred, not pred))
    theorem_total, theorem_fails = chain_walk_theorem(M, N, p, lo, hi, rv1)
    assert len(theorem_fails) > 3
    # every failure the chain walks name is a counterexample on the box
    assert set(theorem_fails) <= set(box_mismatches)
    orders = (
        (rv1, ideal_lattice(M)),  # only the top comparison fails
        (v1, malformed(ideal_lattice(M))),  # edges fail
    )
    for steps, ideals in orders:
        order_total, order_fails = lattice_walk(M, N, p, lo, hi, steps, ideals)
        assert len(order_fails) > 3
        for cap in (1, 3, len(box)):
            total, fails = kernels.compiled.scan_order(M, N, p, lo, hi, steps, ideals, cap)
            assert (total, fails) == (order_total, order_fails[:cap])
    for cap in (1, 3, len(box)):
        total, fails = kernels.compiled.scan_theorem(M, N, p, lo, hi, rv1, cap)
        assert (total, fails) == (theorem_total, theorem_fails[:cap])

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


@needs_compiled
@pytest.mark.parametrize("M,N,p,lo,hi", ((3, 4, 2, -2, 2), (2, 5, 2, -1, 2)))
def test_backends_walk_the_same_weights(M, N, p, lo, hi):
    # The compiled odometers and core.dominant_weights must visit the same
    # weights in the same order: the canonical steps and lattice table,
    # then reversed steps and a malformed table (which fail on many
    # weights), at several caps.  The pure scans keep the first `cap`
    # failures (see test_oracle), so one uncapped pure run is the reference
    # for every cap.
    uncapped = (hi - lo + 1) ** (M + N) * (len(ideal_lattice(M)) + 1)
    failing = set()
    for reverse in (False, True):
        for scan, args in scan_calls(M, N, p, lo, hi, uncapped, reverse):
            total, fails = getattr(kernels.pure, scan)(*args)
            for cap in (1, 3, uncapped):
                got = getattr(kernels.compiled, scan)(*args[:-1], cap)
                assert got == (total, fails[:cap]), (scan, cap)
            if fails:
                failing.add(scan)
    assert len(failing) == 4  # reversed steps make every scan report failures


def backends():
    return [kernels.pure] + ([kernels.compiled] if kernels.compiled_available() else [])


@pytest.mark.parametrize("p", (0, 2, 3))
def test_pure_scans_run_any_step_list(p):
    # The pure scans load a step list as the compiled ones do: any excess
    # pairs, run in the order given, repeats allowed.  Lists with no (1, 1)
    # step, reversed, with repeated (1, 1) steps and with repeated pairs,
    # against the replay walks.
    v1 = steps_of(order_v1(2))
    ideals = ideal_lattice(2)
    for steps in (v1[1:], v1[::-1], ((1, 1),) * 2 + v1, ((2, 1), (2, 2)) * 2):
        args = (2, 3, p, -1, 1, steps)
        assert kernels.pure.scan_theorem(*args, 1000) == chain_walk_theorem(*args)
        assert kernels.pure.scan_order(*args, ideals, 1000) == lattice_walk(*args, ideals)


def test_backends_take_a_step_list_that_is_not_an_extension():
    # a reversed column order, passed as an iterator, and three (1, 1) steps
    # ahead of it: every backend runs them and gives the same reports
    v1 = steps_of(order_v1(2))
    images, theorems = set(), set()
    for be in backends():
        total, fails = be.scan_image(2, 3, 2, -1, 1, reversed(v1), 3)
        assert total == 91 and len(fails) == 3
        images.add((total, tuple(fails)))
        total, fails = be.scan_theorem(2, 3, 2, -1, 1, ((1, 1),) * 3 + v1, 1000)
        theorems.add((total, tuple(fails)))
    assert len(images) == len(theorems) == 1
    total, fails = chain_walk_theorem(2, 3, 2, -1, 1, ((1, 1),) * 3 + v1)
    assert theorems == {(total, tuple(fails))}


@pytest.mark.parametrize(
    "steps",
    (
        ((1, 2),),  # not an excess pair
        ((3, 1),),  # a pair beyond M
        ((0, 0),),  # indices from 1
        ((1,),),  # half a pair
        ((1, 1, 1),),  # more than a pair
    ),
)
def test_scans_refuse_a_step_that_is_not_an_excess_pair(steps):
    # both backends refuse the same step lists, before visiting a weight
    steps = steps_of(order_v1(2)) + steps
    for be in backends():
        for call in (
            lambda: be.scan_image(2, 3, 2, -1, 1, steps, 20),
            lambda: be.scan_theorem(2, 3, 2, -1, 1, steps, 20),
            lambda: be.scan_order(2, 3, 2, -1, 1, steps, ideal_lattice(2), 20),
            lambda: be.scan_trace(2, 3, 2, -1, 1, steps, steps_of(order_v2(2)), 20),
        ):
            with pytest.raises(ValueError):
                call()


@needs_compiled
def test_compiled_refuses_more_steps_than_it_holds():
    # the compiled scans hold 2080 steps, as many as a linear extension has
    # at M = 63; past that they refuse with OverflowError, which oracle
    # answers by running the pure backend, and the pure scans run any count
    for n in (2080, 2081):
        steps = ((2, 1),) * n
        box = (2, 3, 3, 0, 1)
        calls = (
            ("scan_image", (*box, steps, 5)),
            ("scan_theorem", (*box, steps, 5)),
            ("scan_order", (*box, steps, ideal_lattice(2), 5)),
            ("scan_trace", (*box, steps, steps, 5)),
        )
        for scan, args in calls:
            if n == 2080:
                assert getattr(kernels.compiled, scan)(*args) == getattr(kernels.pure, scan)(*args)
            else:
                with pytest.raises(OverflowError):
                    getattr(kernels.compiled, scan)(*args)
                getattr(kernels.pure, scan)(*args)


@pytest.mark.parametrize(
    "ideals",
    (
        ((1, 1, (1, 1)),),  # J = I
        ((1, -1, (1, 1)),),  # J before the empty ideal
        ((2, 0, (1, 1)),),  # ideal 1 skipped
        ((1, 0, (2, 1)), (2, 1, (1, 1)), (1, 0, (2, 2))),  # back to an earlier ideal
        ((1, 0, (1, 2)),),  # not an excess pair
        ((1, 0, (3, 1)),),  # a pair beyond M
        ((1, 0),),  # no pair
        ((1, 0, (1,)),),  # half a pair
    ),
)
def test_scan_order_refuses_a_table_out_of_order(ideals):
    # every state must be set before it is read: both backends refuse the
    # same tables, before visiting a weight
    steps = steps_of(order_v1(2))
    for be in [kernels.pure] + ([kernels.compiled] if kernels.compiled_available() else []):
        with pytest.raises(ValueError):
            be.scan_order(2, 3, 2, -1, 1, steps, ideals, 20)


@needs_compiled
def test_compiled_order_refuses_a_table_deeper_than_its_steps():
    # a chain of edges, each stepping (1, 1) again: the compiled scan holds
    # at most 2080 steps between a weight and a state, as many as a linear
    # extension has at M = 63; past that it refuses, and the pure scan runs
    def chain(n):
        return tuple((k, k - 1, (1, 1)) for k in range(1, n + 1))

    args = (1, 2, 2, 0, 1, ((1, 1),))
    assert kernels.compiled.scan_order(*args, chain(2080), 5) == kernels.pure.scan_order(
        *args, chain(2080), 5
    )
    with pytest.raises(OverflowError):
        kernels.compiled.scan_order(*args, chain(2081), 5)
    total, fails = kernels.pure.scan_order(*args, chain(2081), 5)
    # 6 dominant weights; a step keeps lambda_1 + theta_1, so every (1, 1)
    # step moves when the first one does: the top state differs from
    # forward on the 3 weights where that sum is odd
    assert total == 6 * 2082 and [f[3] for f in fails] == [2081] * 3
