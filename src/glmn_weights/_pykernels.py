"""Pure-Python scan kernels: the fallback backend for the exhaustive
verification loops.

Mirrors the compiled extension's scan_* API and failure payloads exactly.
Every scan walks dominant chains only (core.dominant_weights): the image,
order and trace scans the dominant weights of the box, the theorem scan
those and the dominant weights of a box widened upward in lambda, which
hold every dominant preimage of a box weight.  Every per-weight operation
is routed through the public modules (looked up at call time), so the
harness exercises the same code the library exposes and the test suite can
substitute deliberately broken variants.
"""

from __future__ import annotations

from . import classify, serganova
from .classify import GroupConvention
from .core import (
    InternalConsistencyError,
    Modulus,
    SuperRank,
    _valid_weight,
    congruent_zero,
    dominant_weights,
)
from .serganova import StepOrder

name = "pure"


def scan_image(M, N, p, lo, hi, steps, failure_cap):
    """One pass over the dominant weights of the box checking both
    directions of the set equality: dominant weights land in the mixed set
    and round-trip back; mixed weights (all of them dominant) pull back to
    dominant ones and round-trip forward."""
    rank = SuperRank(M, N)
    mod = Modulus(p)
    order = StepOrder(M, steps)
    total = 0
    failures = []

    def note(kind, w, *extra):
        if len(failures) < failure_cap:
            failures.append((kind, w.lam, w.theta) + extra)

    for w in dominant_weights(M, N, lo, hi):
        total += 1
        m, _ = serganova.forward(w, mod, order, rank)
        if not classify.is_mixed_highest_weight(m, rank, mod):
            note("forward_not_in_mixed", w)
        back, _ = serganova.inverse(m, mod, order, rank)
        if back != w:
            note("inverse_forward_roundtrip", w)
        if classify.is_mixed_highest_weight(w, rank, mod):
            total += 1
            a, _ = serganova.inverse(w, mod, order, rank)
            if not classify.is_standard_dominant(a, rank):
                note("inverse_not_in_dominant", w)
            m2, _ = serganova.forward(a, mod, order, rank)
            if m2 != w:
                note("forward_inverse_roundtrip", w)
    return total, failures


def scan_theorem(M, N, p, lo, hi, steps, failure_cap):
    """Certify, walking dominant chains only, that the relevance predicate
    (non-increasing convention) picks out the image of the dominant set
    inside the box.

    Algorithmic side: the dominant d with lambda in [lo, hi + c] and theta
    in [lo, hi], c the number of (1, 1) steps, which hold every dominant
    preimage of a box weight.  Each w = forward(d) inside the box must
    satisfy the predicate; it is a hit when it pulls back (inverse(w) == d,
    so hits are distinct), is accepted and is dominant.  Predicate side:
    the dominant weights of the box, counting the accepted ones; each
    non-dominant neighbour (two adjacent unequal entries of lambda or theta
    swapped) must be rejected.  Equal counts make the two sets equal.  When
    they differ or a failure was noted, a last pass names the accepted
    dominant weights that fail the membership test (inverse dominant and
    round-tripping).  A failure is a weight on which the predicate and that
    test disagree; `total` counts the weights of both walks.  Counts that
    differ with no such weight found mean the transform broke the bound of
    the widened walk: InternalConsistencyError."""
    rank = SuperRank(M, N)
    mod = Modulus(p)
    order = StepOrder(M, steps)
    c = sum(1 for s in order.steps if s == (1, 1))
    # bound once per scan: substitutes installed before it still apply
    relevant, dominant = classify.is_relevant_orbit, classify.is_standard_dominant
    forward, inverse = serganova.forward, serganova.inverse
    uplus = GroupConvention.UPLUS
    total = hits = accepted = 0
    failures = []

    def note(w, pred, alg):
        if len(failures) < failure_cap:
            failures.append(("theorem_mismatch", w.lam, w.theta, pred, alg))

    def member(w):
        a, _ = inverse(w, mod, order, rank)
        return dominant(a, rank) and forward(a, mod, order, rank)[0] == w

    for d in dominant_weights(M, N, lo, hi, hi + c):
        total += 1
        w, _ = forward(d, mod, order, rank)
        coords = w.lam + w.theta
        if min(coords) < lo or max(coords) > hi:
            continue
        pulls = inverse(w, mod, order, rank)[0] == d
        if relevant(w, rank, mod, uplus):
            if pulls and dominant(w, rank):
                hits += 1
        elif pulls or member(w):
            note(w, False, True)

    for w in dominant_weights(M, N, lo, hi):
        total += 1
        if relevant(w, rank, mod, uplus):
            accepted += 1
        for lam, theta in _neighbours(w.lam, w.theta):
            n = _valid_weight(lam, theta)
            if relevant(n, rank, mod, uplus) and not member(n):
                note(n, True, False)

    if hits != accepted or failures:
        for w in dominant_weights(M, N, lo, hi):
            if relevant(w, rank, mod, uplus) and not member(w):
                note(w, True, False)
        if not failures:
            raise InternalConsistencyError(
                f"theorem scan: {hits} image weights but {accepted} relevant ones, and "
                "no weight on which the two sides disagree (a preimage outside the walk)"
            )
    return total, failures


def _neighbours(lam, theta):
    """The (lambda, theta) pairs one adjacent transposition of unequal
    entries away from (lam, theta): lambda positions first, then theta."""
    for k in range(len(lam) - 1):
        if lam[k] != lam[k + 1]:
            yield lam[:k] + (lam[k + 1], lam[k]) + lam[k + 2 :], theta
    for k in range(len(theta) - 1):
        if theta[k] != theta[k + 1]:
            yield lam, theta[:k] + (theta[k + 1], theta[k]) + theta[k + 2 :]


def scan_order(M, N, p, lo, hi, ref_steps, orders, failure_cap):
    """Check that every supplied step order gives the same result as the
    reference order on each dominant weight in the box."""
    rank = SuperRank(M, N)
    mod = Modulus(p)
    ref_order = StepOrder(M, ref_steps)
    step_orders = [StepOrder(M, s) for s in orders]
    total = 0
    failures = []
    for w in dominant_weights(M, N, lo, hi):
        ref, _ = serganova.forward(w, mod, ref_order, rank)
        for idx, o in enumerate(step_orders):
            total += 1
            out, _ = serganova.forward(w, mod, o, rank)
            if out != ref:
                if len(failures) < failure_cap:
                    failures.append(("order_mismatch", w.lam, w.theta, idx))
    return total, failures


def scan_trace(M, N, p, lo, hi, steps_v1, steps_v2, failure_cap):
    """Per-step invariants over both canonical orders, on every dominant
    weight: lambda stays non-increasing under the column order, the first
    M+1 theta entries stay non-increasing under the row order, the total sum
    is conserved, each step preserves its diagonal sum mod p, and trailing
    theta entries never move."""
    rank = SuperRank(M, N)
    mod = Modulus(p)
    o1 = StepOrder(M, steps_v1)
    o2 = StepOrder(M, steps_v2)
    total = 0
    failures = []

    def note(kind, w, k):
        if len(failures) < failure_cap:
            failures.append((kind, w.lam, w.theta, k))

    def down(seq):
        return all(seq[a] >= seq[a + 1] for a in range(len(seq) - 1))

    for w in dominant_weights(M, N, lo, hi):
        total += 1
        base = sum(w.lam) + sum(w.theta)
        dummies = w.theta[M + 1 :]
        for tag, order in (("v1", o1), ("v2", o2)):
            # the records hold every state, the result included: no
            # separate forward run is needed
            for rec in serganova.Trace(serganova.Direction.FORWARD, order, w, mod).records:
                st = rec.state_after
                if tag == "v1":
                    if not down(st.lam):
                        note("lambda_monotone_v1", w, rec.k)
                else:
                    if not down(st.theta[: M + 1]):
                        note("theta_monotone_v2", w, rec.k)
                if sum(st.lam) + sum(st.theta) != base:
                    note(f"sum_conservation_{tag}", w, rec.k)
                after = st.lam[rec.pair.i - 1] + st.theta[rec.pair.j - 1]
                if not congruent_zero(after - rec.sum_before, mod):
                    note(f"congruence_memory_{tag}", w, rec.k)
                if st.theta[M + 1 :] != dummies:
                    note(f"dummy_theta_{tag}", w, rec.k)
    return total, failures
