"""Pure-Python scan kernels: the fallback backend for the exhaustive
verification loops.

Mirrors the compiled extension's scan_* API and failure payloads exactly.
The image, order and trace scans visit only the dominant weights of the box
(core.dominant_weights walks the non-increasing chains directly); the
theorem scan walks the whole box, because its predicate side must also see
the weights that are not dominant.  Every per-weight operation is routed
through the public modules (looked up at call time), so the harness
exercises the same code the library exposes and the test suite can
substitute deliberately broken variants.
"""

from __future__ import annotations

from . import classify, serganova
from .classify import GroupConvention
from .core import Modulus, SuperRank, box_weights, congruent_zero, dominant_weights
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
    """Compare, on every weight in the box, the relevance predicate against
    algorithmic membership in the image of the dominant set.  The two sides
    share no code: one is a condition check, the other runs the transform."""
    rank = SuperRank(M, N)
    mod = Modulus(p)
    order = StepOrder(M, steps)
    total = 0
    failures = []
    for w in box_weights(M, N, lo, hi):
        total += 1
        pred = classify.is_relevant_orbit(w, rank, mod, GroupConvention.UPLUS)
        a, _ = serganova.inverse(w, mod, order, rank)
        alg = (
            classify.is_standard_dominant(a, rank)
            and serganova.forward(a, mod, order, rank)[0] == w
        )
        if pred != alg:
            if len(failures) < failure_cap:
                failures.append(("theorem_mismatch", w.lam, w.theta, bool(pred), bool(alg)))
    return total, failures


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
            _, tr = serganova.forward(w, mod, order, rank)
            for rec in tr.records:
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
