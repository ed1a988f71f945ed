"""Pure-Python scan kernels: the fallback backend for the exhaustive
verification loops.

Mirrors the compiled extension's scan_* API and failure payloads exactly.
Every scan walks dominant chains only (core.dominant_weights): the image,
order and trace scans the dominant weights of the box, the theorem scan
those and the dominant weights of a box widened upward in lambda, which
hold every dominant preimage of a box weight.  Each scan looks up what it
runs in the library's modules once per scan, so the harness runs the code
the library exposes and the tests can substitute broken variants.  The
image, order and trace scans step int lists with serganova._steps, the
transform core: through a whole order, one step per lattice edge, and one
step at a time.  The theorem scan and the order scan's top comparison call
serganova.forward and inverse.
"""

from __future__ import annotations

from . import classify, serganova
from .classify import GroupConvention, _non_increasing
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
    directions of the set equality, as the compiled scan does.  Each weight
    is stepped as int lists: forward, it must be mixed, and back, itself.
    If it meets the vanishing condition it is mixed (it is dominant): back,
    it must be dominant, and forward again, itself."""
    SuperRank(M, N)  # refuses a rank with M >= N, as the other scans do
    mod = Modulus(p)
    ahead = StepOrder(M, steps).indices
    # bound once per scan: substitutes installed before it still apply
    step, mixed, vanishing = serganova._steps, classify._mixed, classify._vanishing_on_equalities
    total = 0
    failures = []

    def note(kind, w):
        if len(failures) < failure_cap:
            failures.append((kind, w.lam, w.theta))

    for w in dominant_weights(M, N, lo, hi):
        total += 1
        lam, theta = list(w.lam), list(w.theta)
        step(lam, theta, ahead, mod)
        if not mixed(lam, theta, M, mod):
            note("forward_not_in_mixed", w)
        step(lam, theta, reversed(ahead), mod, -1)
        if tuple(lam) != w.lam or tuple(theta) != w.theta:
            note("inverse_forward_roundtrip", w)
        if vanishing(w.lam, w.theta, M, mod):
            total += 1
            lam, theta = list(w.lam), list(w.theta)
            step(lam, theta, reversed(ahead), mod, -1)
            if not (_non_increasing(lam) and _non_increasing(theta)):
                note("inverse_not_in_dominant", w)
            step(lam, theta, ahead, mod)
            if tuple(lam) != w.lam or tuple(theta) != w.theta:
                note("forward_inverse_roundtrip", w)
    return total, failures


def scan_theorem(M, N, p, lo, hi, steps, failure_cap):
    """Certify, walking dominant chains only, that the relevance predicate
    (non-increasing convention) picks out the image of the dominant set
    inside the box: the walks, their argument and the order of the failures
    are those of the theorem check in the oracle module docstring.  `total`
    counts the weights of both walks.  Counts that differ with no failing
    weight found mean the transform broke the bound of the widened walk:
    InternalConsistencyError."""
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
        a = inverse(w, mod, order, rank)
        return dominant(a, rank) and forward(a, mod, order, rank) == w

    for d in dominant_weights(M, N, lo, hi, hi + c):
        total += 1
        w = forward(d, mod, order, rank)
        coords = w.lam + w.theta
        if min(coords) < lo or max(coords) > hi:
            continue
        pulls = inverse(w, mod, order, rank) == d
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


def scan_order(M, N, p, lo, hi, steps, ideals, failure_cap):
    """Walk the lattice table `ideals` (serganova.ideal_lattice) on each
    dominant weight of the box.  The state of ideal 0 is the weight; the
    first edge (I, J, x) of an ideal I sets its state to that of J stepped
    at x, and every further edge of I must give the same state.  The state
    of the last ideal must equal the result of forward under `steps`.
    Comparison k is edge k, or the top comparison for k = len(ideals); a
    failure names the weight and k.  `total` counts the comparisons."""
    rank = SuperRank(M, N)
    mod = Modulus(p)
    order = StepOrder(M, steps)
    edges = _load_ideals(M, ideals)
    top = edges[-1][0] if edges else 0
    # bound once per scan: substitutes installed before it still apply
    step, forward = serganova._steps, serganova.forward
    total = 0
    failures = []

    def note(w, k):
        if len(failures) < failure_cap:
            failures.append(("order_mismatch", w.lam, w.theta, k))

    for w in dominant_weights(M, N, lo, hi):
        # the state of ideal I is (lams[I], thetas[I])
        lams, thetas = [list(w.lam)] * (top + 1), [list(w.theta)] * (top + 1)
        for k, (ideal, below, index, first) in enumerate(edges):
            lam, theta = lams[below].copy(), thetas[below].copy()
            step(lam, theta, index, mod)
            if first:
                lams[ideal], thetas[ideal] = lam, theta
            elif lam != lams[ideal] or theta != thetas[ideal]:
                note(w, k)
        result = forward(w, mod, order, rank)
        if list(result.lam) != lams[top] or list(result.theta) != thetas[top]:
            note(w, len(edges))
        total += len(edges) + 1
    return total, failures


def _load_ideals(M, ideals):
    """The edges of a lattice table as (I, J, ((i - 1, j - 1),), first):
    the ideals, the indices of lambda_i and theta_j as a one-step list for
    serganova._steps, and whether the edge is the first of I.  Raises
    ValueError unless each edge has 0 <= J < I and I equal to the ideal of
    the edge before (0 before the first) or one past it, so that every
    state is set before it is read, and unless its pair is an excess pair
    for M."""
    edges, last = [], 0
    for ideal, below, (i, j) in ideals:
        if not (0 <= below < ideal and last <= ideal <= last + 1):
            raise ValueError(f"edge ({ideal}, {below}) does not follow the ideals before it")
        if not 1 <= j <= i <= M:
            raise ValueError(f"step ({i}, {j}) is not an excess pair for M={M}")
        edges.append((ideal, below, ((i - 1, j - 1),), ideal != last))
        last = ideal
    return edges


def scan_trace(M, N, p, lo, hi, steps_v1, steps_v2, failure_cap):
    """Per-step invariants over both canonical orders, on every dominant
    weight: lambda stays non-increasing under the column order, the first
    M+1 theta entries stay non-increasing under the row order, the total sum
    is conserved, each step preserves its diagonal sum mod p, and trailing
    theta entries never move.  Each order steps its own copy of the
    weight's lambda and theta lists with serganova._steps, one step at a
    time, and the invariants are read from the lists after each step."""
    SuperRank(M, N)  # refuses a rank with M >= N, as the other scans do
    mod = Modulus(p)
    orders = (("v1", StepOrder(M, steps_v1), "lambda"), ("v2", StepOrder(M, steps_v2), "theta"))
    # bound once per scan: substitutes installed before it still apply
    step = serganova._steps
    total = 0
    failures = []

    def note(kind, w, k):
        if len(failures) < failure_cap:
            failures.append((kind, w.lam, w.theta, k))

    for w in dominant_weights(M, N, lo, hi):
        total += 1
        base = sum(w.lam) + sum(w.theta)
        dummies = list(w.theta[M + 1 :])
        for tag, order, chain in orders:
            lam, theta = list(w.lam), list(w.theta)
            for k, (a, b) in enumerate(order.indices, 1):
                before = lam[a] + theta[b]
                step(lam, theta, ((a, b),), mod)
                if not _non_increasing(lam if tag == "v1" else theta[: M + 1]):
                    note(f"{chain}_monotone_{tag}", w, k)
                if sum(lam) + sum(theta) != base:
                    note(f"sum_conservation_{tag}", w, k)
                if not congruent_zero(lam[a] + theta[b] - before, mod):
                    note(f"congruence_memory_{tag}", w, k)
                if theta[M + 1 :] != dummies:
                    note(f"dummy_theta_{tag}", w, k)
    return total, failures
