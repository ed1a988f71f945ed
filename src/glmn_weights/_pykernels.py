"""Pure-Python scan kernels: the fallback backend for the exhaustive
verification loops.

Mirrors the compiled extension's scan_* API, step lists (_load_steps) and
failure payloads exactly.  Every scan walks dominant chains only, as tuple
pairs (core._dominant_pairs): the image, order and trace scans the dominant
weights of the box, the theorem scan those and the dominant weights of a
box widened upward in lambda, which hold every dominant preimage of a box
weight.  Each scan looks up what it runs in the library's modules once per
scan, so the harness runs the code the library exposes and the tests can
substitute broken variants.  Every scan steps int lists with
serganova._steps, the transform core: through a whole order, reversed for
the inverse, one step per lattice edge, or one step at a time.  A Weight is
built only for the predicates that take one.
"""

from __future__ import annotations

from operator import index

from . import classify, serganova
from .classify import GroupConvention, _non_increasing
from .core import (
    InternalConsistencyError,
    Modulus,
    SuperRank,
    _dominant_pairs,
    _valid_weight,
    congruent_zero,
)

name = "pure"


def _load_steps(M, steps):
    """The indices (i - 1, j - 1) of lambda_i and theta_j for each pair of
    `steps`, any iterable, in the order given, as C load_steps reads them.
    Raises ValueError unless each is a pair with 1 <= j <= i <= M."""
    ahead = []
    for pair in steps:
        i, j = map(index, pair)  # ValueError unless a pair
        if not 1 <= j <= i <= M:
            raise ValueError(f"step ({i}, {j}) is not an excess pair for M={M}")
        ahead.append((i - 1, j - 1))
    return ahead


def scan_image(M, N, p, lo, hi, steps, failure_cap):
    """One pass over the dominant weights of the box checking both
    directions of the set equality, as the compiled scan does.  Each weight
    is stepped as int lists: forward, it must be mixed, and back, itself.
    If it meets the vanishing condition it is mixed (it is dominant): back,
    it must be dominant, and forward again, itself."""
    SuperRank(M, N)  # refuses a rank with M >= N, as the other scans do
    mod = Modulus(p)
    ahead = _load_steps(M, steps)
    # bound once per scan: substitutes installed before it still apply
    step, mixed, vanishing = serganova._steps, classify._mixed, classify._vanishing_on_equalities
    total = 0
    failures = []

    def note(kind, lam, theta):
        if len(failures) < failure_cap:
            failures.append((kind, lam, theta))

    for lam0, theta0 in _dominant_pairs(M, N, lo, hi):
        total += 1
        lam, theta = list(lam0), list(theta0)
        step(lam, theta, ahead, mod)
        if not mixed(lam, theta, M, mod):
            note("forward_not_in_mixed", lam0, theta0)
        step(lam, theta, reversed(ahead), mod, -1)
        if tuple(lam) != lam0 or tuple(theta) != theta0:
            note("inverse_forward_roundtrip", lam0, theta0)
        if vanishing(lam0, theta0, M, mod):
            total += 1
            lam, theta = list(lam0), list(theta0)
            step(lam, theta, reversed(ahead), mod, -1)
            if not (_non_increasing(lam) and _non_increasing(theta)):
                note("inverse_not_in_dominant", lam0, theta0)
            step(lam, theta, ahead, mod)
            if tuple(lam) != lam0 or tuple(theta) != theta0:
                note("forward_inverse_roundtrip", lam0, theta0)
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
    ahead = _load_steps(M, steps)
    back = ahead[::-1]
    c = ahead.count((0, 0))  # the (1, 1) steps
    # bound once per scan: substitutes installed before it still apply
    relevant, dominant = classify.is_relevant_orbit, classify.is_standard_dominant
    step = serganova._steps
    uplus = GroupConvention.UPLUS
    total = hits = accepted = 0
    failures = []

    def note(w, pred, alg):
        if len(failures) < failure_cap:
            failures.append(("theorem_mismatch", *w, pred, alg))

    def run(w, indices, d=1):  # (lambda, theta) stepped through indices, as tuples
        lam, theta = list(w[0]), list(w[1])
        step(lam, theta, indices, mod, d)
        return tuple(lam), tuple(theta)

    def member(w):  # the inverse is dominant and maps forward onto w again
        a = run(w, back, -1)
        return dominant(_valid_weight(*a), rank) and run(a, ahead) == w

    for d in _dominant_pairs(M, N, lo, hi, hi + c):
        total += 1
        w = run(d, ahead)
        coords = w[0] + w[1]
        if min(coords) < lo or max(coords) > hi:
            continue
        pulls = run(w, back, -1) == d
        weight = _valid_weight(*w)
        if relevant(weight, rank, mod, uplus):
            if pulls and dominant(weight, rank):
                hits += 1
        elif pulls or member(w):
            note(w, False, True)

    for w in _dominant_pairs(M, N, lo, hi):
        total += 1
        if relevant(_valid_weight(*w), rank, mod, uplus):
            accepted += 1
        for n in _neighbours(*w):
            if relevant(_valid_weight(*n), rank, mod, uplus) and not member(n):
                note(n, True, False)

    if hits != accepted or failures:
        for w in _dominant_pairs(M, N, lo, hi):
            if relevant(_valid_weight(*w), rank, mod, uplus) and not member(w):
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
    of the last ideal must equal the weight stepped through `steps`.
    Comparison k is edge k, or the top comparison for k = len(ideals); a
    failure names the weight and k.  `total` counts the comparisons."""
    SuperRank(M, N)  # refuses a rank with M >= N, as the other scans do
    mod = Modulus(p)
    ahead = _load_steps(M, steps)
    edges = _load_ideals(M, ideals)
    top = edges[-1][0] if edges else 0
    # bound once per scan: substitutes installed before it still apply
    step = serganova._steps
    total = 0
    failures = []

    def note(lam, theta, k):
        if len(failures) < failure_cap:
            failures.append(("order_mismatch", lam, theta, k))

    for lam0, theta0 in _dominant_pairs(M, N, lo, hi):
        # the state of ideal I is (lams[I], thetas[I])
        lams, thetas = [list(lam0)] * (top + 1), [list(theta0)] * (top + 1)
        for k, (ideal, below, one, first) in enumerate(edges):
            lam, theta = lams[below].copy(), thetas[below].copy()
            step(lam, theta, one, mod)
            if first:
                lams[ideal], thetas[ideal] = lam, theta
            elif lam != lams[ideal] or theta != thetas[ideal]:
                note(lam0, theta0, k)
        lam, theta = list(lam0), list(theta0)
        step(lam, theta, ahead, mod)
        if lam != lams[top] or theta != thetas[top]:
            note(lam0, theta0, len(edges))
        total += len(edges) + 1
    return total, failures


def _load_ideals(M, ideals):
    """The edges of a lattice table as (I, J, [(i - 1, j - 1)], first): the
    ideals, the pair as a one-step list for serganova._steps (_load_steps),
    and whether the edge is the first of I.  Raises ValueError unless each
    edge has 0 <= J < I and I equal to the ideal of the edge before (0
    before the first) or one past it, so that every state is set before it
    is read, and unless its pair is an excess pair for M."""
    edges, last = [], 0
    for ideal, below, pair in ideals:
        if not (0 <= below < ideal and last <= ideal <= last + 1):
            raise ValueError(f"edge ({ideal}, {below}) does not follow the ideals before it")
        edges.append((ideal, below, _load_steps(M, (pair,)), ideal != last))
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
    orders = ("v1", _load_steps(M, steps_v1), "lambda"), ("v2", _load_steps(M, steps_v2), "theta")
    # bound once per scan: substitutes installed before it still apply
    step = serganova._steps
    total = 0
    failures = []

    def note(kind, lam, theta, k):
        if len(failures) < failure_cap:
            failures.append((kind, lam, theta, k))

    for lam0, theta0 in _dominant_pairs(M, N, lo, hi):
        total += 1
        base = sum(lam0) + sum(theta0)
        dummies = list(theta0[M + 1 :])
        for tag, ahead, chain in orders:
            lam, theta = list(lam0), list(theta0)
            for k, (a, b) in enumerate(ahead, 1):
                before = lam[a] + theta[b]
                step(lam, theta, ((a, b),), mod)
                if not _non_increasing(lam if tag == "v1" else theta[: M + 1]):
                    note(f"{chain}_monotone_{tag}", lam0, theta0, k)
                if sum(lam) + sum(theta) != base:
                    note(f"sum_conservation_{tag}", lam0, theta0, k)
                if not congruent_zero(lam[a] + theta[b] - before, mod):
                    note(f"congruence_memory_{tag}", lam0, theta0, k)
                if theta[M + 1 :] != dummies:
                    note(f"dummy_theta_{tag}", lam0, theta0, k)
    return total, failures
