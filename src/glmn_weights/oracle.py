"""Exhaustive desk-scale verification.

Each check tests a finite restatement of one of the structural claims on the
weights whose coordinates lie in a small integer box: the image
characterization of the forward transform, its independence of the step
order chosen, the agreement of the orbit-relevance predicate with
algorithmic membership, and the per-step trace invariants.  Every check
walks dominant chains (non-increasing lambda and theta) and never the whole
box.  The image, order and trace checks concern dominant weights only
(every mixed weight is dominant too), so they visit the dominant weights of
the box.

The theorem check walks two sets of chains.  Its algorithmic side walks the
dominant weights with lambda in [lo, hi + c] and theta in [lo, hi], where c
is the number of (1, 1) steps (1 for every linear extension): forward only
lowers lambda and raises theta, lambda_1 moves only at (1, 1) and
theta_{M+1} never moves, so this holds every dominant preimage of a box
weight.  Each image inside the box must satisfy the predicate and pull back
to its preimage, which makes the hits distinct.  Its predicate side walks
the dominant weights of the box and counts the relevant ones; equal counts
make the two sets equal on the dominant weights.  The predicate side also
asks the predicate about every non-dominant neighbour of a dominant weight
(two adjacent unequal entries of lambda or theta swapped) and requires a
rejection.  So a predicate that drops or reverses a chain condition still
fails, wherever the box holds a dominant weight with strictly decreasing
chains (width at least N): it accepts a neighbour of that weight, which
has no equal adjacent entries and so meets the vanishing condition, or
it rejects that weight, which is in the image.  Non-dominant weights
further from the dominant set are not asked about.  A theorem failure
names a weight on which the predicate and the membership test (inverse
dominant and round-tripping) disagree: first the images the predicate
rejects, in the order of their preimages; then the accepted neighbours, in
the order of the dominant weights they neighbour; then, when the counts
differ or a failure was found, the relevant dominant weights outside the
image, in lexicographic order.

A report's `total` counts the instances tested: for the theorem check, the
weights of both walks.  The enumeration limit counts the weights a check
visits (for enumerate_box, the whole box), from a closed form computed
before the walk.  Enumeration is lexicographic and streaming, so reports
are deterministic and memory use stays flat; failure lists are capped
without affecting the verdict.

The compiled backend computes in C long on at most 64 coordinates and
enforces those bounds itself: its scans refuse with OverflowError any rank,
modulus or box that it cannot hold through the transform, and such a scan
is run again on the pure backend.  Every report names the backend that ran.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from . import kernels
from .core import (
    CapacityError,
    Modulus,
    SuperRank,
    ValidationError,
    _is_int,
    box_weights,
    dominant_weights,
)
from .serganova import all_linear_extensions, order_v1, order_v2

DEFAULT_LIMIT = 10_000_000
DEFAULT_FAILURE_CAP = 20
DEFAULT_EXTENSION_CAP = 10_000


@dataclass(frozen=True)
class Box:
    """Coordinate range [lo, hi] applied to every entry of lambda and theta."""

    lo: int
    hi: int

    def __post_init__(self):
        if not _is_int(self.lo) or not _is_int(self.hi):
            raise ValidationError(f"box bounds must be integers, got ({self.lo!r}, {self.hi!r})")
        if self.lo > self.hi:
            raise ValidationError(f"box requires lo <= hi, got {self.lo}:{self.hi}")

    @property
    def width(self) -> int:
        return self.hi - self.lo + 1

    def count(self, rank: SuperRank) -> int:
        return self.width**rank.total

    def dominant_count(self, rank: SuperRank, widen: int = 0) -> int:
        """The dominant weights of the box, with the lambda range widened
        upward by `widen`."""
        return comb(self.width + widen + rank.M - 1, rank.M) * comb(self.width + rank.N - 1, rank.N)


@dataclass(frozen=True)
class VerificationReport:
    check_name: str
    total: int
    failures: tuple[dict, ...]
    backend: str  # the scan backend that ran: "pure" or "compiled"

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json_dict(self) -> dict:
        return {
            "check_name": self.check_name,
            "total": self.total,
            "failures": list(self.failures),
            "passed": self.passed,
            "backend": self.backend,
        }


def _require_within_limit(n: int, limit: int, what: str) -> None:
    if n > limit:
        raise CapacityError(f"{what} {n} weights, over the enumeration limit {limit}")


def _require_cap(failure_cap: int) -> None:
    if failure_cap < 1:
        raise ValidationError(f"failure cap must be at least 1, got {failure_cap}")


def enumerate_box(
    rank: SuperRank, box: Box, predicate=None, limit: int = DEFAULT_LIMIT, dominant: bool = False
):
    """Yield every weight with all coordinates in [lo, hi], lexicographically,
    optionally filtered by a predicate on the weight.  With dominant=True
    only the dominant weights are walked, in the same order; the limit
    counts the whole box either way."""
    what = f"box {box.lo}:{box.hi} at rank ({rank.M}|{rank.N}) holds"
    _require_within_limit(box.count(rank), limit, what)
    walk = dominant_weights if dominant else box_weights
    weights = walk(rank.M, rank.N, box.lo, box.hi)
    return weights if predicate is None else filter(predicate, weights)


# The fields that follow (kind, lambda, theta) in each check's failure tuples.
_FAILURE_FIELDS = {
    "image": (),
    "order": ("order",),
    "theorem": ("predicate", "algorithm"),
    "trace": ("step",),
}


def _scan(name, rank: SuperRank, p: Modulus, box: Box, limit, failure_cap, backend, *steps):
    """Run scan_<name> of the given backend, else the active one, over the
    box and report it.  A compiled scan refuses (OverflowError) a rank, box
    or modulus that it cannot hold; the pure backend then runs it."""
    visited = box.dominant_count(rank)
    if name == "theorem":  # and the walk widened by the (1, 1) steps
        visited += box.dominant_count(rank, sum(1 for s in steps[0] if s == (1, 1)))
    what = f"check {name} at rank ({rank.M}|{rank.N}), box {box.lo}:{box.hi} visits"
    _require_within_limit(visited, limit, what)
    _require_cap(failure_cap)
    be = backend if backend is not None else kernels.active_backend()
    args = (rank.M, rank.N, p.p, box.lo, box.hi, *steps, failure_cap)
    try:
        total, fails = getattr(be, f"scan_{name}")(*args)
    except OverflowError:
        if be is kernels.pure:
            raise
        be = kernels.pure
        total, fails = getattr(be, f"scan_{name}")(*args)
    failures = []
    for kind, lam, theta, *extra in fails:
        failure = {"kind": kind, "weight": {"lambda": list(lam), "theta": list(theta)}}
        if name == "order":  # the scan names the order by its index in orders
            extra = [[list(s) for s in steps[1][extra[0]]]]
        failure.update(zip(_FAILURE_FIELDS[name], extra))
        failures.append(failure)
    return VerificationReport(name, total, tuple(failures), be.name)


def verify_image(
    rank: SuperRank,
    p: Modulus,
    box: Box,
    *,
    limit: int = DEFAULT_LIMIT,
    failure_cap: int = DEFAULT_FAILURE_CAP,
    backend=None,
) -> VerificationReport:
    """Check the set equality between the image of the dominant set and the
    mixed set, inside the box.

    Forward direction: every dominant weight maps into the mixed set and
    round-trips back.  Surjectivity is certified through the inverse map
    (every mixed weight pulls back to a dominant one that maps forward onto
    it) because forward shifts entries and can leave the box.
    """
    return _scan("image", rank, p, box, limit, failure_cap, backend, order_v1(rank.M).steps)


def verify_order_invariance(
    rank: SuperRank,
    p: Modulus,
    box: Box,
    *,
    cap: int = DEFAULT_EXTENSION_CAP,
    limit: int = DEFAULT_LIMIT,
    failure_cap: int = DEFAULT_FAILURE_CAP,
    backend=None,
) -> VerificationReport:
    """Check that every linear extension of the pair order transforms each
    dominant weight in the box to the same result as the column order."""
    orders = tuple(o.steps for o in all_linear_extensions(rank.M, cap))
    ref = order_v1(rank.M).steps
    return _scan("order", rank, p, box, limit, failure_cap, backend, ref, orders)


def verify_theorem(
    rank: SuperRank,
    p: Modulus,
    box: Box,
    *,
    limit: int = DEFAULT_LIMIT,
    failure_cap: int = DEFAULT_FAILURE_CAP,
    backend=None,
) -> VerificationReport:
    """Check, inside the box, that the orbit-relevance predicate
    (non-increasing convention) picks out the image of the dominant set,
    walking dominant chains on both sides (see the module docstring).
    Requires a prime modulus."""
    if p.p == 0:
        raise ValidationError("the theorem check requires a prime modulus, got p=0")
    return _scan("theorem", rank, p, box, limit, failure_cap, backend, order_v1(rank.M).steps)


def verify_trace_invariants(
    rank: SuperRank,
    p: Modulus,
    box: Box,
    *,
    limit: int = DEFAULT_LIMIT,
    failure_cap: int = DEFAULT_FAILURE_CAP,
    backend=None,
) -> VerificationReport:
    """Check the per-step invariants of the transform on every dominant
    weight in the box (monotone intermediate states, sum conservation,
    congruence memory, untouched trailing theta entries)."""
    s1, s2 = order_v1(rank.M).steps, order_v2(rank.M).steps
    return _scan("trace", rank, p, box, limit, failure_cap, backend, s1, s2)


CHECK_NAMES = ("image", "order", "theorem", "trace")


def run_check(
    name: str,
    rank: SuperRank,
    p: Modulus,
    box: Box,
    *,
    cap: int = DEFAULT_EXTENSION_CAP,
    limit: int = DEFAULT_LIMIT,
    failure_cap: int = DEFAULT_FAILURE_CAP,
    backend=None,
) -> VerificationReport:
    """Dispatch a named check with uniform arguments."""
    kwargs = dict(limit=limit, failure_cap=failure_cap, backend=backend)
    if name == "image":
        return verify_image(rank, p, box, **kwargs)
    if name == "order":
        return verify_order_invariance(rank, p, box, cap=cap, **kwargs)
    if name == "theorem":
        return verify_theorem(rank, p, box, **kwargs)
    if name == "trace":
        return verify_trace_invariants(rank, p, box, **kwargs)
    raise ValidationError(f"unknown check {name!r}; expected one of {CHECK_NAMES}")
