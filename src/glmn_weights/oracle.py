"""Exhaustive desk-scale verification.

Each check tests a finite restatement of one of the structural claims on the
weights whose coordinates lie in a small integer box: the image
characterization of the forward transform, its independence of the step
order chosen, the agreement of the orbit-relevance predicate with
algorithmic membership, and the per-step trace invariants.  The image, order
and trace checks concern dominant weights only (every mixed weight is
dominant too), so they visit just the dominant weights of the box, walking
the non-increasing chains directly; the theorem check walks the whole box,
because its predicate side must also reject the weights that are not
dominant.  A report's `total` counts the instances tested, and the
enumeration limit counts the whole box for every check.  Enumeration is
lexicographic and streaming, so reports are deterministic and memory use
stays flat; failure lists are capped without affecting the verdict.

The compiled backend computes in C long on at most 64 coordinates and
enforces those bounds itself: its scans refuse with OverflowError any rank,
modulus or box that it cannot hold through the transform, and such a scan
is run again on the pure backend.  Every report names the backend that ran.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import kernels
from .core import CapacityError, Modulus, SuperRank, ValidationError, _is_int, box_weights
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


def _require_within_limit(rank: SuperRank, box: Box, limit: int) -> None:
    n = box.count(rank)
    if n > limit:
        raise CapacityError(
            f"box {box.lo}:{box.hi} holds {n} weights at rank ({rank.M}|{rank.N}), "
            f"over the enumeration limit {limit}"
        )


def _require_cap(failure_cap: int) -> None:
    if failure_cap < 1:
        raise ValidationError(f"failure cap must be at least 1, got {failure_cap}")


def enumerate_box(rank: SuperRank, box: Box, predicate=None, limit: int = DEFAULT_LIMIT):
    """Yield every weight with all coordinates in [lo, hi], lexicographically,
    optionally filtered by a predicate on the weight."""
    _require_within_limit(rank, box, limit)
    weights = box_weights(rank.M, rank.N, box.lo, box.hi)
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
    _require_within_limit(rank, box, limit)
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
    """Check, on every weight in the box, that the orbit-relevance predicate
    (non-increasing convention) agrees with algorithmic membership in the
    image of the dominant set.  Requires a prime modulus."""
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
