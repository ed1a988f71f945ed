"""Exhaustive desk-scale verification.

Each check enumerates every weight whose coordinates lie in a small integer
box and tests a finite restatement of one of the structural claims: the
image characterization of the forward transform, its independence of the
step order chosen, the agreement of the orbit-relevance predicate with
algorithmic membership, and the per-step trace invariants.  Enumeration is
lexicographic and streaming, so reports are deterministic and memory use
stays flat; failure lists are capped without affecting the verdict.

The compiled backend computes in C long.  A box whose coordinates, moved by
the transform and summed over a weight, could leave that range, or a
modulus beyond it, is scanned by the pure backend instead; every report
names the backend that ran.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from . import kernels
from .core import CapacityError, Modulus, SuperRank, ValidationError, box_weights
from .serganova import StepOrder, all_linear_extensions, order_v1, order_v2

DEFAULT_LIMIT = 10_000_000
DEFAULT_FAILURE_CAP = 20
DEFAULT_EXTENSION_CAP = 10_000
# Magnitudes the compiled backend must keep strictly below (C long).
_C_LONG_LIMIT = 2 ** (8 * struct.calcsize("l") - 1)


@dataclass(frozen=True)
class Box:
    """Coordinate range [lo, hi] applied to every entry of lambda and theta."""

    lo: int
    hi: int

    def __post_init__(self):
        if not isinstance(self.lo, int) or not isinstance(self.hi, int):
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


def _scan_backend(backend, rank: SuperRank, p: Modulus, box: Box):
    """The backend to scan with: the one given, else the active one, unless
    the box or the modulus could overflow C long, which only the pure
    backend can take.  The bound covers the odometer step past hi, the
    transform's moves of up to M units, the diagonal sums and the total
    sum of a weight."""
    be = backend if backend is not None else kernels.active_backend()
    if be is kernels.pure:
        return be
    reach = rank.total * (max(abs(box.lo), abs(box.hi)) + rank.M + 1)
    if reach >= _C_LONG_LIMIT or p.p >= _C_LONG_LIMIT:
        return kernels.pure
    return be


def _plain_steps(order: StepOrder) -> tuple[tuple[int, int], ...]:
    return tuple((s.i, s.j) for s in order.steps)


def _weight_dict(lam, theta) -> dict:
    return {"lambda": list(lam), "theta": list(theta)}


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
    be = _scan_backend(backend, rank, p, box)
    _require_within_limit(rank, box, limit)
    _require_cap(failure_cap)
    steps = _plain_steps(order_v1(rank.M))
    total, fails = be.scan_image(rank.M, rank.N, p.p, box.lo, box.hi, steps, failure_cap)
    failures = tuple({"kind": f[0], "weight": _weight_dict(f[1], f[2])} for f in fails)
    return VerificationReport("image", total, failures, be.name)


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
    be = _scan_backend(backend, rank, p, box)
    _require_within_limit(rank, box, limit)
    _require_cap(failure_cap)
    extensions = all_linear_extensions(rank.M, cap)
    orders = tuple(_plain_steps(o) for o in extensions)
    ref = _plain_steps(order_v1(rank.M))
    total, fails = be.scan_order(rank.M, rank.N, p.p, box.lo, box.hi, ref, orders, failure_cap)
    failures = tuple(
        {
            "kind": f[0],
            "weight": _weight_dict(f[1], f[2]),
            "order": [list(s) for s in orders[f[3]]],
        }
        for f in fails
    )
    return VerificationReport("order", total, failures, be.name)


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
    be = _scan_backend(backend, rank, p, box)
    _require_within_limit(rank, box, limit)
    _require_cap(failure_cap)
    steps = _plain_steps(order_v1(rank.M))
    total, fails = be.scan_theorem(rank.M, rank.N, p.p, box.lo, box.hi, steps, failure_cap)
    failures = tuple(
        {
            "kind": f[0],
            "weight": _weight_dict(f[1], f[2]),
            "predicate": f[3],
            "algorithm": f[4],
        }
        for f in fails
    )
    return VerificationReport("theorem", total, failures, be.name)


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
    be = _scan_backend(backend, rank, p, box)
    _require_within_limit(rank, box, limit)
    _require_cap(failure_cap)
    s1 = _plain_steps(order_v1(rank.M))
    s2 = _plain_steps(order_v2(rank.M))
    total, fails = be.scan_trace(rank.M, rank.N, p.p, box.lo, box.hi, s1, s2, failure_cap)
    failures = tuple(
        {"kind": f[0], "weight": _weight_dict(f[1], f[2]), "step": f[3]} for f in fails
    )
    return VerificationReport("trace", total, failures, be.name)


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
