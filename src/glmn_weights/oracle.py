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

The order check walks, on each dominant weight, the lattice of order ideals
(down-sets) of the pair order instead of its linear extensions, whose
prefixes are the ideals: Catalan(M+1) ideals, joined by one edge (I, x)
per ideal I and maximal pair x of I (serganova.ideal_lattice).  The state
of the empty ideal is the weight.  The first edge of I sets the state of I
to that of I - x stepped at x, by the step rule of the transform core, and
every further edge of I must give the same state.  Along any linear
extension the states then agree ideal by ideal, so every extension ends in
the state of the top ideal, which must equal forward under the column
order v1.  That the edges agree is where the claim comes from: steps at
incomparable pairs act on disjoint coordinates, so they commute.  An order
failure names a linear extension through the failing comparison: for an
edge (I, x), the path of first edges from the empty ideal to I - x, then
x, then the pairs outside I in column order; for the top comparison, v1.
The extension cap bounds the ideals the walk holds per weight.

The theorem check walks two sets of chains.  Its algorithmic side walks the
dominant weights with lambda in [lo, hi + c] and theta in [lo, hi], where c
is the number of (1, 1) steps (1 for every linear extension): forward only
lowers lambda and raises theta, lambda_1 moves only at (1, 1) and
theta_{M+1} never moves, so this holds every dominant preimage of a box
weight.  Each image inside the box must satisfy the predicate; it counts as
a hit when it also pulls back to its preimage, which makes the hits
distinct, and is dominant.  Its predicate side walks the dominant weights
of the box and counts the relevant ones; equal hit and relevant counts make
the two sets equal on the dominant weights.  The predicate side also
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
image, in lexicographic order.  Counts that differ with no such weight
mean a dominant preimage lies outside the widened walk, and the scan
raises rather than pass.

A report's `total` counts the instances tested: for the theorem check, the
weights of both walks; for the order check, the comparisons (each edge and
the top comparison) on each dominant weight.  The enumeration limit counts
the weights a check or enumerate_box visits, from a closed form computed
before the walk.  Enumeration is lexicographic and streaming, so reports
are deterministic and memory use stays flat; failure lists are capped
without affecting the verdict.

The pure scans, the reference, name the failures of both backends.  The
compiled backend computes in C long on at most 64 coordinates and enforces
those bounds itself: its scans refuse with OverflowError any rank, modulus
or box that it cannot hold through the transform, and such a scan is run
again on the pure backend.  Every report names the backend that ran.
"""

from __future__ import annotations

from math import comb

from . import kernels
from .core import (
    CapacityError,
    Modulus,
    SuperRank,
    ValidationError,
    _check_box,
    _is_int,
    _Value,
    box_weights,
    dominant_weights,
)
from .serganova import DEFAULT_EXTENSION_CAP, ideal_lattice, order_v1, order_v2

DEFAULT_LIMIT = 10_000_000
DEFAULT_FAILURE_CAP = 20


class Box(_Value):
    """Coordinate range [lo, hi] applied to every entry of lambda and theta."""

    __match_args__ = ("lo", "hi")
    lo: int
    hi: int

    def __init__(self, lo: int, hi: int):
        _check_box(lo, hi)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.lo, self.hi) == (other.lo, other.hi)
        return NotImplemented

    def __hash__(self):
        return hash((self.lo, self.hi))

    @property
    def width(self) -> int:
        return self.hi - self.lo + 1

    def count(self, rank: SuperRank) -> int:
        return self.width**rank.total

    def dominant_count(self, rank: SuperRank, widen: int = 0) -> int:
        """The dominant weights of the box, with the lambda range widened
        upward by `widen`."""
        return comb(self.width + widen + rank.M - 1, rank.M) * comb(self.width + rank.N - 1, rank.N)


class VerificationReport(_Value):
    __match_args__ = ("check_name", "total", "failures", "backend")
    check_name: str
    total: int
    failures: tuple[dict, ...]
    backend: str  # the scan backend that ran: "pure" or "compiled"

    def __init__(self, check_name: str, total: int, failures: tuple[dict, ...], backend: str):
        object.__setattr__(self, "check_name", check_name)
        object.__setattr__(self, "total", total)
        object.__setattr__(self, "failures", failures)
        object.__setattr__(self, "backend", backend)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.check_name, self.total, self.failures, self.backend) == (
                other.check_name, other.total, other.failures, other.backend)
        return NotImplemented

    def __hash__(self):
        return hash((self.check_name, self.total, self.failures, self.backend))

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
    _require_positive(limit, "limit")
    if n > limit:
        raise CapacityError(f"{what} {n} weights, over the enumeration limit {limit}")


def _require_positive(n: int, what: str) -> None:
    if not _is_int(n):
        raise ValidationError(f"{what} must be an integer, got {n!r}")
    if n < 1:
        raise ValidationError(f"{what} must be at least 1, got {n}")


def enumerate_box(
    rank: SuperRank, box: Box, predicate=None, limit: int = DEFAULT_LIMIT, dominant: bool = False
):
    """Yield every weight with all coordinates in [lo, hi], lexicographically,
    optionally filtered by a predicate on the weight.  With dominant=True
    only the dominant weights are walked, in the same order; the limit
    counts the weights walked."""
    count = box.dominant_count(rank) if dominant else box.count(rank)
    what = f"enumeration at rank ({rank.M}|{rank.N}), box {box.lo}:{box.hi} visits"
    _require_within_limit(count, limit, what)
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
    _require_positive(failure_cap, "failure cap")
    _require_within_limit(visited, limit, what)
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
        if name == "order":  # the scan names the comparison that failed
            extra = [[list(s) for s in _extension_through(*steps, extra[0])]]
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
    dominant weight in the box to the same result, by walking the lattice
    of order ideals (see the module docstring).  `cap` bounds the ideals
    the walk holds per weight, Catalan(M+1)."""
    v1, ideals = order_v1(rank.M).steps, ideal_lattice(rank.M, cap)
    return _scan("order", rank, p, box, limit, failure_cap, backend, v1, ideals)


def _extension_through(v1, ideals, k):
    """The linear extension that a failure at comparison k names: for edge
    (I, J, x), the pairs along first edges from the empty ideal to J, then
    x, then the pairs outside I in column order; v1 for the top comparison."""
    if k == len(ideals):
        return v1
    first = {}
    for ideal, below, x in ideals:
        first.setdefault(ideal, (below, x))
    _, below, x = ideals[k]
    path = [x]
    while below:
        below, y = first[below]
        path.append(y)
    path.reverse()
    return path + [s for s in v1 if s not in path]


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
    walking dominant chains on both sides (see the module docstring)."""
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
