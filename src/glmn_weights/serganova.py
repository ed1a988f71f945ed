"""Serganova's algorithm for GL(M|N) weights, with step orders and traces.

The forward transform takes a weight that is dominant for the standard
Borel subgroup and produces the highest weight of the same irreducible
with respect to the mixed Borel subgroup.  It visits each excess pair
(i, j) once, following any linear extension of the pair order: at a pair
it tests lambda_i + theta_j against the modulus, does nothing when the
sum vanishes, and otherwise moves one unit from lambda_i to theta_j.
The inverse transform walks the same pairs in reverse and moves units
back; because each step preserves lambda_i + theta_j mod p, the step
taken is recoverable and the two transforms are mutually inverse on all
integer weights.

Only theta entries 1..M can ever move (j <= i <= M), so theta_{M+1} and
any trailing entries ride along unchanged.

`forward` and `inverse` map a weight to a weight and return nothing else.
The transform core (`_steps`) applies the step rule on two int lists
(lambda and theta) and builds no intermediate weights; it is the one
definition of a step, which the order check's lattice walk and the trace
check's scan apply one step at a time.  `_walk` takes the steps of one run
through that core and yields what each step did; `Trace.records` and CLI
`transform --trace` both read it.  A caller that wants typed steps builds
`Trace(direction, order, w, p)`, which stores only those four and builds its
records from the walk on first read.

The order ideals (down-sets) of the pair order, Catalan(M+1) of them, form
a lattice; `ideal_lattice` lists its covering edges, which the order check
walks instead of the linear extensions.  The extensions are its maximal
chains (`all_linear_extensions`), the standard tableaux of the staircase
shape (M, M-1, ..., 1), counted by the hook length formula
(`linear_extension_count`).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cache, cached_property
from math import comb, factorial, prod

from .core import (
    CapacityError,
    DimensionMismatch,
    Modulus,
    SuperRank,
    ValidationError,
    Weight,
    _is_int,
    _valid_weight,
    congruent_zero,
)
from .roots import PairIndex, all_pairs, pair_leq

DEFAULT_EXTENSION_CAP = 10_000


class Action(Enum):
    NOOP = "noop"
    MOVE = "move"


class Direction(Enum):
    FORWARD = "forward"
    INVERSE = "inverse"


@dataclass(frozen=True)
class StepOrder:
    """A linear extension of the excess-pair order for a given M."""

    M: int
    steps: tuple[PairIndex, ...]

    def __post_init__(self):
        try:
            steps = tuple(PairIndex(i, j) for (i, j) in self.steps)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"steps must be (i, j) pairs: {exc}") from exc
        if not all(_is_int(v) for pair in steps for v in pair):
            raise ValidationError(f"steps must be (i, j) pairs of integers, got {self.steps!r}")
        object.__setattr__(self, "steps", steps)
        expected = set(all_pairs(self.M))
        if set(steps) != expected or len(steps) != len(expected):
            raise ValidationError(
                f"steps must visit each excess pair for M={self.M} exactly once, got {steps}"
            )
        for a in range(len(steps)):
            for b in range(a + 1, len(steps)):
                if steps[a] != steps[b] and pair_leq(steps[b], steps[a]):
                    raise ValidationError(
                        f"steps are not a linear extension: {tuple(steps[b])} "
                        f"must come before {tuple(steps[a])}"
                    )

    @cached_property
    def indices(self) -> tuple[tuple[int, int], ...]:
        """Per step (i, j), the list indices i - 1 and j - 1 of lambda_i and
        theta_j."""
        return tuple((i - 1, j - 1) for i, j in self.steps)

    @cached_property
    def _walks(self) -> tuple[tuple[tuple, ...], tuple[tuple, ...]]:
        """The steps `_walk` takes in turn, forward and inverse (the pairs
        in reverse), each as (k, (i, j), i - 1, j - 1, ((i - 1, j - 1),)):
        the last entry is the one-step list of indices for _steps."""
        walk = [(pair, a, b, ((a, b),)) for pair, (a, b) in zip(self.steps, self.indices)]
        return (tuple((k, *s) for k, s in enumerate(walk, 1)),
                tuple((k, *s) for k, s in enumerate(reversed(walk), 1)))


@dataclass(frozen=True)
class StepRecord:
    """What happened on one step: the pair visited, the action taken, the
    diagonal sum seen before acting, and the full state afterwards."""

    k: int
    pair: PairIndex
    action: Action
    sum_before: int
    state_after: Weight


@dataclass(frozen=True)
class Trace:
    """The run of one transform: its direction, the order used, and the
    weight and modulus it started from.  `records` (one StepRecord per step)
    is built on first read from the steps `_walk` takes, then cached; it
    raises DimensionMismatch unless the start has M = order_used.M lambda
    entries and more than M theta entries."""

    direction: Direction
    order_used: StepOrder
    start: Weight
    p: Modulus

    def __post_init__(self):
        if not isinstance(self.direction, Direction):
            raise ValidationError(f"direction must be a Direction, got {self.direction!r}")

    @cached_property
    def records(self) -> tuple[StepRecord, ...]:
        lam, theta, M = self.start.lam, self.start.theta, self.order_used.M
        if not len(lam) == M < len(theta):
            raise DimensionMismatch(
                f"trace start of shape ({len(lam)}|{len(theta)}) does not fit an order for M={M}"
            )
        lam, theta, d = list(lam), list(theta), -1 if self.direction is Direction.INVERSE else 1
        return tuple(StepRecord(k, pair, Action.MOVE if moved else Action.NOOP, s,
                                _valid_weight(tuple(lam), tuple(theta)))
                     for k, pair, moved, s in _walk(lam, theta, self.order_used, self.p, d))


def order_v1(M: int) -> StepOrder:
    """Column sweep: j = 1..M, and within each j, i runs from M down to j."""
    return StepOrder(M, tuple(PairIndex(i, j) for j in range(1, M + 1) for i in range(M, j - 1, -1)))


def order_v2(M: int) -> StepOrder:
    """Row sweep: i runs from M down to 1, and within each i, j = 1..i."""
    return StepOrder(M, tuple(PairIndex(i, j) for i in range(M, 0, -1) for j in range(1, i + 1)))


def linear_extension_count(M: int) -> int:
    """The number of linear extensions of the excess-pair order, by the hook
    length formula for the staircase (M, M-1, ..., 1): its n = M(M+1)/2
    cells have the hooks 2k - 1 (k = 1..M), each on M - k + 1 cells."""
    return factorial(M * (M + 1) // 2) // prod((2 * k - 1) ** (M - k + 1) for k in range(1, M + 1))


def all_linear_extensions(M: int, cap: int = DEFAULT_EXTENSION_CAP) -> list[StepOrder]:
    """Enumerate every linear extension of the excess-pair order: the
    maximal chains of the lattice of order ideals, where each edge (I, J, x)
    of `ideal_lattice` is an up-step from J to I that appends x.  Walks them
    depth first, taking the up-steps in lexicographic pair order, so the
    list is lexicographically sorted.  Raises CapacityError, before
    enumerating, when more than `cap` extensions exist."""
    _require_cap(cap)
    count = linear_extension_count(M)
    if count > cap:
        raise CapacityError(f"{count} linear extensions for M={M}, over cap={cap}")
    up = {}
    for I, J, x in sorted(_ideal_lattice(M), key=lambda e: e[2], reverse=True):
        up.setdefault(J, []).append((I, x))
    found, stack = [], [(0, ())]
    while stack:  # the last up-step pushed, the least pair, is taken first
        J, chain = stack.pop()
        if J not in up:  # the full ideal
            found.append(StepOrder(M, chain))
        stack += ((I, chain + (x,)) for I, x in up.get(J, ()))
    return found


def _require_cap(cap: int) -> None:
    if cap <= 0:
        raise ValidationError(f"cap must be positive, got {cap}")


def ideal_lattice(
    M: int, cap: int = DEFAULT_EXTENSION_CAP
) -> tuple[tuple[int, int, PairIndex], ...]:
    """The lattice table of the order ideals (down-sets) of the excess-pair
    order: one edge (I, J, x) per ideal I and maximal pair x of I, where J
    is the ideal I - x.

    The Catalan(M+1) ideals are numbered in size order (0 is the empty
    ideal, the last one holds every pair), and lexicographically by their
    sorted pairs within one size.  Edges come grouped by I in that order
    and, within I, in reverse column order (order_v1) of x: so the first
    edge of I removes its last pair in the column order, and following
    first edges leads from I back to the empty ideal.  Raises
    CapacityError, before building, when there are more than `cap` ideals.
    Built once per M.
    """
    _require_cap(cap)
    count = comb(2 * M + 2, M + 1) // (M + 2)
    if count > cap:
        raise CapacityError(f"{count} order ideals for M={M}, over cap={cap}")
    return _ideal_lattice(M)


@cache
def _ideal_lattice(M: int) -> tuple[tuple[int, int, PairIndex], ...]:
    # an ideal is a bit mask over the pairs in column order
    pairs = order_v1(M).steps
    bit = [1 << k for k in range(len(pairs))]
    below = [sum(bit[a] for a, x in enumerate(pairs) if a != b and pair_leq(x, y))
             for b, y in enumerate(pairs)]
    above = [sum(bit[a] for a, x in enumerate(pairs) if a != b and pair_leq(y, x))
             for b, y in enumerate(pairs)]
    ideals, level = [], [0]
    while level:
        ideals += sorted(level, key=lambda m: sorted(x for k, x in enumerate(pairs) if m & bit[k]))
        level = list({m | bit[k] for m in level for k in range(len(pairs))
                      if not m & bit[k] and below[k] & ~m == 0})
    index = {m: n for n, m in enumerate(ideals)}
    return tuple((n, index[m ^ bit[k]], pairs[k])
                 for n, m in enumerate(ideals)
                 for k in reversed(range(len(pairs)))
                 if m & bit[k] and not above[k] & m)


def forward(w: Weight, p: Modulus, order: StepOrder, rank: SuperRank) -> Weight:
    """Run the transform toward the mixed Borel and return its result."""
    return _run(w, p, order, rank, 1)


def inverse(w: Weight, p: Modulus, order: StepOrder, rank: SuperRank) -> Weight:
    """Run the inverse transform (reverse traversal, unit moves undone)."""
    return _run(w, p, order, rank, -1)


def _run(w: Weight, p: Modulus, order: StepOrder, rank: SuperRank, d: int) -> Weight:
    """Check the shapes, then take the steps of `order`, in reverse for the
    inverse (d = -1)."""
    w.require_rank(rank)
    if order.M != rank.M:
        raise ValidationError(f"step order is for M={order.M}, rank has M={rank.M}")
    lam, theta = list(w.lam), list(w.theta)
    _steps(lam, theta, order.indices if d == 1 else reversed(order.indices), p, d)
    return _valid_weight(tuple(lam), tuple(theta))


def _steps(lam: list[int], theta: list[int], indices, p: Modulus, d: int = 1) -> None:
    """The transform core: the step rule, applied to `lam` and `theta` in
    place at each (a, b) of `indices` in turn, the indices of lambda_i and
    theta_j of an excess pair (i, j).  Unless lambda_i + theta_j vanishes
    mod p, it moves d units from lambda_i to theta_j: d = 1 forward, -1
    inverse."""
    for a, b in indices:
        if not congruent_zero(lam[a] + theta[b], p):
            lam[a] -= d
            theta[b] += d


def _walk(lam: list[int], theta: list[int], order: StepOrder, p: Modulus, d: int):
    """Take the steps of `order` on `lam` and `theta` in place, in reverse
    for the inverse (d = -1), one `_steps` call each.  After each step, while
    the lists hold the state after it, yield (k, (i, j), moved, sum_before):
    the step number from 1, the pair, whether a unit moved, and
    lambda_i + theta_j before the step."""
    for k, pair, a, b, index in order._walks[d == -1]:
        before = lam[a]
        s = before + theta[b]
        _steps(lam, theta, index, p, d)
        yield k, pair, lam[a] != before, s
