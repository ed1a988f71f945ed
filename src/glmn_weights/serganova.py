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
The transform core (`_apply`) works on two int lists and builds no
intermediate weights.  A caller that reads the steps builds
`Trace(direction, order, w, p)` itself; the trace stores only those four
and computes its per-step records on first read, by replaying the same
core.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

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
    is computed on first read by replaying the run, then cached; it raises
    DimensionMismatch unless the start has M = order_used.M lambda entries
    and more than M theta entries."""

    direction: Direction
    order_used: StepOrder
    start: Weight
    p: Modulus

    @cached_property
    def records(self) -> tuple[StepRecord, ...]:
        lam, theta, M = list(self.start.lam), list(self.start.theta), self.order_used.M
        if not len(lam) == M < len(theta):
            raise DimensionMismatch(
                f"trace start of shape ({len(lam)}|{len(theta)}) does not fit an order for M={M}"
            )
        records: list[StepRecord] = []
        _apply(lam, theta, self.p, self.order_used, self.direction, records)
        return tuple(records)


def order_v1(M: int) -> StepOrder:
    """Column sweep: j = 1..M, and within each j, i runs from M down to j."""
    return StepOrder(M, tuple(PairIndex(i, j) for j in range(1, M + 1) for i in range(M, j - 1, -1)))


def order_v2(M: int) -> StepOrder:
    """Row sweep: i runs from M down to 1, and within each i, j = 1..i."""
    return StepOrder(M, tuple(PairIndex(i, j) for i in range(M, 0, -1) for j in range(1, i + 1)))


def all_linear_extensions(M: int, cap: int = DEFAULT_EXTENSION_CAP) -> list[StepOrder]:
    """Enumerate every linear extension of the excess-pair order.

    Backtracks over the poset, trying candidates in lexicographic pair order,
    so the output list is lexicographically sorted and deterministic.  Raises
    CapacityError as soon as more than `cap` extensions exist.
    """
    if cap <= 0:
        raise ValidationError(f"cap must be positive, got {cap}")
    pairs = list(all_pairs(M))
    preds = {y: {x for x in pairs if x != y and pair_leq(x, y)} for y in pairs}
    found: list[StepOrder] = []
    chosen: list[PairIndex] = []
    placed: set[PairIndex] = set()

    def extend():
        if len(chosen) == len(pairs):
            if len(found) >= cap:
                raise CapacityError(f"more than cap={cap} linear extensions for M={M}")
            found.append(StepOrder(M, tuple(chosen)))
            return
        for cand in pairs:
            if cand in placed or not preds[cand] <= placed:
                continue
            chosen.append(cand)
            placed.add(cand)
            extend()
            chosen.pop()
            placed.remove(cand)

    extend()
    return found


def forward(w: Weight, p: Modulus, order: StepOrder, rank: SuperRank) -> Weight:
    """Run the transform toward the mixed Borel and return its result."""
    return _run(w, p, order, rank, Direction.FORWARD)


def inverse(w: Weight, p: Modulus, order: StepOrder, rank: SuperRank) -> Weight:
    """Run the inverse transform (reverse traversal, unit moves undone)."""
    return _run(w, p, order, rank, Direction.INVERSE)


def _run(w: Weight, p: Modulus, order: StepOrder, rank: SuperRank, direction: Direction) -> Weight:
    w.require_rank(rank)
    if order.M != rank.M:
        raise ValidationError(f"step order is for M={order.M}, rank has M={rank.M}")
    lam = list(w.lam)
    theta = list(w.theta)
    _apply(lam, theta, p, order, direction)
    return _valid_weight(tuple(lam), tuple(theta))


def _apply(
    lam: list[int],
    theta: list[int],
    p: Modulus,
    order: StepOrder,
    direction: Direction,
    records: list[StepRecord] | None = None,
) -> None:
    """The transform core: run the steps of `order` on `lam` and `theta` in
    place, in order for FORWARD and in reverse for INVERSE.

    At pair (i, j) a nonvanishing lambda_i + theta_j moves one unit from
    lambda_i to theta_j (FORWARD) or back (INVERSE).  With a `records` list,
    one StepRecord per step is appended to it.
    """
    if direction is Direction.FORWARD:
        steps, d = order.steps, 1
    else:
        steps, d = reversed(order.steps), -1
    for pair in steps:
        i, j = pair
        s = lam[i - 1] + theta[j - 1]
        move = not congruent_zero(s, p)
        if move:
            lam[i - 1] -= d
            theta[j - 1] += d
        if records is not None:
            records.append(
                StepRecord(
                    len(records) + 1,
                    pair,
                    Action.MOVE if move else Action.NOOP,
                    s,
                    _valid_weight(tuple(lam), tuple(theta)),
                )
            )
