"""Serganova's algorithm for GL(M|N) weights, with step orders and step walks.

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
check's scan apply one step at a time.  A caller that wants the steps reads
`walk(w, p, order, rank, d)`, which takes the steps of one run through that
core and yields, per step, the step number, the pair, whether a unit moved,
the sum before the step, and the lambda and theta lists holding the state
after it; CLI `transform --trace` formats its output from the walk.

The pair order is the cell order of the staircase (M, M-1, ..., 1): its
order ideals, Catalan(M+1) of them, are the shapes inside the staircase,
and `ideal_lattice` lists their covering edges, each removing one corner,
which the order check walks instead of the linear extensions.  The
extensions are the maximal chains (`all_linear_extensions`), the standard
tableaux of the staircase, counted by the hook length formula
(`linear_extension_count`).
"""

from __future__ import annotations

from functools import cache, cached_property
from math import comb, factorial, prod

from .core import (
    CapacityError,
    Modulus,
    SuperRank,
    ValidationError,
    Weight,
    _is_int,
    _valid_weight,
    _Value,
    congruent_zero,
)
from .roots import PairIndex, all_pairs, pair_leq

DEFAULT_EXTENSION_CAP = 10_000


class StepOrder(_Value):
    """A linear extension of the excess-pair order for a given M."""

    __match_args__ = ("M", "steps")
    M: int
    steps: tuple[PairIndex, ...]

    def __init__(self, M: int, steps):
        _require_m(M)
        try:
            steps = tuple(PairIndex(i, j) for (i, j) in steps)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"steps must be (i, j) pairs: {exc}") from exc
        plain = tuple(map(tuple, steps))  # for messages: ((1, 1),), not PairIndex reprs
        if not all(_is_int(v) for pair in steps for v in pair):
            raise ValidationError(f"steps must be (i, j) pairs of integers, got {plain!r}")
        expected = set(all_pairs(M))
        if set(steps) != expected or len(steps) != len(expected):
            raise ValidationError(
                f"steps must visit each excess pair for M={M} exactly once, got {plain}"
            )
        n = [0] * (M + 1) + [M]  # the shape so far; n_{M+1} = M never blocks row M
        for a, (i, j) in enumerate(steps):
            if n[i] != j - 1 or n[i + 1] < j:  # (i, j) is not an addable cell
                b = next(b for b in range(a + 1, len(steps)) if pair_leq(steps[b], steps[a]))
                raise ValidationError(
                    f"steps are not a linear extension: {tuple(steps[b])} "
                    f"must come before {tuple(steps[a])}"
                )
            n[i] = j
        object.__setattr__(self, "M", M)
        object.__setattr__(self, "steps", steps)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.M, self.steps) == (other.M, other.steps)
        return NotImplemented

    def __hash__(self):
        return hash((self.M, self.steps))

    @cached_property
    def indices(self) -> tuple[tuple[int, int], ...]:
        """Per step (i, j), the list indices i - 1 and j - 1 of lambda_i and
        theta_j."""
        return tuple((i - 1, j - 1) for i, j in self.steps)

    @cached_property
    def _walks(self) -> tuple[tuple[tuple, ...], tuple[tuple, ...]]:
        """The steps `walk` takes in turn, forward and inverse (the pairs
        in reverse), each as (k, (i, j), i - 1, j - 1, ((i - 1, j - 1),)):
        the last entry is the one-step list of indices for _steps."""
        taken = [(pair, a, b, ((a, b),)) for pair, (a, b) in zip(self.steps, self.indices)]
        return (tuple((k, *s) for k, s in enumerate(taken, 1)),
                tuple((k, *s) for k, s in enumerate(reversed(taken), 1)))


def order_v1(M: int) -> StepOrder:
    """Column sweep: j = 1..M, and within each j, i runs from M down to j."""
    _require_m(M)
    return StepOrder(M, tuple(PairIndex(i, j) for j in range(1, M + 1) for i in range(M, j - 1, -1)))


def order_v2(M: int) -> StepOrder:
    """Row sweep: i runs from M down to 1, and within each i, j = 1..i."""
    _require_m(M)
    return StepOrder(M, tuple(PairIndex(i, j) for i in range(M, 0, -1) for j in range(1, i + 1)))


def linear_extension_count(M: int) -> int:
    """The number of linear extensions of the excess-pair order, by the hook
    length formula for the staircase (M, M-1, ..., 1): its n = M(M+1)/2
    cells have the hooks 2k - 1 (k = 1..M), each on M - k + 1 cells."""
    _require_m(M)
    return factorial(M * (M + 1) // 2) // prod((2 * k - 1) ** (M - k + 1) for k in range(1, M + 1))


def all_linear_extensions(M: int, cap: int = DEFAULT_EXTENSION_CAP) -> list[StepOrder]:
    """Enumerate every linear extension of the excess-pair order: the
    maximal chains of the lattice of order ideals, where each edge (I, J, x)
    of `ideal_lattice` is an up-step from J to I that appends x.  Walks them
    depth first, taking the up-steps in lexicographic pair order, so the
    list is lexicographically sorted.  Raises CapacityError, before
    enumerating, when more than `cap` extensions exist."""
    count = linear_extension_count(M)
    _require_cap(cap)
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


def _require_m(M: int) -> None:
    if not _is_int(M) or M < 0:
        raise ValidationError(f"M must be a nonnegative integer, got {M!r}")


def _require_cap(cap: int) -> None:
    if not _is_int(cap):
        raise ValidationError(f"cap must be an integer, got {cap!r}")
    if cap <= 0:
        raise ValidationError(f"cap must be positive, got {cap}")


def ideal_lattice(
    M: int, cap: int = DEFAULT_EXTENSION_CAP
) -> tuple[tuple[int, int, PairIndex], ...]:
    """The lattice table of the order ideals (down-sets) of the excess-pair
    order: the shapes (n_1, ..., n_M), n_1 <= ... <= n_M and n_i <= i, row i
    holding the pairs (i, 1), ..., (i, n_i).  One edge (I, J, x) per shape I
    and corner x = (i, n_i) of I, a maximal pair (n_{i-1} < n_i), where J is
    I with n_i - 1.

    The Catalan(M+1) shapes are numbered in size order (0 is empty, the last
    is the staircase), and lexicographically by their sorted pairs within one
    size.  Edges come grouped by I in that order and, within I, by corner
    from row M down to row 1, which is reverse column order (order_v1): so
    the first edge of I removes its last pair in the column order, and
    following first edges leads from I back to the empty shape.  Raises
    CapacityError, before building, when there are more than `cap` ideals.
    Built once per M."""
    _require_m(M)
    _require_cap(cap)
    count = comb(2 * M + 2, M + 1) // (M + 2)
    if count > cap:
        raise CapacityError(f"{count} order ideals for M={M}, over cap={cap}")
    return _ideal_lattice(M)


@cache
def _ideal_lattice(M: int) -> tuple[tuple[int, int, PairIndex], ...]:
    # a shape is s = (n_0, n_1, ..., n_M) with n_0 = 0
    shapes = [(0,)]
    for i in range(1, M + 1):
        shapes = [s + (n,) for s in shapes for n in range(s[-1], i + 1)]
    shapes.sort(key=lambda s: (sum(s), [(i, j) for i, n in enumerate(s) for j in range(1, n + 1)]))
    index = {s: k for k, s in enumerate(shapes)}
    return tuple((k, index[s[:i] + (s[i] - 1,) + s[i + 1:]], PairIndex(i, s[i]))
                 for k, s in enumerate(shapes)
                 for i in range(M, 0, -1) if s[i - 1] < s[i])


def forward(w: Weight, p: Modulus, order: StepOrder, rank: SuperRank) -> Weight:
    """Run the transform toward the mixed Borel and return its result."""
    return _run(w, p, order, rank, 1)


def inverse(w: Weight, p: Modulus, order: StepOrder, rank: SuperRank) -> Weight:
    """Run the inverse transform (reverse traversal, unit moves undone)."""
    return _run(w, p, order, rank, -1)


def walk(w: Weight, p: Modulus, order: StepOrder, rank: SuperRank, d: int = 1):
    """Take the steps of `order` on w, in reverse for the inverse (d = -1),
    one `_steps` call each, and yield (k, (i, j), moved, sum_before, lam,
    theta) per step: the step number from 1, the pair, whether a unit moved,
    lambda_i + theta_j before the step, and the working lists of lambda and
    theta, which hold the state after step k until the next step is taken
    (and the result once the walk ends).  Refuses, when called, the input
    that forward and inverse refuse, and a d other than 1 or -1."""
    lam, theta = _start(w, order, rank, d)
    return _take(lam, theta, order._walks[d == -1], p, d)


def _take(lam: list[int], theta: list[int], steps, p: Modulus, d: int):
    """The generator of `walk`, over entries of StepOrder._walks."""
    for k, pair, a, b, index in steps:
        before = lam[a]
        s = before + theta[b]
        _steps(lam, theta, index, p, d)
        yield k, pair, lam[a] != before, s, lam, theta


def _run(w: Weight, p: Modulus, order: StepOrder, rank: SuperRank, d: int) -> Weight:
    """Take the steps of `order` on w, in reverse for the inverse (d = -1)."""
    lam, theta = _start(w, order, rank, d)
    _steps(lam, theta, order.indices if d == 1 else reversed(order.indices), p, d)
    return _valid_weight(tuple(lam), tuple(theta))


def _start(w: Weight, order: StepOrder, rank: SuperRank, d: int) -> tuple[list[int], list[int]]:
    """Check the shapes and the direction; return w's lambda and theta as
    the working lists of a run."""
    w.require_rank(rank)
    if order.M != rank.M:
        raise ValidationError(f"step order is for M={order.M}, rank has M={rank.M}")
    if d not in (1, -1) or not _is_int(d):
        raise ValidationError(f"direction d must be 1 or -1, got {d!r}")
    return list(w.lam), list(w.theta)


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
