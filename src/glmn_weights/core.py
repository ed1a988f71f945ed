"""Core data for GL(M|N) weight combinatorics.

A weight is a pair of integer tuples (lambda, theta) sized against a
SuperRank (M even basis directions, N odd ones, with M < N).  Modulus
packages the congruence test shared by the transform algorithm and the
classification predicates: p = 0 means exact vanishing (the generic,
non-root-of-unity regime), a prime p >= 2 means vanishing mod p.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product


class ValidationError(ValueError):
    """Invalid rank, modulus, weight, Borel word, or step order."""


class DimensionMismatch(ValidationError):
    """Weight shape does not match the ambient rank."""


class CapacityError(RuntimeError):
    """An enumeration exceeded its configured cap or limit."""


class InternalConsistencyError(RuntimeError):
    """A structural identity the library relies on failed to hold."""


# Miller-Rabin with the first thirteen prime bases is exact below this bound
# (Sorenson and Webster, 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for n < _MR_BOUND."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _is_int(v) -> bool:
    """An integer, and not a bool."""
    return isinstance(v, int) and not isinstance(v, bool)


@dataclass(frozen=True)
class SuperRank:
    """Ambient rank: M even basis vectors followed by N odd ones, M < N."""

    M: int
    N: int

    def __post_init__(self):
        if not _is_int(self.M) or not _is_int(self.N):
            raise ValidationError(f"rank entries must be integers, got ({self.M!r}, {self.N!r})")
        if self.M < 0:
            raise ValidationError(f"M must be nonnegative, got {self.M}")
        if self.M >= self.N:
            raise ValidationError(f"rank requires M < N, got M={self.M}, N={self.N}")

    @property
    def total(self) -> int:
        return self.M + self.N


@dataclass(frozen=True)
class Weight:
    """Integer weight (lambda, theta) in Z^M x Z^N."""

    lam: tuple[int, ...]
    theta: tuple[int, ...]

    def __post_init__(self):
        if type(self.lam) is not tuple:
            object.__setattr__(self, "lam", tuple(self.lam))
        if type(self.theta) is not tuple:
            object.__setattr__(self, "theta", tuple(self.theta))
        for v in self.lam + self.theta:
            # exact ints take the fast test; int subclasses other than bool pass
            if type(v) is not int and not _is_int(v):
                raise ValidationError(f"weight entries must be integers, got {v!r}")

    def require_rank(self, rank: SuperRank) -> None:
        if len(self.lam) != rank.M or len(self.theta) != rank.N:
            raise DimensionMismatch(
                f"weight of shape ({len(self.lam)}|{len(self.theta)}) "
                f"does not match rank ({rank.M}|{rank.N})"
            )

    def to_json_dict(self) -> dict:
        return {"lambda": list(self.lam), "theta": list(self.theta)}

    @classmethod
    def from_json_dict(cls, obj, rank: SuperRank | None = None) -> "Weight":
        if not isinstance(obj, dict) or set(obj) != {"lambda", "theta"}:
            raise ValidationError(
                'weight JSON must be an object with exactly the keys "lambda" and "theta"'
            )
        lam, theta = obj["lambda"], obj["theta"]
        if not isinstance(lam, list) or not isinstance(theta, list):
            raise ValidationError('"lambda" and "theta" must be arrays of integers')
        w = cls(tuple(lam), tuple(theta))
        if rank is not None:
            w.require_rank(rank)
        return w


def _valid_weight(lam: tuple[int, ...], theta: tuple[int, ...]) -> Weight:
    """A Weight from tuples of ints computed from already-validated ones,
    built without running the validation in __post_init__ again."""
    w = object.__new__(Weight)
    fields = w.__dict__
    fields["lam"] = lam
    fields["theta"] = theta
    return w


def box_weights(M: int, N: int, lo: int, hi: int):
    """Yield every weight of shape (M|N) with all coordinates in [lo, hi],
    in lexicographic order."""
    for coords in product(range(lo, hi + 1), repeat=M + N):
        yield Weight(coords[:M], coords[M:])


def dominant_weights(M: int, N: int, lo: int, hi: int, lam_hi: int | None = None):
    """Yield the weights of box_weights(M, N, lo, hi) whose lambda and theta
    are both non-increasing, in the same lexicographic order.  With lam_hi,
    the lambda entries range over [lo, lam_hi] instead of [lo, hi].

    An odometer over the coordinates: each is bounded above by the one
    before it in its chain (by lam_hi or hi at the head of a chain), and
    stepping one resets every later one to lo.  No other weight is visited
    and nothing is held beyond the coordinates of the current weight."""
    top = hi if lam_hi is None else lam_hi
    n = M + N
    if (n and lo > hi) or (M and lo > top):
        return
    coords = [lo] * n
    while True:
        yield Weight(tuple(coords[:M]), tuple(coords[M:]))
        k = n - 1
        while k >= 0:
            if coords[k] < (hi if k == M else top if k == 0 else coords[k - 1]):
                coords[k] += 1
                break
            coords[k] = lo
            k -= 1
        else:
            return


@dataclass(frozen=True)
class Modulus:
    """Congruence modulus: 0 tests exact vanishing, a prime p tests mod p."""

    p: int

    def __post_init__(self):
        if not _is_int(self.p):
            raise ValidationError(f"modulus must be an integer, got {self.p!r}")
        if self.p < 0:
            raise ValidationError(f"modulus must be nonnegative, got {self.p}")
        if self.p >= _MR_BOUND:
            raise ValidationError(
                f"modulus must be below {_MR_BOUND}, the bound of the exact primality test"
            )
        if self.p != 0 and not _is_prime(self.p):
            raise ValidationError(f"modulus must be 0 or a prime, got {self.p}")


def congruent_zero(a: int, p: Modulus) -> bool:
    """True iff a vanishes exactly (p = 0) or modulo the prime p.

    Negative a uses the mathematical remainder, so e.g. -4 is congruent to
    zero mod 2.
    """
    if p.p == 0:
        return a == 0
    return a % p.p == 0
