"""Core data for GL(M|N) weight combinatorics.

A weight is a pair of integer tuples (lambda, theta) sized against a
SuperRank (M even basis directions, N odd ones, with M < N).  Modulus
packages the congruence test shared by the transform algorithm and the
classification predicates: p = 0 means exact vanishing (the generic,
non-root-of-unity regime), a prime p >= 2 means vanishing mod p.
"""

from __future__ import annotations

from itertools import product, starmap


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


def _check_box(lo, hi) -> None:
    """The box rule of oracle.Box and of every scan: raises ValidationError
    unless lo and hi are integers with lo <= hi."""
    if not _is_int(lo) or not _is_int(hi):
        raise ValidationError(f"box bounds must be integers, got ({lo!r}, {hi!r})")
    if lo > hi:
        raise ValidationError(f"box requires lo <= hi, got {lo}:{hi}")


class _Value:
    """Base of the immutable value classes.  Each lists its fields in
    __match_args__ (the repr shows them), sets each once in __init__ with
    object.__setattr__, and writes out its own == (true only against an
    instance of its own class) and hash over them: a loop over the field
    names makes Weight's constructor, == and hash 1.6 to 4 times slower,
    and generating the methods with the standard library would load
    inspect and ast in every process.  Assigning or deleting an attribute
    raises AttributeError."""

    __slots__ = ()

    def __repr__(self):
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__match_args__)
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class SuperRank(_Value):
    """Ambient rank: M even basis vectors followed by N odd ones, M < N."""

    __match_args__ = ("M", "N")
    M: int
    N: int

    def __init__(self, M: int, N: int):
        if not _is_int(M) or not _is_int(N):
            raise ValidationError(f"rank entries must be integers, got ({M!r}, {N!r})")
        if M < 0:
            raise ValidationError(f"M must be nonnegative, got {M}")
        if M >= N:
            raise ValidationError(f"rank requires M < N, got M={M}, N={N}")
        object.__setattr__(self, "M", M)
        object.__setattr__(self, "N", N)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.M, self.N) == (other.M, other.N)
        return NotImplemented

    def __hash__(self):
        return hash((self.M, self.N))

    @property
    def total(self) -> int:
        return self.M + self.N


class Weight(_Value):
    """Integer weight (lambda, theta) in Z^M x Z^N."""

    __match_args__ = ("lam", "theta")
    lam: tuple[int, ...]
    theta: tuple[int, ...]

    def __init__(self, lam, theta):
        if type(lam) is not tuple:
            lam = tuple(lam)
        if type(theta) is not tuple:
            theta = tuple(theta)
        for v in lam + theta:
            # exact ints take the fast test; int subclasses other than bool pass
            if type(v) is not int and not _is_int(v):
                raise ValidationError(f"weight entries must be integers, got {v!r}")
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "theta", theta)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.lam, self.theta) == (other.lam, other.theta)
        return NotImplemented

    def __hash__(self):
        return hash((self.lam, self.theta))

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
    built without running the validation in __init__ again."""
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


def dominant_weights(M: int, N: int, lo: int, hi: int):
    """Yield the weights of box_weights(M, N, lo, hi) whose lambda and theta
    are both non-increasing, in the same lexicographic order.  Built from
    the pairs of _dominant_pairs, whose ints need no check."""
    return starmap(_valid_weight, _dominant_pairs(M, N, lo, hi))


def _dominant_pairs(M: int, N: int, lo: int, hi: int, lam_hi: int | None = None):
    """The (lambda, theta) tuple pairs of dominant_weights, in its order: no
    other pair is visited and nothing is held beyond the current chains.
    With lam_hi, the lambda entries range over [lo, lam_hi] instead of
    [lo, hi], as the theorem scans' widened walk needs."""
    for lam in _chains(M, lo, hi if lam_hi is None else lam_hi):
        for theta in _chains(N, lo, hi):
            yield lam, theta


def _chains(k: int, lo: int, hi: int):
    """Yield the non-increasing k-tuples over [lo, hi] lexicographically, by an
    odometer: each entry is bounded by the one before it (by hi at the head),
    and stepping one resets every later one to lo."""
    if k and lo > hi:
        return
    c = [lo] * k
    while True:
        yield tuple(c)
        i = k - 1
        while i >= 0:
            if c[i] < (c[i - 1] if i else hi):
                c[i] += 1
                break
            c[i] = lo
            i -= 1
        else:
            return


class Modulus(_Value):
    """Congruence modulus: 0 tests exact vanishing, a prime p tests mod p."""

    __match_args__ = ("p",)
    p: int

    def __init__(self, p: int):
        if not _is_int(p):
            raise ValidationError(f"modulus must be an integer, got {p!r}")
        if p < 0:
            raise ValidationError(f"modulus must be nonnegative, got {p}")
        if p >= _MR_BOUND:
            raise ValidationError(
                f"modulus must be below {_MR_BOUND}, the bound of the exact primality test"
            )
        if p != 0 and not _is_prime(p):
            raise ValidationError(f"modulus must be 0 or a prime, got {p}")
        object.__setattr__(self, "p", p)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.p == other.p
        return NotImplemented

    def __hash__(self):
        return hash(self.p)


def congruent_zero(a: int, p: Modulus) -> bool:
    """True iff a vanishes exactly (p = 0) or modulo the prime p.

    Negative a uses the mathematical remainder, so e.g. -4 is congruent to
    zero mod 2.
    """
    if p.p == 0:
        return a == 0
    return a % p.p == 0
