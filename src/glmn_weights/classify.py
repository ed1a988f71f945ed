"""Membership predicates for the weight sets on both sides of the story,
plus the monomial matrix labelling each orbit.

Three sets of conditions appear, all built from two ingredients: chain
conditions on lambda and on the full theta tuple (non-increasing or
non-decreasing, depending on the unipotent-group convention), and the
vanishing condition that whenever two adjacent chain entries are equal the
diagonal sum lambda_i + theta_i must be congruent to zero.
"""

from __future__ import annotations

from enum import Enum

from .core import Modulus, SuperRank, Weight, _Value, congruent_zero


class GroupConvention(Enum):
    """Which unipotent subgroup the orbit picture uses.  The two choices are
    transposes of each other; switching flips every chain inequality."""

    UMINUS = "uminus"  # chains run non-decreasing
    UPLUS = "uplus"  # chains run non-increasing


# read once: an attribute lookup on an Enum class costs about 0.15 us on
# CPython 3.11, and is_relevant_orbit runs once per weight in the checks
_UMINUS = GroupConvention.UMINUS


def _non_increasing(seq) -> bool:
    if seq:
        prev = seq[0]
        for v in seq:
            if prev < v:
                return False
            prev = v
    return True


def _non_decreasing(seq) -> bool:
    if seq:
        prev = seq[0]
        for v in seq:
            if prev > v:
                return False
            prev = v
    return True


def is_standard_dominant(w: Weight, rank: SuperRank) -> bool:
    """Dominant for the standard Borel: both chains non-increasing."""
    w.require_rank(rank)
    return _non_increasing(w.lam) and _non_increasing(w.theta)


def _vanishing_on_equalities(lam, theta, M: int, p: Modulus) -> bool:
    # theta_i = theta_{i+1} forces lambda_i + theta_i ~ 0, for i = 1..M;
    # lambda_{i-1} = lambda_i forces the same sum, for i = 2..M.
    for i in range(M):
        if theta[i] == theta[i + 1] and not congruent_zero(theta[i] + lam[i], p):
            return False
    for i in range(1, M):
        if lam[i - 1] == lam[i] and not congruent_zero(theta[i] + lam[i], p):
            return False
    return True


def _mixed(lam, theta, M: int, p: Modulus) -> bool:
    # the mixed condition on lambda and theta as sequences
    return (_non_increasing(lam) and _non_increasing(theta)
            and _vanishing_on_equalities(lam, theta, M, p))


def is_mixed_highest_weight(w: Weight, rank: SuperRank, p: Modulus) -> bool:
    """Highest weight for the mixed Borel: dominant chains plus the
    vanishing condition on adjacent equal entries."""
    w.require_rank(rank)
    return _mixed(w.lam, w.theta, rank.M, p)


def is_relevant_orbit(
    w: Weight, rank: SuperRank, p: Modulus, convention: GroupConvention
) -> bool:
    """Whether the orbit labelled by this weight supports an equivariant
    irreducible object.

    The chain condition runs over lambda and over all of theta (through the
    head/tail split boundary), non-decreasing for UMINUS and non-increasing
    for UPLUS; the vanishing condition is identical for both conventions.
    With p = 0 the sums must vanish exactly.
    """
    w.require_rank(rank)
    chain = _non_decreasing if convention is _UMINUS else _non_increasing
    if not (chain(w.lam) and chain(w.theta)):
        return False
    return _vanishing_on_equalities(w.lam, w.theta, rank.M, p)


class OrbitMatrix(_Value):
    """N x N monomial matrix stored as (row, col, exponent) triples, sorted
    row-major.  Exponent 0 is still a structural entry (the cell holds 1);
    cells absent from `entries` are zero."""

    __match_args__ = ("size", "entries")
    size: int
    entries: tuple[tuple[int, int, int], ...]

    def __init__(self, size: int, entries: tuple[tuple[int, int, int], ...]):
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "entries", entries)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.size, self.entries) == (other.size, other.entries)
        return NotImplemented

    def __hash__(self):
        return hash((self.size, self.entries))

    def to_json_dict(self) -> dict:
        return {"size": self.size, "entries": [list(e) for e in self.entries]}


def orbit_representative(w: Weight, rank: SuperRank) -> OrbitMatrix:
    """The monomial coset representative attached to (lambda, (theta, theta')).

    Diagonal cells 1..M carry -(lambda_i + theta_i); row M+1 carries
    -theta_1..-theta_M in columns 1..M and -theta_{M+1} on the diagonal;
    the trailing diagonal carries -theta' entrywise.
    """
    w.require_rank(rank)
    lam, theta, M = w.lam, w.theta, rank.M
    # row-major: rows 1..M, row M+1 (columns 1..M, then the diagonal), the
    # trailing rows
    entries = [(i, i, -(lam[i - 1] + theta[i - 1])) for i in range(1, M + 1)]
    entries += [(M + 1, c, -theta[c - 1]) for c in range(1, M + 2)]
    entries += [(r, r, -theta[r - 1]) for r in range(M + 2, rank.N + 1)]
    return OrbitMatrix(rank.N, tuple(entries))
