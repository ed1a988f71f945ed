"""Borel words, their positive-root sets, and the excess-pair poset.

A Borel subgroup of GL(M|N) corresponds to a permutation (word) of the
M+N homogeneous basis vectors; its positive roots are the pairs
eps_{w(i)} - eps_{w(j)} with i < j.  The roots positive for the standard
word but not for the mixed word form the "excess" set; each such root is
eps_i - eps_{M+j} with 1 <= j <= i <= M, and these pairs carry the partial
order whose linear extensions drive the transform algorithm.
"""

from __future__ import annotations

from typing import NamedTuple

from .core import InternalConsistencyError, SuperRank, ValidationError, _Value


class Root(NamedTuple):
    """The root eps_a - eps_b, stored as the ordered index pair (a, b)."""

    a: int
    b: int


class PairIndex(NamedTuple):
    """Excess root eps_i - eps_{M+j}; valid pairs satisfy 1 <= j <= i <= M."""

    i: int
    j: int


class BorelWord(_Value):
    """Permutation of 1..M+N giving the order in which flag vectors appear."""

    __match_args__ = ("word",)
    word: tuple[int, ...]

    def __init__(self, word):
        word = tuple(word)
        n = len(word)
        if sorted(word) != list(range(1, n + 1)):
            raise ValidationError(f"word must be a permutation of 1..{n}, got {word}")
        object.__setattr__(self, "word", word)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.word == other.word
        return NotImplemented

    def __hash__(self):
        return hash(self.word)


def standard_word(rank: SuperRank) -> BorelWord:
    """Identity word: all even vectors first, then all odd ones."""
    return BorelWord(tuple(range(1, rank.total + 1)))


def mixed_word(rank: SuperRank) -> BorelWord:
    """Word with the maximal number of even/odd switches.

    Alternates odd and even indices (M+1, 1, M+2, 2, ...) until the even
    indices run out, then appends the leftover odd indices in order.
    """
    out = []
    for k in range(1, rank.M + 1):
        out.append(rank.M + k)
        out.append(k)
    out.extend(range(2 * rank.M + 1, rank.total + 1))
    return BorelWord(tuple(out))


def positive_roots(omega: BorelWord, rank: SuperRank) -> frozenset[Root]:
    """All roots eps_{w(i)} - eps_{w(j)} with i < j, as a set of index pairs."""
    if len(omega.word) != rank.total:
        raise ValidationError(
            f"word length {len(omega.word)} does not match rank total {rank.total}"
        )
    w = omega.word
    n = rank.total
    return frozenset(Root(w[i], w[j]) for i in range(n) for j in range(i + 1, n))


def excess_pairs(rank: SuperRank) -> tuple[PairIndex, ...]:
    """Pairs (i, j) labelling the standard-minus-mixed positive roots.

    Computed from first principles as a set difference of the two root sets,
    then mapped through eps_i - eps_{M+j} -> (i, j); the result is sorted
    lexicographically.
    """
    diff = positive_roots(standard_word(rank), rank) - positive_roots(mixed_word(rank), rank)
    return _pairs_from_roots(diff, rank.M)


def _pairs_from_roots(diff, M: int) -> tuple[PairIndex, ...]:
    pairs = []
    for r in diff:
        j = r.b - M
        if not (1 <= r.a <= M and 1 <= j <= r.a):
            raise InternalConsistencyError(
                f"excess root {tuple(r)} is not of the form eps_i - eps_(M+j) with j <= i"
            )
        pairs.append(PairIndex(r.a, j))
    return tuple(sorted(pairs))


def pair_leq(x: PairIndex, y: PairIndex) -> bool:
    """The cell order of the staircase (M, M-1, ..., 1), pair (i, j) being cell
    (M + 1 - i, j): x comes no later than y iff x.i >= y.i and x.j <= y.j."""
    return x.i >= y.i and x.j <= y.j


def all_pairs(M: int) -> tuple[PairIndex, ...]:
    """The full excess-pair set {(i, j) : 1 <= j <= i <= M}, sorted."""
    return tuple(PairIndex(i, j) for i in range(1, M + 1) for j in range(1, i + 1))


def hasse_edges(M: int) -> tuple[tuple[PairIndex, PairIndex], ...]:
    """Covering relations (x, y) of pair_leq on the excess pairs, sorted: each
    x = (i, j) with j < i is covered by (i - 1, j) and (i, j + 1), and only by them."""
    return tuple((x, y) for x in all_pairs(M) if x.j < x.i
                 for y in (PairIndex(x.i - 1, x.j), PairIndex(x.i, x.j + 1)))
