from itertools import permutations

import pytest

from glmn_weights.core import InternalConsistencyError, SuperRank, ValidationError
from glmn_weights.roots import (
    BorelWord,
    PairIndex,
    Root,
    _pairs_from_roots,
    all_pairs,
    excess_pairs,
    hasse_edges,
    mixed_word,
    pair_leq,
    positive_roots,
    standard_word,
)


def test_positive_roots_identity_m2n3():
    r = SuperRank(2, 3)
    roots = positive_roots(standard_word(r), r)
    assert roots == frozenset(Root(a, b) for a in range(1, 6) for b in range(a + 1, 6))
    assert len(roots) == 10


def test_positive_roots_small_word():
    r = SuperRank(1, 2)
    roots = positive_roots(BorelWord((2, 1, 3)), r)
    assert roots == frozenset({Root(2, 1), Root(2, 3), Root(1, 3)})


def test_positive_roots_empty_for_rank_0_1():
    r = SuperRank(0, 1)
    assert positive_roots(standard_word(r), r) == frozenset()


def test_positive_roots_cardinality_every_word():
    for M, N in ((0, 2), (1, 2), (1, 3), (2, 3)):
        r = SuperRank(M, N)
        n = r.total
        for perm in permutations(range(1, n + 1)):
            assert len(positive_roots(BorelWord(perm), r)) == n * (n - 1) // 2


def test_root_sets_determine_the_word():
    r = SuperRank(1, 3)
    seen = {}
    for perm in permutations(range(1, 5)):
        roots = positive_roots(BorelWord(perm), r)
        assert roots not in seen.values()
        seen[perm] = roots


def test_word_must_be_permutation():
    with pytest.raises(ValidationError):
        BorelWord((1, 1, 2))
    with pytest.raises(ValidationError):
        BorelWord((0, 1, 2))
    with pytest.raises(ValidationError):
        positive_roots(BorelWord((1, 2)), SuperRank(1, 2))


def test_mixed_word_examples():
    assert mixed_word(SuperRank(2, 3)).word == (3, 1, 4, 2, 5)
    assert mixed_word(SuperRank(0, 1)).word == (1,)
    assert mixed_word(SuperRank(1, 3)).word == (2, 1, 3, 4)


def test_excess_pairs_examples():
    assert excess_pairs(SuperRank(2, 3)) == (PairIndex(1, 1), PairIndex(2, 1), PairIndex(2, 2))
    assert excess_pairs(SuperRank(1, 2)) == (PairIndex(1, 1),)
    assert excess_pairs(SuperRank(0, 1)) == ()


def test_excess_pairs_closed_form_all_small_ranks():
    # the set difference of root sets must reproduce {(i, j) : j <= i <= M}
    for M in range(0, 8):
        for N in range(M + 1, 9):
            r = SuperRank(M, N)
            assert excess_pairs(r) == all_pairs(M)
            assert len(excess_pairs(r)) == M * (M + 1) // 2


def test_pairs_from_roots_rejects_foreign_roots():
    with pytest.raises(InternalConsistencyError):
        _pairs_from_roots({Root(3, 1)}, 2)
    with pytest.raises(InternalConsistencyError):
        _pairs_from_roots({Root(1, 5)}, 2)  # j = 3 > i = 1


def test_pair_leq_examples():
    assert pair_leq(PairIndex(2, 1), PairIndex(1, 1))
    assert not pair_leq(PairIndex(1, 1), PairIndex(2, 2))
    assert not pair_leq(PairIndex(2, 2), PairIndex(1, 1))
    assert pair_leq(PairIndex(3, 2), PairIndex(3, 2))


def test_pair_leq_is_a_partial_order():
    for M in range(1, 7):
        pairs = all_pairs(M)
        for x in pairs:
            assert pair_leq(x, x)
            for y in pairs:
                if pair_leq(x, y) and pair_leq(y, x):
                    assert x == y
                for z in pairs:
                    if pair_leq(x, y) and pair_leq(y, z):
                        assert pair_leq(x, z)


def test_hasse_edges_m2():
    assert hasse_edges(2) == (
        (PairIndex(2, 1), PairIndex(1, 1)),
        (PairIndex(2, 1), PairIndex(2, 2)),
    )


def test_hasse_edges_match_transitive_reduction():
    # independent brute-force reduction of the full relation
    for M in range(0, 9):
        pairs = all_pairs(M)
        strict = {(x, y) for x in pairs for y in pairs if x != y and pair_leq(x, y)}
        covers = {
            (x, y)
            for (x, y) in strict
            if not any((x, z) in strict and (z, y) in strict for z in pairs)
        }
        assert set(hasse_edges(M)) == covers
