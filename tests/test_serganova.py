import random
from itertools import combinations, permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from glmn_weights import serganova
from glmn_weights.core import (
    CapacityError,
    DimensionMismatch,
    Modulus,
    SuperRank,
    ValidationError,
    Weight,
    box_weights,
)
from glmn_weights.roots import PairIndex, all_pairs, pair_leq
from glmn_weights.serganova import (
    StepOrder,
    all_linear_extensions,
    forward,
    ideal_lattice,
    inverse,
    linear_extension_count,
    order_v1,
    order_v2,
    walk,
)


def W(lam, theta):
    return Weight(tuple(lam), tuple(theta))


def walked(w, p, order, rank, d=1):
    """The steps of walk, each with the state after it copied out of the
    working lists: (k, pair, moved, sum_before, lambda, theta)."""
    return [(k, pair, moved, s, tuple(lam), tuple(theta))
            for k, pair, moved, s, lam, theta in walk(w, p, order, rank, d)]


def dominant(w):
    return all(w.lam[i] >= w.lam[i + 1] for i in range(len(w.lam) - 1)) and all(
        w.theta[i] >= w.theta[i + 1] for i in range(len(w.theta) - 1)
    )


def first_pair_out_of_order(steps):
    """The reference check: the first (a, b), a < b, with steps[b] strictly
    below steps[a] by pair_leq, or None for a linear extension."""
    return next(((a, b) for a in range(len(steps)) for b in range(a + 1, len(steps))
                 if steps[a] != steps[b] and pair_leq(steps[b], steps[a])), None)


def test_order_v1_listing():
    assert tuple(order_v1(2).steps) == (PairIndex(2, 1), PairIndex(1, 1), PairIndex(2, 2))
    assert tuple(order_v1(1).steps) == (PairIndex(1, 1),)
    assert tuple(order_v1(3).steps) == (
        PairIndex(3, 1),
        PairIndex(2, 1),
        PairIndex(1, 1),
        PairIndex(3, 2),
        PairIndex(2, 2),
        PairIndex(3, 3),
    )


def test_order_v2_listing():
    assert tuple(order_v2(2).steps) == (PairIndex(2, 1), PairIndex(2, 2), PairIndex(1, 1))
    assert tuple(order_v2(1).steps) == (PairIndex(1, 1),)
    assert tuple(order_v2(3).steps) == (
        PairIndex(3, 1),
        PairIndex(3, 2),
        PairIndex(3, 3),
        PairIndex(2, 1),
        PairIndex(2, 2),
        PairIndex(1, 1),
    )


def test_canonical_orders_are_linear_extensions():
    for M in range(0, 6):
        for order in (order_v1(M), order_v2(M)):
            assert first_pair_out_of_order(order.steps) is None


def test_step_order_rejects_non_extension():
    with pytest.raises(ValidationError):
        StepOrder(2, ((1, 1), (2, 1), (2, 2)))  # (2,1) must precede (1,1)


def test_step_order_rejects_wrong_pair_sets():
    with pytest.raises(ValidationError):
        StepOrder(2, ((2, 1), (2, 1), (2, 2)))
    with pytest.raises(ValidationError):
        StepOrder(2, ((2, 1), (1, 1)))
    with pytest.raises(ValidationError):
        StepOrder(2, ((2, 1), (1, 1), (1, 2)))  # j > i
    # entries that are not pairs of integers (bool excluded, as in Weight)
    for steps in ((1, (1, 1)), ((1, 1, 1),), ((1.9, 1),), ((True, 1),), (("1", 1),)):
        with pytest.raises(ValidationError):
            StepOrder(1, steps)
    # M is a nonnegative integer, as in SuperRank: an M of -1 would give an
    # empty order, lattice and extension list, and a count of 1
    builds = (all_linear_extensions, ideal_lattice, linear_extension_count, order_v1, order_v2)
    for M in ("2", -1, 1.0, 2.0, True, None):
        with pytest.raises(ValidationError, match="M must be a nonnegative integer"):
            StepOrder(M, ())
        for build in builds:
            with pytest.raises(ValidationError, match="M must be a nonnegative integer"):
                build(M)


def test_step_order_refuses_as_the_pairwise_scan():
    # every order of the pairs for M = 0..3, 1 + 1 + 6 + 720 of them: the
    # shape walk accepts the linear extensions and names, for the rest, the
    # first pair the pairwise scan finds
    seen = accepted = 0
    for M in range(4):
        for steps in permutations(all_pairs(M)):
            seen += 1
            found = first_pair_out_of_order(steps)
            if found is None:
                accepted += 1
                assert StepOrder(M, steps).steps == steps
                continue
            a, b = found
            with pytest.raises(ValidationError) as exc:
                StepOrder(M, steps)
            assert str(exc.value) == (f"steps are not a linear extension: {tuple(steps[b])} "
                                      f"must come before {tuple(steps[a])}")
    assert (seen, accepted) == (728, 1 + 1 + 2 + 16)


def test_all_linear_extensions_tiny():
    assert len(all_linear_extensions(0)) == 1
    assert len(all_linear_extensions(1)) == 1
    exts = all_linear_extensions(2)
    assert [tuple(o.steps) for o in exts] == [
        (PairIndex(2, 1), PairIndex(1, 1), PairIndex(2, 2)),
        (PairIndex(2, 1), PairIndex(2, 2), PairIndex(1, 1)),
    ]


def test_all_linear_extensions_m3_matches_permutation_filter():
    exts = {tuple(o.steps) for o in all_linear_extensions(3)}
    brute = {perm for perm in permutations(all_pairs(3)) if first_pair_out_of_order(perm) is None}
    assert exts == brute
    assert len(exts) == 16


def test_all_linear_extensions_deterministic_and_sorted():
    once = [tuple(o.steps) for o in all_linear_extensions(3)]
    twice = [tuple(o.steps) for o in all_linear_extensions(3)]
    assert once == twice == sorted(once)


def test_all_linear_extensions_capacity_error():
    with pytest.raises(CapacityError):
        all_linear_extensions(3, cap=5)
    assert len(all_linear_extensions(3, cap=16)) == 16
    with pytest.raises(CapacityError, match="16 linear extensions"):
        all_linear_extensions(3, cap=15)


def test_linear_extension_count_is_the_hook_length_formula():
    for M in range(5):
        assert linear_extension_count(M) == len(all_linear_extensions(M))
    assert linear_extension_count(5) == 292_864


def test_all_linear_extensions_refuses_before_enumerating(monkeypatch):
    # 292,864 extensions at M = 5: the count refuses at once, where
    # enumerating up to the cap would build 10,000 step orders first
    built = []
    monkeypatch.setattr(serganova, "StepOrder", lambda *a: built.append(a))
    with pytest.raises(CapacityError, match="292864 linear extensions"):
        all_linear_extensions(5)
    assert built == []


def brute_force_down_sets(M):
    """Every subset of the excess pairs closed downward, by size."""
    pairs = all_pairs(M)
    return [
        frozenset(c)
        for k in range(len(pairs) + 1)
        for c in combinations(pairs, k)
        if all(x in c for y in c for x in pairs if pair_leq(x, y))
    ]


@pytest.mark.parametrize("M", range(5))
def test_ideal_lattice_against_brute_force(M):
    ideals = ideal_lattice(M)
    down_sets = brute_force_down_sets(M)
    assert len(down_sets) == (1, 2, 5, 14, 42)[M]
    assert len(ideals) == (0, 1, 5, 21, 84)[M]
    # the ideals, reconstructed along first edges, in size order
    sets = [frozenset()]
    for I, J, x in ideals:
        if I == len(sets):
            sets.append(sets[J] | {x})
    assert sorted(sets, key=len) == sets and set(sets) == set(down_sets)
    # numbered by size, then by sorted pairs within one size, as the
    # compiled order scan assumes
    assert sets == sorted(down_sets, key=lambda s: (len(s), sorted(s)))
    # one edge per ideal I and maximal pair x of I, pointing to I - x
    expected = {
        (I, x, I - {x})
        for I in down_sets
        for x in I
        if not any(y != x and pair_leq(x, y) for y in I)
    }
    assert {(sets[I], x, sets[J]) for I, J, x in ideals} == expected
    assert len(expected) == len(ideals)
    # grouped by ideal; within one, the first edge removes its last pair in
    # the column order
    assert [I for I, _, _ in ideals] == sorted(I for I, _, _ in ideals)
    v1 = order_v1(M).steps
    for I, J, x in ideals:
        if (I, J, x) == next(e for e in ideals if e[0] == I):
            assert x == max(sets[I], key=v1.index)
    # the maximal chains of the down-sets, grown one pair at a time from the
    # empty set, are the linear extensions, in the same (sorted) order
    closed, chains = set(down_sets), [()]
    for _ in all_pairs(M):
        chains = [c + (x,) for c in chains for x in all_pairs(M)
                  if x not in c and frozenset(c) | {x} in closed]
    assert len(chains) == (1, 1, 2, 16, 768)[M]
    assert chains == [o.steps for o in all_linear_extensions(M)]


def test_ideal_lattice_counts_and_cap():
    # Catalan(M + 1) ideals; the cap refuses before the table is built
    assert [len(ideal_lattice(M)) for M in (5, 6)] == [330, 1287]
    assert ideal_lattice(5, cap=132)[-1][0] == 131
    with pytest.raises(CapacityError, match="132 order ideals"):
        ideal_lattice(5, cap=131)
    assert ideal_lattice(8)[-1][0] == 4861  # M = 8 fits the default cap
    with pytest.raises(CapacityError, match="16796 order ideals"):
        ideal_lattice(9)
    with pytest.raises(ValidationError):
        ideal_lattice(2, cap=0)
    for bad in (2.5, True, "x"):
        with pytest.raises(ValidationError, match="cap must be an integer"):
            ideal_lattice(2, cap=bad)
        with pytest.raises(ValidationError, match="cap must be an integer"):
            all_linear_extensions(2, cap=bad)


def test_all_linear_extensions_contain_both_canonical_orders():
    for M in range(0, 5):
        steps = {tuple(o.steps) for o in all_linear_extensions(M)}
        assert tuple(order_v1(M).steps) in steps
        assert tuple(order_v2(M).steps) in steps


def test_forward_single_step_move():
    r = SuperRank(1, 2)
    w, p, order = W((1,), (0, 0)), Modulus(2), order_v1(1)
    out = forward(w, p, order, r)
    assert out == W((0,), (1, 0))
    ((k, pair, moved, s, lam, theta),) = walked(w, p, order, r)
    assert k == 1
    assert pair == PairIndex(1, 1)
    assert moved is True
    assert s == 1
    assert W(lam, theta) == out


def test_forward_single_step_noop():
    r = SuperRank(1, 2)
    w, p, order = W((1,), (1, 0)), Modulus(2), order_v1(1)
    out = forward(w, p, order, r)
    assert out == W((1,), (1, 0))
    ((_, _, moved, s, lam, theta),) = walked(w, p, order, r)
    assert moved is False
    assert s == 2
    assert W(lam, theta) == out


def test_forward_m2_same_result_under_both_orders():
    r = SuperRank(2, 3)
    p = Modulus(2)
    w = W((1, 1), (0, 0, 0))
    out1 = forward(w, p, order_v1(2), r)
    out2 = forward(w, p, order_v2(2), r)
    assert out1 == out2 == W((1, 0), (1, 0, 0))


def test_forward_m0_is_identity_with_empty_trace():
    r = SuperRank(0, 2)
    w = W((), (3, -1))
    out = forward(w, Modulus(3), order_v1(0), r)
    assert out == w
    for d in (1, -1):
        assert list(walk(w, Modulus(3), order_v1(0), r, d)) == []


def test_inverse_examples():
    r = SuperRank(1, 2)
    p = Modulus(2)
    out = inverse(W((0,), (1, 0)), p, order_v1(1), r)
    assert out == W((1,), (0, 0))
    out = inverse(W((1,), (1, 0)), p, order_v1(1), r)
    assert out == W((1,), (1, 0))
    r2 = SuperRank(2, 3)
    out = inverse(W((1, 0), (1, 0, 0)), p, order_v1(2), r2)
    assert out == W((1, 1), (0, 0, 0))


def test_roundtrip_both_ways_on_full_boxes():
    # unconditional: the inversion is step-wise, no dominance needed
    cases = [(1, 2, 2, -2, 2), (2, 3, 2, -2, 2), (2, 3, 3, -1, 1), (2, 3, 0, -1, 1)]
    for M, N, p, lo, hi in cases:
        r = SuperRank(M, N)
        mod = Modulus(p)
        for order in (order_v1(M), order_v2(M)):
            for w in box_weights(M, N, lo, hi):
                fwd = forward(w, mod, order, r)
                assert inverse(fwd, mod, order, r) == w
                inv = inverse(w, mod, order, r)
                assert forward(inv, mod, order, r) == w


@given(
    st.lists(st.integers(min_value=-50, max_value=50), min_size=2, max_size=2),
    st.lists(st.integers(min_value=-50, max_value=50), min_size=3, max_size=3),
    st.sampled_from([0, 2, 3, 5]),
)
def test_roundtrip_hypothesis(lam, theta, p):
    r = SuperRank(2, 3)
    mod = Modulus(p)
    w = W(lam, theta)
    order = order_v1(2)
    assert inverse(forward(w, mod, order, r), mod, order, r) == w
    assert forward(inverse(w, mod, order, r), mod, order, r) == w


def test_order_invariance_on_dominant_weights():
    r = SuperRank(2, 3)
    for p in (0, 2, 3):
        mod = Modulus(p)
        exts = all_linear_extensions(2)
        for w in box_weights(2, 3, -2, 2):
            if not dominant(w):
                continue
            results = {forward(w, mod, o, r) for o in exts}
            assert len(results) == 1


def test_sum_is_conserved_at_every_step():
    r = SuperRank(2, 3)
    mod = Modulus(2)
    for w in box_weights(2, 3, -1, 1):
        base = sum(w.lam) + sum(w.theta)
        for d in (1, -1):
            for *_, lam, theta in walk(w, mod, order_v1(2), r, d):
                assert sum(lam) + sum(theta) == base


def test_congruence_memory_at_every_step():
    r = SuperRank(2, 3)
    for p in (0, 2, 3):
        mod = Modulus(p)
        for w in box_weights(2, 3, -1, 1):
            for d in (1, -1):
                for _, (i, j), _, s, lam, theta in walk(w, mod, order_v2(2), r, d):
                    diff = lam[i - 1] + theta[j - 1] - s
                    assert diff == 0 if p == 0 else diff % p == 0


def test_monotone_intermediate_states_on_dominant_input():
    r = SuperRank(2, 3)
    for p in (2, 3):
        mod = Modulus(p)
        for w in box_weights(2, 3, -2, 2):
            if not dominant(w):
                continue
            for *_, lam, _ in walk(w, mod, order_v1(2), r):
                assert all(lam[i] >= lam[i + 1] for i in range(len(lam) - 1))
            for *_, theta in walk(w, mod, order_v2(2), r):
                head = theta[:3]
                assert all(head[i] >= head[i + 1] for i in range(len(head) - 1))


def test_trace_states_for_known_run():
    r = SuperRank(2, 3)
    steps = walked(W((1, 1), (0, 0, 0)), Modulus(2), order_v1(2), r)
    assert [lam for *_, lam, _ in steps] == [(1, 0), (1, 0), (1, 0)]


def test_trailing_theta_entries_never_move():
    r = SuperRank(2, 5)
    mod = Modulus(2)
    for w in box_weights(2, 5, -1, 1):
        for fn, d in ((forward, 1), (inverse, -1)):
            for order in (order_v1(2), order_v2(2)):
                out = fn(w, mod, order, r)
                assert out.theta[2:] == w.theta[2:]
                for *_, theta in walked(w, mod, order, r, d):
                    assert theta[2:] == w.theta[2:]


def test_trace_shape_and_action_rule():
    r = SuperRank(3, 4)
    mod = Modulus(3)
    w = W((2, 1, 0), (1, 1, 0, -2))
    steps = walked(w, mod, order_v1(3), r)
    assert len(steps) == 6
    assert [k for k, *_ in steps] == list(range(1, 7))
    assert [pair for _, pair, *_ in steps] == list(order_v1(3).steps)
    for _, _, moved, s, _, _ in steps:
        is_zero = s % 3 == 0
        assert moved is not is_zero


def _replay(w, p, order, d):
    # the step rule written out independently of the library's core
    lam, theta = list(w.lam), list(w.theta)
    steps = order.steps if d == 1 else order.steps[::-1]
    out = []
    for k, (i, j) in enumerate(steps, start=1):
        before = lam[i - 1] + theta[j - 1]
        vanishes = before == 0 if p.p == 0 else before % p.p == 0
        if not vanishes:
            lam[i - 1] -= d
            theta[j - 1] += d
        out.append((k, (i, j), not vanishes, before, tuple(lam), tuple(theta)))
    return out


def test_trace_records_match_an_independent_replay():
    # one order object serves both directions and every weight: the steps
    # and the states after them are those of the replay, and the last state
    # is the transform's result
    r = SuperRank(2, 4)
    orders = (order_v1(2), order_v2(2))
    for p in (0, 2, 3):
        mod = Modulus(p)
        for w in box_weights(2, 4, -1, 1):
            for fn, d in ((forward, 1), (inverse, -1)):
                for order in orders:
                    got = walked(w, mod, order, r, d)
                    assert W(*got[-1][4:]) == fn(w, mod, order, r)
                    assert [(k, tuple(pair), *rest) for k, pair, *rest in got] == _replay(
                        w, mod, order, d)


def test_walk_ends_at_the_transform_result():
    # every linear extension for M <= 3, both directions: the working lists
    # the walk yields are one pair of lists, and hold the transform's result
    # once the walk ends
    rng = random.Random(3)
    for M in range(4):
        r = SuperRank(M, M + 2)
        entries = lambda n: [rng.randint(-4, 4) for _ in range(n)]
        weights = [W(entries(M), entries(M + 2)) for _ in range(40)]
        for p in (0, 2, 3):
            mod = Modulus(p)
            for order in all_linear_extensions(M):
                for fn, d in ((forward, 1), (inverse, -1)):
                    for w in weights:
                        steps = list(walk(w, mod, order, r, d))
                        assert [k for k, *_ in steps] == list(range(1, len(order.steps) + 1))
                        if steps:
                            lists = {(id(lam), id(theta)) for *_, lam, theta in steps}
                            assert len(lists) == 1
                            *_, lam, theta = steps[-1]
                            assert W(lam, theta) == fn(w, mod, order, r)


def test_trace_read_later_keeps_its_own_input():
    r = SuperRank(2, 3)
    mod = Modulus(2)
    w = W((1, 1), (0, 0, 0))
    first = forward(w, mod, order_v1(2), r)
    steps = walk(w, mod, order_v1(2), r)
    forward(W((2, 0), (1, 1, 0)), mod, order_v1(2), r)
    inverse(first, mod, order_v2(2), r)
    states = [(tuple(lam), tuple(theta)) for *_, lam, theta in steps]
    assert W(*states[-1]) == first
    assert [lam for lam, _ in states] == [(1, 0), (1, 0), (1, 0)]


def test_transforms_return_only_the_weight():
    r = SuperRank(2, 3)
    w = W((1, 1), (0, 0, 0))
    for fn in (forward, inverse):
        out = fn(w, Modulus(2), order_v1(2), r)
        assert type(out) is Weight
    assert forward(w, Modulus(2), order_v1(2), r) == W((1, 0), (1, 0, 0))


def test_walk_refuses_what_the_transforms_refuse():
    # a weight of another shape than the rank, or an order for another M:
    # the walk refuses at the call, before any step, as forward and inverse do
    r = SuperRank(2, 3)
    for w, order, rank, error, message in (
        (W((1,), (0, 0, 0)), order_v1(2), r, DimensionMismatch, "shape"),
        (W((1, 0), (0, 0)), order_v1(2), r, DimensionMismatch, "shape"),
        (W((), ()), order_v1(0), SuperRank(0, 1), DimensionMismatch, "shape"),
        (W((1, 0), (0, 0, 0)), order_v1(1), r, ValidationError, "step order is for M=1"),
        (W((1,), (0, 0)), order_v1(2), SuperRank(1, 2), ValidationError, "step order is for M=2"),
    ):
        for fn, d in ((forward, 1), (inverse, -1)):
            with pytest.raises(error, match=message):
                walk(w, Modulus(2), order, rank, d)
            with pytest.raises(error, match=message):
                fn(w, Modulus(2), order, rank)
    assert len(walked(W((1, 0), (0, 0, 0)), Modulus(2), order_v1(2), r)) == 3


def test_first_linear_extension_is_the_column_order():
    # lexicographic order puts the column order first
    for M in range(5):
        assert all_linear_extensions(M)[0] == order_v1(M)


def test_transform_accepts_non_dominant_weights():
    r = SuperRank(2, 3)
    out = forward(W((0, 5), (-3, 7, 1)), Modulus(2), order_v1(2), r)
    assert isinstance(out, Weight)


def test_dimension_and_order_mismatch_errors():
    r = SuperRank(2, 3)
    with pytest.raises(ValidationError):
        forward(W((1,), (0, 0, 0)), Modulus(2), order_v1(2), r)
    with pytest.raises(ValidationError):
        forward(W((1, 0), (0, 0, 0)), Modulus(2), order_v1(1), r)


def test_walk_refuses_a_direction_other_than_one_or_minus_one():
    # a d of 2 would move two units a step, and True or 1.0 would stand in
    # for 1; each is refused at the call
    r, w = SuperRank(1, 2), W((1,), (0, 0))
    for d in (0, 2, -2, True, 1.0, "forward", None):
        with pytest.raises(ValidationError, match="direction d must be 1 or -1"):
            walk(w, Modulus(2), order_v1(1), r, d)
    assert walked(w, Modulus(2), order_v1(1), r)[-1][4:] == ((0,), (1, 0))
    assert walked(W((0,), (1, 0)), Modulus(2), order_v1(1), r, -1)[-1][4:] == ((1,), (0, 0))
