import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rescuepd import (Instance, PhyloTree, TaxonInfo, TeamWindow,
                      brute_force_time_pd, build_derived_index, pd_of_subset,
                      solve_star, solve_time_pd_xp, verify_schedule)
from rescuepd import budget_dp
from rescuepd.errors import BoundTooLarge, NotAStar, StateSpaceTooLarge
from rescuepd.generators import gen_random_instance, reduce_subset_sum
from rescuepd.model import MAX_HOURS

from reference import KERNEL_MODES, knapsack_kernel, memo_xp, profile_from_kernel


def brute_knapsack(items, capacity):
    best = 0
    for k in range(len(items) + 1):
        for combo in itertools.combinations(items, k):
            if sum(w for w, _ in combo) <= capacity:
                best = max(best, sum(p for _, p in combo))
    return best


def test_kernel_empty_items():
    for mode in KERNEL_MODES:
        result = knapsack_kernel([], mode, 5)
        assert all(v in (0,) or v >= 2**61 or v <= -2**61
                   for v in result.table)


def test_kernel_prop5_items():
    items = [(8, 8), (9, 9), (10, 10)]
    by_cap = knapsack_kernel(items, "by-capacity", 19)
    assert by_cap.table[19] == 19
    assert by_cap.table == tuple(brute_knapsack(items, c) for c in range(20))
    by_profit = knapsack_kernel(items, "by-profit", 27)
    assert by_profit.table[19] == 19
    assert list(by_profit.table) == sorted(by_profit.table)


def test_kernel_tables_monotone():
    items = [(3, 5), (2, 2), (4, 9), (1, 1)]
    cap = knapsack_kernel(items, "by-capacity", 10).table
    assert list(cap) == sorted(cap)
    loss = knapsack_kernel(items, "by-loss", 17).table
    assert list(loss) == sorted(loss)


@given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)),
                max_size=6), st.integers(0, 12))
@settings(max_examples=80, deadline=None)
def test_kernel_matches_bruteforce(items, capacity):
    result = knapsack_kernel(items, "by-capacity", capacity)
    assert result.table[capacity] == brute_knapsack(items, capacity)
    profile = profile_from_kernel(items, "by-profit", capacity)
    assert profile == [brute_knapsack(items, c) for c in range(capacity + 1)]
    profile = profile_from_kernel(items, "by-loss", capacity)
    assert profile == [brute_knapsack(items, c) for c in range(capacity + 1)]


def test_kernel_guard():
    with pytest.raises(BoundTooLarge):
        knapsack_kernel([(1, 1)], "by-capacity", 10**9)


def test_star_prop5(prop5_instance):
    out = solve_star(prop5_instance)
    assert out.decision and out.value == 19
    assert verify_schedule(prop5_instance, out.schedule).ok
    out = solve_star(reduce_subset_sum([2, 4], 1, 3))
    assert not out.decision


def test_star_single_class_is_pure_knapsack():
    tree = PhyloTree.from_edges([("r", f"x{i}", i) for i in range(1, 5)])
    taxa = {f"x{i}": TaxonInfo(i, 6) for i in range(1, 5)}
    inst = Instance(tree, taxa, (TeamWindow(0, 6),), target=1)
    out = solve_star(inst)
    items = [(i, i) for i in range(1, 5)]
    assert out.value == brute_knapsack(items, 6)


def test_star_oracle_sweep_and_mode_consistency():
    for seed in range(30):
        inst = gen_random_instance(n=9, n_teams=2, max_ex=7, max_len=5,
                                   max_weight=4, seed=seed, tree_shape="star")
        oracle = brute_force_time_pd(inst)
        out = solve_star(inst)
        assert max(0, out.value) == oracle.value, seed
        assert out.decision == oracle.decision, seed
        # every knapsack indexing gives each class the brute-force profile
        idx = build_derived_index(inst)
        for k in range(idx.n_classes):
            items = [(inst.length(x), inst.tree.weight[x])
                     for x in idx.order if idx.class_of[x] == k]
            want = [brute_knapsack(items, c) for c in range(idx.hours[k] + 1)]
            for mode in KERNEL_MODES:
                assert profile_from_kernel(items, mode, idx.hours[k]) == want, (seed, mode)


_SMALL_OR_HUGE = (st.integers(0, 12), st.integers(0, MAX_HOURS))


@st.composite
def stars(draw):
    """Stars of 2-8 taxa with small lengths, leaf weights up to 2^63, and
    deadlines and team windows that are small or up to MAX_HOURS; the
    windows' total length stays within MAX_HOURS."""
    n = draw(st.integers(2, 8))
    labels = [f"x{i}" for i in range(n)]
    weights = draw(st.lists(st.integers(1, 2**63), min_size=n, max_size=n))
    tree = PhyloTree.from_edges([("r", x, w) for x, w in zip(labels, weights)])
    taxa = {x: TaxonInfo(draw(st.integers(1, 6)),
                         max(1, draw(st.one_of(*_SMALL_OR_HUGE))))
            for x in labels}
    teams, room = [], MAX_HOURS
    for _ in range(draw(st.integers(1, 3))):
        span = draw(st.one_of(st.integers(1, 12), st.integers(1, room)))
        span = min(span, room)
        start = min(draw(st.one_of(*_SMALL_OR_HUGE)), MAX_HOURS - span)
        teams.append(TeamWindow(start, start + span))
        room -= span
        if room == 0:
            break
    target = draw(st.integers(1, sum(weights)))
    return Instance(tree, taxa, tuple(teams), target)


@given(stars())
@settings(max_examples=300, deadline=None)
def test_star_matches_the_oracle_at_any_scale(inst):
    oracle = brute_force_time_pd(inst)
    out = solve_star(inst)
    assert (out.decision, out.value) == (oracle.decision, oracle.value)
    if out.decision:
        assert verify_schedule(inst, out.schedule).ok
        assert pd_of_subset(inst.tree, out.saved) >= inst.target


def test_star_rejects_non_star_and_strict():
    deep = gen_random_instance(n=5, seed=1, tree_shape="random-binary")
    with pytest.raises(NotAStar):
        solve_star(deep)
    strict = gen_random_instance(n=5, seed=1, tree_shape="star", mode="strict")
    with pytest.raises(Exception):
        solve_star(strict)


def test_combine_associativity():
    """The budget DPs' child merge, which the xp solver runs too, is the
    max-plus step P'(B) = max(P(B), max over S <= B of max(0, P(B - S)) +
    V(S)); merging two children in either order gives one table."""
    engine = object.__new__(budget_dp._BudgetDP)
    engine.dtype, engine.neg = np.int64, -100
    grid = budget_dp._Grid((3, 2))
    pairs = grid.fields @ grid.digits, grid.strides @ grid.digits
    vectors = [tuple(v) for v in grid.digits.T.tolist()]

    def merge(p, v):
        out = []
        for b, top in enumerate(vectors):
            best = p[b]
            for s, share in enumerate(vectors):
                if all(x <= y for x, y in zip(share, top)):
                    rest = vectors.index(tuple(y - x for x, y in zip(share, top)))
                    best = max(best, max(0, p[rest]) + v[s])
            out.append(best)
        return out

    rng = random.Random(7)
    for _ in range(20):
        p, a, b = (np.array([rng.choice([-100, *range(10)]) for _ in vectors])
                   for _ in range(3))
        pa = engine._merge(grid, pairs, a, p)
        assert pa.tolist() == merge(p.tolist(), a.tolist())
        pb = engine._merge(grid, pairs, b, p)
        assert (engine._merge(grid, pairs, b, pa).tolist()
                == engine._merge(grid, pairs, a, pb).tolist())


def test_xp_single_bucket_threshold():
    tree = PhyloTree.from_edges([("r", f"x{i}", 1) for i in range(1, 6)])
    taxa = {f"x{i}": TaxonInfo(3, 6) for i in range(1, 6)}
    inst = Instance(tree, taxa, (TeamWindow(0, 6),), target=3)
    out = solve_time_pd_xp(inst)
    # six hours pay for two three-hour rescues
    assert out.value == 2 and not out.decision
    easier = Instance(tree, taxa, inst.teams, 2)
    assert solve_time_pd_xp(easier).decision


def test_xp_oracle_sweep():
    for seed in range(20):
        inst = gen_random_instance(n=6, n_teams=2, max_ex=4, max_len=2,
                                   max_weight=2, seed=seed)
        oracle = brute_force_time_pd(inst)
        out = solve_time_pd_xp(inst)
        assert out.decision == oracle.decision, seed
        assert max(0, out.value) == oracle.value, seed
        if out.decision:
            assert verify_schedule(inst, out.schedule).ok


def test_xp_target_zero_and_guard():
    inst = gen_random_instance(n=4, seed=5, target=0)
    assert solve_time_pd_xp(inst).decision
    big = gen_random_instance(n=8, seed=5)
    with pytest.raises(StateSpaceTooLarge):
        solve_time_pd_xp(big, guard=3)


def test_xp_lengths_near_the_hours_bound():
    """Count matrices whose length sums pass 2^63 are judged exactly: {a, b,
    d} needs 2^63 + 2^62 + 1 hours by the last deadline, which 64-bit
    arithmetic would wrap below the 2^63 - 1 there are, for a value of 5."""
    star = PhyloTree.from_edges([("r", "a", 1), ("r", "b", 2), ("r", "c", 2),
                                 ("r", "d", 2)])
    early = 3 * 2**61
    taxa = {"a": TaxonInfo(MAX_HOURS, MAX_HOURS),
            "b": TaxonInfo(2**62 + 1, MAX_HOURS),
            "c": TaxonInfo(early, early), "d": TaxonInfo(1, early)}
    inst = Instance(star, taxa, (TeamWindow(0, MAX_HOURS),), target=6)
    out = solve_time_pd_xp(inst)
    # the best set that fits is {b, d}
    assert not out.decision and out.value == 4
    want = memo_xp(inst)
    assert (out.decision, out.value) == (want.decision, want.value)
