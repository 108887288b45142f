"""The dense budget-DP tables against the top-down memo they replaced."""

import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rescuepd import (Instance, PhyloTree, TaxonInfo, TeamWindow, brute_force,
                      brute_force_s_time_pd, brute_force_time_pd,
                      build_derived_index, solve_s_time_pd_team_subsets,
                      solve_time_pd_hour_vectors, solve_time_pd_team_vectors,
                      solve_time_pd_xp, strict_feasible)
from rescuepd import budget_dp
from rescuepd.budget_dp import STATE_GUARD, hour_vectors, subset_vectors, team_vectors
from rescuepd.driver import ADMISSION
from rescuepd.errors import BadParams, StateSpaceTooLarge
from rescuepd.files import schedule_to_dict
from rescuepd.generators import TREE_SHAPES, gen_random_instance
from rescuepd.color_loss import loss_table_entry_count
from rescuepd.color_target import trial_count
from rescuepd.model import COLLABORATIVE, STRICT, check_size
from rescuepd.structured import count_matrices

from reference import memo_hour_vectors, memo_team_subsets, memo_team_vectors, memo_xp

# per mode: (solver, memo oracle, the budget vectors both guard)
SOLVERS = {
    COLLABORATIVE: ((solve_time_pd_team_vectors, memo_team_vectors, team_vectors),
                    (solve_time_pd_hour_vectors, memo_hour_vectors, hour_vectors),
                    (solve_time_pd_xp, memo_xp, count_matrices)),
    STRICT: ((solve_s_time_pd_team_subsets, memo_team_subsets, subset_vectors),),
}
SHAPES = ("random-multifurcating", "random-binary", "caterpillar")
MEMO_VECTORS = 600     # budget vectors up to which the memo stays quick
MEMO_BITS = 9          # (team, slot) pairs up to which the subset memo does


def fields(out):
    return out.decision, out.algorithm, out.value, out.saved, out.schedule


def working_pairs(instance):
    horizon = max(info.extinction_time for info in instance.taxa.values())
    return sum(max(0, min(t.end, horizon) - t.start) for t in instance.teams)


def decisions_equal_to_the_memo(instance):
    """Each DP of the instance's mode that the memo solves quickly returns
    the memo's outcome field for field; the decisions compared."""
    idx = build_derived_index(instance)
    decisions = []
    for solve, memo, vectors in SOLVERS[instance.mode]:
        if instance.mode == STRICT:
            if working_pairs(instance) > MEMO_BITS:
                continue
            guard = vectors(idx, 2**64)     # idle (team, slot) pairs included
        elif vectors(idx, MEMO_VECTORS) > MEMO_VECTORS:
            continue
        else:
            guard = MEMO_VECTORS
        got, want = solve(instance, guard), memo(instance, guard)
        assert fields(got) == fields(want), solve.__name__
        decisions.append(got.decision)
    return decisions


def with_target(instance, target):
    return Instance(instance.tree, instance.taxa, instance.teams, target,
                    instance.mode)


@st.composite
def gapped_instances(draw):
    """Instances whose teams work single runs that can leave idle slots
    between them, deadlines up to 12."""
    mode = draw(st.sampled_from((COLLABORATIVE, STRICT)), label="mode")
    base = gen_random_instance(
        n=draw(st.integers(2, 5 if mode == STRICT else 7), label="n"),
        n_teams=1, max_ex=draw(st.integers(1, 12), label="max deadline"),
        max_len=draw(st.integers(1, 3), label="max length"), max_weight=3,
        tree_shape=draw(st.sampled_from(SHAPES), label="shape"),
        seed=draw(st.integers(0, 10**6), label="seed"), mode=mode)
    teams = []
    for _ in range(draw(st.integers(1, 3), label="teams")):
        start = draw(st.integers(0, 11), label="start")
        teams.append(TeamWindow(start, draw(st.integers(start + 1, start + 4), label="end")))
    return Instance(base.tree, base.taxa, tuple(teams), 1, mode)


@settings(deadline=None, max_examples=120)
@given(gapped_instances())
def test_dense_tables_equal_the_memo(instance):
    """At the optimum as target every DP says yes, one above it no, and both
    outcomes equal the memo's field for field."""
    best = brute_force(instance).value
    pd_total = instance.tree.total_weight()
    for target, want in ((best, True), (best + 1, False)):
        if 1 <= target <= pd_total:
            decisions = decisions_equal_to_the_memo(with_target(instance, target))
            assert decisions == [want] * len(decisions)


def test_outcomes_equal_the_memo_on_a_seeded_sweep():
    counts = Counter()
    for seed in range(150):
        mode = STRICT if seed % 4 == 0 else COLLABORATIVE
        inst = gen_random_instance(n=4 + seed % 3, n_teams=1 + seed % 3,
                                   max_ex=4 + seed % 9, max_len=3, max_weight=3,
                                   tree_shape=SHAPES[seed % 3], seed=seed,
                                   savable_frac=(0.4, 0.9)[seed % 2], mode=mode)
        counts.update(decisions_equal_to_the_memo(inst))
    assert counts[True] >= 60 and counts[False] >= 60, counts


def test_huge_weights_stay_exact():
    # edge weights past 2^64: the tables must hold Python ints, not int64
    tree = PhyloTree.from_edges([("r", "a", 2**70), ("r", "v", 1),
                                 ("v", "b", 2**66), ("v", "c", 4)])
    taxa = {x: TaxonInfo(1, 3) for x in "abc"}
    total = 1254378597012249509893
    assert tree.total_weight() == total
    for mode in (COLLABORATIVE, STRICT):
        for end, value in ((3, total), (2, total - 4)):
            inst = Instance(tree, taxa, (TeamWindow(0, end),), total, mode)
            for solve, memo, _ in SOLVERS[mode]:
                out = solve(inst)
                assert out.value == value and out.decision == (value == total)
                assert fields(out) == fields(memo(inst))


def two_pairs(taxa, teams, mode=COLLABORATIVE, target=12):
    """Two cherries under the root: the second is merged into the first by a
    convolution over the root's grid and the cherry's, both near full size."""
    tree = PhyloTree.from_edges([("r", "u", 1), ("r", "v", 1), ("u", "a", 2),
                                 ("u", "b", 3), ("v", "c", 4), ("v", "d", 5)])
    return Instance(tree, taxa, teams, target, mode)


def near_cap_instances():
    """(row of the admission table, instance, solver, memo) per budget DP."""
    three_teams = (TeamWindow(0, 6),) * 3                 # 4^6 team counts
    yield ("hours-teams", two_pairs({x: TaxonInfo(4, 6) for x in "abcd"}, three_teams),
           solve_time_pd_team_vectors, memo_team_vectors)
    hours = {"a": TaxonInfo(30, 69), "b": TaxonInfo(30, 70),
             "c": TaxonInfo(30, 69), "d": TaxonInfo(30, 70)}
    yield ("hours-budget", two_pairs(hours, (TeamWindow(0, 70),), target=10),  # 70 * 71
           solve_time_pd_hour_vectors, memo_hour_vectors)
    two_teams = (TeamWindow(0, 6),) * 2                   # 2^12 subsets
    yield ("hours-subsets", two_pairs({x: TaxonInfo(3, 6) for x in "abcd"}, two_teams, STRICT),
           solve_s_time_pd_team_subsets, memo_team_subsets)
    # twelve singleton buckets, eleven of them under one child of the root
    edges = ([("r", "x0", 7), ("r", "v", 1), ("v", "w1", 1), ("v", "w2", 1)]
             + [("w1", f"x{i}", i) for i in range(1, 6)]
             + [("w2", f"x{i}", i) for i in range(6, 12)])
    taxa = {f"x{i}": TaxonInfo(1 + i % 4, 3 + i // 4 * 2) for i in range(12)}
    yield ("xp-counts", Instance(PhyloTree.from_edges(edges), taxa, (TeamWindow(0, 4),), 10),
           solve_time_pd_xp, memo_xp)


def test_memory_stays_bounded_near_the_router_caps():
    """A merge of two grids near the cap has about 2^24 (budget, share)
    pairs; taken in bounded passes, the solve stays under 64 MB."""
    for algorithm, inst, solve, memo in near_cap_instances():
        _, cost, cap, _ = next(row for row in ADMISSION[inst.mode] if row[0] == algorithm)
        assert 0.8 * cap <= cost(build_derived_index(inst), cap) <= cap
        tracemalloc.start()
        try:
            got = solve(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20, (algorithm, peak)
        assert got.decision and fields(got) == fields(memo(inst))


GUARDED = (("hours-teams", COLLABORATIVE, solve_time_pd_team_vectors),
           ("hours-budget", COLLABORATIVE, solve_time_pd_hour_vectors),
           ("xp-counts", COLLABORATIVE, solve_time_pd_xp),
           ("hours-subsets", STRICT, solve_s_time_pd_team_subsets))


@pytest.mark.parametrize("algorithm, mode, solve", GUARDED, ids=[row[0] for row in GUARDED])
def test_each_budget_dp_guards_its_admission_cost(algorithm, mode, solve):
    """The guard bounds the very number that the flavor's admission row
    prices: one below it the solver raises, at it the solver answers."""
    cost = next(row[1] for row in ADMISSION[mode] if row[0] == algorithm)
    decisions = set()
    for seed in range(10):
        inst = gen_random_instance(n=5, n_teams=2, max_ex=4, max_len=3, max_weight=3,
                                   tree_shape=SHAPES[seed % 3], seed=seed, mode=mode)
        vectors = cost(build_derived_index(inst), STATE_GUARD)
        assert vectors <= STATE_GUARD
        with pytest.raises(StateSpaceTooLarge):
            solve(inst, guard=vectors - 1)
        out = solve(inst, guard=vectors)
        assert out.decision == brute_force(inst).decision, seed
        decisions.add(out.decision)
    assert decisions == {True, False}


def _guarded_calls():
    """(name, call(guard)) of every entry point that takes a guard."""
    tree = PhyloTree.from_edges([("r", "a", 1), ("r", "b", 1)])
    taxa = {"a": TaxonInfo(1, 2), "b": TaxonInfo(1, 2)}
    inst = {mode: Instance(tree, taxa, (TeamWindow(0, 2),), 1, mode)
            for mode in (COLLABORATIVE, STRICT)}
    calls = [(name, lambda g, solve=solve, mode=mode: solve(inst[mode], guard=g))
             for name, mode, solve in GUARDED]
    for mode in (COLLABORATIVE, STRICT):
        calls.append((f"brute_force {mode}", lambda g, m=mode: brute_force(inst[m], guard=g)))
    return calls + [
        ("brute_force_time_pd", lambda g: brute_force_time_pd(inst[COLLABORATIVE], guard=g)),
        ("brute_force_s_time_pd", lambda g: brute_force_s_time_pd(inst[STRICT], guard=g)),
        ("strict_feasible", lambda g: strict_feasible(inst[STRICT], ["a"], guard=g))]


@pytest.mark.parametrize("guard", ["x", 1.5, -1])
@pytest.mark.parametrize("name, call", _guarded_calls(), ids=[c[0] for c in _guarded_calls()])
def test_every_guard_rejects_values_that_are_not_sizes(name, call, guard):
    # each once leaked an AttributeError or a TypeError, or was compared as given
    with pytest.raises(BadParams):
        call(guard)
    assert call(100) is not None


def _sized_calls():
    """(name, call(size)) of every entry point that takes a guard or a size."""
    return _guarded_calls() + [
        ("check_size", lambda b: check_size(b, "the size")),
        ("trial_count", lambda b: trial_count(b, 0.5)),
        ("loss_table_entry_count loss", lambda b: loss_table_entry_count(b, 1)),
        ("loss_table_entry_count classes", lambda b: loss_table_entry_count(1, b))]


@pytest.mark.parametrize("flag", [True, False])
@pytest.mark.parametrize("name, call", _sized_calls(), ids=[c[0] for c in _sized_calls()])
def test_every_size_rejects_bools(name, call, flag):
    # a bool is an Integral: True once ran as guard 1 or one color, and False
    # as guard 0
    with pytest.raises(BadParams):
        call(flag)


def test_a_none_guard_is_a_default_only_where_documented():
    # brute_force's None is each mode's default, strict_feasible's is no guard
    documented = {"brute_force collaborative", "brute_force strict", "strict_feasible"}
    for name, call in _guarded_calls():
        if name in documented:
            assert call(None) is not None
        else:
            with pytest.raises(BadParams):
                call(None)


def recorded(out):
    """What a chunked merge must not change: decision, value, saved set,
    schedule and the states count."""
    return (out.decision, out.value, out.saved,
            out.schedule and schedule_to_dict(out.schedule, out.value),
            out.diagnostics.get("states"))


@pytest.mark.parametrize("pair_cells", [1, 7])
def test_a_merge_in_many_passes_equals_one_pass(pair_cells, monkeypatch):
    """Every flavor, on seeded instances of every tree shape at their best
    value (a yes that walks the tables back) and one above it (a no): with
    PAIR_CELLS at 1 or 7, a later internal child's merge takes many passes,
    and each outcome equals the default run's."""
    cases = []
    for seed in range(48):
        mode = STRICT if seed % 4 == 3 else COLLABORATIVE
        inst = gen_random_instance(n=4 + seed % 4, n_teams=1 + seed % 3, max_ex=4 + seed % 5,
                                   max_len=3, max_weight=3, mode=mode, seed=seed,
                                   tree_shape=TREE_SHAPES[seed // 4 % len(TREE_SHAPES)])
        best = brute_force(inst).value
        for target in (best, best + 1):
            probe = with_target(inst, target)
            for solve, _, _ in SOLVERS[mode]:
                cases.append((probe, solve, recorded(solve(probe))))
    merge, passes = budget_dp._BudgetDP._merge, Counter()

    def counted(self, g, pairs, sub, table):
        passes[g.size > max(1, budget_dp.PAIR_CELLS // len(sub))] += 1
        return merge(self, g, pairs, sub, table)

    monkeypatch.setattr(budget_dp, "PAIR_CELLS", pair_cells)
    monkeypatch.setattr(budget_dp._BudgetDP, "_merge", counted)
    for probe, solve, want in cases:
        assert recorded(solve(probe)) == want, (solve.__name__, probe.target)
    assert passes[True] >= 100, passes
    assert {want[0] for *_, want in cases} == {True, False}
