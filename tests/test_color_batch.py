"""The batched fpt-d trials against the plain-Python kernel and the
trial-by-trial loop.

The library runs one recurrence, taxa in deadline order with g[C] =
min(g[C], g[C & ~m] + ell), in numpy over a block of colorings; its
one-coloring kernels are a one-row block of it.  ``tests/reference.py``
keeps the first kernel, the same recurrence in plain Python on one
coloring, as the oracle: their agreement checks the batching.  The
recurrence itself is checked against brute-force colored oracles here near
the hours bound, and for both kernels with their witnesses in
``test_color_target.py``.
"""

import itertools
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rescuepd import (Instance, PhyloTree, TaxonInfo, TeamWindow,
                      build_derived_index, color_edges_from_hash,
                      solve_s_time_pd_by_target, solve_time_pd_by_target)
from rescuepd import color_target, solve_time_pd_by_loss
from rescuepd.color_loss import DRAW_ROWS
from rescuepd.brute import brute_force
from rescuepd.driver import applicable_algorithms, run_algorithm, solve_auto
from rescuepd.color_target import _TrialPlan, trial_blocks, trial_draws
from rescuepd.errors import BadParams
from rescuepd.generators import TREE_SHAPES, gen_random_instance
from rescuepd.model import COLLABORATIVE, MAX_HOURS, STRICT, pd_of_subset

from reference import (loss_draw_width, plain_colored_s_time_pd,
                       plain_colored_time_pd, solve_by_loss_trial_by_trial,
                       solve_by_target_trial_by_trial, strict_feasible_by_partition,
                       trial_colors)
from test_color_loss import outcome_fields
from test_color_target import colored_brute

# first trials of the blocks of 4, 16, 64, 256 and 256 colorings that grow
# x4 (fpt-dbar), and of fpt-d's blocks of 256, 512 and 512 at target 5 (its
# block of 16 starts at trial 1 too)
BATCH_STARTS = (1, 5, 21, 85, 341, 17, 273, 785)


@given(st.integers(0, 3000), st.integers(1, 300))
def test_trial_blocks_cover_the_trials_in_order(n_trials, most):
    """Blocks of g, g^2, g^3, ... trials, each capped at ``most``, the last cut
    at n_trials, where g is 4 by default and 16 for fpt-d: none is empty,
    and they cover trials 1 .. n_trials."""
    for growth, blocks in ((4, list(trial_blocks(n_trials, most))),
                           (16, list(trial_blocks(n_trials, most, 16)))):
        covered = [t for first, count in blocks for t in range(first, first + count)]
        assert covered == list(range(1, n_trials + 1))
        assert all(count > 0 for _, count in blocks)
        for i, (_, count) in enumerate(blocks):
            if i < len(blocks) - 1:
                assert count == min(growth**(i + 1), most)
            else:
                assert count <= min(growth**(i + 1), most)


@pytest.mark.parametrize("n_trials, most", [(5, 0), (5, -2)])
def test_trial_blocks_refuse_empty_blocks(n_trials, most):
    """A cap below one trial per block would yield blocks forever."""
    with pytest.raises(BadParams):
        next(trial_blocks(n_trials, most))


def plan_for(idx, strict):
    k = idx.instance.target
    return _TrialPlan(idx, k, idx.team_hours if strict else (idx.hours,))


def kernel_decisions(idx, draws, strict):
    """The plain oracle's decision of each row of draws."""
    kernel = plain_colored_s_time_pd if strict else plain_colored_time_pd
    tree, k = idx.instance.tree, idx.instance.target
    return [kernel(idx, color_edges_from_hash(tree, k, row))[0] for row in draws]


@settings(deadline=None, max_examples=80)
@given(st.data())
def test_batched_decisions_match_the_scalar_kernel(data):
    strict = data.draw(st.booleans(), label="strict")
    k = data.draw(st.integers(1, 7), label="k")
    inst = gen_random_instance(
        n=data.draw(st.integers(2, 7), label="n"),
        n_teams=data.draw(st.integers(1, 3), label="teams"),
        max_ex=8, max_len=data.draw(st.integers(1, 3), label="max length"),
        max_weight=3,
        savable_frac=data.draw(st.sampled_from((0.2, 0.5, 1.0)), label="savable"),
        tree_shape=data.draw(st.sampled_from(TREE_SHAPES), label="shape"),
        seed=data.draw(st.integers(0, 10**6), label="instance"),
        target=k, mode=STRICT if strict else COLLABORATIVE)
    idx = build_derived_index(inst)
    start = data.draw(st.sampled_from(BATCH_STARTS), label="batch start")
    first = data.draw(st.integers(max(1, start - 8), start), label="first")
    count = data.draw(st.integers(1, 16), label="count")
    seed = data.draw(st.integers(0, 2**32), label="seed")
    width = inst.tree.total_weight()
    draws = trial_draws(seed, first, count, k, width)
    for r, row in enumerate(draws):
        assert np.array_equal(row, trial_colors(seed, first + r, k, width))
    got = plan_for(idx, strict).decide(draws).tolist()
    assert got == kernel_decisions(idx, draws, strict)


def test_batched_decisions_on_a_wide_palette():
    # nine colors: the team merge takes the cover product row by row
    for seed in range(3):
        inst = gen_random_instance(n=6, n_teams=3, max_ex=8, max_len=2,
                                   max_weight=3, seed=seed, target=9, mode=STRICT)
        idx = build_derived_index(inst)
        draws = trial_draws(seed, 2, 6, 9, inst.tree.total_weight())
        got = plan_for(idx, True).decide(draws).tolist()
        assert got == kernel_decisions(idx, draws, True)


def spy_rows(monkeypatch):
    """The number of rows of each table pass the batches run."""
    rows = []
    fill = _TrialPlan._decide_rows
    monkeypatch.setattr(_TrialPlan, "_decide_rows",
                        lambda self, masks: rows.append(len(masks)) or fill(self, masks))
    return rows


def spy_blocks(monkeypatch):
    """The number of rows of each block the solvers draw."""
    counts = []
    draw = color_target.trial_draws
    monkeypatch.setattr(color_target, "trial_draws",
                        lambda *args: counts.append(args[2]) or draw(*args))
    return counts


def test_screened_rows_keep_their_decisions(monkeypatch):
    """Over instances where some taxa cannot be saved, the screen removes
    rows before the tables and yet every row's decision is the kernel's;
    rows of both answers pass it."""
    passed = spy_rows(monkeypatch)
    total = yes = 0
    for case in range(48):
        strict = case % 2 == 1
        k = 3 + case % 4
        inst = gen_random_instance(n=6, n_teams=1 + case % 3, max_ex=6, max_len=3,
                                   max_weight=2, savable_frac=(0.3, 0.6)[case // 4 % 2],
                                   tree_shape=TREE_SHAPES[case % len(TREE_SHAPES)],
                                   seed=900 + case, target=k,
                                   mode=STRICT if strict else COLLABORATIVE)
        idx = build_derived_index(inst)
        draws = trial_draws(case, 2, 64, k, inst.tree.total_weight())
        got = plan_for(idx, strict).decide(draws).tolist()
        assert got == kernel_decisions(idx, draws, strict), case
        total += len(draws)
        yes += sum(got)
    screened = total - sum(passed)
    assert 0 < screened < total and 0 < yes < total - screened, (screened, yes, total)


def test_a_taxon_with_no_room_left_counts_in_the_screen():
    """a takes all the hours of its deadline (room 0), and a cover needs
    its color: the screen keeps the coloring, and the table says yes."""
    tree = PhyloTree.from_edges([("r", "a", 1), ("r", "b", 1)])
    taxa = {"a": TaxonInfo(1, 1), "b": TaxonInfo(1, 2)}
    for mode in (COLLABORATIVE, STRICT):
        inst = Instance(tree, taxa, (TeamWindow(0, 2),), 2, mode)
        idx = build_derived_index(inst)
        draws = np.array([[1, 1, 2], [1, 2, 1], [1, 1, 1]])
        got = plan_for(idx, mode == STRICT).decide(draws).tolist()
        assert got == kernel_decisions(idx, draws, mode == STRICT) == [True, True, False]


def test_hopeless_instances_fill_no_table(monkeypatch):
    """Only a can be saved, and its root path has 2 < 4 colors: every
    coloring is screened out, no table is filled, and the outcome is the
    trial-by-trial loop's, in both modes."""
    passed = spy_rows(monkeypatch)
    tree = PhyloTree.from_edges([("r", "u", 1), ("u", "a", 1), ("u", "b", 2),
                                 ("r", "c", 2)])
    taxa = {"a": TaxonInfo(1, 3), "b": TaxonInfo(6, 3), "c": TaxonInfo(6, 3)}
    teams = (TeamWindow(0, 3), TeamWindow(1, 3))
    for mode in (COLLABORATIVE, STRICT):
        inst = Instance(tree, taxa, teams, 4, mode)
        solve = solve_s_time_pd_by_target if mode == STRICT else solve_time_pd_by_target
        for seed in range(2):
            got = solve(inst, 0.1, seed)
            assert not got.decision and got.trials == got.diagnostics["planned_trials"]
            assert got == solve_by_target_trial_by_trial(inst, 0.1, seed, mode == STRICT)
    assert passed == []


def colored_brute_by_partition(instance, coloring):
    """Strict colored oracle that never lists slots: every subset covering
    the palette, split over the teams by single-team feasibility."""
    masks = coloring.taxon_masks(instance.tree)
    full = (1 << coloring.n_colors) - 1
    for size in range(len(instance.tree.taxa) + 1):
        for subset in itertools.combinations(instance.tree.taxa, size):
            got = 0
            for x in subset:
                got |= masks[x]
            if got & full == full and strict_feasible_by_partition(instance, subset):
                return True
    return False


@settings(deadline=None, max_examples=80)
@given(st.data())
def test_batched_decisions_near_max_hours(data):
    """Capacities and lengths up to 2^63 - 1: the batched table neither
    overflows nor mistakes a real length for its unreached marker."""
    strict = data.draw(st.booleans(), label="strict")
    k = data.draw(st.integers(1, 4), label="k")
    n_teams = data.draw(st.integers(1, 3), label="teams")
    base = gen_random_instance(n=data.draw(st.integers(2, 5), label="n"),
                               n_teams=n_teams, max_weight=2,
                               seed=data.draw(st.integers(0, 10**6), label="tree"))
    big = MAX_HOURS // n_teams
    huge = st.one_of(st.integers(1, MAX_HOURS), st.integers(MAX_HOURS - 64, MAX_HOURS),
                     st.integers(big - 64, big))
    teams = []
    for _ in range(n_teams):
        start = data.draw(st.integers(0, 3), label="start")
        end = data.draw(st.integers(start + 1, big), label="end")
        teams.append(TeamWindow(start, end))
    taxa = {x: TaxonInfo(data.draw(huge, label="length"),
                         data.draw(st.integers(1, big), label="deadline"))
            for x in base.tree.taxa}
    inst = Instance(base.tree, taxa, tuple(teams), k,
                    STRICT if strict else COLLABORATIVE)
    idx = build_derived_index(inst)
    seed = data.draw(st.integers(0, 2**32), label="seed")
    draws = trial_draws(seed, 1, 4, k, inst.tree.total_weight())
    got = plan_for(idx, strict).decide(draws).tolist()
    want = []
    for row in draws:
        coloring = color_edges_from_hash(inst.tree, k, row)
        want.append(colored_brute_by_partition(inst, coloring) if strict
                    else colored_brute(idx, coloring))
    assert got == want


def test_batched_decisions_at_max_hours_exactly():
    # the saved set's length equals the whole capacity, 2^63 - 1
    tree = PhyloTree.from_edges([("r", "a", 1), ("r", "b", 1)])
    taxa = {"a": TaxonInfo(MAX_HOURS - 1, MAX_HOURS), "b": TaxonInfo(1, MAX_HOURS)}
    for mode in (COLLABORATIVE, STRICT):
        inst = Instance(tree, taxa, (TeamWindow(0, MAX_HOURS),), 2, mode)
        idx = build_derived_index(inst)
        draws = np.array([[1, 1, 2], [1, 2, 1], [1, 1, 1]])
        got = plan_for(idx, mode == STRICT).decide(draws).tolist()
        assert got == [True, True, False]


def test_outcomes_equal_the_trial_by_trial_loop():
    """100 instances whose taxa each fall short of the target, so no shortcut
    answers them: first successes spread over the batches, and no-instances
    run every planned trial."""
    full_runs, later_hits, case, kept = 0, 0, 0, 0
    while kept < 100:
        case += 1
        strict = case % 3 == 0
        k = (4, 5, 6)[case // 3 % 3]
        delta = {4: 1e-3, 5: 0.05, 6: 0.3}[k]
        inst = gen_random_instance(n=6 + case % 2, n_teams=1 + case // 9 % 3,
                                   max_ex=6, max_len=3, max_weight=2,
                                   tree_shape=TREE_SHAPES[case % len(TREE_SHAPES)],
                                   seed=500 + case, target=k,
                                   savable_frac=(0.3, 0.9)[case % 2],
                                   mode=STRICT if strict else COLLABORATIVE)
        if max(pd_of_subset(inst.tree, [x]) for x in inst.tree.taxa) >= k:
            continue
        kept += 1
        solve = solve_s_time_pd_by_target if strict else solve_time_pd_by_target
        got = solve(inst, delta=delta, seed=case)
        assert got == solve_by_target_trial_by_trial(inst, delta, case, strict)
        planned = got.diagnostics["planned_trials"]
        full_runs += not got.decision and got.trials == planned
        later_hits += got.decision and got.trials > 1
    assert full_runs >= 20 and later_hits >= 20, (full_runs, later_hits)


def test_wide_targets_take_the_block_draw(monkeypatch):
    """At target 11 a pass decides 8 trials, yet the blocks still draw 16
    rows at once; the reported trials equal the trial-by-trial loop's."""
    counts = []
    draw = color_target.trial_draws
    monkeypatch.setattr(color_target, "trial_draws",
                        lambda *args: counts.append(args[2]) or draw(*args))
    tree = PhyloTree.from_edges([("r", "u", 1), ("r", "v", 1), ("u", "a", 3),
                                 ("u", "b", 3), ("v", "c", 3), ("v", "d", 3),
                                 ("v", "e", 3)])
    taxa = {x: TaxonInfo(1, 5) for x in tree.taxa}
    inst = Instance(tree, taxa, (TeamWindow(0, 5),), 11)
    assert color_target.BATCH_CELLS >> 11 == 8
    trials = []
    for seed in range(4):
        got = solve_time_pd_by_target(inst, 1e-3, seed)
        assert got.decision
        assert got == solve_by_target_trial_by_trial(inst, 1e-3, seed)
        trials.append(got.trials)
    assert max(counts) == 16 and max(trials) > 22, (counts, trials)


def test_first_successes_across_the_x16_blocks_equal_the_trial_by_trial_loop():
    """Three weight-2 leaves at target 6: a trial succeeds only when its six
    draws are six distinct colors, so first successes fall inside fpt-d's
    blocks of 16 (trials 1-16) and 256 (trials 17-272).  Seeds are tried in
    order, at most 300 per mode, until both blocks hold a first success;
    each seed's outcome equals the trial-by-trial loop's, in both modes."""
    tree = PhyloTree.from_edges([("r", x, 2) for x in "abc"])
    taxa = {x: TaxonInfo(1, 3) for x in "abc"}
    for mode in (COLLABORATIVE, STRICT):
        inst = Instance(tree, taxa, (TeamWindow(0, 3),), 6, mode)
        solve = solve_s_time_pd_by_target if mode == STRICT else solve_time_pd_by_target
        blocks = set()
        for seed in range(300):
            got = solve(inst, 1e-3, seed)
            assert got == solve_by_target_trial_by_trial(inst, 1e-3, seed, mode == STRICT)
            if got.decision and 1 <= got.trials <= 272:
                blocks.add(16 if got.trials <= 16 else 256)
            if blocks == {16, 256}:
                break
        assert blocks == {16, 256}, (mode, blocks)


def wide_no_instance(width, target=4):
    """((a:W,b:1)u:1,c:1)r: a (length 10) cannot be saved by its deadline 5,
    and b and c take one hour each of one (0, 5) team, so diversity 3 is
    the most; target 4 is a no that auto routes to fpt-d, target 3 a yes."""
    tree = PhyloTree.from_edges([("r", "u", 1), ("u", "a", width), ("u", "b", 1),
                                 ("r", "c", 1)])
    taxa = {"a": TaxonInfo(10, 5), "b": TaxonInfo(1, 5), "c": TaxonInfo(1, 5)}
    return Instance(tree, taxa, (TeamWindow(0, 5),), target)


def test_a_wide_tree_draws_within_the_draw_cells():
    """A heavy edge makes every trial draw 10^4 + 3 colors: the blocks stay
    within DRAW_CELLS draws, so the no takes little memory and time."""
    inst = wide_no_instance(10**4)
    assert applicable_algorithms(inst)[0] == "fpt-d"
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        got = run_algorithm(inst, "fpt-d", 1e-3, 0)
        elapsed = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.algorithm == "fpt-d" and not got.decision and got.trials == 378
    assert peak < 16 * 2**20, peak
    assert elapsed < 1.0, elapsed
    got = solve_auto(inst, 1e-3, 0)
    assert not got.decision and not brute_force(inst).decision
    assert got.algorithm == got.diagnostics["auto"]


@pytest.mark.parametrize("cells", [color_target.DRAW_CELLS, 2**10])
def test_no_block_draws_beyond_its_caps(monkeypatch, cells):
    """Every block of both solvers holds at most DRAW_CELLS // (width + 1)
    rows (at least one), and no more than the row caps: max(16, BATCH_CELLS
    >> k) for fpt-d and DRAW_ROWS for fpt-dbar.  On no-instances, which run
    every planned trial, the outcome stays the trial-by-trial loop's."""
    monkeypatch.setattr(color_target, "DRAW_CELLS", cells)
    counts = spy_blocks(monkeypatch)
    for k, mode in ((4, COLLABORATIVE), (5, COLLABORATIVE), (4, STRICT)):
        base = wide_no_instance(40, k)
        inst = Instance(base.tree, base.taxa, base.teams, k, mode)
        strict = mode == STRICT
        got = (solve_s_time_pd_by_target if strict else solve_time_pd_by_target)(inst, 1e-3, k)
        assert not got.decision
        assert got == solve_by_target_trial_by_trial(inst, 1e-3, k, strict)
        assert max(counts) <= min(max(1, cells // 44), max(16, color_target.BATCH_CELLS >> k))
        assert cells > 2**10 or max(counts) == cells // 44  # the cap binds
        counts.clear()
    for seed in (1, 3):  # no-instances at loss 2
        base = gen_random_instance(n=6, max_ex=8, max_len=3, max_weight=3, seed=seed)
        inst = Instance(base.tree, base.taxa, base.teams, base.tree.total_weight() - 2)
        got = solve_time_pd_by_loss(inst, 1e-3, seed)
        assert not got.decision
        assert outcome_fields(got) == outcome_fields(
            solve_by_loss_trial_by_trial(inst, 1e-3, seed))
        width = loss_draw_width(inst.tree, 2)
        assert max(counts) <= min(max(1, cells // (width + 1)), DRAW_ROWS)
        assert cells > 2**10 or max(counts) == cells // (width + 1)
        counts.clear()
