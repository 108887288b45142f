"""The admission table of `auto`: costs, caps, guards and routing."""

import dataclasses
import inspect
import math
import sys

import pytest

from rescuepd import (Instance, PhyloTree, TaxonInfo, TeamWindow, brute,
                      build_derived_index, gen_random_instance, pd_of_subset,
                      verify_schedule)
from rescuepd import budget_dp, color_loss, color_target, driver, feasibility, structured
from rescuepd.driver import (ADMISSION, applicable_algorithms, run_algorithm,
                             run_bench_instance, solve_auto)
from rescuepd.errors import BoundTooLarge, RescuePDError
from rescuepd.model import COLLABORATIVE, MAX_HOURS, STRICT
from rescuepd.outcome import SolveOutcome

from conftest import split_rescue

GUARDS = {
    "star": structured.BOUND_GUARD,
    "fpt-dbar": color_loss.LOSS_LIMIT,
    "fpt-d": color_target.MASK_LIMIT,
    "hours-teams": budget_dp.STATE_GUARD,
    "hours-budget": budget_dp.STATE_GUARD,
    "hours-subsets": budget_dp.STATE_GUARD,
    "xp-counts": budget_dp.STATE_GUARD,
}
BRUTE_GUARDS = {
    COLLABORATIVE: inspect.signature(brute.brute_force_time_pd).parameters["guard"].default,
    STRICT: inspect.signature(brute.brute_force_s_time_pd).parameters["guard"].default,
}


def assert_matches_oracle(instance, outcome):
    """Same decision as brute force, except that a randomized solver may
    say no on a yes; every yes carries a witness that re-verifies."""
    oracle = brute.brute_force(instance)
    if outcome.decision:
        assert oracle.decision
        assert pd_of_subset(instance.tree, outcome.saved) >= instance.target
        assert verify_schedule(instance, outcome.schedule).ok
    elif outcome.algorithm not in ("fpt-d", "fpt-dbar"):
        assert not oracle.decision


def assert_auto_matches_oracle(instance, **kwargs):
    """solve_auto answers with the oracle's decision and reports, as
    diagnostics["auto"], the row it ran."""
    out = solve_auto(instance, **kwargs)
    assert out.decision == brute.brute_force(instance).decision
    assert out.algorithm == out.diagnostics["auto"]
    assert_matches_oracle(instance, out)
    return out


def two_leaf_star(slots):
    """Two taxa under one root, one team whose window spans every slot."""
    tree = PhyloTree.from_edges([("r", "a", 1), ("r", "b", 1)])
    taxa = {"a": TaxonInfo(1, slots), "b": TaxonInfo(1, slots)}
    return Instance(tree, taxa, (TeamWindow(0, slots),), target=2)


def test_every_cap_within_its_solver_guard():
    for mode, rows in ADMISSION.items():
        for algorithm, _, cap, _ in rows:
            guard = BRUTE_GUARDS[mode] if algorithm == "brute" else GUARDS[algorithm]
            assert cap <= guard, (mode, algorithm)
    # fpt-dbar also guards its table entries, which auto admits only within
    # the planned work of at least one trial
    assert driver.LOSS_WORK_CAP <= color_loss.TABLE_GUARD


def one_team_tree(deadline, end):
    """Five taxa, the internal child before two leaves, one team (0, end)."""
    tree = PhyloTree.from_edges([("r", "v", 1), ("v", "a", 1), ("v", "b", 1),
                                 ("v", "c", 1), ("r", "d", 4), ("r", "e", 4)])
    taxa = {x: TaxonInfo(1, deadline) for x in "abcde"}
    return Instance(tree, taxa, (TeamWindow(0, end),), target=8)


def test_admitted_team_vectors_pass_the_solver_guard():
    # one short team against deadlines 30: 4 team-count vectors, while
    # (|T|+1)^30 is far above the guard
    instance = one_team_tree(30, 2)
    assert applicable_algorithms(instance)[0] == "hours-teams"
    out = run_algorithm(instance, "hours-teams")
    assert out.algorithm == "hours-teams" and out.decision
    assert_matches_oracle(instance, out)
    assert_auto_matches_oracle(instance)


def test_team_count_budgets_skip_idle_slots():
    # 2^12 vectors over twelve working slots; the budgets must not grow
    # with the 10^5 slots up to the deadlines
    instance = one_team_tree(100_000, 12)
    assert applicable_algorithms(instance)[0] == "hours-teams"
    out = run_algorithm(instance, "hours-teams")
    assert out.algorithm == "hours-teams" and out.decision
    assert_matches_oracle(instance, out)
    assert_auto_matches_oracle(instance)
    dp = budget_dp._TeamCountDP(instance)
    assert len(dp.root_budget()) == 12


def long_star(top):
    """Two taxa of length top, both due at slot top, one team (0, top): the
    star solver keeps capacities 0 .. top for each taxon."""
    tree = PhyloTree.from_edges([("r", "a", 1), ("r", "b", 1)])
    taxa = {"a": TaxonInfo(top, top), "b": TaxonInfo(top, top)}
    return Instance(tree, taxa, (TeamWindow(0, top),), target=1)


def test_star_over_its_bound_is_left_out():
    # n * (top + 1) = 2 * (top + 1) cells
    over = long_star(structured.BOUND_GUARD // 2)
    assert structured.star_cells(build_derived_index(over)) > structured.BOUND_GUARD
    algorithms = applicable_algorithms(over)
    assert "star" not in algorithms
    with pytest.raises(BoundTooLarge):
        structured.solve_star(over)
    out = run_algorithm(over, algorithms[0])
    assert out.decision and out.algorithm == algorithms[0]
    assert_auto_matches_oracle(over)
    at = long_star(structured.BOUND_GUARD // 2 - 1)
    assert structured.star_cells(build_derived_index(at)) == structured.BOUND_GUARD
    assert applicable_algorithms(at)[0] == "star"


def test_star_cost_is_one_capacity_row():
    # two deadline classes of 1500 and 3000 hours: three unit-length taxa
    # need only capacities 0 .. 3, whatever the hours
    tree = PhyloTree.from_edges([("r", "a", 2), ("r", "b", 1), ("r", "c", 1)])
    taxa = {"a": TaxonInfo(1, 1500), "b": TaxonInfo(1, 3000),
            "c": TaxonInfo(1, 3000)}
    instance = Instance(tree, taxa, (TeamWindow(0, 3000),), target=3)
    assert structured.star_cells(build_derived_index(instance)) == 3 * 4
    assert applicable_algorithms(instance)[0] == "star"
    out = solve_auto(instance)
    assert out.diagnostics["auto"] == "star"
    assert out.value == brute.brute_force(instance).value
    assert_matches_oracle(instance, out)


def test_routing_cost_ignores_window_length():
    # the star's cost stops at the total rescue length; the hours DPs still
    # see the short window of s = 2
    stars = {s: two_leaf_star(s) for s in (2, 10**6, 3 * 10**6, MAX_HOURS)}
    costs = {structured.star_cells(build_derived_index(inst)) for inst in stars.values()}
    assert costs == {2 * 3}
    routes = {s: applicable_algorithms(inst) for s, inst in stars.items()}
    assert all(route[0] == "star" for route in routes.values())
    assert routes[10**6] == routes[3 * 10**6] == routes[MAX_HOURS] == \
        ["star", "fpt-dbar", "fpt-d", "xp-counts", "brute"]


def test_team_vectors_match_the_per_slot_product():
    for seed in range(60):
        instance = gen_random_instance(n=5, n_teams=1 + seed % 4,
                                       max_ex=4 + seed % 9, seed=seed)
        idx = build_derived_index(instance)
        counts = [sum(t.start < j <= t.end for t in instance.teams)
                  for j in range(1, idx.max_ex + 1)]
        exact = math.prod(c + 1 for c in counts)
        for limit in (1, 50, exact, 10**9):
            got = budget_dp.team_vectors(idx, limit)
            assert got == exact if exact <= limit else got > limit


def test_auto_admits_no_guard_error_on_long_horizons():
    # deadlines and windows stretched far past the team counts: the
    # admission table must keep auto to solvers whose guards pass
    for seed in range(40):
        base = gen_random_instance(n=5, n_teams=1 + seed % 3, max_ex=5,
                                   max_len=2, max_weight=3, seed=900 + seed,
                                   mode=STRICT if seed % 4 == 0 else COLLABORATIVE)
        stretch = 1 + seed % 7 * 5
        taxa = {x: TaxonInfo(info.rescue_length, info.extinction_time * stretch)
                for x, info in base.taxa.items()}
        instance = Instance(base.tree, taxa, base.teams, base.target, base.mode)
        out = solve_auto(instance, seed=seed)
        if out is not None:
            assert_matches_oracle(instance, out)


def auto_picks(monkeypatch):
    """solve_auto's pick, without running it: run_algorithm answers no."""
    monkeypatch.setattr(driver, "run_algorithm",
                        lambda inst, algorithm, *args: SolveOutcome(False, algorithm))

    def pick(instance):
        out = solve_auto(instance)
        return out and out.diagnostics["auto"]
    return pick


def test_auto_runs_brute_on_a_handful_of_taxa():
    # at 4-6 taxa brute's 2^n subsets cost less than the fixed cost of
    # the color coding and of the budget DPs
    firsts = set()
    for seed in range(60):
        # target 3 admits fpt-d, the half-diversity target the budget DPs
        instance = gen_random_instance(
            n=4 + seed % 3, n_teams=1 + seed % 2, max_ex=5, max_len=3,
            max_weight=3, tree_shape=("caterpillar", "random-binary")[seed % 2],
            mode=STRICT if seed % 3 == 0 else COLLABORATIVE, seed=seed,
            target=(3, None)[seed // 3 % 2])
        first = applicable_algorithms(instance)[0]
        if first not in ("fpt-d", "hours-teams", "hours-subsets"):
            continue
        firsts.add(first)
        out = solve_auto(instance, seed=seed)
        assert out.diagnostics["auto"] == out.algorithm == "brute", (seed, first)
        assert out.decision == brute.brute_force(instance).decision
        assert_matches_oracle(instance, out)
    assert firsts == {"fpt-d", "hours-teams", "hours-subsets"}


def test_auto_runs_brute_at_7_taxa_over_few_team_vectors(monkeypatch):
    # a budget DP's time grows with its taxa as well as its vectors: at 7
    # taxa and 2-4 teams, hours-teams over 4-24 team-count vectors is
    # priced above brute's 2^7 subsets, as it measures
    pick = auto_picks(monkeypatch)
    seen = 0
    for seed in range(120):
        instance = gen_random_instance(
            n=7, n_teams=2 + seed % 3, max_ex=7, max_len=4, max_weight=3,
            tree_shape=("caterpillar", "random-binary")[seed % 2], seed=seed)
        vectors = budget_dp.team_vectors(build_derived_index(instance), 5000)
        if applicable_algorithms(instance)[0] != "hours-teams" or \
                not 4 <= vectors <= 24:
            continue
        seen += 1
        assert pick(instance) == "brute", (seed, vectors)
    assert seen >= 20


def test_stars_stay_on_the_star_solver():
    for seed in range(30):
        instance = gen_random_instance(n=4 + seed % 3, n_teams=1 + seed % 3,
                                       max_ex=8, max_len=5, tree_shape="star",
                                       seed=seed)
        assert applicable_algorithms(instance)[0] == "star"
        out = solve_auto(instance)
        assert out.diagnostics["auto"] == "star"
        assert_matches_oracle(instance, out)


def test_auto_keeps_the_first_row_at_12_to_16_taxa(monkeypatch):
    # brute's 2^n * n subset-taxa are priced above the first row
    pick = auto_picks(monkeypatch)
    firsts = set()
    for seed in range(40):
        instance = gen_random_instance(n=12 + seed % 5, n_teams=1 + seed % 3,
                                       max_ex=4 + seed % 5, max_len=3,
                                       tree_shape=("caterpillar", "random-binary",
                                                   "random-multifurcating", "star")[seed % 4],
                                       seed=seed)
        algorithms = applicable_algorithms(instance)
        if algorithms:
            firsts.add(algorithms[0])
            assert pick(instance) == algorithms[0] != "brute", seed
    assert firsts == {"hours-teams", "star"}


def test_stretching_windows_or_deadlines_keeps_the_pick(monkeypatch):
    # the instances of test_auto_admits_no_guard_error_on_long_horizons
    pick = auto_picks(monkeypatch)
    for seed in range(40):
        base = gen_random_instance(n=5, n_teams=1 + seed % 3, max_ex=5,
                                   max_len=2, max_weight=3, seed=900 + seed,
                                   mode=STRICT if seed % 4 == 0 else COLLABORATIVE)
        picks = {pick(base)}
        for stretch in (6, 31, 10**4):
            taxa = {x: TaxonInfo(info.rescue_length, info.extinction_time * stretch)
                    for x, info in base.taxa.items()}
            windows = tuple(TeamWindow(t.start * stretch, t.end * stretch)
                            for t in base.teams)
            for teams in (base.teams, windows):
                picks.add(pick(Instance(base.tree, taxa, teams, base.target, base.mode)))
        assert len(picks) == 1, (seed, picks)


def test_auto_rechecks_a_brute_yes(monkeypatch):
    instance = BENCH_YES[0]
    assert solve_auto(instance).diagnostics["auto"] == "brute"
    oracle = brute.brute_force(instance)
    assert oracle.decision and oracle.schedule.assignment
    # a schedule that saves nothing, and a saved set below the target
    for schedule, saved in ((dataclasses.replace(oracle.schedule, assignment={}),
                             oracle.saved), (oracle.schedule, ())):
        bad = dataclasses.replace(oracle, schedule=schedule, saved=saved)
        monkeypatch.setattr(driver, "brute_force", lambda inst, bad=bad: bad)
        with pytest.raises(RescuePDError, match="brute witness failed"):
            solve_auto(instance)


def test_bench_times_the_oracle():
    instance = gen_random_instance(n=6, seed=4)
    rows = run_bench_instance((0, "tiny", instance))[0]
    assert rows[0].algorithm == "brute" and rows[0].wall_ms > 0
    assert all(row.pd_total == instance.tree.total_weight() for row in rows)


@pytest.mark.parametrize("n", [9, 14])
def test_bench_cross_checks_strict_instances_past_the_auto_cap(n):
    """Strict brute's default guard is its own reach, STRICT_GUARD, not
    auto's cap of 8 taxa: run_bench checks strict instances of 9 and 14
    taxa against the oracle, and auto still does not admit brute there."""
    instance = gen_random_instance(n=n, n_teams=2, max_ex=6, max_len=3,
                                   mode=STRICT, seed=0)
    caps = {algorithm: cap for algorithm, _, cap, _ in ADMISSION[STRICT]}
    assert caps["brute"] == 8 < n <= brute.STRICT_GUARD
    rows, disagreements, _, _ = driver.run_bench([(0, "strict", instance)])
    assert [row.algorithm for row in rows] == ["brute"] + applicable_algorithms(instance)
    assert len(rows) > 1 and disagreements == []
    assert "brute" not in applicable_algorithms(instance)


def verified_schedules(monkeypatch):
    """The schedules feasibility.verify_schedule is asked to check, through
    every module of the package that imported it."""
    checked = []
    verify = feasibility.verify_schedule

    def spy(instance, schedule):
        checked.append(schedule)
        return verify(instance, schedule)

    for name, module in list(sys.modules.items()):
        if name.startswith("rescuepd") and \
                getattr(module, "verify_schedule", None) is verify:
            monkeypatch.setattr(module, "verify_schedule", spy)
    return checked


def bench_outcomes(monkeypatch):
    """The (algorithm, outcome) of every solver call run_bench_instance makes."""
    calls = []
    run, oracle = driver.run_algorithm, driver.brute_force

    def run_recorded(instance, algorithm, *args):
        calls.append((algorithm, run(instance, algorithm, *args)))
        return calls[-1][1]

    def brute_recorded(instance):
        calls.append(("brute", oracle(instance)))
        return calls[-1][1]

    monkeypatch.setattr(driver, "run_algorithm", run_recorded)
    monkeypatch.setattr(driver, "brute_force", brute_recorded)
    return calls


BENCH_YES = [  # each a yes for brute and at least two other solvers
    gen_random_instance(n=6, seed=0, target=3),
    gen_random_instance(n=6, seed=4, mode=STRICT, target=3),
    gen_random_instance(n=5, seed=14, max_ex=30, n_teams=3, target=20),
    gen_random_instance(n=5, seed=2, tree_shape="star", max_ex=30, n_teams=3,
                        target=6),
]


@pytest.mark.parametrize("instance", BENCH_YES)
def test_bench_verifies_each_yes_once(monkeypatch, instance):
    checked = verified_schedules(monkeypatch)
    calls = bench_outcomes(monkeypatch)
    rows = run_bench_instance((0, "tiny", instance))[0]
    assert [row.algorithm for row in rows] == [algorithm for algorithm, _ in calls]
    yes = [outcome for _, outcome in calls if outcome.decision]
    assert len(yes) == len(calls) >= 3
    # the solvers' own checked_yes and the oracle's re-check: one each
    assert sorted(map(id, checked)) == sorted(id(outcome.schedule) for outcome in yes)


def test_bench_refuses_a_tampered_oracle_witness(monkeypatch):
    instance = BENCH_YES[0]
    oracle = brute.brute_force(instance)
    assert oracle.decision and oracle.schedule.assignment
    # a schedule that saves nothing, and a saved set below the target
    for schedule, saved in ((dataclasses.replace(oracle.schedule, assignment={}),
                             oracle.saved), (oracle.schedule, ())):
        bad = dataclasses.replace(oracle, schedule=schedule, saved=saved)
        monkeypatch.setattr(driver, "brute_force", lambda inst: bad)
        with pytest.raises(RescuePDError, match="brute returned an unverifiable witness"):
            run_bench_instance((0, "tiny", instance))


def test_long_windows_are_never_listed(monkeypatch):
    # one (0, 10^6) team with deadlines 10, and a two-leaf star over 1.1 * 10^6
    # slots: building and checking their schedules must not list every
    # (team, slot) pair
    def listed(self):
        raise AssertionError("every (team, slot) pair was listed")

    monkeypatch.setattr(Instance, "availability", listed, raising=False)
    for instance in (one_team_tree(10, 10**6), two_leaf_star(1_100_000)):
        out = solve_auto(instance)
        assert out.decision and verify_schedule(instance, out.schedule).ok


def test_run_algorithm_dispatches_only_the_modes_rows():
    names = {row[0] for rows in ADMISSION.values() for row in rows} | {"auto", "nope"}
    for mode, rows in ADMISSION.items():
        instance = split_rescue(mode)
        oracle = brute.brute_force(instance).decision
        for algorithm in names:
            if algorithm in {row[0] for row in rows}:
                assert run_algorithm(instance, algorithm).decision == oracle
            else:
                with pytest.raises(RescuePDError):
                    run_algorithm(instance, algorithm)


@pytest.mark.parametrize("mode, solve", [
    (STRICT, structured.solve_star),
    (STRICT, color_loss.solve_time_pd_by_loss),
    (STRICT, color_target.solve_time_pd_by_target),
    (STRICT, budget_dp.solve_time_pd_team_vectors),
    (STRICT, budget_dp.solve_time_pd_hour_vectors),
    (STRICT, structured.solve_time_pd_xp),
    (COLLABORATIVE, color_target.solve_s_time_pd_by_target),
    (COLLABORATIVE, budget_dp.solve_s_time_pd_team_subsets),
], ids=lambda v: getattr(v, "__name__", v))
def test_solvers_refuse_the_other_mode(mode, solve):
    # the strict instance is a no that every collaborative solver would
    # answer yes, and the reverse for the strict solvers
    with pytest.raises(RescuePDError):
        solve(split_rescue(mode))
