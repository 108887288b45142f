"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria, in order:
  1. collaborative solvers match the brute-force oracle on a 540-instance
     seeded sweep (randomized solvers: no false yes ever; false-no count
     within the 99.9th percentile of Binomial(runs, delta));
  2. the same for strict solvers on a 300-instance sweep;
  3. prefix-condition feasibility equals raw schedule-space search on every
     subset of 200 small instances;
  4. the worked fixtures (capacity tables, color predicates, subset-sum
     stars) give their published values;
  5. every yes across the sweeps shipped a verified witness (enforced
     inline; a violation raises and fails the sweep tests);
  6. scaling checks: color-coding trial counts match the formula exactly,
     the batched colored table's wall time per trial tracks the 2^target
     table size within 2x between targets 8 and 12, and the loss table
     materializes exactly
     its predicted number of entries;
  7. the anchored-set witness construction is exhaustively correct on
     seeded binary instances.
"""

import itertools
import math
import time

import numpy as np

from rescuepd import (Instance, PhyloTree, TaxonInfo, TeamWindow,
                      brute_force_time_pd, build_derived_index,
                      collaborative_feasible, loss_dp_solve,
                      loss_table_entry_count,
                      make_loss_coloring, pd_of_subset, solve_time_pd_by_loss,
                      trial_count, verify_schedule)
from rescuepd.color_target import _TrialPlan, trial_draws
from rescuepd.driver import applicable_algorithms, run_bench
from rescuepd.generators import gen_random_instance

from conftest import color_mask
from lemmas import (anchored_set_for_sacrifice, check_color_respectful,
                    find_valid_ordering, injective_coloring, is_q_grounding,
                    path_between)
from reference import (availability, exhaustive_schedule_search, offspring,
                       prefix)

DELTA = 1e-3


def binomial_999_percentile(runs: int, p: float) -> int:
    """Smallest k with P(Binomial(runs, p) <= k) >= 0.999."""
    total = 0.0
    for k in range(runs + 1):
        total += math.comb(runs, k) * p**k * (1 - p) ** (runs - k)
        if total >= 0.999:
            return k
    return runs


def collaborative_sweep_items():
    items = []

    def add(family, instance):
        items.append((len(items), family, instance))

    shapes = ("star", "caterpillar", "random-binary", "random-multifurcating")
    for seed in range(220):
        add("general", gen_random_instance(
            n=4 + seed % 4, n_teams=1 + seed % 3, max_ex=5 + (seed % 2) * 3,
            max_len=6, max_weight=5, tree_shape=shapes[seed % 4], seed=seed))
    for seed in range(120):
        add("colors", gen_random_instance(
            n=4 + seed % 3, n_teams=1 + seed % 2, max_ex=6, max_len=4,
            max_weight=3, tree_shape=shapes[seed % 4], seed=1000 + seed,
            target=1 + seed % 6))
    for seed in range(80):
        add("compact", gen_random_instance(
            n=4 + seed % 2, n_teams=1 + seed % 2, max_ex=4, max_len=4,
            max_weight=3, tree_shape=shapes[seed % 4], seed=2000 + seed))
    for seed in range(60):
        add("stars", gen_random_instance(
            n=6 + seed % 5, n_teams=1 + seed % 2, max_ex=8, max_len=5,
            max_weight=4, tree_shape="star", seed=3000 + seed))
    for seed in range(60):
        base = gen_random_instance(
            n=4 + seed % 3, n_teams=3, max_ex=8, max_len=5, max_weight=4,
            min_weight=2, tree_shape="random-binary", seed=4000 + seed,
            savable_frac=1.0)
        idx = build_derived_index(base)
        optimum = brute_force_time_pd(base).value
        best_loss = idx.pd_total - optimum
        dloss = seed % 5
        if dloss < best_loss:
            dloss = min(dloss, 2)   # keep full-length no-runs cheap
        add("loss", Instance(base.tree, base.taxa, base.teams,
                             idx.pd_total - dloss))
    return items


def strict_sweep_items():
    items = []

    def add(family, instance):
        items.append((len(items), family, instance))

    shapes = ("star", "caterpillar", "random-binary", "random-multifurcating")
    for seed in range(160):
        add("strict-general", gen_random_instance(
            n=4 + seed % 2, n_teams=1 + seed % 2, max_ex=5, max_len=4,
            max_weight=4, tree_shape=shapes[seed % 4], seed=seed,
            mode="strict"))
    for seed in range(140):
        add("strict-colors", gen_random_instance(
            n=4 + seed % 2, n_teams=1 + seed % 2, max_ex=5, max_len=3,
            max_weight=3, tree_shape=shapes[seed % 4], seed=5000 + seed,
            mode="strict", target=1 + seed % 5))
    return items


def crafted_loss_instances(wanted=6):
    """Deterministic binary instances needing a genuine small sacrifice,
    solved with loss budgets four to six."""
    out = []
    seed = 0
    while len(out) < wanted and seed < 400:
        base = gen_random_instance(n=5 + seed % 2, n_teams=2, max_ex=8,
                                   max_len=6, max_weight=4, min_weight=2,
                                   tree_shape="random-binary",
                                   seed=7000 + seed, savable_frac=0.9)
        idx = build_derived_index(base)
        optimum = brute_force_time_pd(base).value
        best_loss = idx.pd_total - optimum
        if 1 <= best_loss <= 4:
            budget = 4 + len(out) % 3      # loss budgets 4, 5, 6
            if budget >= best_loss:
                out.append(Instance(base.tree, base.taxa, base.teams,
                                    idx.pd_total - budget))
        seed += 1
    assert len(out) == wanted
    return out


def test_criterion_1_oracle_equivalence_collaborative():
    t0 = time.perf_counter()
    items = collaborative_sweep_items()
    assert len(items) >= 500
    rows, disagreements, false_neg, randomized = run_bench(items, DELTA, seed=0)
    assert not disagreements, disagreements[:3]
    bound = binomial_999_percentile(randomized, DELTA)
    assert false_neg <= bound, (false_neg, bound)
    # loss budgets four to six, exercised directly on crafted yes-instances
    for inst in crafted_loss_instances():
        idx = build_derived_index(inst)
        assert 4 <= idx.pd_total - inst.target <= 6
        out = solve_time_pd_by_loss(inst, DELTA, seed=1)
        oracle = brute_force_time_pd(inst)
        assert oracle.decision and out.decision
        assert pd_of_subset(inst.tree, out.saved) >= inst.target
        assert verify_schedule(inst, out.schedule).ok
    elapsed = time.perf_counter() - t0
    exercised = {row.algorithm for row in rows}
    assert {"brute", "fpt-d", "fpt-dbar", "hours-teams", "hours-budget",
            "xp-counts", "star"} <= exercised
    print(f"\nCRITERION 1 PASS: {len(items)} instances, "
          f"{len(rows)} solver runs, {randomized} randomized runs, "
          f"{false_neg} false negatives (bound {bound}), {elapsed:.1f}s")


def test_criterion_2_oracle_equivalence_strict():
    t0 = time.perf_counter()
    items = strict_sweep_items()
    assert len(items) >= 300
    rows, disagreements, false_neg, randomized = run_bench(items, DELTA, seed=0)
    assert not disagreements, disagreements[:3]
    bound = binomial_999_percentile(randomized, DELTA)
    assert false_neg <= bound, (false_neg, bound)
    exercised = {row.algorithm for row in rows}
    assert {"brute", "fpt-d", "hours-subsets"} <= exercised
    elapsed = time.perf_counter() - t0
    print(f"\nCRITERION 2 PASS: {len(items)} instances, "
          f"{len(rows)} solver runs, {randomized} randomized runs, "
          f"{false_neg} false negatives (bound {bound}), {elapsed:.1f}s")


def test_criterion_3_prefix_condition_equivalence():
    t0 = time.perf_counter()
    collected = 0
    checked_subsets = 0
    seed = 0
    while collected < 200:
        n = 4 + seed % 2
        inst = gen_random_instance(n=n, n_teams=1 + seed % 2, max_ex=4,
                                   max_len=4, max_weight=3, seed=9000 + seed)
        seed += 1
        budget = 10 if n == 4 else 8
        if len(availability(inst)) > budget:
            continue
        collected += 1
        idx = build_derived_index(inst)
        for k in range(n + 1):
            for subset in itertools.combinations(inst.tree.taxa, k):
                fast = collaborative_feasible(idx, subset)
                raw = exhaustive_schedule_search(inst, subset)
                assert fast == raw, (seed, subset)
                checked_subsets += 1
    elapsed = time.perf_counter() - t0
    print(f"\nCRITERION 3 PASS: {collected} instances, "
          f"{checked_subsets} subsets, zero mismatches, {elapsed:.1f}s")


def test_criterion_4_fixture_checks(fig1_instance, fig3_instance, fig2,
                                    prop5_instance):
    idx1 = build_derived_index(fig1_instance)
    assert idx1.hours[:2] == (19, 39)
    assert collaborative_feasible(idx1, fig1_instance.tree.taxa)
    prefixes = [sum(fig1_instance.length(x) for x in prefix(idx1, k))
                for k in range(3)]
    assert prefixes == [19, 34, 52] and idx1.hours == (19, 39, 54)

    idx3 = build_derived_index(fig3_instance)
    assert idx3.hours == (10, 19, 39)
    assert collaborative_feasible(idx3, fig3_instance.tree.taxa)

    idx2 = build_derived_index(fig2.instance)
    assert check_color_respectful(fig2.anchored, fig2.coloring, idx2)
    plus = set()
    for x, v, e in fig2.anchored:
        plus.update(path_between(fig2.tree, v, x))
    assert fig2.coloring.path_mask(plus) == color_mask(*range(1, 12))
    assert sorted(fig2.coloring.key_color[e]
                  for _, _, e in fig2.anchored) == [4, 6, 12]
    assert find_valid_ordering(fig2.tree, fig2.coloring, fig2.anchored_bad,
                               lambda x: fig2.instance.deadline(x)) is None
    assert is_q_grounding(color_mask(6, 7, 8, 9, 10, 11),
                          color_mask(1, 2, 3, 4, 5, 12), 0,
                          fig2.coloring, idx2)

    algorithms = applicable_algorithms(prop5_instance)
    assert algorithms, "prop5 fixture should admit at least one solver"
    from rescuepd.driver import run_algorithm
    for algorithm in algorithms:
        out = run_algorithm(prop5_instance, algorithm, DELTA, seed=0)
        assert out.decision and out.value == 19, algorithm
    from rescuepd.generators import reduce_subset_sum
    variant = reduce_subset_sum([2, 4], 1, 3)
    for algorithm in applicable_algorithms(variant):
        out = run_algorithm(variant, algorithm, DELTA, seed=0)
        assert not out.decision, algorithm
    print("\nCRITERION 4 PASS: capacity tables, color predicates, and "
          "subset-sum fixtures match their published values")


def test_criterion_5_witness_integrity():
    """Spot-check beyond the inline enforcement in the sweeps: every yes
    outcome across a mixed mini-sweep re-verifies."""
    from rescuepd.driver import run_algorithm
    verified = 0
    for seed in range(40):
        mode = "strict" if seed % 3 == 0 else "collaborative"
        inst = gen_random_instance(n=4 + seed % 3, n_teams=1 + seed % 2,
                                   max_ex=5, max_len=4, max_weight=3,
                                   seed=11000 + seed, mode=mode)
        for algorithm in applicable_algorithms(inst, DELTA):
            out = run_algorithm(inst, algorithm, DELTA, seed=seed)
            if out.decision:
                assert pd_of_subset(inst.tree, out.saved) >= inst.target
                assert verify_schedule(inst, out.schedule).ok
                verified += 1
    assert verified > 50
    print(f"\nCRITERION 5 PASS: {verified} witnesses re-verified, "
          "zero violations (also enforced inline in every sweep run)")


def test_criterion_6_scaling_checks():
    # trial counts: the solver must plan exactly ceil(e^k * ln(1/delta))
    for k, delta in [(1, 0.5), (3, 1e-2), (8, 1e-3), (12, 1e-3), (5, 0.25)]:
        assert trial_count(k, delta) == math.ceil(math.exp(k) * math.log(1 / delta))
    tree = PhyloTree.from_edges([("r", "a", 1), ("r", "b", 1)])
    nope = Instance(tree, {"a": TaxonInfo(1, 2), "b": TaxonInfo(9, 2)},
                    (TeamWindow(0, 2),), target=2)
    from rescuepd import solve_time_pd_by_target
    out = solve_time_pd_by_target(nope, delta=0.5, seed=0)
    assert not out.decision
    assert out.trials == trial_count(2, 0.5) == 6

    # wall time of the colored decision that runs every trial, the batched
    # table, tracks the 2^target table size.  Each target's plan decides a
    # 256-row block of colorings that all pass its screen; each reading
    # times enough blocks to last about 10 ms, the two targets' readings
    # alternate so that both see the same machine load, and the best of
    # five readings' time per trial counts
    base = gen_random_instance(n=120, n_teams=3, max_ex=6, max_len=5,
                               max_weight=2, seed=42, tree_shape="star")
    blocks = {}
    for target in (8, 12):
        inst = Instance(base.tree, base.taxa, base.teams, target)
        idx = build_derived_index(inst)
        plan = _TrialPlan(idx, target, (idx.hours,))
        draws = trial_draws(0, 1, 1024, target, inst.tree.total_weight())
        covered = np.bitwise_or.reduce(
            np.left_shift(1, draws[:, plan.fit_draws] - 1), axis=1)
        passing = draws[covered == plan.full][:256]
        assert len(passing) == 256, (target, len(passing))
        blocks[target] = (plan, passing)

    def per_trial(target, calls):
        plan, block = blocks[target]
        t0 = time.perf_counter()
        for _ in range(calls):
            plan.decide(block)
        return (time.perf_counter() - t0) / (calls * len(block))

    calls = {target: math.ceil(0.01 / (256 * per_trial(target, 1))) for target in blocks}
    times = {target: math.inf for target in blocks}
    for _ in range(5):
        for target in blocks:
            times[target] = min(times[target], per_trial(target, calls[target]))
    ratio = times[12] / times[8]
    predicted = 2 ** (12 - 8)
    assert predicted / 2 <= ratio <= predicted * 2, (ratio, times)

    # loss table size is structural and exact
    base = gen_random_instance(n=5, n_teams=2, max_ex=6, max_len=4,
                               max_weight=4, min_weight=2, seed=13,
                               tree_shape="random-binary")
    idx = build_derived_index(base)
    loss = 4
    inst = Instance(base.tree, base.taxa, base.teams, idx.pd_total - loss)
    key = {e: 1 + i % (2 * loss) for i, e in enumerate(inst.tree.edge_order)}
    coloring = make_loss_coloring(inst.tree, loss, key,
                                  {e: 0 for e in inst.tree.edge_order})
    _, _, entries = loss_dp_solve(inst, coloring, loss)
    expected = loss_table_entry_count(loss, idx.n_classes)
    assert entries == expected
    assert expected == sum(math.comb(8, k) * 2 ** (8 - k)
                           for k in range(5)) * idx.n_classes
    print(f"\nCRITERION 6 PASS: trial formula exact, wall-time ratio "
          f"{ratio:.1f} within [{predicted / 2}, {predicted * 2}], "
          f"loss table entries {entries} == {expected}")


def test_criterion_7_witness_construction_exhaustive():
    t0 = time.perf_counter()
    instances = 0
    checked = 0
    for seed in range(48):
        inst = gen_random_instance(n=4 + seed % 3, n_teams=2, max_ex=7,
                                   max_len=4, max_weight=3,
                                   seed=13000 + seed,
                                   tree_shape="random-binary")
        tree = inst.tree
        idx = build_derived_index(inst)
        coloring = injective_coloring(tree)
        instances += 1
        for k in range(1, len(tree.taxa) + 1):
            for saved in itertools.combinations(tree.taxa, k):
                if not collaborative_feasible(idx, saved):
                    continue
                sacrificed = set(tree.taxa) - set(saved)
                if not sacrificed:
                    continue
                anchored = anchored_set_for_sacrifice(
                    tree, sacrificed, lambda x: inst.deadline(x))
                plus, paths = set(), []
                for x, v, e in anchored:
                    p = set(path_between(tree, v, x))
                    assert not (plus & p)
                    plus |= p
                    paths.append(p)
                dead = {e for e in tree.edge_order
                        if set(offspring(tree, e)) <= sacrificed}
                assert plus == dead
                assert pd_of_subset(tree, saved) == \
                    idx.pd_total - sum(tree.weight[e] for e in dead)
                assert find_valid_ordering(
                    tree, coloring, anchored,
                    lambda x: inst.deadline(x)) is not None
                checked += 1
    elapsed = time.perf_counter() - t0
    assert checked > 300
    print(f"\nCRITERION 7 PASS: {instances} binary instances, "
          f"{checked} feasible saved sets, zero violations, {elapsed:.1f}s")
