"""Solver registry, automatic algorithm selection, and the bench harness.

``auto`` runs the first algorithm that the admission table of the
instance's mode admits, in preference order: star, loss-parameterized color
coding, target-parameterized color coding, the budget DPs and the
count-matrix solver, and finally brute force.  A row admits when its cost
is at most its cap.  The cost is the quantity the solver itself guards (the
star solver's table cells, the loss budget, the target, a DP's budget
vectors, the number of taxa), and it exceeds every cap where the solver
does not apply.  No cap exceeds its solver's guard, so an admitted solver
never raises a guard error.  Nothing is screened ahead of the table; each
solver runs the trivial screen itself.  A randomized "no" is never retried
with another algorithm; the reported delta stands.

Brute force runs instead of the first row where it is admitted too and its
predicted time is lower; a tie keeps the first row.  A prediction is a
fixed cost plus a cost per work unit times the row's work (``_work``), with
the constants of ``_ROW_TIME``.  A randomized row is priced by its "no",
which runs every planned trial.  Only brute force's work, 2^n subsets times
n taxa, is an exact count, so only brute force may displace the first row.
Its yes is re-checked like every other solver's.

The bench harness runs a sweep of generated instances through every
applicable solver, compares decisions against the brute-force oracle, and
writes one CSV row per (instance, algorithm).  Any disagreement is reported
with the smallest offending instance saved for triage.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass

from . import budget_dp, structured
from .brute import brute_force
from .color_loss import planned_work, solve_time_pd_by_loss
from .color_target import (checked_seed, solve_s_time_pd_by_target,
                           solve_time_pd_by_target, trial_count)
from .errors import BadParams, RescuePDError
from .feasibility import verify_schedule
from .files import instance_to_dict
from .model import (COLLABORATIVE, STRICT, Instance, build_derived_index,
                    pd_of_subset)
from .outcome import SolveOutcome, checked_witness

LOSS_WORK_CAP = 5 * 10**7  # planned trials x table entries of fpt-dbar


def _star(idx, limit):
    return structured.star_cells(idx) if idx.instance.tree.is_star() else limit + 1


def _loss(idx, limit):
    loss = idx.loss_budget
    return loss if 0 <= loss <= limit and idx.instance.tree.is_binary() else limit + 1


def _target(idx, limit):
    return idx.instance.target


def _taxa(idx, limit):
    return len(idx.order)


def _brute(instance, delta, seed):
    """brute_force, its yes re-checked like every other row's."""
    out = brute_force(instance)
    if not out.decision:
        return out
    return checked_witness(instance, "brute", out.saved, out.schedule)


# (algorithm, cost, cap, solve) per mode, in preference order; a mode's
# algorithms are exactly its rows.  cost(idx, limit) is exact whenever it is
# at most limit, and exceeds limit where the solver does not apply.  Each
# solver checks the same cost against its own guard, and each cap is at most
# that guard.  solve(instance, delta, seed) looks its solver up when called,
# so a module attribute rebound after import is the one that runs.
ADMISSION = {
    COLLABORATIVE: (
        ("star", _star, structured.BOUND_GUARD,
         lambda inst, delta, seed: structured.solve_star(inst)),
        ("fpt-dbar", _loss, 6,
         lambda inst, delta, seed: solve_time_pd_by_loss(inst, delta, seed)),
        ("fpt-d", _target, 7,  # color-coding trials grow like e^target
         lambda inst, delta, seed: solve_time_pd_by_target(inst, delta, seed)),
        ("hours-teams", budget_dp.team_vectors, 5000,
         lambda inst, delta, seed: budget_dp.solve_time_pd_team_vectors(inst)),
        ("hours-budget", budget_dp.hour_vectors, 5000,
         lambda inst, delta, seed: budget_dp.solve_time_pd_hour_vectors(inst)),
        ("xp-counts", structured.count_matrices, 5000,
         lambda inst, delta, seed: structured.solve_time_pd_xp(inst)),
        ("brute", _taxa, 20, _brute),
    ),
    STRICT: (
        ("fpt-d", _target, 5,
         lambda inst, delta, seed: solve_s_time_pd_by_target(inst, delta, seed)),
        ("hours-subsets", budget_dp.subset_vectors, 4096,
         lambda inst, delta, seed: budget_dp.solve_s_time_pd_team_subsets(inst)),
        ("brute", _taxa, 8, _brute),
    ),
}


def _work(algorithm, idx, cost, delta):
    """The work units that a row's predicted time is linear in: fpt-d's
    planned trials times the width it draws per trial (the no side),
    brute's subsets times taxa (times teams in strict mode, the Held-Karp
    table), a budget DP's or xp-counts' admission cost times the taxa (a
    table of at most that size per vertex), and the admission cost of
    star and fpt-dbar (star cells, planned work)."""
    if algorithm == "fpt-d":
        return trial_count(idx.instance.target, delta) * (idx.pd_total + 1)
    if algorithm == "brute":
        teams = len(idx.instance.teams) if idx.instance.mode == STRICT else 1
        return 2 ** cost * cost * teams
    if algorithm in ("star", "fpt-dbar"):
        return cost
    return cost * len(idx.order)


# (fixed ms, ms per work unit) of each row's predicted time, as
# tools/route_constants.py fitted them (seed 1) on a 2-vCPU machine with
# Python 3.11
_ROW_TIME = {
    COLLABORATIVE: {
        "star": (0.0267, 0.000641),
        "fpt-dbar": (1.15, 4.7e-06),
        "fpt-d": (0.466, 8.68e-05),
        "hours-teams": (0.265, 0.000505),
        "hours-budget": (0.205, 0.000409),
        "xp-counts": (0.36, 0.000168),
        "brute": (0.0777, 0.000214),
    },
    STRICT: {
        "fpt-d": (0.739, 7.06e-05),
        "hours-subsets": (0.33, 1.31e-05),
        "brute": (0.103, 0.00018),
    },
}


def _admitted(idx, delta):
    """(algorithm, admission cost) of each row the admission table admits,
    in preference order; fpt-dbar's cost is its planned work at delta,
    which must also stay within LOSS_WORK_CAP."""
    rows = []
    for algorithm, cost, cap, _ in ADMISSION[idx.instance.mode]:
        units = cost(idx, cap)
        if units > cap:
            continue
        if algorithm == "fpt-dbar":
            units = planned_work(idx, delta)
            if units > LOSS_WORK_CAP:
                continue
        rows.append((algorithm, units))
    return rows


def _predicted_ms(idx, delta, algorithm, cost):
    fixed, per_unit = _ROW_TIME[idx.instance.mode][algorithm]
    return fixed + per_unit * _work(algorithm, idx, cost, delta)


def applicable_algorithms(instance: Instance, delta: float = 1e-3) -> list[str]:
    """Algorithms the admission table admits, in preference order; fpt-dbar
    must also keep its planned work at delta within LOSS_WORK_CAP.  ``auto``
    runs the first of them unless brute predicts a shorter time."""
    return [algorithm for algorithm, _ in _admitted(build_derived_index(instance), delta)]


def run_algorithm(instance: Instance, algorithm: str, delta: float = 1e-3,
                  seed: int = 0) -> SolveOutcome:
    """Dispatch one named algorithm of the instance's mode's admission rows;
    any other name raises RescuePDError."""
    for name, _, _, solve in ADMISSION[instance.mode]:
        if name == algorithm:
            return solve(instance, delta, seed)
    raise RescuePDError(f"no algorithm {algorithm!r} for {instance.mode} instances")


def solve_auto(instance: Instance, delta: float = 1e-3, seed: int = 0):
    """The first admitted algorithm, or brute where brute's predicted time
    is lower (a tie keeps the first); None if all guarded.  The pick is
    reported as ``diagnostics["auto"]``.  A bad seed or delta is rejected
    whichever algorithm is picked."""
    seed = checked_seed(seed, delta)
    idx = build_derived_index(instance)
    rows = _admitted(idx, delta)
    if not rows:
        return None
    algorithm = rows[0][0]
    if rows[-1][0] == "brute" and _predicted_ms(idx, delta, *rows[-1]) < \
            _predicted_ms(idx, delta, *rows[0]):
        algorithm = "brute"
    out = run_algorithm(instance, algorithm, delta, seed)
    out.diagnostics["auto"] = algorithm
    return out


@dataclass
class BenchRow:
    instance_id: int
    family: str
    n: int
    n_teams: int
    mode: str
    target: int
    pd_total: int
    algorithm: str
    decision: bool
    value: object
    trials: object
    wall_ms: float


def run_bench_instance(item, delta: float = 1e-3, seed: int = 0):
    """All applicable solvers on one instance, oracle first.

    Returns (rows, disagreement) where disagreement carries the oracle and
    offending algorithm decisions, or None.  Randomized false negatives
    (decision no on an oracle yes) are recorded but tolerated by the
    caller's statistics; a randomized yes on an oracle no is always a
    disagreement.
    """
    instance_id, family, instance = item
    pd_total = instance.tree.total_weight()
    t0 = time.perf_counter()
    oracle = brute_force(instance)
    oracle_ms = (time.perf_counter() - t0) * 1e3
    rows = []
    disagreement = None
    false_negative = 0
    randomized_runs = 0

    def record(algorithm, outcome, wall_ms):
        rows.append(BenchRow(instance_id, family, len(instance.taxa),
                             len(instance.teams), instance.mode,
                             instance.target, pd_total, algorithm,
                             outcome.decision, outcome.value, outcome.trials,
                             round(wall_ms, 3)))

    # every other solver's yes has passed checked_yes, or is the trivial
    # screen's empty set; the oracle's is re-checked here
    if oracle.decision and (not verify_schedule(instance, oracle.schedule).ok or
                            pd_of_subset(instance.tree, oracle.saved) < instance.target):
        raise RescuePDError(f"brute returned an unverifiable witness on "
                            f"instance {instance_id}")
    record("brute", oracle, oracle_ms)
    for algorithm in applicable_algorithms(instance, delta):
        if algorithm == "brute":
            continue
        t0 = time.perf_counter()
        outcome = run_algorithm(instance, algorithm, delta, seed + instance_id)
        record(algorithm, outcome, (time.perf_counter() - t0) * 1e3)
        randomized = algorithm in ("fpt-d", "fpt-dbar")
        if randomized:
            randomized_runs += 1
        if outcome.decision != oracle.decision:
            if randomized and oracle.decision and not outcome.decision:
                false_negative += 1
            else:
                disagreement = (algorithm, oracle.decision, outcome.decision)
    return rows, disagreement, false_negative, randomized_runs


def write_bench_csv(rows, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["instance_id", "family", "n", "teams", "mode",
                         "target", "pd_total", "algorithm", "decision",
                         "value", "trials", "wall_ms"])
        for row in rows:
            writer.writerow([row.instance_id, row.family, row.n, row.n_teams,
                             row.mode, row.target, row.pd_total, row.algorithm,
                             int(row.decision), row.value, row.trials,
                             row.wall_ms])


def run_bench(items, delta: float = 1e-3, seed: int = 0, jobs: int = 1):
    """Run a sweep; returns (rows, disagreements, false_neg, randomized_runs).

    Results are merged by instance index, so the outcome is independent of
    worker scheduling.  At most one worker process per instance is started.
    A bad seed or delta, or fewer than one job, is rejected before any solve.
    """
    seed = checked_seed(seed, delta)
    if not isinstance(jobs, int) or jobs < 1:
        raise BadParams(f"jobs must be an integer of at least 1, got {jobs!r}")
    workers = min(jobs, len(items))
    results = {}
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {pool.submit(run_bench_instance, item, delta, seed): item[0]
                       for item in items}
            for future, instance_id in futures.items():
                results[instance_id] = future.result()
    else:
        for item in items:
            results[item[0]] = run_bench_instance(item, delta, seed)
    rows, disagreements = [], []
    false_neg = randomized = 0
    by_id = {item[0]: item for item in items}
    for instance_id in sorted(results):
        r, dis, fn, rand = results[instance_id]
        rows.extend(r)
        false_neg += fn
        randomized += rand
        if dis is not None:
            disagreements.append((instance_id, by_id[instance_id], dis))
    return rows, disagreements, false_neg, randomized


def smallest_disagreement(disagreements):
    """Triage pick: fewest taxa, then fewest availability pairs, then id."""
    def key(entry):
        instance_id, (_, _, instance), _ = entry
        return (len(instance.taxa), instance.pair_count(), instance_id)
    return min(disagreements, key=key)


def disagreement_report(entry) -> dict:
    instance_id, (_, family, instance), (algorithm, want, got) = entry
    return {
        "instance_id": instance_id,
        "family": family,
        "algorithm": algorithm,
        "oracle_decision": want,
        "algorithm_decision": got,
        "instance": instance_to_dict(instance),
    }
