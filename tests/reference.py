"""Test-side oracles for the library's optimized paths.

``solve_by_target_trial_by_trial`` is the fpt-d trial loop that decides one
coloring per trial with the scalar kernel, in trial order, and stops at the
first success.  The library's batched loop must return the same outcome,
field for field.  ``collaborative_schedule_from_pairs`` builds the greedy
collaborative schedule from the full list of (team, slot) pairs, which the
library now merges lazily from the team windows.
"""

from rescuepd.color_target import (MASK_LIMIT, _collaborative_witness,
                                   _singleton_shortcut, _strict_witness,
                                   _trial_rng, color_edges_from_hash,
                                   solve_colored_s_time_pd,
                                   solve_colored_time_pd, trial_count)
from rescuepd.errors import TargetTooLarge
from rescuepd.feasibility import Schedule
from rescuepd.model import COLLABORATIVE, build_derived_index, canon, pd_of_subset
from rescuepd.outcome import SolveOutcome, trivial_outcome


def solve_by_target_trial_by_trial(instance, delta=1e-3, seed=0, strict=False,
                                   mask_limit=MASK_LIMIT):
    """fpt-d, one scalar kernel call per trial; ``strict`` picks the mode's
    kernel and witness step as solve_s_time_pd_by_target does."""
    kernel = solve_colored_s_time_pd if strict else solve_colored_time_pd
    witness = _strict_witness if strict else _collaborative_witness
    idx = build_derived_index(instance)
    out = (trivial_outcome(idx, "fpt-d", trials=0)
           or _singleton_shortcut(instance, idx, "fpt-d"))
    if out is not None:
        out.seed = seed
        return out
    k = instance.target
    if k > mask_limit:
        raise TargetTooLarge(f"target {k} exceeds the mask-width limit {mask_limit}")
    tree = instance.tree
    width = tree.total_weight()
    n_trials = trial_count(k, delta)
    for trial in range(1, n_trials + 1):
        f = _trial_rng(seed, trial).integers(1, k + 1, size=width + 1)
        ok, found = kernel(idx, color_edges_from_hash(tree, k, f))
        if ok:
            saved, sched = witness(instance, idx, found)
            return SolveOutcome(True, "fpt-d", saved=saved, schedule=sched,
                                value=pd_of_subset(tree, saved), trials=trial,
                                seed=seed, diagnostics={"planned_trials": n_trials})
    return SolveOutcome(False, "fpt-d", trials=n_trials, seed=seed,
                        diagnostics={"planned_trials": n_trials, "delta": delta})


def collaborative_schedule_from_pairs(idx, taxa_set):
    """The greedy collaborative schedule over the listed (team, slot) pairs,
    sorted by (slot, team); taxa in (class, label) order."""
    inst = idx.instance
    pairs = sorted(inst.availability(), key=lambda ij: (ij[1], ij[0]))
    queue = sorted(taxa_set, key=lambda x: (idx.class_of[x], x))
    assignment, cursor = {}, 0
    for x in queue:
        for _ in range(inst.length(x)):
            assignment[pairs[cursor]] = x
            cursor += 1
    return Schedule(COLLABORATIVE, assignment, canon(taxa_set))
