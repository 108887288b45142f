"""Ground-truth brute-force solvers.

These are the acceptance oracles: plain subset enumeration with the
feasibility primitives.  Witness preference is fixed (maximum diversity,
then minimum total rescue length, then lexicographically smallest set) so
results are deterministic and independent of enumeration order.
"""

from __future__ import annotations

import itertools

from .errors import InstanceTooLarge
from .feasibility import (build_collaborative_schedule, collaborative_feasible,
                          strict_feasible, strict_table)
from .model import (STRICT, Instance, build_derived_index, canon, check_size,
                    pd_of_subset)
from .outcome import SolveOutcome


def _check_guard(instance: Instance, guard) -> None:
    """BadParams for a guard that is not an integer >= 0, InstanceTooLarge
    for more taxa than it allows."""
    check_size(guard, "the guard")
    if len(instance.tree.taxa) > guard:
        raise InstanceTooLarge(f"{len(instance.tree.taxa)} taxa exceed the 2^n guard {guard}")


def _search(instance: Instance, feasible, schedule) -> SolveOutcome:
    """The preferred set among those ``feasible(idx, subset)`` admits.

    Only a yes builds a schedule, ``schedule(idx, saved)``; a no still
    reports the best set and its diversity.
    """
    idx = build_derived_index(instance)
    taxa = instance.tree.taxa
    best = None
    for r in range(len(taxa) + 1):
        for subset in itertools.combinations(taxa, r):
            if not feasible(idx, subset):
                continue
            value = pd_of_subset(instance.tree, subset)
            total = sum(instance.length(x) for x in subset)
            key = (-value, total, subset)  # max diversity, min length, smallest set
            if best is None or key < best:
                best = key
    value, saved = -best[0], canon(best[2])
    decision = value >= instance.target
    return SolveOutcome(decision=decision, algorithm="brute", saved=saved,
                        schedule=schedule(idx, saved) if decision else None,
                        value=value)


def brute_force_time_pd(instance: Instance, guard: int = 20) -> SolveOutcome:
    """Enumerate all taxa subsets; collaborative feasibility per Lemma-style
    prefix check; deterministic optimal witness."""
    _check_guard(instance, guard)
    return _search(instance, collaborative_feasible, build_collaborative_schedule)


def brute_force_s_time_pd(instance: Instance, guard: int = 8) -> SolveOutcome:
    """As above with strict feasibility, one lookup per subset in the subset
    table built once over all taxa; the yes witness is strict_feasible's."""
    _check_guard(instance, guard)
    taxa = instance.tree.taxa
    table = strict_table(instance, taxa)
    bit = {x: 1 << k for k, x in enumerate(taxa)}
    return _search(instance,
                   lambda idx, subset: table[sum(bit[x] for x in subset)] is not None,
                   lambda idx, saved: strict_feasible(instance, saved, guard=None))


def brute_force(instance: Instance, guard: int = None) -> SolveOutcome:
    """Mode dispatch for the two oracles."""
    if instance.mode == STRICT:
        return brute_force_s_time_pd(instance, 8 if guard is None else guard)
    return brute_force_time_pd(instance, 20 if guard is None else guard)
