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
                          strict_feasible)
from .model import STRICT, Instance, build_derived_index, canon, pd_of_subset
from .outcome import SolveOutcome


def _subsets(taxa):
    for r in range(len(taxa) + 1):
        yield from itertools.combinations(taxa, r)


def _better(cand, best):
    """Preference order: max diversity, min total length, smallest set."""
    return best is None or cand < best


def _search(instance: Instance, feasible, schedule) -> SolveOutcome:
    """The preferred set among those ``feasible(idx, subset)`` admits.

    Only a yes builds a schedule, ``schedule(idx, saved)``; a no still
    reports the best set and its diversity.
    """
    idx = build_derived_index(instance)
    best = None
    for subset in _subsets(instance.tree.taxa):
        if not feasible(idx, subset):
            continue
        value = pd_of_subset(instance.tree, subset)
        total = sum(instance.length(x) for x in subset)
        key = (-value, total, subset)
        if _better(key, best):
            best = key
    value, saved = -best[0], canon(best[2])
    decision = value >= instance.target
    return SolveOutcome(decision=decision, algorithm="brute", saved=saved,
                        schedule=schedule(idx, saved) if decision else None,
                        value=value)


def brute_force_time_pd(instance: Instance, guard: int = 20) -> SolveOutcome:
    """Enumerate all taxa subsets; collaborative feasibility per Lemma-style
    prefix check; deterministic optimal witness."""
    taxa = instance.tree.taxa
    if len(taxa) > guard:
        raise InstanceTooLarge(f"{len(taxa)} taxa exceed the 2^n guard {guard}")
    return _search(instance, collaborative_feasible, build_collaborative_schedule)


def _strict_schedule(idx, subset):
    return strict_feasible(idx.instance, subset, guard=None)


def _strict_feasible(idx, subset) -> bool:
    # strict implies collaborative, so the cheap check prunes orderings
    return (collaborative_feasible(idx, subset)
            and _strict_schedule(idx, subset) is not None)


def brute_force_s_time_pd(instance: Instance, guard: int = 8) -> SolveOutcome:
    """As above with strict feasibility (all-orderings greedy) per subset."""
    taxa = instance.tree.taxa
    if len(taxa) > guard:
        raise InstanceTooLarge(f"{len(taxa)} taxa exceed the 2^n n! guard {guard}")
    return _search(instance, _strict_feasible, _strict_schedule)


def brute_force(instance: Instance, guard: int = None) -> SolveOutcome:
    """Mode dispatch for the two oracles."""
    if instance.mode == STRICT:
        return brute_force_s_time_pd(instance, 8 if guard is None else guard)
    return brute_force_time_pd(instance, 20 if guard is None else guard)
