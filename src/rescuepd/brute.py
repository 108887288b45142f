"""Ground-truth brute-force solvers.

These are the acceptance oracles: plain subset enumeration with the
feasibility primitives, plus a raw schedule-space search that knows nothing
about prefix conditions.  Witness preference is fixed (maximum diversity,
then minimum total rescue length, then lexicographically smallest set) so
results are deterministic and independent of enumeration order.
"""

from __future__ import annotations

import itertools

from .errors import InstanceTooLarge, SearchSpaceTooLarge
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


def brute_force_time_pd(instance: Instance, guard: int = 20) -> SolveOutcome:
    """Enumerate all taxa subsets; collaborative feasibility per Lemma-style
    prefix check; deterministic optimal witness."""
    taxa = instance.tree.taxa
    if len(taxa) > guard:
        raise InstanceTooLarge(f"{len(taxa)} taxa exceed the 2^n guard {guard}")
    idx = build_derived_index(instance)
    best = None
    for subset in _subsets(taxa):
        if not collaborative_feasible(idx, subset):
            continue
        value = pd_of_subset(instance.tree, subset)
        total = sum(instance.length(x) for x in subset)
        key = (-value, total, subset)
        if _better(key, best):
            best = key
    value, saved = -best[0], canon(best[2])
    schedule = build_collaborative_schedule(idx, saved)
    return SolveOutcome(decision=value >= instance.target, algorithm="brute",
                        saved=saved, schedule=schedule, value=value)


def brute_force_s_time_pd(instance: Instance, guard: int = 8) -> SolveOutcome:
    """As above with strict feasibility (all-orderings greedy) per subset."""
    taxa = instance.tree.taxa
    if len(taxa) > guard:
        raise InstanceTooLarge(f"{len(taxa)} taxa exceed the 2^n n! guard {guard}")
    idx = build_derived_index(instance)
    best = None
    best_schedule = None
    for subset in _subsets(taxa):
        # strict implies collaborative, so the cheap check prunes orderings
        if not collaborative_feasible(idx, subset):
            continue
        sched = strict_feasible(instance, subset, guard=None)
        if sched is None:
            continue
        value = pd_of_subset(instance.tree, subset)
        total = sum(instance.length(x) for x in subset)
        key = (-value, total, subset)
        if _better(key, best):
            best, best_schedule = key, sched
    value, saved = -best[0], canon(best[2])
    return SolveOutcome(decision=value >= instance.target, algorithm="brute",
                        saved=saved, schedule=best_schedule, value=value)


def brute_force(instance: Instance, guard: int = None) -> SolveOutcome:
    """Mode dispatch for the two oracles."""
    if instance.mode == STRICT:
        return brute_force_s_time_pd(instance, guard if guard else 8)
    return brute_force_time_pd(instance, guard if guard else 20)


def exhaustive_schedule_search(instance: Instance, taxa_set,
                               guard: int = 10_000_000) -> bool:
    """Does some raw assignment of (team, slot) pairs save the set?

    Collaborative mode explores assignments slot by slot (memoized on the
    remaining-hours vector, which is equivalent to full enumeration);
    strict mode enumerates a (team, run start) per taxon.  No prefix-sum
    insight is used anywhere, so this is an independent oracle.
    """
    members = canon(taxa_set)
    if instance.mode == STRICT:
        run_options = []
        for x in members:
            opts = []
            for i, t in enumerate(instance.teams):
                last = min(t.end, instance.deadline(x))
                for start in range(t.start, last - instance.length(x) + 1):
                    opts.append((i, start))
            run_options.append(opts)
        space = 1
        for opts in run_options:
            space *= max(1, len(opts))
            if space > guard:
                raise SearchSpaceTooLarge(f"strict run space exceeds {guard}")
        used = [set() for _ in instance.teams]

        def place(k):
            if k == len(members):
                return True
            x = members[k]
            for i, start in run_options[k]:
                span = range(start + 1, start + instance.length(x) + 1)
                if any(j in used[i] for j in span):
                    continue
                used[i].update(span)
                if place(k + 1):
                    return True
                used[i].difference_update(span)
            return False

        return place(0)

    n_pairs = instance.pair_count()
    if (len(members) + 1) ** n_pairs > guard:
        raise SearchSpaceTooLarge(
            f"({len(members)}+1)^{n_pairs} assignments exceed {guard}")
    pairs = list(instance.pairs_by_slot())
    need0 = tuple(instance.length(x) for x in members)
    seen = {}

    def search(pos, need):
        if not any(need):
            return True
        if pos == len(pairs):
            return False
        key = (pos, need)
        if key in seen:
            return seen[key]
        _, slot = pairs[pos]
        ok = search(pos + 1, need)
        if not ok:
            for k, x in enumerate(members):
                if need[k] and slot <= instance.deadline(x):
                    nxt = need[:k] + (need[k] - 1,) + need[k + 1:]
                    if search(pos + 1, nxt):
                        ok = True
                        break
        seen[key] = ok
        return ok

    return search(0, need0)
