"""Ground-truth brute-force solvers.

These are the acceptance oracles: they check every subset of the taxa,
BLOCK_SUBSETS subsets per numpy pass.  Subset s holds the k-th of n taxa
(in label order) iff bit n - 1 - k of s is set, so the first taxon is the
top bit.  Collaborative feasibility is the prefix condition on a (subsets x
taxa) 0/1 matrix: its product with the lengths due by each deadline class
must stay within that class's hours.  Strict feasibility is one lookup per
subset in the subset table built once over all taxa.  A subset's diversity
is the weight of the edges with one of its taxa below them, and its total
length the 0/1 matrix times the lengths.  Sums that may pass 2^63 - 1 are
taken over Python integers.  Witness preference is fixed (maximum
diversity, then minimum total rescue length, then lexicographically
smallest set) so results are deterministic and independent of enumeration
order.
"""

from __future__ import annotations

import numpy as np

from .errors import InstanceTooLarge
from .feasibility import build_collaborative_schedule, strict_feasible, strict_table
from .model import (MAX_HOURS, STRICT, Instance, build_derived_index,
                    check_size)
from .outcome import SolveOutcome

BLOCK_SUBSETS = 2**12  # subsets per numpy pass; bounds the memory at any n
# collaborative brute's default reach: its block products answer 20 taxa
# in 0.11-0.23 s on one core of a 2-vCPU machine
COLLABORATIVE_GUARD = 20
# strict brute's default reach: its subset table answers 14 taxa in about
# 15 ms on one core of a 2-vCPU machine
STRICT_GUARD = 14


def _check_guard(instance: Instance, guard) -> None:
    """BadParams for a guard that is not an integer >= 0, InstanceTooLarge
    for more taxa than it allows."""
    check_size(guard, "the guard")
    if len(instance.tree.taxa) > guard:
        raise InstanceTooLarge(f"{len(instance.tree.taxa)} taxa exceed the 2^n guard {guard}")


def _exact(values: list) -> np.ndarray:
    """values as int64, or as Python integers where their sum may not fit."""
    return np.array(values, dtype=np.int64 if sum(values) <= MAX_HOURS else object)


def _search(instance: Instance, lengths: np.ndarray, feasible,
            schedule) -> SolveOutcome:
    """The preferred set among those ``feasible(masks, bits)`` admits.

    Only a yes builds a schedule, ``schedule(saved)``; a no still reports
    the best set and its diversity.
    """
    tree, taxa = instance.tree, instance.tree.taxa
    n = len(taxa)
    below = dict.fromkeys(tree.preorder(), 0)
    below.update((x, 1 << (n - 1 - k)) for k, x in enumerate(taxa))
    for e in reversed(tree.edge_order):  # children before their parent
        below[tree.parent[e]] |= below[e]
    edge_masks = np.array([below[e] for e in tree.edge_order], dtype=np.int64)
    weights = _exact([tree.weight[e] for e in tree.edge_order])
    shifts = np.arange(n - 1, -1, -1, dtype=np.int64)
    best = None
    for start in range(0, 1 << n, BLOCK_SUBSETS):
        masks = np.arange(start, min(start + BLOCK_SUBSETS, 1 << n), dtype=np.int64)
        bits = masks[:, None] >> shifts & 1  # row s, column k: is taxon k in s?
        ok = feasible(masks, bits)
        masks, bits = masks[ok], bits[ok]
        if not len(masks):
            continue
        value = ((masks[:, None] & edge_masks) != 0) @ weights
        most = value.max()
        top = value == most
        total = bits[top] @ lengths
        least = total.min()
        # No tied set holds another, as a taxon more adds its own edge, so
        # the first in label order holds the first taxon where they differ:
        # it is the largest mask.
        first = int(masks[top][total == least].max())
        # max diversity, min length, smallest set
        key = (-int(most), int(least),
               tuple(k for k in range(n) if first >> (n - 1 - k) & 1))
        if best is None or key < best:
            best = key
    value, saved = -best[0], tuple(taxa[k] for k in best[2])
    decision = value >= instance.target
    return SolveOutcome(decision=decision, algorithm="brute", saved=saved,
                        schedule=schedule(saved) if decision else None,
                        value=value)


def brute_force_time_pd(instance: Instance, guard: int = COLLABORATIVE_GUARD) -> SolveOutcome:
    """Every taxa subset against the prefix condition: row s of the 0/1
    matrix times L, where L[x, k] is x's length if x is due by class k, must
    stay within the hours of each class; deterministic optimal witness."""
    _check_guard(instance, guard)
    idx = build_derived_index(instance)
    taxa = instance.tree.taxa
    lengths = _exact([instance.length(x) for x in taxa])
    due = np.array([idx.class_of[x] for x in taxa])[:, None] <= np.arange(idx.n_classes)
    need = np.where(due, lengths[:, None], 0)
    hours = np.array(idx.hours, dtype=need.dtype)
    return _search(instance, lengths,
                   lambda masks, bits: (bits @ need <= hours).all(axis=1),
                   lambda saved: build_collaborative_schedule(idx, saved))


def brute_force_s_time_pd(instance: Instance, guard: int = STRICT_GUARD) -> SolveOutcome:
    """As above with strict feasibility, one lookup per subset in the subset
    table built once over all taxa; the yes witness is strict_feasible's.
    Neither reads the derived index, so total hours past MAX_HOURS are
    answered exactly."""
    _check_guard(instance, guard)
    taxa = instance.tree.taxa
    # the taxa in reverse, so the table's bit k is the masks' bit k
    placed = np.array([f is not None for f in strict_table(instance, taxa[::-1])])
    return _search(instance, _exact([instance.length(x) for x in taxa]),
                   lambda masks, bits: placed[masks],
                   lambda saved: strict_feasible(instance, saved, guard=None))


def brute_force(instance: Instance, guard: int = None) -> SolveOutcome:
    """Mode dispatch for the two oracles."""
    if instance.mode == STRICT:
        return brute_force_s_time_pd(instance, STRICT_GUARD if guard is None else guard)
    return brute_force_time_pd(instance, COLLABORATIVE_GUARD if guard is None else guard)
