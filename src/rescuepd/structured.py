"""Count-matrix XP solver and the pseudo-polynomial star solver.

The count-matrix solver budgets how many taxa of each (rescue length,
deadline) bucket may be selected and reuses the budget-DP engine; a root
matrix is admissible when the lengths-weighted column prefixes fit the
per-class hours, and the root table holds the value of every matrix.  With
few distinct lengths and deadlines this is polynomial for fixed shape.

On stars the problem is one 0/1 knapsack (weight = rescue length, profit =
leaf edge weight) indexed by capacity: entry c is the best profit within
weight c.  The taxa join in deadline order, and a taxon of class k may only
fill capacities up to that class's hours, which keeps every prefix of the
chosen set within its hours.  Capacities stop at the total rescue length.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from .budget_dp import STATE_GUARD, _BudgetDP
from .errors import BoundTooLarge, NotAStar
from .feasibility import build_collaborative_schedule
from .model import (COLLABORATIVE, DerivedIndex, Instance, _read_back,
                    build_derived_index, canon, capped_product)
from .outcome import SolveOutcome, check_mode, checked_yes, trivial_outcome

BOUND_GUARD = 1_000_000


# --------------------------------------------------------------------------
# count-matrix XP solver


def _bucket_sizes(instance: Instance) -> Counter:
    """Taxa per (rescue length, deadline) bucket."""
    return Counter((info.rescue_length, info.extinction_time)
                   for info in instance.taxa.values())


def count_matrices(idx: DerivedIndex, limit: int) -> int:
    """Root count matrices: prod over (length, deadline) buckets of (size + 1)."""
    return _size_matrices(_bucket_sizes(idx.instance), limit)


def _size_matrices(sizes: Counter, limit: int) -> int:
    """count_matrices from the instance's ``_bucket_sizes``."""
    return capped_product([n + 1 for n in sizes.values()], limit)


class _CountMatrixDP(_BudgetDP):
    algorithm = "xp-counts"
    pricing = staticmethod(lambda idx: _bucket_sizes(idx.instance))
    cost = staticmethod(_size_matrices)

    def __init__(self, instance, guard=STATE_GUARD):
        super().__init__(instance, guard)
        sizes = self.priced
        self.bucket_keys = sorted(sizes)
        self.counts = tuple(sizes[key] for key in self.bucket_keys)
        # per-vertex per-bucket count of subtree taxa
        unit = {key: [int(k == key) for k in self.bucket_keys] for key in sizes}
        self.caps = self.subtree_sums(lambda need, due: unit[need, due])

    def root_budget(self):
        return self.counts

    def best_root(self):
        """The first admissible matrix of the best value, in the order of
        itertools.product over the buckets (first bucket most significant).
        A matrix is admissible when, for every class k, the lengths of its
        taxa due by class k fit hours[k]; those sums are exact Python ints
        once they could reach 2^63."""
        idx, root = self.idx, self.tree.root
        digits = self.grids[root].digits
        due = [[length if deadline <= ex else 0 for length, deadline in self.bucket_keys]
               for ex in idx.ex_values]
        most = sum(length * c for (length, _), c in zip(self.bucket_keys, self.counts))
        dtype = np.int64 if most < 2**63 else object
        used = np.array(due, dtype=dtype) @ digits.astype(dtype, copy=False)
        fits = (used <= np.array(idx.hours, dtype=dtype)[:, None]).all(axis=0)
        values = np.where(fits, self.tables[root][-1], self.neg)
        best = values.max()     # the empty matrix always fits
        if best < 0:            # nothing savable
            return -1, None
        hits = np.flatnonzero(values == best)
        order = np.cumprod([1] + [c + 1 for c in self.counts[:0:-1]])[::-1]
        first = hits[np.argmin(order @ digits[:, hits])]
        return int(best), int(first)


def solve_time_pd_xp(instance: Instance, guard: int = STATE_GUARD) -> SolveOutcome:
    """Collaborative solver over (length, deadline) bucket count matrices."""
    return _CountMatrixDP(instance, guard).solve()


# --------------------------------------------------------------------------
# star solver


def _star_top(idx: DerivedIndex) -> int:
    """The largest capacity the star solver keeps: min(hours[-1], total
    rescue length), since hours past the total length cannot help.  The
    last deficit is the total rescue length minus hours[-1]."""
    return idx.hours[-1] + min(0, idx.deficits[-1])


def star_cells(idx: DerivedIndex) -> int:
    """Table cells the star solver touches: one capacity row of top + 1
    cells, updated once per taxon."""
    return len(idx.order) * (_star_top(idx) + 1)


def solve_star(instance: Instance) -> SolveOutcome:
    """Pseudo-polynomial collaborative solver for star trees.

    One by-capacity 0/1 knapsack over the taxa in deadline order: row[c] is
    the best diversity of a set whose total length is at most c.  A taxon of
    class k only updates the capacities up to hours[k], which is exactly the
    prefix feasibility condition.
    """
    tree = instance.tree
    if not tree.is_star():
        raise NotAStar("the star solver needs all leaves directly under the root")
    check_mode(instance, COLLABORATIVE, "star")
    idx = build_derived_index(instance)
    out = trivial_outcome(idx, "star")
    if out is not None:
        return out
    size = star_cells(idx)
    if size > BOUND_GUARD:
        raise BoundTooLarge(f"{size} star table cells exceed the guard {BOUND_GUARD}")
    top = _star_top(idx)
    row = [0] * (top + 1)
    improved = []
    for x in idx.order:
        ell, w = instance.length(x), tree.weight[x]
        cells = set()
        for c in range(min(idx.hours[idx.class_of[x]], top), ell - 1, -1):
            cand = row[c - ell] + w
            if cand > row[c]:
                row[c] = cand
                cells.add(c)
        improved.append(cells)
    value = max(row)
    if value < instance.target:
        return SolveOutcome(False, "star", value=value)
    saved = canon(_read_back(idx.order, improved, row.index(value),
                             lambda x, c: c - instance.length(x)))
    return checked_yes(idx, "star", saved, build_collaborative_schedule(idx, saved))
