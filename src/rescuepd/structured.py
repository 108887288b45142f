"""Count-matrix XP solver and the pseudo-polynomial star solver.

The count-matrix solver budgets how many taxa of each (rescue length,
deadline) bucket may be selected and reuses the budget-DP engine; a root
matrix is admissible when the lengths-weighted column prefixes fit the
per-class hours, and the root table holds the value of every matrix.  With
few distinct lengths and deadlines this is polynomial for fixed shape.

On stars the problem decomposes per deadline class into 0/1 knapsacks
(weight = rescue length, profit = leaf edge weight) chained by a max-plus
convolution over capacity, clamping the running capacity at each class to
that class's available hours.  Each class's knapsack is indexed by
capacity: entry c is the best profit within weight c.
"""

from __future__ import annotations

import numpy as np

from .budget_dp import STATE_GUARD, _BudgetDP
from .errors import BoundTooLarge, NotAStar, RescuePDError, StateSpaceTooLarge
from .feasibility import build_collaborative_schedule
from .model import (COLLABORATIVE, DerivedIndex, Instance, build_derived_index,
                    canon, capped_product)
from .outcome import SolveOutcome, check_mode, checked_yes, trivial_outcome

NEG = -(2**62)

BOUND_GUARD = 1_000_000


# --------------------------------------------------------------------------
# count-matrix XP solver


def count_matrices(idx: DerivedIndex, limit: int) -> int:
    """Root count matrices: prod over (length, deadline) buckets of (size + 1)."""
    sizes = {}
    for info in idx.instance.taxa.values():
        key = (info.rescue_length, info.extinction_time)
        sizes[key] = sizes.get(key, 0) + 1
    return capped_product([n + 1 for n in sizes.values()], limit)


class _CountMatrixDP(_BudgetDP):
    algorithm = "xp-counts"

    def __init__(self, instance, guard=STATE_GUARD):
        super().__init__(instance)
        idx = self.idx
        buckets = {}
        for x in idx.order:
            key = (instance.length(x), instance.deadline(x))
            buckets.setdefault(key, []).append(x)
        self.bucket_keys = sorted(buckets)
        self.bucket_of = {x: self.bucket_keys.index(key)
                          for key, xs in buckets.items() for x in xs}
        self.counts = tuple(len(buckets[key]) for key in self.bucket_keys)
        if count_matrices(idx, guard) > guard:
            raise StateSpaceTooLarge(f"count matrices exceed the guard {guard}")
        nb = len(self.bucket_keys)
        self.caps = self.subtree_sums(
            lambda x: [int(k == self.bucket_of[x]) for k in range(nb)])

    def root_budget(self):
        return self.counts

    def leaf_rests(self, x, grid):
        k = self.bucket_of[x]
        share = tuple(1 if i == k else 0 for i in range(len(self.counts)))
        return self.share_rests(grid, [(share, None)])

    def best_root(self):
        """The first admissible matrix of the best value, in the order of
        itertools.product over the buckets (first bucket most significant).
        A matrix is admissible when, for every class k, the lengths of its
        taxa due by class k fit hours[k]; those sums are exact Python ints
        once they could reach 2^63."""
        idx, root = self.idx, self.tree.root
        digits = self.grids[root].digits
        class_of_deadline = {ex: k for k, ex in enumerate(idx.ex_values)}
        due = [[length if class_of_deadline[deadline] <= k else 0
                for length, deadline in self.bucket_keys]
               for k in range(idx.n_classes)]
        most = sum(length * c for (length, _), c in zip(self.bucket_keys, self.counts))
        dtype = np.int64 if most < 2**63 else object
        used = np.array(due, dtype=dtype) @ digits.astype(dtype)
        fits = np.flatnonzero((used <= np.array(idx.hours, dtype=dtype)[:, None]).all(axis=0))
        values = self.tables[root][-1][fits]
        best = values.max()     # the empty matrix always fits
        if best < 0:            # nothing savable
            return -1, None
        hits = fits[values == best]
        order = np.cumprod([1] + [c + 1 for c in self.counts[:0:-1]])[::-1]
        first = hits[np.argmin(order @ digits[:, hits])]
        return int(best), int(first)


def solve_time_pd_xp(instance: Instance, guard: int = STATE_GUARD) -> SolveOutcome:
    """Collaborative solver over (length, deadline) bucket count matrices."""
    return _CountMatrixDP(instance, guard).solve()


# --------------------------------------------------------------------------
# star solver


def _knapsack_rows(items, capacity):
    """The by-capacity 0/1 knapsack, one row per item taken in: row i holds,
    per capacity c <= capacity, the best profit of items[:i] within weight c."""
    row = [0] * (capacity + 1)
    yield row
    for w, p in items:
        prev, row = row, row[:]
        for c in range(capacity, w - 1, -1):
            cand = prev[c - w] + p
            if cand > row[c]:
                row[c] = cand
        yield row


def _profile(items, capacity) -> list[int]:
    """Best profit of the items per capacity in [0, capacity]."""
    for row in _knapsack_rows(items, capacity):
        pass
    return row


def star_cells(idx: DerivedIndex) -> int:
    """Table cells of the star solver: the knapsack bound hours[-1] plus
    hours[k-1] * hours[k] for each max-plus step of the class chain."""
    hours = idx.hours
    return hours[-1] + sum(a * b for a, b in zip(hours, hours[1:]))


def solve_star(instance: Instance) -> SolveOutcome:
    """Pseudo-polynomial collaborative solver for star trees.

    Per-class knapsacks chained by max-plus convolution over capacity; the
    running capacity after class k is clamped to that class's hours, which
    is exactly the prefix feasibility condition.
    """
    tree = instance.tree
    if not tree.is_star():
        raise NotAStar("the star solver needs all leaves directly under the root")
    check_mode(instance, COLLABORATIVE, "star")
    idx = build_derived_index(instance)
    out = trivial_outcome(idx, "star")
    if out is not None:
        return out
    cells = star_cells(idx)
    if cells > BOUND_GUARD:
        raise BoundTooLarge(f"{cells} star table cells exceed the guard {BOUND_GUARD}")
    class_items = [[(instance.length(x), tree.weight[x]) for x in members]
                   for members in idx.classes]
    profiles = [_profile(items, idx.hours[k]) for k, items in enumerate(class_items)]
    nc = idx.n_classes
    tables = [[profiles[0][c] for c in range(idx.hours[0] + 1)]]
    for k in range(1, nc):
        prev = tables[k - 1]
        nxt = []
        for c in range(idx.hours[k] + 1):
            best = NEG
            for c1 in range(min(c, idx.hours[k - 1]) + 1):
                cand = prev[c1] + profiles[k][c - c1]
                if cand > best:
                    best = cand
            nxt.append(best)
        tables.append(nxt)
    value = max(tables[-1])
    if value < instance.target:
        return SolveOutcome(False, "star", value=max(0, value))
    saved = _star_witness(instance, idx, class_items, profiles, tables)
    return checked_yes(idx, "star", saved, build_collaborative_schedule(idx, saved))


def _star_witness(instance, idx, class_items, profiles, tables):
    """Split capacity across classes, then recover each class's subset."""
    nc = idx.n_classes
    c = max(range(len(tables[-1])), key=lambda i: tables[-1][i])
    budgets = [0] * nc
    for k in range(nc - 1, 0, -1):
        goal = tables[k][c]
        for c1 in range(min(c, idx.hours[k - 1]) + 1):
            if tables[k - 1][c1] > NEG and \
                    tables[k - 1][c1] + profiles[k][c - c1] == goal:
                budgets[k] = c - c1
                c = c1
                break
        else:  # pragma: no cover
            raise RescuePDError("star capacity backtrack failed")
    budgets[0] = c
    saved = []
    for k, members in enumerate(idx.classes):
        goal = profiles[k][budgets[k]]
        saved.extend(_knapsack_subset(class_items[k], members, budgets[k], goal))
    return canon(saved)


def _knapsack_subset(items, labels, capacity, goal):
    """Recover one subset achieving the goal profit within the capacity."""
    rows = list(_knapsack_rows(items, capacity))
    chosen = []
    c = capacity
    for i in range(len(items) - 1, -1, -1):
        w, p = items[i]
        if rows[i + 1][c] != rows[i][c]:
            chosen.append(labels[i])
            c -= w
    picked = rows[-1][capacity]
    if picked != goal:  # pragma: no cover
        raise RescuePDError("knapsack subset recovery mismatch")
    return chosen
