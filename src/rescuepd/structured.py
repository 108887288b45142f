"""Count-matrix XP solver and the pseudo-polynomial star solver.

The count-matrix solver budgets how many taxa of each (rescue length,
deadline) bucket may be selected and reuses the budget-DP engine; a root
matrix is admissible when the lengths-weighted column prefixes fit the
per-class hours, and the root table holds the value of every matrix.  With
few distinct lengths and deadlines this is polynomial for fixed shape.

On stars the problem decomposes per deadline class into 0/1 knapsacks
(weight = rescue length, profit = leaf edge weight) chained by a max-plus
convolution over capacity, clamping the running capacity at each class to
that class's available hours.  Three knapsack table indexings (by capacity,
by profit, by tolerated profit loss) are interchangeable; all are provided
and must induce identical decisions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .budget_dp import STATE_GUARD, _BudgetDP
from .errors import BoundTooLarge, NotAStar, RescuePDError, StateSpaceTooLarge
from .feasibility import build_collaborative_schedule, verify_schedule
from .model import (STRICT, DerivedIndex, Instance, build_derived_index, canon,
                    capped_product, pd_of_subset)
from .outcome import SolveOutcome, trivial_outcome

INF = 2**62
NEG = -(2**62)

BOUND_GUARD = 1_000_000

BY_CAPACITY = "by-capacity"
BY_PROFIT = "by-profit"
BY_LOSS = "by-loss"
KERNEL_MODES = (BY_CAPACITY, BY_PROFIT, BY_LOSS)


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

    def admissible_root_budgets(self):
        """Count matrices whose length-weighted column prefixes fit the hours."""
        idx = self.idx
        class_of_deadline = {ex: k for k, ex in enumerate(idx.ex_values)}
        bucket_class = [class_of_deadline[deadline]
                        for _, deadline in self.bucket_keys]
        for combo in itertools.product(*[range(c + 1) for c in self.counts]):
            ok = True
            for k in range(idx.n_classes):
                used = sum(cnt * length
                           for cnt, (length, _), bc in
                           zip(combo, self.bucket_keys, bucket_class)
                           if bc <= k)
                if used > idx.hours[k]:
                    ok = False
                    break
            if ok:
                yield combo

    def root_budget(self):
        return self.counts

    def leaf_rests(self, x, grid):
        k = self.bucket_of[x]
        share = tuple(1 if i == k else 0 for i in range(len(self.counts)))
        return self.share_rests(grid, [(share, None)])

    def best_root(self):
        """The first admissible matrix of the best value, in product order."""
        root = self.tree.root
        strides = self.grids[root].strides.tolist()
        best, best_b = -1, None     # below zero: nothing savable
        for budget in self.admissible_root_budgets():
            b = sum(c * s for c, s in zip(budget, strides))
            val = int(self.tables[root][-1][b])
            if val > best:
                best, best_b = val, b
        return best, best_b


def solve_time_pd_xp(instance: Instance, guard: int = STATE_GUARD) -> SolveOutcome:
    """Collaborative solver over (length, deadline) bucket count matrices."""
    return _CountMatrixDP(instance, guard).solve()


# --------------------------------------------------------------------------
# knapsack kernels


@dataclass(frozen=True)
class KnapsackKernelResult:
    """One 0/1-knapsack table in the requested indexing.

    by-capacity: table[c] = max profit with total weight <= c.
    by-profit:   table[p] = min weight with total profit >= p (INF if none).
    by-loss:     table[l] = max weight with total profit <= l.
    """

    mode: str
    bound: int
    table: tuple
    total_weight: int
    total_profit: int


def knapsack_kernel(items, mode: str, bound: int,
                    guard: int = BOUND_GUARD) -> KnapsackKernelResult:
    """Dense 0/1 knapsack in one of three indexings."""
    if mode not in KERNEL_MODES:
        raise RescuePDError(f"unknown kernel mode {mode!r}")
    if bound < 0 or bound > guard:
        raise BoundTooLarge(f"kernel bound {bound} outside [0, {guard}]")
    for w, p in items:
        if w < 0 or p < 0:
            raise RescuePDError("weights and profits must be nonnegative")
    total_w = sum(w for w, _ in items)
    total_p = sum(p for _, p in items)
    if mode == BY_CAPACITY:
        table = [0] * (bound + 1)
        for w, p in items:
            for c in range(bound, w - 1, -1):
                cand = table[c - w] + p
                if cand > table[c]:
                    table[c] = cand
    elif mode == BY_PROFIT:
        exact = [INF] * (total_p + 1)
        exact[0] = 0
        for w, p in items:
            for q in range(total_p, p - 1, -1):
                if exact[q - p] < INF and exact[q - p] + w < exact[q]:
                    exact[q] = exact[q - p] + w
        suffix = [INF] * (total_p + 2)
        for q in range(total_p, -1, -1):
            suffix[q] = min(exact[q], suffix[q + 1])
        table = [suffix[p] if p <= total_p else INF for p in range(bound + 1)]
    else:
        exact = [NEG] * (total_p + 1)
        exact[0] = 0
        for w, p in items:
            for q in range(total_p, p - 1, -1):
                if exact[q - p] > NEG and exact[q - p] + w > exact[q]:
                    exact[q] = exact[q - p] + w
        table = []
        run = NEG
        for l in range(bound + 1):
            if l <= total_p and exact[l] > run:
                run = exact[l]
            table.append(run)
    return KnapsackKernelResult(mode, bound, tuple(table), total_w, total_p)


def _profile_from_kernel(items, mode: str, capacity: int) -> list[int]:
    """Max profit per capacity in [0, capacity], derived from any indexing."""
    total_p = sum(p for _, p in items)
    total_w = sum(w for w, _ in items)
    if mode == BY_CAPACITY:
        return list(knapsack_kernel(items, mode, capacity).table)
    if mode == BY_PROFIT:
        table = knapsack_kernel(items, mode, total_p).table
        profile = []
        p = total_p
        for c in range(capacity + 1):
            best = 0
            for q in range(total_p, -1, -1):
                if table[q] <= c:
                    best = q
                    break
            profile.append(best)
        return profile
    table = knapsack_kernel(items, BY_LOSS, total_p).table
    profile = []
    for c in range(capacity + 1):
        needed = total_w - c
        if needed <= 0:
            profile.append(total_p)
            continue
        best = 0
        for l in range(total_p + 1):
            if table[l] >= needed:
                best = total_p - l
                break
        profile.append(best)
    return profile


def star_cells(idx: DerivedIndex) -> int:
    """Table cells of the star solver: the knapsack bound hours[-1] plus
    hours[k-1] * hours[k] for each max-plus step of the class chain."""
    hours = idx.hours
    return hours[-1] + sum(a * b for a, b in zip(hours, hours[1:]))


def solve_star(instance: Instance, kernel_mode: str = BY_CAPACITY) -> SolveOutcome:
    """Pseudo-polynomial collaborative solver for star trees.

    Per-class knapsacks chained by max-plus convolution over capacity; the
    running capacity after class k is clamped to that class's hours, which
    is exactly the prefix feasibility condition.
    """
    tree = instance.tree
    if not tree.is_star():
        raise NotAStar("the star solver needs all leaves directly under the root")
    if instance.mode == STRICT:
        raise RescuePDError("the star solver handles collaborative mode only")
    idx = build_derived_index(instance)
    out = trivial_outcome(idx, "star")
    if out is not None:
        return out
    cells = star_cells(idx)
    if cells > BOUND_GUARD:
        raise BoundTooLarge(f"{cells} star table cells exceed the guard {BOUND_GUARD}")
    class_items = [[(instance.length(x), tree.weight[x]) for x in members]
                   for members in idx.classes]
    profiles = [_profile_from_kernel(items, kernel_mode, idx.hours[k])
                for k, items in enumerate(class_items)]
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
        return SolveOutcome(False, "star", value=max(0, value),
                            diagnostics={"kernel": kernel_mode})
    saved = _star_witness(instance, idx, class_items, profiles, tables)
    sched = build_collaborative_schedule(idx, saved)
    report = verify_schedule(instance, sched)
    if not report.ok or pd_of_subset(tree, saved) < instance.target:  # pragma: no cover
        raise RescuePDError("star witness failed verification")
    return SolveOutcome(True, "star", saved=saved, schedule=sched,
                        value=pd_of_subset(tree, saved),
                        diagnostics={"kernel": kernel_mode})


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
    rows = [[0] * (capacity + 1)]
    for w, p in items:
        prev = rows[-1]
        row = prev[:]
        for c in range(capacity, w - 1, -1):
            cand = prev[c - w] + p
            if cand > row[c]:
                row[c] = cand
        rows.append(row)
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
