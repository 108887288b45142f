"""Tree dynamic programs over person-hour budget vectors.

Four exact solvers share one engine.  A budget is a vector of counts, one
coordinate per resource.  For each vertex v and each budget B in v's grid,
0 <= B <= min(root budget, what v's subtree can use), numbered mixed-radix
little-endian, v's table holds the best diversity of a rescue in v's
subtree that saves some taxon below v within B; below zero, none exists.

Tables are filled bottom-up.  The children u of v are merged in source
order through prefix tables over v's grid,

    P_i(B) = max(P_{i-1}(B), max_{S <= B} max(0, P_{i-1}(B - S)) + V_u(S) + w_u),

with P_0 nowhere feasible and V_v the last one.  The first child, if
internal, is one gather V_u(min(B, cap_u)) + w_u, values growing with the
budget; a later internal child is a max-plus convolution over the (B, S)
pairs, PAIR_CELLS per numpy pass; a leaf is one gather of B - S per share
it may take.  How a child grid's budgets map onto its parent's is worked
out once per pair of grids in a call.  A flavor states its mode, its
admission cost as ``cost(pricing(idx), limit)`` (the vectors that its
``driver.ADMISSION`` row prices, and the guard bounds; the engine derives
the pricing inputs once and the flavor builds its budgets from them), its
root budget, its per-vertex caps, and a leaf rule only where a leaf's one
share is not its cap vector: team counts per working slot, taken latest
slot first up to the deadline, and one 0/1 coordinate per (slot, team)
pair where the team works, a leaf taking one team for consecutive slots
ending by its deadline (by start, then team).  Hour budgets per deadline
class and the bucket counts of ``structured.solve_time_pd_xp`` spend the
cap vector.  The engine takes the request's index from
``build_derived_index``, which returns the one already built for the same
instance object, so a request that routes, runs the oracle and runs
several flavors on one instance derives it once.

The witness reads the tables back from the root in top-down search order:
per child, shares S in grid order, each first alone and then joined to the
earlier children's rescue, and last the choice to skip the child.  Entries are int64, or Python ints once the total
weight reaches 2^62.  ``diagnostics["states"]`` counts the cells of P_1, P_2, ...
"""

from __future__ import annotations

import bisect
import functools
import operator

import numpy as np

from .errors import RescuePDError, StateSpaceTooLarge
from .feasibility import (Schedule, build_collaborative_schedule,
                          schedule_team_parts)
from .model import (COLLABORATIVE, STRICT, DerivedIndex, Instance,
                    build_derived_index, canon, capped_product, check_size)
from .outcome import SolveOutcome, check_mode, checked_yes, trivial_outcome

STATE_GUARD = 10_000_000

PAIR_CELLS = 2**20  # (budget, share) pairs per numpy pass of a child merge


def _work_runs(idx: DerivedIndex) -> list:
    """(first slot, last slot, teams at work) of each run of working slots
    up to the last deadline, in slot order: a run lies between two
    consecutive window endpoints, and idle slots are in none."""
    horizon = idx.max_ex
    events = []
    for t in idx.instance.teams:
        if t.start < horizon:
            events.append((t.start, 1))
            events.append((t.end if t.end < horizon else horizon, -1))
    events.sort()
    runs, at_work, prev = [], 0, 0
    for point, step in events:
        if at_work and point > prev:
            runs.append((prev + 1, point, at_work))
        prev = point
        at_work += step
    return runs


def team_vectors(idx: DerivedIndex, limit: int) -> int:
    """Root budget vectors of the team-count DP: the product over its
    working slots of (teams at work + 1), priced per ``_work_runs`` run so
    that the cost does not grow with window length."""
    return _run_vectors(_work_runs(idx), limit)


def _run_vectors(runs, limit: int) -> int:
    """team_vectors from the instance's ``_work_runs``."""
    bits = limit.bit_length()
    factors = []
    for first, last, at_work in runs:
        run = last - first + 1
        factors.append((at_work + 1) ** (run if run < bits else bits))
    return capped_product(factors, limit)


def hour_vectors(idx: DerivedIndex, limit: int) -> int:
    """Root budget vectors of the hour-budget DP: prod of (prefix hours + 1)."""
    return capped_product([h + 1 for h in idx.hours], limit)


def subset_vectors(idx: DerivedIndex, limit: int) -> int:
    """Budget vectors of the team-subset DP: 2^(|T| * last deadline)."""
    exponent = len(idx.instance.teams) * idx.max_ex
    return 2 ** exponent if exponent < limit.bit_length() else limit + 1


class _Grid:
    """The budgets 0 <= B <= caps of one vertex, in mixed-radix little-endian
    order.  ``codes`` packs each B into bit fields with a guard bit above
    each field, so that (codes[B] - packed S) & guard == guard exactly when
    S <= B coordinatewise.  A grid lives for one solver call, and keeps how
    the budgets of each child grid it met map onto its own."""

    def __init__(self, caps):
        self.caps = caps
        strides, step, fields, shift, guard = [], 1, [], 0, 0
        for c in caps:
            strides.append(step)
            step *= c + 1
            bits = c.bit_length()
            fields.append(1 << shift if bits else 0)
            if bits:
                guard |= 1 << (shift + bits)
                shift += bits + 1
        if shift > 62:
            raise StateSpaceTooLarge(f"a {step}-vector budget grid needs "
                                     f"{shift} code bits, over 62")
        self.size, self.guard = step, guard
        self.stride_list, self.field_list = strides, fields
        self.index = np.arange(step)
        self.strides = np.array(strides, dtype=np.int64)
        self.fields = np.array(fields, dtype=np.int64)
        radices = np.array([c + 1 for c in caps], dtype=np.int64)
        self.digits = self.index // self.strides[:, None] % radices[:, None]
        self.codes = self.fields @ self.digits | guard
        self.links = {}

    @functools.cached_property
    def suffix(self):
        sums = np.zeros((len(self.caps) + 1, self.size), dtype=np.int64)
        np.cumsum(self.digits[::-1], axis=0, out=sums[-2::-1])
        return sums

    def rests(self, packed, offsets, b):
        """Index of b - S for every share (packed, offset) that fits in
        budget b, and self.size where it does not."""
        fits = (self.codes[b] - packed) & self.guard == self.guard
        return np.where(fits, self.index[b] - offsets, self.size)

    def link(self, sub, first):
        """How the budgets of child grid sub meet this grid's: for a first
        child, the index in sub of min(B, sub's caps) per budget B here;
        else each budget of sub as a share here, (packed, offset)."""
        got = self.links.get((sub, first))
        if got is None:
            if first:
                got = sub.strides @ np.minimum(
                    self.digits, np.array(sub.caps, dtype=np.int64)[:, None])
            else:
                got = self.fields @ sub.digits, self.strides @ sub.digits
            self.links[sub, first] = got
        return got


class _BudgetDP:
    """The engine.  A flavor states its mode, ``pricing`` and ``cost`` (what
    its admission row prices, checked against the guard), root budget,
    per-vertex caps (``self.caps``) and, if a leaf's share is not its cap
    vector, leaf rule."""

    algorithm = "budget"
    mode = COLLABORATIVE
    # the admission cost is cost(pricing(idx), limit); the engine derives
    # the pricing inputs once and keeps them as self.priced
    pricing = staticmethod(lambda idx: idx)
    cost = None

    def __init__(self, instance: Instance, guard: int = STATE_GUARD):
        check_size(guard, "the guard")
        check_mode(instance, self.mode, self.algorithm)
        self.instance = instance
        self.idx = build_derived_index(instance)
        self.priced = self.pricing(self.idx)
        if self.cost(self.priced, guard) > guard:
            raise StateSpaceTooLarge(
                f"{self.algorithm} budget vectors exceed the guard {guard}")
        self.tree = instance.tree
        self.postorder = self.tree.preorder()[::-1]

    def root_budget(self):
        raise NotImplementedError

    def leaf_rests(self, x, grid):
        """Per way to save leaf x within a budget of the grid, in the leaf
        rule's order: (rest-budget index per budget, grid.size where the
        budget cannot pay, detail); by default, spending its cap vector."""
        return self.share_rests(grid, [(self.caps[x], None)])

    def share_rests(self, grid, shares):
        """leaf_rests for shares that do not depend on the budget."""
        out = []
        for share, detail in shares:
            if all(map(operator.le, share, grid.caps)):
                packed = sum(map(operator.mul, grid.field_list, share))
                offset = sum(map(operator.mul, grid.stride_list, share))
                out.append((grid.rests(packed, offset, slice(None)), detail))
        return out

    def subtree_sums(self, leaf_vector):
        """Per vertex, the elementwise sum over its leaves x of
        leaf_vector(x's length, x's deadline)."""
        sums, length, deadline = {}, self.instance.length, self.instance.deadline
        for v in self.postorder:
            cs = self.tree.children.get(v, ())
            sums[v] = (tuple(map(sum, zip(*[sums[c] for c in cs]))) if cs
                       else tuple(leaf_vector(length(v), deadline(v))))
        return sums

    # engine -------------------------------------------------------------
    def fill(self):
        """Every internal vertex's grid and prefix tables, bottom-up; the
        merge step of each child is kept for the witness."""
        tree, root = self.tree, self.root_budget()
        self.dtype = np.int64 if self.idx.pd_total < 2**62 else object
        self.neg = -1 - self.idx.pd_total
        self.grids, self.tables, self.steps = {}, {}, {}
        by_caps = {}
        for v in self.postorder:
            cs = tree.children.get(v, ())
            if not cs:
                continue
            caps = tuple(map(min, root, self.caps[v]))
            if caps not in by_caps:     # the grid and its P_0, never written
                g = _Grid(caps)
                by_caps[caps] = g, np.full(g.size, self.neg, self.dtype)
            g, table = by_caps[caps]
            self.grids[v] = g
            prefix = self.tables[v] = [table]
            for i, u in enumerate(cs):
                w = tree.weight[u]
                if not tree.children.get(u):
                    step = self.leaf_rests(u, g)
                    table = self._leaf_merge(g, step, w, table)
                elif i == 0:
                    step = g.link(self.grids[u], True)
                    table = self.tables[u][-1][step] + w
                else:
                    step = g.link(self.grids[u], False)
                    table = self._merge(g, step, self.tables[u][-1] + w, table)
                self.steps[v, i] = step
                prefix.append(table)

    def _head(self, table):
        """max(0, table) with one more cell, the unreachable budget."""
        head = np.empty(len(table) + 1, self.dtype)
        np.maximum(table, 0, out=head[:-1])
        head[-1] = self.neg
        return head

    def _leaf_merge(self, g, step, w, table):
        """The prefix table after a leaf child: max(table(B), max(0,
        table(B - S)) + w) over the leaf's shares S <= B."""
        if not step:        # the leaf fits no budget here
            return table
        head, out = self._head(table), table
        for rest, _ in step:
            out = np.maximum(out, head[rest] + w)
        return out

    def _merge(self, g, pairs, sub, table):
        """The prefix table after an internal child whose table plus edge
        weight is sub: max(table(B), max(0, table(B - S)) + sub(S)) over the
        shares S <= B, PAIR_CELLS pairs per pass."""
        packed, offsets = pairs
        head, out = self._head(table), table.copy()
        rows = max(1, PAIR_CELLS // len(sub))
        for lo in range(0, g.size, rows):
            b = slice(lo, lo + rows)
            cand = head[g.rests(packed, offsets[None, :], (b, None))]
            cand += sub
            np.maximum(out[b], cand.max(axis=1), out=out[b])
        return out

    # witness --------------------------------------------------------------
    def collect(self, v, b):
        """Saved leaves (and each leaf's detail) of the rescue that attains
        V_v at budget index b."""
        tree, saved, details = self.tree, [], {}
        stack = [(v, len(tree.children[v]), b)]
        while stack:
            v, i, b = stack.pop()
            u = tree.children[v][i - 1]
            step, leaf = self.steps[v, i - 1], not tree.children.get(u)
            if i == 1 and not leaf:
                stack.append((u, len(tree.children[u]), int(step[b])))
                continue
            g, prefix, w = self.grids[v], self.tables[v], tree.weight[u]
            target, before = prefix[i][b], prefix[i - 1]
            # shares in order, each first alone (b1 = 0), then joined to the
            # earlier children's rescue (b1 = 1); else u is skipped
            hit = None
            if leaf:
                for s, (rest, _) in enumerate(step):
                    r = rest[b]
                    if r < g.size and (w == target or
                                       before[r] >= 0 and before[r] + w == target):
                        hit = s, r, w == target
                        break
            else:
                packed, offsets = step
                sub = self.tables[u][-1]
                ok = np.flatnonzero(((g.codes[b] - packed) & g.guard == g.guard)
                                    & (sub >= 0))
                value, rest = sub[ok] + w, b - offsets[ok]
                head = before[rest]
                alone = value == target
                hits = np.flatnonzero(alone | (head >= 0) & (head + value == target))
                if hits.size:
                    k = hits[0]
                    hit = int(ok[k]), rest[k], alone[k]
            if hit is None:
                if before[b] != target:
                    raise RescuePDError("budget DP witness backtrack failed")
                stack.append((v, i - 1, b))
                continue
            s, r, alone = hit
            if leaf:
                saved.append(u)
                details[u] = step[s][1]
            else:
                stack.append((u, len(tree.children[u]), s))
            if not alone:
                stack.append((v, i - 1, int(r)))
        return saved, details

    # entry point ----------------------------------------------------------
    def solve(self) -> SolveOutcome:
        instance, idx = self.instance, self.idx
        out = trivial_outcome(idx, self.algorithm)
        if out is not None:
            return out
        self.fill()
        best, b = self.best_root()
        states = sum(len(t) for prefix in self.tables.values() for t in prefix[1:])
        if best < instance.target:
            return SolveOutcome(False, self.algorithm, value=max(best, 0),
                                diagnostics={"states": states})
        saved, details = self.collect(self.tree.root, b)
        saved = canon(saved)
        return checked_yes(idx, self.algorithm, saved,
                           self.witness_schedule(saved, details),
                           diagnostics={"states": states})

    def best_root(self):
        """(value, budget index) of the root entry that answers: the whole
        root budget."""
        b = self.grids[self.tree.root].size - 1
        return int(self.tables[self.tree.root][-1][b]), b

    def witness_schedule(self, saved, details) -> Schedule:
        return build_collaborative_schedule(self.idx, saved)


class _TeamCountDP(_BudgetDP):
    """Budgets = available team count per working slot (collaborative): a
    slot up to the last deadline where some team works.  The slots and
    counts expand the ``_work_runs`` that team_vectors prices, so the root
    budgets are the team_vectors."""

    algorithm = "hours-teams"
    pricing = staticmethod(_work_runs)
    cost = staticmethod(_run_vectors)

    def __init__(self, instance, guard=STATE_GUARD):
        super().__init__(instance, guard)
        # every working slot doubles the vectors, so the guard bounds them
        runs = self.priced
        self.slots = [j for first, last, _ in runs for j in range(first, last + 1)]
        self.counts = tuple(n for first, last, n in runs for _ in range(first, last + 1))
        # per-vertex per-slot cap: hours usable at the slot by the subtree
        self.caps = self.subtree_sums(
            lambda need, due: [need if due >= j else 0 for j in self.slots])

    def root_budget(self):
        return self.counts

    def leaf_rests(self, x, grid):
        """Latest slots first: slot j < due gives min(B_j, max(0, need -
        (B_{j+1} + ... + B_{due-1}))), due the slots up to the deadline."""
        due = bisect.bisect_right(self.slots, self.instance.deadline(x))
        need = self.instance.length(x)
        if need > sum(grid.caps[:due]):
            return []
        suffix = grid.suffix                 # suffix[j] = B_j + B_{j+1} + ...
        base = suffix[due] + need
        taken = np.minimum(np.maximum(base - suffix[1:due + 1], 0), grid.digits[:due])
        rest = grid.index - grid.strides[:due] @ taken
        return [(np.where(suffix[0] >= base, rest, grid.size), None)]


class _HourBudgetDP(_BudgetDP):
    """Budgets = person-hours per deadline class prefix (collaborative)."""

    algorithm = "hours-budget"
    cost = staticmethod(hour_vectors)

    def __init__(self, instance, guard=STATE_GUARD):
        super().__init__(instance, guard)
        # per-vertex per-class cap: total length of subtree taxa due by class
        self.caps = self.subtree_sums(
            lambda need, due: [need if ex >= due else 0 for ex in self.idx.ex_values])

    def root_budget(self):
        return tuple(self.idx.hours)


class _TeamSubsetDP(_BudgetDP):
    """Budgets = team subset per timeslot (strict), one 0/1 coordinate per
    (slot, team) pair where the team works, slots first."""

    algorithm = "hours-subsets"
    mode = STRICT
    cost = staticmethod(subset_vectors)

    def __init__(self, instance, guard=STATE_GUARD):
        super().__init__(instance, guard)
        self.horizon = self.idx.max_ex
        self.n_teams = len(instance.teams)
        self.pairs = [(j, i) for j in range(self.horizon)
                      for i, t in enumerate(instance.teams) if t.start <= j < t.end]
        self.coordinate = {pair: n for n, pair in enumerate(self.pairs)}
        # per-vertex per-pair count of subtree taxa due after the slot
        self.caps = self.subtree_sums(
            lambda need, due: [int(j < due) for j, _ in self.pairs])

    def root_budget(self):
        return (1,) * len(self.pairs)

    def leaf_rests(self, x, grid):
        need = self.instance.length(x)
        deadline = min(self.instance.deadline(x), self.horizon)
        shares = []
        for start in range(deadline - need + 1):
            for i in range(self.n_teams):
                run = [self.coordinate.get((j, i)) for j in range(start, start + need)]
                if None not in run:
                    share = [0] * len(self.pairs)
                    for n in run:
                        share[n] = 1
                    shares.append((share, i))
        return self.share_rests(grid, shares)

    def witness_schedule(self, saved, details) -> Schedule:
        parts = [[] for _ in range(self.n_teams)]
        for x in saved:
            parts[details[x]].append(x)
        return schedule_team_parts(self.instance, parts)


def solve_time_pd_team_vectors(instance: Instance, guard: int = STATE_GUARD) -> SolveOutcome:
    """Collaborative solver over per-timeslot team counts."""
    return _TeamCountDP(instance, guard).solve()


def solve_time_pd_hour_vectors(instance: Instance, guard: int = STATE_GUARD) -> SolveOutcome:
    """Collaborative solver over per-deadline-class hour budgets."""
    return _HourBudgetDP(instance, guard).solve()


def solve_s_time_pd_team_subsets(instance: Instance, guard: int = STATE_GUARD) -> SolveOutcome:
    """Strict solver over per-timeslot team subsets."""
    return _TeamSubsetDP(instance, guard).solve()
