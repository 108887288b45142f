"""Tree dynamic programs over person-hour budget vectors.

Three exact solvers sharing one skeleton: walk the tree bottom-up, tracking
for each vertex and each remaining budget the best diversity achievable in
that subtree, with a flag b telling whether at least one taxon below is
saved (only then does the vertex's own edge count toward an ancestor).
Children consume disjoint shares of the budget; shares are enumerated child
by child through an auxiliary prefix table.

Budget flavors:

* team counts per timeslot (collaborative) - a leaf is savable when the
  slots up to its deadline carry enough team-hours in total;
* hour budgets per deadline class (collaborative) - a leaf consumes its
  rescue length from every class at or after its own;
* team subsets per timeslot (strict) - a leaf needs one team granted for
  enough consecutive slots ending by its deadline.

Budgets are canonicalized against what a subtree can actually use, which
keeps the memoized state space near the reachable minimum.  Splits are
enumerated in mixed-radix little-endian order for determinism.
"""

from __future__ import annotations

import bisect
import itertools

from .errors import RescuePDError, StateSpaceTooLarge
from .feasibility import Schedule, build_collaborative_schedule, verify_schedule
from .model import (STRICT, DerivedIndex, Instance, build_derived_index, canon,
                    capped_product, pd_of_subset)
from .outcome import SolveOutcome, trivial_outcome

NEG = -(2**62)

STATE_GUARD = 10_000_000


def team_vectors(idx: DerivedIndex, limit: int) -> int:
    """Root budget vectors of the team-count DP: the product over slots up to
    the last deadline of (teams at work + 1), taken per run of slots between
    window endpoints so that the cost does not grow with window length."""
    horizon = idx.max_ex
    events = []
    for t in idx.instance.teams:
        if t.start < horizon:
            events.append((t.start, 1))
            events.append((t.end if t.end < horizon else horizon, -1))
    events.sort()
    bits = limit.bit_length()
    factors, at_work, prev = [], 0, 0
    for point, step in events:
        if at_work and point > prev:
            run = point - prev
            factors.append((at_work + 1) ** (run if run < bits else bits))
        prev = point
        at_work += step
    return capped_product(factors, limit)


def hour_vectors(idx: DerivedIndex, limit: int) -> int:
    """Root budget vectors of the hour-budget DP: prod of (prefix hours + 1)."""
    return capped_product([h + 1 for h in idx.hours], limit)


def subset_vectors(idx: DerivedIndex, limit: int) -> int:
    """Budget vectors of the team-subset DP: 2^(|T| * last deadline)."""
    exponent = len(idx.instance.teams) * idx.max_ex
    return 2 ** exponent if exponent < limit.bit_length() else limit + 1


class _BudgetDP:
    """Shared engine; subclasses define the budget algebra and leaf rule.

    Budgets are count vectors unless a subclass overrides subtract and
    child_shares.
    """

    algorithm = "budget"

    def __init__(self, instance: Instance):
        self.instance = instance
        self.idx = build_derived_index(instance)
        self.tree = instance.tree
        self.memo = {}
        self.pmemo = {}

    # budget algebra -----------------------------------------------------
    def root_budget(self):
        raise NotImplementedError

    def canon_budget(self, v, budget):
        raise NotImplementedError

    def leaf_options(self, x, budget):
        """Yield (consumed share, leaf detail) for ways to save leaf x."""
        raise NotImplementedError

    def subtract(self, budget, share):
        return tuple(a - d for a, d in zip(budget, share))

    def child_shares(self, budget):
        """Every share a child may take, mixed-radix little-endian order."""
        return [tuple(reversed(s)) for s in
                itertools.product(*[range(a + 1) for a in reversed(budget)])]

    def subtree_sums(self, leaf_vector):
        """Per vertex, the elementwise sum of leaf_vector(x) over its leaves."""
        sums = {}
        for v in reversed(self.tree.preorder()):
            cs = self.tree.children.get(v, ())
            sums[v] = (tuple(map(sum, zip(*[sums[c] for c in cs]))) if cs
                       else tuple(leaf_vector(v)))
        return sums

    # engine -------------------------------------------------------------
    def value(self, v, budget, b):
        if b == 0:
            return 0
        budget = self.canon_budget(v, budget)
        key = (v, budget)
        got = self.memo.get(key)
        if got is not None:
            return got
        cs = self.tree.children.get(v, ())
        if not cs:
            best = NEG
            for share, _ in self.leaf_options(v, budget):
                best = 0
                break
            self.memo[key] = best
            return best
        best = self.prefix_value(v, len(cs), budget, 1)
        self.memo[key] = best
        return best

    def prefix_value(self, v, i, budget, b):
        """Best over the first i children of v."""
        cs = self.tree.children[v]
        u = cs[i - 1]
        w = self.tree.weight[u]
        if i == 1:
            sub = self.value(u, budget, b)
            return sub + w * b if sub > NEG else (0 if b == 0 else NEG)
        if b == 0:
            return 0
        budget = self.canon_budget(v, budget)
        key = (v, i, budget)
        got = self.pmemo.get(key)
        if got is not None:
            return got
        best = NEG
        if self.tree.children.get(u):
            shares = self.child_shares(budget)
        else:
            shares = [share for share, _ in self.leaf_options(u, budget)]
        # b2 = 1 with every share the child can use
        for share in shares:
            sub = self.value(u, self.canon_budget(u, share), 1)
            if sub <= NEG:
                continue
            rest = self.subtract(budget, share)
            for b1 in (0, 1):
                head = self.prefix_value(v, i - 1, rest, b1)
                if head <= NEG:
                    continue
                cand = head + sub + w
                if cand > best:
                    best = cand
        # b2 = 0: child gets nothing
        head = self.prefix_value(v, i - 1, budget, 1)
        if head > best:
            best = head
        self.pmemo[key] = best
        return best

    # witness --------------------------------------------------------------
    def collect(self, v, budget, b, saved, details):
        if b == 0:
            return
        budget = self.canon_budget(v, budget)
        cs = self.tree.children.get(v, ())
        if not cs:
            for share, detail in self.leaf_options(v, budget):
                saved.append(v)
                details[v] = detail
                return
            raise RescuePDError("collect reached an unsavable leaf")
        self.collect_prefix(v, len(cs), budget, 1, saved, details)

    def collect_prefix(self, v, i, budget, b, saved, details):
        target = self.prefix_value(v, i, budget, b)
        cs = self.tree.children[v]
        u = cs[i - 1]
        w = self.tree.weight[u]
        if i == 1:
            if b == 1:
                self.collect(u, budget, 1, saved, details)
            return
        if b == 0:
            return
        budget = self.canon_budget(v, budget)
        if self.tree.children.get(u):
            shares = self.child_shares(budget)
        else:
            shares = [share for share, _ in self.leaf_options(u, budget)]
        for share in shares:
            sub = self.value(u, self.canon_budget(u, share), 1)
            if sub <= NEG:
                continue
            rest = self.subtract(budget, share)
            for b1 in (0, 1):
                head = self.prefix_value(v, i - 1, rest, b1)
                if head > NEG and head + sub + w == target:
                    self.collect(u, share, 1, saved, details)
                    self.collect_prefix(v, i - 1, rest, b1, saved, details)
                    return
        if self.prefix_value(v, i - 1, budget, 1) == target:
            self.collect_prefix(v, i - 1, budget, 1, saved, details)
            return
        raise RescuePDError("budget DP witness backtrack failed")

    # entry point ----------------------------------------------------------
    def solve(self) -> SolveOutcome:
        instance, idx = self.instance, self.idx
        out = trivial_outcome(idx, self.algorithm)
        if out is not None:
            return out
        root_budget = self.root_budget()
        best = self.value(self.tree.root, root_budget, 1)
        decision = best > NEG and best >= instance.target
        if not decision:
            return SolveOutcome(False, self.algorithm,
                                value=best if best > NEG else 0,
                                diagnostics={"states": len(self.memo)})
        saved, details = [], {}
        self.collect(self.tree.root, root_budget, 1, saved, details)
        saved = canon(saved)
        sched = self.witness_schedule(saved, details)
        report = verify_schedule(instance, sched)
        if not report.ok or pd_of_subset(self.tree, saved) < instance.target:
            raise RescuePDError("budget DP witness failed verification")
        return SolveOutcome(True, self.algorithm, saved=saved, schedule=sched,
                            value=pd_of_subset(self.tree, saved),
                            diagnostics={"states": len(self.memo)})

    def witness_schedule(self, saved, details) -> Schedule:
        return build_collaborative_schedule(self.idx, saved)


class _TeamCountDP(_BudgetDP):
    """Budgets = available team count per working slot (collaborative): a
    slot up to the last deadline where some team works.  Idle slots carry no
    budget and are left out, so the root budgets are the team_vectors."""

    algorithm = "hours-teams"

    def __init__(self, instance, guard=STATE_GUARD):
        super().__init__(instance)
        if team_vectors(self.idx, guard) > guard:
            raise StateSpaceTooLarge(
                f"team-count budget vectors exceed the guard {guard}")
        # every working slot doubles the vectors, so the guard bounds them
        counts = {}
        for t in instance.teams:
            for j in range(t.start + 1, min(t.end, self.idx.max_ex) + 1):
                counts[j] = counts.get(j, 0) + 1
        self.slots = sorted(counts)
        self.counts = tuple(counts[j] for j in self.slots)
        # per-vertex per-slot cap: hours usable at the slot by the subtree
        self.slot_caps = self.subtree_sums(
            lambda x: [instance.length(x) if instance.deadline(x) >= j else 0
                       for j in self.slots])

    def root_budget(self):
        return self.counts

    def canon_budget(self, v, budget):
        caps = self.slot_caps[v]
        return tuple(min(a, c) for a, c in zip(budget, caps))

    def leaf_options(self, x, budget):
        deadline = bisect.bisect_right(self.slots, self.instance.deadline(x))
        need = self.instance.length(x)
        if sum(budget[:deadline]) < need:
            return
        share = [0] * len(self.slots)
        for j in range(deadline - 1, -1, -1):   # latest slots first
            take = min(budget[j], need)
            share[j] = take
            need -= take
            if need == 0:
                break
        yield tuple(share), tuple(share)


class _HourBudgetDP(_BudgetDP):
    """Budgets = person-hours per deadline class prefix (collaborative)."""

    algorithm = "hours-budget"

    def __init__(self, instance, guard=STATE_GUARD):
        super().__init__(instance)
        if hour_vectors(self.idx, guard) > guard:
            raise StateSpaceTooLarge(f"hour-budget vectors exceed the guard {guard}")
        # per-vertex per-class cap: total length of subtree taxa due by class
        idx = self.idx
        self.class_caps = self.subtree_sums(
            lambda x: [instance.length(x) if k >= idx.class_of[x] else 0
                       for k in range(idx.n_classes)])

    def root_budget(self):
        return tuple(self.idx.hours)

    def canon_budget(self, v, budget):
        return tuple(min(a, c) for a, c in zip(budget, self.class_caps[v]))

    def leaf_options(self, x, budget):
        k = self.idx.class_of[x]
        need = self.instance.length(x)
        if all(budget[j] >= need for j in range(k, self.idx.n_classes)):
            share = tuple(need if j >= k else 0 for j in range(self.idx.n_classes))
            yield share, share


class _TeamSubsetDP(_BudgetDP):
    """Budgets = team subset per timeslot (strict)."""

    algorithm = "hours-subsets"

    def __init__(self, instance, guard=STATE_GUARD):
        super().__init__(instance)
        self.horizon = self.idx.max_ex
        self.n_teams = len(instance.teams)
        if subset_vectors(self.idx, guard) > guard:
            raise StateSpaceTooLarge(
                f"2^(|T|*{self.horizon}) subset vectors exceed the guard {guard}")
        # per-vertex per-slot count of subtree taxa due at or after the slot
        self.slot_relevant = self.subtree_sums(
            lambda x: [j < instance.deadline(x) for j in range(self.horizon)])

    def root_budget(self):
        masks = [0] * self.horizon
        for i, t in enumerate(self.instance.teams):
            for j in range(t.start + 1, min(t.end, self.horizon) + 1):
                masks[j - 1] |= 1 << i
        return tuple(masks)

    def canon_budget(self, v, budget):
        return tuple(m if rel else 0
                     for m, rel in zip(budget, self.slot_relevant[v]))

    def leaf_options(self, x, budget):
        need = self.instance.length(x)
        deadline = min(self.instance.deadline(x), self.horizon)
        for start in range(deadline - need + 1):
            common = (1 << self.n_teams) - 1
            for j in range(start, start + need):
                common &= budget[j]
            for i in range(self.n_teams):
                if common >> i & 1:
                    share = tuple((1 << i) if start <= j < start + need else 0
                                  for j in range(self.horizon))
                    yield share, (i, start)

    def subtract(self, budget, share):
        return tuple(a & ~d for a, d in zip(budget, share))

    def child_shares(self, budget):
        subs = []
        for m in budget:
            opts = []
            s = 0
            while True:
                opts.append(s)
                if s == m:
                    break
                s = (s | ~m) + 1 & m
            subs.append(opts)
        return [tuple(reversed(s)) for s in
                itertools.product(*list(reversed(subs)))]

    def witness_schedule(self, saved, details) -> Schedule:
        assignment = {}
        for x in saved:
            team, start = details[x]
            for j in range(start + 1, start + self.instance.length(x) + 1):
                assignment[(team, j)] = x
        return Schedule(STRICT, assignment, canon(saved))


def solve_time_pd_team_vectors(instance: Instance, guard: int = STATE_GUARD) -> SolveOutcome:
    """Collaborative solver over per-timeslot team counts."""
    return _TeamCountDP(instance, guard).solve()


def solve_time_pd_hour_vectors(instance: Instance, guard: int = STATE_GUARD) -> SolveOutcome:
    """Collaborative solver over per-deadline-class hour budgets."""
    return _HourBudgetDP(instance, guard).solve()


def solve_s_time_pd_team_subsets(instance: Instance, guard: int = STATE_GUARD) -> SolveOutcome:
    """Strict solver over per-timeslot team subsets."""
    return _TeamSubsetDP(instance, guard).solve()
