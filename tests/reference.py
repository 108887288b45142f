"""Test-side oracles for the library's optimized paths.

``plain_colored_table`` is the library's first fpt-d kernel, kept unchanged:
the colored recurrence g[C] = min(g[C], g[C & ~m] + ell) on one coloring in
plain Python, with a set of improved cells per taxon.
``plain_colored_parts`` runs it against each capacity row, merges the
teams with ``cover_product_direct`` and reads the parts back, the oracle of
the one-row kernels ``solve_colored_time_pd`` / ``solve_colored_s_time_pd``
(``plain_colored_time_pd`` / ``plain_colored_s_time_pd``) and of the batched
table's decisions.  ``solve_by_target_trial_by_trial`` is the fpt-d trial
loop that decides one coloring per trial with that plain kernel, in trial
order, and stops at the first success.  The library's batched loop must
return the same outcome, field for field.  ``solve_by_loss_trial_by_trial`` is the fpt-dbar loop
with one generator and one plain-Python table per trial, the oracle of the
loss solver's block draws and batched tables; ``loss_coloring_from_draws``
reads one trial's coloring from its draws.  That table, ``_LossDP``, is the
library's first loss table, kept unchanged: a dict over (path colors,
sibling colors, class) filled one c1 at a time, with the scan of
``accept`` and the backtrack of ``extract`` that fix the witness.
``reference_loss_dp_solve`` runs it on one coloring, the oracle of
``loss_dp_solve``.  ``candidate_tuples`` is the library's first candidate
rule, tuple by tuple in plain Python (eligible path, pairwise distinct path
colors by ``path_has_unique_colors``, sibling key off the path): ``_LossDP``
and the lemma checkers read it, and it is the oracle of the batch's rule
``_LossBatch._candidates``.
``collaborative_schedule_from_pairs`` builds the greedy collaborative
schedule from the full list of (team, slot) pairs, which the library now
merges lazily from the team windows.

The budget DPs' first engine, a top-down memo keyed by budget tuples with
one recursive call per (share, b1) pair, is kept here unchanged as the
oracle of the library's dense tables: ``memo_team_vectors``,
``memo_hour_vectors``, ``memo_team_subsets`` and ``memo_xp`` must return
the library solvers' decision, value, saved set and schedule.  Only the
witness step of ``memo_team_subsets`` follows the library: it packs each
team's taxa earliest deadline first with ``schedule_team_parts``.
``brute_force_by_combinations`` is the library's first brute force, one
Python call per subset from ``itertools.combinations``, the oracle of the
block-wise numpy brute force; ``strict_table_every_bit`` is the first
subset table, which tries every taxon at every state, the oracle of
``strict_table``.
``strict_feasible_given_ordering`` is the greedy that packs the longest
prefix of an ordering onto each team in turn, and
``strict_feasible_by_orderings`` the library's first strict search, which
tries every ordering through it; they are the oracle of the strict subset
table.  ``strict_feasible_by_partition`` is a second strict-feasibility
oracle that splits a set over the teams directly, each part checked by
``single_team_feasible``.  ``exhaustive_schedule_search`` decides a set by
raw search over schedules, with no prefix condition, the independent oracle
of the feasibility tests.  ``offspring``, ``availability`` and ``prefix``
list a vertex's leaves, every (team, slot) pair and a deadline prefix.
``pd_bottom_up`` is the library's first diversity, one bottom-up walk of
the whole tree over ``fresh_preorder``, a walk from the child lists; it is
the oracle of ``pd_of_subset``, which takes the union of the members' root
paths, and of the preorder the tree stores.

``cover_product_direct`` is the 3^w submask sweep, the oracle of the
library's cover product; ``cover_product_ranked`` runs one row through the
ranked subset convolution the library uses above 256 masks.  ``printed_rule_decision`` is the strict colored
decision under the capacity rule as the paper prints it, kept for the
erratum tests.  ``knapsack_kernel`` is the star solver's knapsack for one
deadline class, in three indexings (by capacity, by profit, by tolerated
profit loss) that must induce the same profiles.

``parse_newick_recursive`` and ``to_newick_recursive`` are the library's
first Newick reader and writer, one recursive call per subtree, kept as the
oracle of the one-loop ``parse_newick`` and ``to_newick``.  They read and
write the same trees and texts, but fail on deep trees: the reader raises
``ParseError`` past Python's recursion limit, and the writer ``RecursionError``.
"""

import bisect
import itertools
import re
from dataclasses import dataclass

import numpy as np

from rescuepd.budget_dp import (STATE_GUARD, hour_vectors, subset_vectors,
                                team_vectors)
from rescuepd.color_loss import (LOSS_LIMIT, LossColoring, _masks_of_popcount,
                                 anchored_tuples, make_loss_coloring)
from rescuepd.color_target import (INF, MASK_LIMIT, _palette,
                                   _singleton_shortcut, color_edges_from_hash,
                                   trial_count)
from rescuepd.cover import _ranked_rows
from rescuepd.errors import (BoundTooLarge, DuplicateLeaf, LossTooLarge,
                             NonBinaryTree, NonIntegerWeight, ParseError,
                             RescuePDError, StateSpaceTooLarge, TargetTooLarge,
                             UnknownTaxon)
from rescuepd.feasibility import (Schedule, _pack, build_collaborative_schedule,
                                  collaborative_feasible, schedule_team_parts,
                                  strict_feasible, verify_schedule)
from rescuepd.model import (COLLABORATIVE, STRICT, DerivedIndex, Instance,
                            PhyloTree, TeamWindow, _read_back,
                            build_derived_index, canon, pd_of_subset)
from rescuepd.outcome import SolveOutcome, trivial_outcome
from rescuepd.structured import BOUND_GUARD, count_matrices

NEG = -(2**62)
MINF = -INF

# the trial stream of ``color_target.trial_draws`` on Python ints, with no numpy
GAMMA = 0x9E3779B97F4A7C15
MASK32, MASK64 = 2**32 - 1, 2**64 - 1


def splitmix(z: int) -> int:
    """SplitMix64's finalizer of a 64-bit int."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def seed_key(seed: int) -> int:
    """The seed's 64-bit words, low word first, folded into one key."""
    key = 0
    while True:
        key = splitmix(((key + GAMMA) & MASK64) ^ (seed & MASK64))
        seed >>= 64
        if not seed:
            return key


def row_key(seed: int, trial: int) -> int:
    """The key of one trial's row of draws."""
    return splitmix(seed_key(seed) ^ ((trial * GAMMA) & MASK64))


def color_at(row: int, pos: int, n_colors: int) -> int:
    """The color at position pos of a row: half pos % 2 of word pos // 2,
    mapped onto [1, n_colors] by a multiply-shift, and redrawn from counter
    + 2^32 while the low half of the product is below 2^32 mod n_colors."""
    counter = pos // 2
    while True:
        word = splitmix((row + counter * GAMMA) & MASK64)
        product = ((word >> (32 * (pos % 2))) & MASK32) * n_colors
        if product & MASK32 >= 2**32 % n_colors:
            return (product >> 32) + 1
        counter += 2**32


def trial_colors(seed: int, trial: int, n_colors: int, width: int) -> np.ndarray:
    """draw(seed, trial, p) at positions p = 0 .. width on Python ints, as
    ``trial_draws`` gives the trial's row."""
    row = row_key(seed, trial)
    return np.array([color_at(row, p, n_colors) for p in range(width + 1)])


def plain_colored_table(idx: DerivedIndex, masks: dict, cap, full: int):
    """The colored recurrence on one coloring against one capacity row, in
    plain Python: g, where g[C] is the least rescue length of a set that
    covers at least the colors C and fits the row, and per taxon in
    deadline order the set of cells it improved."""
    g = [INF] * (full + 1)
    g[0] = 0
    improved = []
    for x in idx.order:
        m, ell = masks[x], idx.instance.length(x)
        room = cap[idx.class_of[x]]
        keep = ~m
        cells = set()
        if m and ell <= room:
            for c in range(full, 0, -1):  # downwards: source c & ~m is not yet updated
                cand = g[c & keep] + ell
                if cand < g[c] and cand <= room:
                    g[c] = cand
                    cells.add(c)
        improved.append(cells)
    return g, improved


def plain_colored_parts(idx: DerivedIndex, coloring, rows):
    """``plain_colored_table`` against each capacity row of rows: the
    per-row parts, disjoint and in row order, of a set that covers the
    palette, or None, split and read back as the library's kernels do."""
    full = _palette(coloring.n_colors)
    masks = coloring.taxon_masks(idx.instance.tree)
    tables = [plain_colored_table(idx, masks, cap, full) for cap in rows]
    shares = [full] * len(tables)
    if len(tables) == 1:
        if tables[0][0][full] == INF:
            return None
    else:
        bits = [[v < INF for v in g] for g, _ in tables]
        stages = list(itertools.accumulate(bits, cover_product_direct))
        if not stages[-1][full]:
            return None
        for i in range(len(tables) - 1, 0, -1):
            cell = shares[i]
            sub = next(s for s in range(cell, -1, -1)
                       if s | cell == cell and stages[i - 1][s] and bits[i][cell ^ s])
            shares[i], shares[i - 1] = cell ^ sub, sub
    parts, used = [], set()
    for share, (_, improved) in zip(shares, tables):
        part = [x for x in _read_back(idx.order, improved, share,
                                      lambda x, c: c & ~masks[x]) if x not in used]
        used.update(part)
        parts.append(tuple(part))
    return tuple(parts)


def plain_colored_time_pd(idx: DerivedIndex, coloring):
    """The oracle of ``solve_colored_time_pd``: (True, saved set) or (False, None)."""
    parts = plain_colored_parts(idx, coloring, (idx.hours,))
    return (False, None) if parts is None else (True, canon(parts[0]))


def plain_colored_s_time_pd(idx: DerivedIndex, coloring):
    """The oracle of ``solve_colored_s_time_pd``: (True, per-team parts) or
    (False, None)."""
    parts = plain_colored_parts(idx, coloring, idx.team_hours)
    return (False, None) if parts is None else (True, parts)


def solve_by_target_trial_by_trial(instance, delta=1e-3, seed=0, strict=False):
    """fpt-d, one plain kernel call per trial; ``strict`` picks the mode's
    kernel and witness step as solve_s_time_pd_by_target does."""
    kernel = plain_colored_s_time_pd if strict else plain_colored_time_pd
    idx = build_derived_index(instance)
    out = (trivial_outcome(idx, "fpt-d", trials=0)
           or _singleton_shortcut(instance, idx, "fpt-d"))
    if out is not None:
        out.seed = seed
        return out
    k = instance.target
    if k > MASK_LIMIT:
        raise TargetTooLarge(f"target {k} exceeds the mask-width limit {MASK_LIMIT}")
    tree = instance.tree
    width = tree.total_weight()
    n_trials = trial_count(k, delta)
    for trial in range(1, n_trials + 1):
        f = trial_colors(seed, trial, k, width)
        ok, found = kernel(idx, color_edges_from_hash(tree, k, f))
        if ok:
            parts = found if strict else (found,)
            saved = canon(x for part in parts for x in part)
            sched = (schedule_team_parts(instance, parts) if strict
                     else build_collaborative_schedule(idx, saved))
            return SolveOutcome(True, "fpt-d", saved=saved, schedule=sched,
                                value=pd_of_subset(tree, saved), trials=trial,
                                seed=seed, diagnostics={"planned_trials": n_trials})
    return SolveOutcome(False, "fpt-d", trials=n_trials, seed=seed,
                        diagnostics={"planned_trials": n_trials, "delta": delta})


def path_has_unique_colors(coloring: LossColoring, edges) -> bool:
    """Do the color sets of the edges overlap nowhere?"""
    total, union = 0, 0
    for e in set(edges):
        m = coloring.color_mask(e)
        total += m.bit_count()
        union |= m
    return total == union.bit_count()


def candidate_tuples(tree: PhyloTree, coloring: LossColoring, idx: DerivedIndex,
                     q: int, tuples=None):
    """Tuples with the taxon due within class q that any good set may use:
    eligible unique-color path whose colors avoid the sibling key color.
    ``tuples`` is ``anchored_tuples(tree)`` when the caller already has it."""
    out = []
    for x, v, e, path in anchored_tuples(tree) if tuples is None else tuples:
        if idx.class_of[x] > q:
            continue
        if any(p not in coloring.eligible for p in path):
            continue
        if not path_has_unique_colors(coloring, path):
            continue
        if coloring.key_bit(e) & coloring.path_mask(path):
            continue
        out.append((x, v, e, path))
    return out


@dataclass(frozen=True)
class LossPlan:
    """What every trial of one request shares: the anchored tuples of the
    tree and the order in which the table visits path-color sets c1 (by
    popcount up to the loss, then lexicographic positions)."""

    tuples: tuple
    c1_order: tuple


def loss_plan(tree: PhyloTree, loss: int) -> LossPlan:
    return LossPlan(tuple(anchored_tuples(tree)),
                    tuple(c1 for pc in range(loss + 1)
                          for c1 in _masks_of_popcount(2 * loss, pc)))


class _LossDP:
    """Full-table dynamic program over (path colors, sibling colors, class)."""

    def __init__(self, idx: DerivedIndex, coloring: LossColoring, loss: int,
                 plan: LossPlan = None):
        tree = idx.instance.tree
        plan = plan or loss_plan(tree, loss)
        self.idx = idx
        self.coloring = coloring
        self.loss = loss
        self.bits = 2 * loss
        self.full = (1 << self.bits) - 1
        self.nc = idx.n_classes
        self.c1_order = plan.c1_order
        self.tuples = []
        for x, v, e, path in candidate_tuples(tree, coloring, idx, self.nc - 1,
                                              plan.tuples):
            self.tuples.append((idx.class_of[x], idx.instance.length(x),
                                coloring.path_mask(path), coloring.key_bit(e),
                                (x, v, e)))
        d = idx.deficits
        self.segmax = [[max(d[a:b + 1]) if a <= b else MINF
                        for b in range(self.nc)] for a in range(self.nc)]
        self.table = {}
        self.entries = 0

    def _key(self, c1, c2, q):
        return ((c1 << self.bits) | c2) * 16 + q

    def run(self):
        for c1 in self.c1_order:
            self._fill_c1(c1)

    def _fill_c1(self, c1):
        nc = self.nc
        defs = self.idx.deficits
        cand = [t for t in self.tuples if t[2] & ~c1 == 0]
        base = []
        ok = True
        for q in range(nc):
            if q > 0 and defs[q - 1] > 0:
                ok = False
            base.append(0 if ok else MINF)
        per_class: list[list] = [[] for _ in range(nc)]
        for t in cand:
            per_class[t[0]].append(t)
        ground_keys = []   # per q: OR of sibling key bits over classes <= q
        by_class = []      # per q: candidates over classes <= q
        running, acc = 0, []
        for q in range(nc):
            for t in per_class[q]:
                running |= t[3]
            acc = acc + per_class[q]
            ground_keys.append(running)
            by_class.append(acc)
        comp = self.full ^ c1
        table, bits = self.table, self.bits
        high = c1 << bits
        for q in range(nc):
            gk = ground_keys[q]
            bq = base[q]
            cands = by_class[q]
            seg = self.segmax
            c2 = comp
            while True:
                if c2 & gk == 0:
                    table[(high | c2) * 16 + q] = bq
                else:
                    best = MINF
                    for cls_t, ell_t, pmask, kbit, _ in cands:
                        if not kbit & c2:
                            continue
                        child = table[(((c1 & ~pmask) << bits)
                                       | ((c2 | pmask) & ~kbit)) * 16 + cls_t]
                        if child == MINF:
                            continue
                        val = child + ell_t
                        if val > best and (cls_t > q - 1 or val >= seg[cls_t][q - 1]):
                            best = val
                    table[(high | c2) * 16 + q] = best
                self.entries += 1
                if c2 == 0:
                    break
                c2 = (c2 - 1) & comp

    def accept(self):
        """First (c1, c2) cell meeting the final deficit, scan order fixed."""
        last = self.nc - 1
        threshold = self.idx.deficits[last]
        for c1 in self.c1_order:
            comp = self.full ^ c1
            c2 = comp
            while True:
                if self.table[self._key(c1, c2, last)] >= threshold:
                    return c1, c2
                if c2 == 0:
                    break
                c2 = (c2 - 1) & comp
        return None

    def extract(self, c1, c2):
        """Backtrack one qualifying cell into an anchored taxa set."""
        anchored = []
        q = self.nc - 1
        while True:
            val = self.table[self._key(c1, c2, q)]
            cand = [t for t in self.tuples
                    if t[2] & ~c1 == 0 and t[0] <= q and t[3] & c2]
            gk = 0
            for t in cand:
                gk |= t[3]
            if c2 & gk == 0:
                if val != 0:  # pragma: no cover
                    raise RescuePDError("loss table backtrack hit a bad base")
                return anchored
            step = None
            for cls_t, ell_t, pmask, kbit, tup in cand:
                child = self.table[self._key(c1 & ~pmask, (c2 | pmask) & ~kbit, cls_t)]
                if child == MINF or child + ell_t != val:
                    continue
                if cls_t <= q - 1 and val < self.segmax[cls_t][q - 1]:
                    continue
                step = (cls_t, pmask, kbit, tup)
                break
            if step is None:  # pragma: no cover
                raise RescuePDError("loss table backtrack failed")
            cls_t, pmask, kbit, tup = step
            anchored.append(tup)
            c1, c2, q = c1 & ~pmask, (c2 | pmask) & ~kbit, cls_t


def reference_loss_dp_solve(instance, coloring, loss, idx=None, plan=None):
    """The colored decision of ``loss_dp_solve`` from the scalar table:
    (found, anchored set or None, table entry count)."""
    if not instance.tree.is_binary():
        raise NonBinaryTree("the loss-parameterized solver needs a binary tree")
    if idx is None:
        idx = build_derived_index(instance)
    dp = _LossDP(idx, coloring, loss, plan)
    dp.run()
    cell = dp.accept()
    if cell is None:
        return False, None, dp.entries
    return True, dp.extract(*cell), dp.entries


def loss_draw_width(tree, loss):
    """Draw positions of one fpt-dbar trial after the unused position 0: a
    key color per edge, and w - 1 extra colors per edge of weight w within
    the loss."""
    return sum(tree.weight[e] if tree.weight[e] <= loss else 1
               for e in tree.edge_order)


def loss_coloring_from_draws(tree, loss, f):
    """The fpt-dbar coloring of one trial's draws f: key colors of the edges
    within the loss, then of the heavier ones, then the extras of the edges
    within the loss, each in canonical edge order."""
    small = [e for e in tree.edge_order if tree.weight[e] <= loss]
    big = [e for e in tree.edge_order if tree.weight[e] > loss]
    ordered = small + big
    key = {e: int(f[j + 1]) for j, e in enumerate(ordered)}
    extras = {}
    pos = len(ordered)
    for e in small:
        mask = 0
        for _ in range(tree.weight[e] - 1):
            pos += 1
            mask |= 1 << (int(f[pos]) - 1)
        extras[e] = mask
    return make_loss_coloring(tree, loss, key, extras)


def solve_by_loss_trial_by_trial(instance, delta=1e-3, seed=0):
    """fpt-dbar with one ``trial_colors`` row per trial, drawn and
    decided in trial order, as solve_time_pd_by_loss decides its blocks."""
    idx = build_derived_index(instance)
    out = trivial_outcome(idx, "fpt-dbar", trials=0, seed=seed)
    if out is not None:
        return out
    if not instance.tree.is_binary():
        raise NonBinaryTree("the loss-parameterized solver needs a binary tree")
    loss = idx.loss_budget
    if loss == 0:
        if collaborative_feasible(idx, instance.tree.taxa):
            saved = instance.tree.taxa
            return SolveOutcome(True, "fpt-dbar", saved=saved,
                                schedule=build_collaborative_schedule(idx, saved),
                                value=idx.pd_total, trials=0, seed=seed)
        return SolveOutcome(False, "fpt-dbar", trials=0, seed=seed,
                            diagnostics={"deterministic": "zero loss budget"})
    if loss > LOSS_LIMIT:
        raise LossTooLarge(f"loss budget {loss} exceeds the mask-width limit {LOSS_LIMIT}")
    tree = instance.tree
    width = loss_draw_width(tree, loss)
    n_trials = trial_count(2 * loss, delta)
    plan = loss_plan(tree, loss)
    entries = None
    for trial in range(1, n_trials + 1):
        f = trial_colors(seed, trial, 2 * loss, width)
        coloring = loss_coloring_from_draws(tree, loss, f)
        found, anchored, entries = reference_loss_dp_solve(instance, coloring, loss,
                                                           idx, plan)
        if found:
            sacrificed = {x for x, _, _ in anchored}
            saved = canon(set(tree.taxa) - sacrificed)
            sched = build_collaborative_schedule(idx, saved)
            return SolveOutcome(True, "fpt-dbar", saved=saved, schedule=sched,
                                value=pd_of_subset(tree, saved), trials=trial,
                                seed=seed, diagnostics={"planned_trials": n_trials,
                                                        "table_entries": entries})
    return SolveOutcome(False, "fpt-dbar", trials=n_trials, seed=seed,
                        diagnostics={"planned_trials": n_trials, "delta": delta,
                                     "table_entries": entries})


def offspring(tree: PhyloTree, v: str) -> tuple[str, ...]:
    """Leaf labels below v (v itself when it is a leaf)."""
    stack, out = [v], []
    while stack:
        u = stack.pop()
        cs = tree.children.get(u, ())
        if not cs:
            out.append(u)
        stack.extend(reversed(cs))
    return tuple(out)


def fresh_preorder(tree: PhyloTree) -> list[str]:
    """The tree's vertices in preorder, walked afresh from its child lists."""
    stack, out = [tree.root], []
    while stack:
        v = stack.pop()
        out.append(v)
        stack.extend(reversed(tree.children.get(v, ())))
    return out


def pd_bottom_up(tree: PhyloTree, taxa_set) -> int:
    """The library's first PD: one bottom-up walk of the whole tree, where
    an edge counts when some member lies below it."""
    members = set(taxa_set)
    for x in members:
        if x not in tree.taxa:
            raise UnknownTaxon(f"unknown taxon {x!r}")
    total = 0
    reaches = {}
    for v in reversed(fresh_preorder(tree)):
        cs = tree.children.get(v, ())
        reaches[v] = any(reaches[c] for c in cs) if cs else v in members
        if v != tree.root and reaches[v]:
            total += tree.weight[v]
    return total


def availability(instance: Instance) -> tuple[tuple[int, int], ...]:
    """All (team index, timeslot) pairs where some team can work."""
    return tuple((i, j) for i, t in enumerate(instance.teams)
                 for j in range(t.start + 1, t.end + 1))


def prefix(idx: DerivedIndex, k: int) -> tuple[str, ...]:
    """Taxa whose deadline is at most the k-th distinct extinction time."""
    return tuple(x for x in idx.order if idx.class_of[x] <= k)


def collaborative_schedule_from_pairs(idx, taxa_set):
    """The greedy collaborative schedule over the listed (team, slot) pairs,
    sorted by (slot, team); taxa in (class, label) order."""
    inst = idx.instance
    pairs = sorted(availability(inst), key=lambda ij: (ij[1], ij[0]))
    queue = sorted(taxa_set, key=lambda x: (idx.class_of[x], x))
    assignment, cursor = {}, 0
    for x in queue:
        for _ in range(inst.length(x)):
            assignment[pairs[cursor]] = x
            cursor += 1
    return Schedule(COLLABORATIVE, assignment, canon(taxa_set))


def single_team_feasible(team: TeamWindow, taxa_info: dict, taxa_set) -> bool:
    """One-team specialization of the prefix condition."""
    members = sorted(taxa_set, key=lambda x: taxa_info[x].extinction_time)
    running = 0
    for x in members:
        running += taxa_info[x].rescue_length
        if running > team.hours_until(taxa_info[x].extinction_time):
            return False
    return True


def strict_feasible_given_ordering(instance: Instance, ordering):
    """Greedily pack prefixes of the ordering onto teams t_1, t_2, ...

    Within a team, taxa run back-to-back from the window start, each run as
    early as possible; a taxon whose run would end after its deadline (or
    the window) starts the next team's prefix instead.  Returns a Schedule
    iff every taxon is placed, else None.
    """
    ordering = list(ordering)
    assignment = {}
    pos = 0
    for i in range(len(instance.teams)):
        pos += _pack(instance, i, ordering[pos:], assignment)
    if pos < len(ordering):
        return None
    return Schedule(STRICT, assignment, canon(ordering))


def strict_feasible_by_orderings(instance: Instance, taxa_set):
    """Try every ordering through the greedy; first success wins.

    Orderings are enumerated in lexicographic label order, so the returned
    schedule is deterministic.  None is a normal outcome.
    """
    members = canon(taxa_set)
    if not members:
        return Schedule(STRICT, {}, ())
    for ordering in itertools.permutations(members):
        sched = strict_feasible_given_ordering(instance, ordering)
        if sched is not None:
            return sched
    return None


def strict_feasible_by_partition(instance: Instance, taxa_set):
    """Second oracle: enumerate assignments of taxa to teams directly.

    Used only in tests as a cross-check of the library's subset table; a
    set is strictly feasible iff it splits into per-team
    single-team-feasible parts.
    """
    members = canon(taxa_set)
    if not members:
        return True
    n_teams = len(instance.teams)
    for choice in itertools.product(range(n_teams), repeat=len(members)):
        parts = [[] for _ in range(n_teams)]
        for x, i in zip(members, choice):
            parts[i].append(x)
        if all(single_team_feasible(instance.teams[i], instance.taxa, part)
               for i, part in enumerate(parts)):
            return True
    return False


def strict_table_every_bit(instance: Instance, members) -> list:
    """The library's first subset table, which tries every taxon for every
    state and walks the teams one by one; the oracle of ``strict_table``."""
    teams = instance.teams
    runs = [(instance.length(x), instance.deadline(x)) for x in members]
    f = [None] * (1 << len(runs))
    f[0] = (0, teams[0].start, None)
    for s in range(1, len(f)):
        for k, (need, due) in enumerate(runs):
            if not s >> k & 1 or f[s ^ 1 << k] is None:
                continue
            i, cursor, _ = f[s ^ 1 << k]
            for j in range(i, len(teams)):
                end = (cursor if j == i else teams[j].start) + need
                if end <= min(teams[j].end, due):
                    if f[s] is None or (j, end, k) < f[s]:
                        f[s] = (j, end, k)
                    break
    return f


def brute_force_by_combinations(instance: Instance) -> SolveOutcome:
    """The library's first brute force: every subset from
    ``itertools.combinations``, one feasibility call, one ``pd_of_subset``
    and one length sum each, under the same preference (max diversity, then
    min total length, then smallest label tuple) and with the same
    witnesses; the oracle of ``brute_force``."""
    idx = build_derived_index(instance)
    taxa = instance.tree.taxa
    if instance.mode == STRICT:
        table = strict_table_every_bit(instance, taxa)
        bit = {x: 1 << k for k, x in enumerate(taxa)}

        def feasible(subset):
            return table[sum(bit[x] for x in subset)] is not None

        def schedule(saved):
            return strict_feasible(instance, saved, guard=None)
    else:
        def feasible(subset):
            return collaborative_feasible(idx, subset)

        def schedule(saved):
            return build_collaborative_schedule(idx, saved)
    best = None
    for r in range(len(taxa) + 1):
        for subset in itertools.combinations(taxa, r):
            if not feasible(subset):
                continue
            value = pd_of_subset(instance.tree, subset)
            total = sum(instance.length(x) for x in subset)
            key = (-value, total, subset)
            if best is None or key < best:
                best = key
    value, saved = -best[0], canon(best[2])
    decision = value >= instance.target
    return SolveOutcome(decision=decision, algorithm="brute", saved=saved,
                        schedule=schedule(saved) if decision else None,
                        value=value)


class SearchSpaceTooLarge(RescuePDError):
    """Raw schedule enumeration guard exceeded."""


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


def cover_product_direct(f, g) -> list[int]:
    """3^w submask iteration; f and g are 0/1 sequences of length 2^w."""
    size = len(f)
    assert len(g) == size and size & (size - 1) == 0
    h = [0] * size
    for mask in range(size):
        sub = mask
        while True:
            if f[sub] and g[mask ^ sub]:
                h[mask] = 1
                break
            if sub == 0:
                break
            sub = (sub - 1) & mask
    return h


def cover_product_ranked(f, g) -> list[int]:
    """Ranked subset convolution of two 0/1 sequences of length 2^w."""
    row = _ranked_rows(np.asarray(f, dtype=bool)[None, :], np.asarray(g, dtype=bool)[None, :])
    return row[0].astype(int).tolist()


def _taxa_arrays(idx: DerivedIndex, coloring):
    masks = coloring.taxon_masks(idx.instance.tree)
    labels = list(idx.order)
    return (labels,
            [masks[x] for x in labels],
            [idx.class_of[x] for x in labels],
            [idx.instance.length(x) for x in labels])


def printed_rule_decision(idx, coloring) -> bool:
    """solve_colored_s_time_pd's decision under the printed capacity rule:
    taxon x of class p extending a partial set of top class q <= p is
    checked against the team's hours up to class q, not p."""
    labels, masks, cls, ell = _taxa_arrays(idx, coloring)
    nc = idx.n_classes
    k = coloring.n_colors
    if k == 0:
        return True
    full = (1 << k) - 1
    team_bits = []
    for th in idx.team_hours:
        dp0 = [None] * (full + 1)
        dp0[0] = [0] * nc
        for mask in range(1, full + 1):
            tmp = [INF] * nc
            for t, m in enumerate(masks):
                if m & mask == 0:
                    continue
                p = cls[t]
                sub = mask & ~m
                for q in range(p + 1):
                    prev = dp0[sub][q]
                    if prev >= INF:
                        continue
                    cand = prev + ell[t]
                    if cand <= th[q] and cand < tmp[p]:
                        tmp[p] = cand
            dp0[mask] = tmp
        team_bits.append([1 if min(dp0[mask]) < INF else 0
                          for mask in range(full + 1)])
    stage = team_bits[0]
    for bits in team_bits[1:]:
        stage = cover_product_direct(stage, bits)
    return bool(stage[full])


KNAPSACK_INF = 2**62
BY_CAPACITY = "by-capacity"
BY_PROFIT = "by-profit"
BY_LOSS = "by-loss"
KERNEL_MODES = (BY_CAPACITY, BY_PROFIT, BY_LOSS)


@dataclass(frozen=True)
class KnapsackKernelResult:
    """One 0/1-knapsack table in the requested indexing.

    by-capacity: table[c] = max profit with total weight <= c.
    by-profit:   table[p] = min weight with total profit >= p (KNAPSACK_INF if none).
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
        exact = [KNAPSACK_INF] * (total_p + 1)
        exact[0] = 0
        for w, p in items:
            for q in range(total_p, p - 1, -1):
                if exact[q - p] < KNAPSACK_INF and exact[q - p] + w < exact[q]:
                    exact[q] = exact[q - p] + w
        suffix = [KNAPSACK_INF] * (total_p + 2)
        for q in range(total_p, -1, -1):
            suffix[q] = min(exact[q], suffix[q + 1])
        table = [suffix[p] if p <= total_p else KNAPSACK_INF for p in range(bound + 1)]
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


def profile_from_kernel(items, mode: str, capacity: int) -> list[int]:
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
        parts = [[] for _ in range(self.n_teams)]
        for x in saved:
            parts[details[x][0]].append(x)
        return schedule_team_parts(self.instance, parts)


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
        self.caps = tuple(len(buckets[key]) for key in self.bucket_keys)
        if count_matrices(idx, guard) > guard:
            raise StateSpaceTooLarge(f"count matrices exceed the guard {guard}")
        nb = len(self.bucket_keys)
        self.subtree_counts = self.subtree_sums(
            lambda x: [int(k == self.bucket_of[x]) for k in range(nb)])

    def admissible_root_budgets(self):
        """Count matrices whose length-weighted column prefixes fit the hours."""
        idx = self.idx
        class_of_deadline = {ex: k for k, ex in enumerate(idx.ex_values)}
        bucket_class = [class_of_deadline[deadline]
                        for _, deadline in self.bucket_keys]
        for combo in itertools.product(*[range(c + 1) for c in self.caps]):
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

    def root_budget(self):  # pragma: no cover - solve() is overridden
        raise NotImplementedError

    def canon_budget(self, v, budget):
        return tuple(min(a, c) for a, c in zip(budget, self.subtree_counts[v]))

    def leaf_options(self, x, budget):
        k = self.bucket_of[x]
        if budget[k] > 0:
            share = tuple(1 if i == k else 0 for i in range(len(budget)))
            yield share, None

    def solve(self) -> SolveOutcome:
        instance, idx = self.instance, self.idx
        out = trivial_outcome(idx, self.algorithm)
        if out is not None:
            return out
        best, best_budget = NEG, None
        for budget in self.admissible_root_budgets():
            val = self.value(self.tree.root, budget, 1)
            if val > best:
                best, best_budget = val, budget
        if best < instance.target:
            return SolveOutcome(False, self.algorithm,
                                value=best if best > NEG else 0,
                                diagnostics={"states": len(self.memo)})
        saved, details = [], {}
        self.collect(self.tree.root, best_budget, 1, saved, details)
        saved = canon(saved)
        sched = build_collaborative_schedule(idx, saved)
        if pd_of_subset(self.tree, saved) < instance.target:  # pragma: no cover
            raise RescuePDError("count-matrix witness failed the diversity re-check")
        return SolveOutcome(True, self.algorithm, saved=saved, schedule=sched,
                            value=pd_of_subset(self.tree, saved),
                            diagnostics={"states": len(self.memo)})


def memo_team_vectors(instance, guard=STATE_GUARD):
    return _TeamCountDP(instance, guard).solve()


def memo_hour_vectors(instance, guard=STATE_GUARD):
    return _HourBudgetDP(instance, guard).solve()


def memo_team_subsets(instance, guard=STATE_GUARD):
    return _TeamSubsetDP(instance, guard).solve()


def memo_xp(instance, guard=STATE_GUARD):
    return _CountMatrixDP(instance, guard).solve()


_NEWICK_LABEL_CHARS = set("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"
                          "0123456789_.-|/")
_NEWICK_LABEL_RUN = re.compile(
    f"[{re.escape(''.join(sorted(_NEWICK_LABEL_CHARS)))}]+")


class _RecursiveNewickParser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.counter = 0
        self.names = set()
        self.labels = None  # every label-like run of the text, once needed

    def error(self, message):
        raise ParseError(f"{message} at byte {self.pos}")

    def peek(self):
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take_label(self):
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in _NEWICK_LABEL_CHARS:
            self.pos += 1
        return self.text[start:self.pos]

    def take_length(self):
        if self.peek() != ":":
            self.error("expected ':<length>'")
        self.pos += 1
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in "0123456789.+-eE":
            self.pos += 1
        raw = self.text[start:self.pos]
        if not raw:
            self.error("missing branch length")
        try:
            value = int(raw)
        except ValueError:
            raise NonIntegerWeight(
                f"branch length {raw!r} at byte {start} is not an integer") from None
        if value < 1:
            raise NonIntegerWeight(f"branch length {value} at byte {start} must be >= 1")
        return value

    def fresh_name(self):
        # skip every label in the text, also those still to come
        if self.labels is None:
            self.labels = set(_NEWICK_LABEL_RUN.findall(self.text))
        self.counter += 1
        name = f"_{self.counter}"
        while name in self.labels:
            self.counter += 1
            name = f"_{self.counter}"
        return name

    def node(self, edges):
        """Parse one subtree; returns its vertex name."""
        if self.peek() == "(":
            self.pos += 1
            children = [self.node_with_length(edges)]
            while self.peek() == ",":
                self.pos += 1
                children.append(self.node_with_length(edges))
            if self.peek() != ")":
                self.error("expected ')' or ','")
            self.pos += 1
            label = self.take_label()  # optional internal label
            name = label or self.fresh_name()
            if name in self.names:
                self.error(f"duplicate vertex name {name!r}")
            self.names.add(name)
            for child, weight in children:
                edges.append((name, child, weight))
            return name
        label = self.take_label()
        if not label:
            self.error("expected a leaf label")
        if label in self.names:
            raise DuplicateLeaf(f"leaf {label!r} appears twice (byte {self.pos})")
        self.names.add(label)
        return label

    def node_with_length(self, edges):
        name = self.node(edges)
        return name, self.take_length()


def parse_newick_recursive(text: str) -> PhyloTree:
    """The library's first Newick parser: one recursive call per subtree,
    one character at a time, and the tree built by ``from_edges``."""
    parser = _RecursiveNewickParser(text.strip())
    edges: list = []
    try:
        root = parser.node(edges)
    except RecursionError:
        raise ParseError("tree is nested too deeply to parse") from None
    if parser.peek() == ":":
        parser.error("root must not carry a branch length")
    if parser.peek() != ";":
        parser.error("expected ';'")
    parser.pos += 1
    if parser.pos != len(parser.text):
        parser.error("trailing characters after ';'")
    if not edges:
        parser.error("tree needs at least one edge")
    return PhyloTree.from_edges(edges)


def to_newick_recursive(tree: PhyloTree) -> str:
    """The library's first Newick writer, one recursive call per vertex."""

    def render(v):
        cs = tree.children.get(v, ())
        if not cs:
            return v
        inner = ",".join(f"{render(c)}:{tree.weight[c]}" for c in cs)
        label = "" if v.startswith("_") else v
        return f"({inner}){label}"

    return render(tree.root) + ";"
