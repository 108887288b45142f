"""Color-coding solver parameterized by the acceptable diversity loss.

Saving everything except a sacrifice set loses exactly the weight of the
edges whose every descendant taxon is sacrificed.  Sacrifices are encoded as
anchored tuples (taxon, ancestor anchor, sibling edge): the path from anchor
to taxon accounts for the dead edges, and the sibling edge certifies that
something above the anchor stays alive.  Edges carry a key color plus
weight-1 extra colors from a palette of twice the loss budget; a
color-respectful anchored set has pairwise color-disjoint paths, distinct
sibling key colors, and an extinction-ordered insertion sequence whose
sibling key never collides with path colors seen so far.  Under such a
coloring, counted colors equal lost weight, so a dynamic program over
(path-color set, sibling-color set, deadline class) that maximizes the
rescue length of the sacrificed prefix decides the colored instance
exactly; deficits (needed minus available hours per deadline prefix) give
the thresholds a sacrifice must reach.

Randomized trials draw the coloring from a seeded hash; a fixed witness
uses at most 2 * loss color slots, so a trial succeeds with probability at
least e^(-2*loss) and ceil(e^(2*loss) * ln(1/delta)) trials bound the
false-no rate by delta.  Yes answers are re-verified before return.

The dynamic program requires a binary tree, which makes the sibling edge of
an anchor unique.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .color_target import (INF, checked_seed, trial_blocks, trial_count,
                           trial_draws)
from .errors import LossTooLarge, NonBinaryTree, RescuePDError
from .feasibility import build_collaborative_schedule, collaborative_feasible
from .model import (COLLABORATIVE, DerivedIndex, Instance, PhyloTree,
                    build_derived_index, canon)
from .outcome import SolveOutcome, check_mode, checked_yes, trivial_outcome

MINF = -INF
LOSS_LIMIT = 14  # 2 * loss color bits
DRAW_ROWS = 256  # most colorings drawn per block; bounds the draws' memory


@dataclass(frozen=True)
class LossColoring:
    """Key color per edge, extra colors per path-eligible edge.

    ``eligible`` holds the edges sacrifice paths may use: weight within the
    loss budget and a well-formed color set (exactly weight distinct colors,
    key color included).  Heavier edges still carry a key color so they can
    serve as sibling edges.
    """

    n_colors: int
    key_color: dict        # edge -> color in [1, n_colors]
    extra_colors: dict     # eligible edge -> bitmask of the weight-1 extras
    eligible: frozenset

    def key_bit(self, e: str) -> int:
        return 1 << (self.key_color[e] - 1)

    def color_mask(self, e: str) -> int:
        return self.key_bit(e) | self.extra_colors.get(e, 0)

    def path_mask(self, edges) -> int:
        m = 0
        for e in edges:
            m |= self.color_mask(e)
        return m

    def path_has_unique_colors(self, edges) -> bool:
        total, union = 0, 0
        for e in set(edges):
            m = self.color_mask(e)
            total += m.bit_count()
            union |= m
        return total == union.bit_count()


def make_loss_coloring(tree: PhyloTree, loss: int, key_color: dict,
                       extra_colors: dict) -> LossColoring:
    """Assemble a coloring, demoting ill-formed small edges.

    An edge of weight w within the loss budget is path-eligible only if its
    extras are exactly w-1 colors distinct from the key color; random draws
    that collide are demoted (treated like heavy edges), which preserves the
    exact color-to-weight accounting on every eligible edge.
    """
    eligible = set()
    extras = {}
    for e in tree.edge_order:
        w = tree.weight[e]
        if w > loss or e not in extra_colors:
            continue
        mask = extra_colors[e]
        if mask.bit_count() == w - 1 and not mask & (1 << (key_color[e] - 1)):
            eligible.add(e)
            extras[e] = mask
    return LossColoring(2 * loss, dict(key_color), extras, frozenset(eligible))


def anchored_tuples(tree: PhyloTree):
    """All structurally valid (taxon, anchor, sibling edge) tuples.

    Returns (x, v, e, path) with path the edges from x up to (excluding) v,
    each edge named by its child vertex.
    """
    out = []
    for x in tree.taxa:
        path = [x]
        below = x
        v = tree.parent[x]
        while True:
            for e in tree.children[v]:
                if e != below:
                    out.append((x, v, e, tuple(path)))
            if v == tree.root:
                break
            path.append(v)
            below = v
            v = tree.parent[v]
    return out


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
        if not coloring.path_has_unique_colors(path):
            continue
        if coloring.key_bit(e) & coloring.path_mask(path):
            continue
        out.append((x, v, e, path))
    return out


def loss_table_entry_count(loss: int, n_classes: int) -> int:
    """Exact size of the full dynamic-programming table."""
    return sum(math.comb(2 * loss, k) * 2 ** (2 * loss - k)
               for k in range(loss + 1)) * n_classes


def planned_work(idx: DerivedIndex, delta: float) -> int:
    """Planned trials times table entries; zero loss runs no trial."""
    loss = idx.loss_budget
    if loss <= 0:
        return 0
    return trial_count(2 * loss, delta) * loss_table_entry_count(loss, idx.n_classes)


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


def _masks_of_popcount(bits, pc):
    for positions in itertools.combinations(range(bits), pc):
        m = 0
        for p in positions:
            m |= 1 << p
        yield m


def loss_dp_solve(instance: Instance, coloring: LossColoring, loss: int,
                  idx: DerivedIndex = None, plan: LossPlan = None):
    """Colored decision: (found, anchored set or None, table entry count).

    ``idx`` and ``plan`` are the request's index and ``loss_plan`` when the
    caller already has them."""
    if not instance.tree.is_binary():
        raise NonBinaryTree("the loss-parameterized solver needs a binary tree; "
                            "use the target-diversity or brute-force solver")
    if idx is None:
        idx = build_derived_index(instance)
    dp = _LossDP(idx, coloring, loss, plan)
    dp.run()
    cell = dp.accept()
    if cell is None:
        return False, None, dp.entries
    return True, dp.extract(*cell), dp.entries


def solve_time_pd_by_loss(instance: Instance, delta: float = 1e-3,
                          seed: int = 0) -> SolveOutcome:
    """Randomized loss-parameterized solver, collaborative mode.

    One-sided like the target solver: yes answers ship verified witnesses,
    a no is wrong with probability at most delta.  Loss budget zero needs
    no colors: saving everything either works or nothing does.  Colorings
    are drawn for blocks of 1, 4, 16, ... trials and decided in trial order.
    """
    seed = checked_seed(seed, delta)
    check_mode(instance, COLLABORATIVE, "fpt-dbar")
    idx = build_derived_index(instance)
    out = trivial_outcome(idx, "fpt-dbar", trials=0, seed=seed)
    if out is not None:
        return out
    if not instance.tree.is_binary():
        raise NonBinaryTree("the loss-parameterized solver needs a binary tree; "
                            "use the target-diversity or brute-force solver")
    loss = idx.loss_budget
    if loss == 0:
        if collaborative_feasible(idx, instance.tree.taxa):
            saved = instance.tree.taxa
            return checked_yes(idx, "fpt-dbar", saved,
                               build_collaborative_schedule(idx, saved),
                               trials=0, seed=seed)
        return SolveOutcome(False, "fpt-dbar", trials=0, seed=seed,
                            diagnostics={"deterministic": "zero loss budget"})
    if loss > LOSS_LIMIT:
        raise LossTooLarge(f"loss budget {loss} exceeds the mask-width limit {LOSS_LIMIT}")
    tree = instance.tree
    small = [e for e in tree.edge_order if tree.weight[e] <= loss]
    big = [e for e in tree.edge_order if tree.weight[e] > loss]
    ordered = small + big
    n_edges = len(ordered)
    width = n_edges + sum(tree.weight[e] - 1 for e in small)
    n_trials = trial_count(2 * loss, delta)
    plan = loss_plan(tree, loss)
    entries = None
    for first, count in trial_blocks(n_trials, DRAW_ROWS):
        block = trial_draws(seed, first, count, 2 * loss, width).tolist()
        for trial, f in enumerate(block, first):
            key = {e: f[j + 1] for j, e in enumerate(ordered)}
            extras = {}
            pos = n_edges
            for e in small:
                mask = 0
                for _ in range(tree.weight[e] - 1):
                    pos += 1
                    mask |= 1 << (f[pos] - 1)
                extras[e] = mask
            coloring = make_loss_coloring(tree, loss, key, extras)
            found, anchored, entries = loss_dp_solve(instance, coloring, loss, idx, plan)
            if found:
                sacrificed = {x for x, _, _ in anchored}
                saved = canon(set(tree.taxa) - sacrificed)
                return checked_yes(idx, "fpt-dbar", saved,
                                   build_collaborative_schedule(idx, saved),
                                   trials=trial, seed=seed,
                                   diagnostics={"planned_trials": n_trials,
                                                "table_entries": entries})
    return SolveOutcome(False, "fpt-dbar", trials=n_trials, seed=seed,
                        diagnostics={"planned_trials": n_trials, "delta": delta,
                                     "table_entries": entries})
