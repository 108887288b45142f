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

One table decides every trial.  Trials come in blocks of 4, 16, 64 and
then 256 colorings, each of at most DRAW_CELLS draws, and ``_LossBatch``
fills the table of a whole block in numpy, one popcount layer of
path-color sets at a time for every trial at once.  It first screens the
block: a coloring is a no when, for some deadline class q with a positive
deficit, the ``loss`` longest taxa due by q that have a candidate tuple are
too short together to pay it.  That is exact, since a colored yes
sacrifices distinct taxa, each through one candidate, whose lengths pay
every positive deficit; their paths have pairwise disjoint colors, at
least one each, within a path-color set of at most ``loss`` colors, so
they are at most ``loss`` taxa.  One rule, ``_LossBatch._candidates``,
picks the candidate tuples of every coloring: eligible path edges, path
colors pairwise distinct, sibling key color off the path.  The pass that
decides the lowest successful trial keeps its row and table, and
``loss_dp_solve`` reads the witness back from that table when the trial's
coloring writes the same row under that rule (a new coloring fills its
own one-row pass), so the outcome is the one a trial-by-trial loop gives.
Cells are int64 while the rescue lengths sum to less than 2^62, and Python
ints from there on.

The dynamic program requires a binary tree, which makes the sibling edge of
an anchor unique.
"""

from __future__ import annotations

import itertools
import math
import numbers
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .color_target import BATCH_CELLS, INF, checked_seed, first_success, trial_count
from .errors import BadParams, LossTooLarge, NonBinaryTree, RescuePDError
from .feasibility import build_collaborative_schedule, collaborative_feasible
from .model import (COLLABORATIVE, DerivedIndex, Instance, PhyloTree,
                    build_derived_index, canon, check_size)
from .outcome import SolveOutcome, check_mode, checked_yes, trivial_outcome

MINF = -INF
LOSS_LIMIT = 14  # 2 * loss color bits; keeps the cell numbers 3^(2 loss) in int64
TABLE_GUARD = 5 * 10**7  # table entries of one coloring; no lower than auto admits
DRAW_ROWS = 256  # most colorings drawn per block; bounds the draws' memory
GATHER_CELLS = 2**16  # most (member, c1, class, c2) cells a row gathers at once


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


def make_loss_coloring(tree: PhyloTree, loss: int, key_color: dict,
                       extra_colors: dict) -> LossColoring:
    """Assemble a coloring, demoting ill-formed small edges.

    An edge of weight w within the loss budget is path-eligible only if its
    extras are exactly w-1 colors distinct from the key color; random draws
    that collide are demoted (treated like heavy edges), which preserves the
    exact color-to-weight accounting on every eligible edge.  BadParams
    for a loss that is not an integer >= 0, before anything else, for key
    colors or extra color masks that are not mappings, and for a key color
    that is not an integer >= 1 or an extra color mask that is not an
    integer >= 0.
    """
    check_size(loss, "the loss")
    _check_colors(tree, LossColoring(2 * loss, key_color, extra_colors, frozenset()))
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


def loss_table_entry_count(loss: int, n_classes: int) -> int:
    """Exact size of the full dynamic-programming table; BadParams unless
    both arguments are integers >= 0."""
    check_size(loss, "the loss")
    check_size(n_classes, "the class count")
    return sum(math.comb(2 * loss, k) * 2 ** (2 * loss - k)
               for k in range(loss + 1)) * n_classes


def planned_work(idx: DerivedIndex, delta: float) -> int:
    """Planned trials times table entries; zero loss runs no trial."""
    loss = idx.loss_budget
    if loss <= 0:
        return 0
    return trial_count(2 * loss, delta) * loss_table_entry_count(loss, idx.n_classes)


def _masks_of_popcount(bits, pc):
    for positions in itertools.combinations(range(bits), pc):
        m = 0
        for p in positions:
            m |= 1 << p
        yield m


def _color_positions(tree: PhyloTree, loss: int):
    """Where each edge's colors sit in a trial's draws, and the draw width.

    The edges within the loss come first, then the heavier ones: edge j
    takes its key color at position j + 1.  After those, each edge within
    the loss takes its w - 1 extra colors in turn.  Returns a dict from edge
    to its positions, key position first, and the last position used."""
    small = [e for e in tree.edge_order if tree.weight[e] <= loss]
    ordered = small + [e for e in tree.edge_order if tree.weight[e] > loss]
    positions = {e: [j + 1] for j, e in enumerate(ordered)}
    pos = len(ordered)
    for e in small:
        positions[e] += range(pos + 1, pos + tree.weight[e])
        pos += tree.weight[e] - 1
    return positions, pos


def _row_coloring(tree: PhyloTree, loss: int, positions: dict, f) -> LossColoring:
    """The coloring of one trial from its draws f (a list)."""
    key = {e: f[ps[0]] for e, ps in positions.items()}
    extras = {}
    for e, ps in positions.items():
        if tree.weight[e] <= loss:
            mask = 0
            for p in ps[1:]:
                mask |= 1 << (f[p] - 1)
            extras[e] = mask
    return make_loss_coloring(tree, loss, key, extras)


@dataclass(frozen=True)
class _Layer:
    """The cells of a run of path-color sets c1 of one popcount p (a whole
    layer, or a chunk of one): ``cells[l, s]`` numbers (c1_l, c2_ls) for the
    subsets c2_ls of c1_l's complement.
    ``tuples[m, j]`` is the m-th anchored tuple whose path weighs at most p
    in the j-th class that has one, or the padding tuple, which is never a
    candidate; ``slot[q]`` is the j of class q, or -1."""

    not_c1: np.ndarray    # (c1, 1): ~c1
    c2: np.ndarray        # (c1, c2)
    cells: np.ndarray     # (c1, c2)
    tuples: np.ndarray    # (member, class)
    slot: tuple


class _LossBatch:
    """The loss table of one request, filled for a block of colorings at once.

    Per trial, an anchored tuple is a candidate when its path is within the
    loss and its path draws are pairwise distinct: then every path edge is
    eligible and its colors are unique.  A candidate counts in a cell when
    its path colors lie in c1 and its sibling key color in c2; as c1 and c2
    are disjoint, that also keeps the key color off the path.

    The cell (c1, c2) is numbered T3(c1) + 2 T3(c2), where T3 reads a color
    set as a base-3 number with one digit per color, so every disjoint pair
    has its own number below 3^(2 loss).  T3 adds over disjoint sets, so a
    candidate's child (c1 - pmask, c2 + pmask - kbit) lies T3(pmask) -
    2 T3(kbit) cells from its parent, for every (c1, c2) it counts in.  A
    child has a smaller c1 popcount, so the table is filled one popcount
    layer at a time for every (trial, c1, c2) at once.  Layer 0 holds the
    base cells (c1 empty), where no candidate fits.  A layer whose gathered
    (tuple, c1, c2) children of one trial exceed GATHER_CELLS is split into
    chunks of c1 that stay within it; the cells of one layer depend only on
    lower layers, so its chunks are filled one after another.

    A cell keeps the most rescue length that a sacrifice of its candidates
    reaches.  Within a cell, every candidate of class c reaches the same
    child class, so its best value M_c is a max over the class.  A class
    c < q value v is kept at q when v meets every deficit of classes c ..
    q - 1; the best kept value at q therefore is best[q] = max(M_q,
    best[q - 1] if best[q - 1] >= deficit[q - 1]).  A pass decides at least
    one trial, and as many as keep their tables, and the gathered children
    of a chunk, within BATCH_CELLS cells.

    Cells are int64 while the rescue lengths sum to less than 2^62, and
    Python ints (object cells) from there on.  An unreached cell holds
    ``minf``: MINF in int64 cells, and that total less in object cells.  A
    sum read from it adds the lengths of distinct taxa due by some class c:
    it stays below need_c - MAX_HOURS, the least deficit of the classes
    from c on, so such sums decide nothing, and below 0, so a cell is
    reached exactly when its value is >= 0.
    """

    def __init__(self, idx: DerivedIndex, loss: int):
        check_size(loss, "the loss budget")
        if loss > LOSS_LIMIT:
            raise LossTooLarge(f"loss budget {loss} exceeds the mask-width limit {LOSS_LIMIT}")
        self.entries = loss_table_entry_count(loss, idx.n_classes)
        if self.entries > TABLE_GUARD:
            raise LossTooLarge(f"loss budget {loss} over {idx.n_classes} deadline "
                               f"classes needs {self.entries} table entries, above "
                               f"the guard {TABLE_GUARD}")
        tree = idx.instance.tree
        self.tuples = tuple(anchored_tuples(tree))
        self.positions, self.width = _color_positions(tree, loss)
        self.loss = loss
        self.bits = bits = 2 * loss
        self.nc = nc = idx.n_classes
        self.deficits = idx.deficits
        total = sum(idx.instance.length(x) for x in tree.taxa)
        self.dtype, self.minf = (np.int64, MINF) if total < 2**62 else (object, MINF - total)
        # (class, length, path weight, path draw positions, sibling key position)
        within, self.index_of, owners = [], {}, []
        for x, v, e, path in self.tuples:
            if sum(tree.weight[edge] for edge in path) <= loss:
                self.index_of[x, v, e] = len(within)
                draws = [p for edge in path for p in self.positions[edge]]
                within.append((idx.class_of[x], idx.instance.length(x),
                               len(draws), draws, self.positions[e][0]))
                owners.append(x)
        # the screen: a taxon's tuples are consecutive, and pay[g, j] is the
        # length of the g-th taxon if it is due by the j-th class with a
        # positive deficit (owed[j]), else 0; by_pay[:, j] lists the taxa by
        # what they pay class j, most first, and pay_sorted[:, j] what they pay
        starts = [t for t, x in enumerate(owners) if t == 0 or x != owners[t - 1]]
        owed = [q for q, d in enumerate(self.deficits) if d > 0]
        self.taxon_starts = np.array(starts, dtype=np.intp)
        self.owed = np.array([self.deficits[q] for q in owed], dtype=self.dtype)
        pay = np.array([[within[t][1] if within[t][0] <= q else 0 for q in owed]
                        for t in starts], dtype=self.dtype).reshape(len(starts), len(owed))
        self.pay = pay
        self.by_pay = np.argsort(-pay, axis=0, kind="stable")
        self.pay_sorted = np.take_along_axis(pay, self.by_pay, axis=0)
        # the padding tuple: two draws at the unused position 0 give one
        # color for a weight above the loss, so it is never a candidate
        pad = len(within)
        within.append((0, 0, bits + 1, [0, 0], 0))
        cls, ell, weight = list(zip(*within))[:3]
        self.cls, self.weight = np.array(cls), np.array(weight)
        self.ell = np.array(ell, dtype=self.dtype)
        self.path_draws = np.array([p for t in within for p in t[3]])
        self.path_starts = np.cumsum([0] + [len(t[3]) for t in within[:-1]])
        self.sibling_draw = np.array([t[4] for t in within])
        self.pow3 = np.array([0] + [3**i for i in range(bits)], dtype=np.int64)
        masks = np.arange(1 << bits)
        self.t3 = sum(((masks >> b & 1) * p3 for b, p3 in enumerate(self.pow3[1:])),
                      np.zeros_like(masks))  # T3 of every color set
        self.too_wide = 1 << bits  # in no c1: marks a non-candidate
        self.n_cells = 3**bits
        self.base, ok = [], True
        for q in range(nc):
            ok = ok and (q == 0 or self.deficits[q - 1] <= 0)
            self.base.append(0 if ok else self.minf)
        self.layers = []
        gather = 0  # the most gathered cells of one row in one layer chunk
        for p in range(loss + 1):
            c1 = np.array(list(_masks_of_popcount(bits, p)), dtype=np.int64)
            comp = np.array([[b for b in range(bits) if not m >> b & 1]
                             for m in c1.tolist()], dtype=np.int64)
            s = np.arange(1 << (bits - p))
            c2 = np.zeros((len(c1), len(s)), dtype=np.int64)
            for i in range(bits - p):  # subset s of the complement, bit by bit
                c2 |= (s >> i & 1) << comp[:, i, None]
            members = {}
            for t in np.flatnonzero(self.weight <= p).tolist():
                members.setdefault(within[t][0], []).append(t)
            tuples = np.full((max(map(len, members.values()), default=1),
                              max(1, len(members))), pad)
            for j, ts in enumerate(members.values()):
                tuples[:len(ts), j] = ts
            slot = tuple(list(members).index(q) if q in members else -1
                         for q in range(nc))
            cells = self.t3[c1][:, None] + 2 * self.t3[c2]
            step = max(1, GATHER_CELLS // (c2.shape[1] * tuples.size))
            for lo in range(0, len(c1), step):
                self.layers.append(_Layer(~c1[lo:lo + step, None], c2[lo:lo + step],
                                          cells[lo:lo + step], tuples, slot))
            gather = max(gather, min(step, len(c1)) * c2.shape[1] * tuples.size)
        self.rows = max(1, BATCH_CELLS // max(gather, self.n_cells * nc))
        self.kept = None  # (pmask, kbit, table) of the last block's first yes

    def _cell(self, c1: int, c2: int) -> int:
        """The number T3(c1) + 2 T3(c2) of one cell."""
        return int(self.t3[c1] + 2 * self.t3[c2])

    def _candidates(self, pmask, kbit):
        """The candidate rule, on rows of path colors and sibling key colors:
        a tuple is a candidate when its path colors number its path weight,
        so they are pairwise distinct, and its sibling key color is off the
        path.  In place, it sets to ``too_wide`` the path colors of every
        tuple that has fewer.  The padding tuple, last in the last taxon's
        run, is never a candidate."""
        pmask[np.bitwise_count(pmask) != self.weight] = self.too_wide
        return (pmask != self.too_wide) & (pmask & kbit == 0)

    def decide(self, draws: np.ndarray) -> np.ndarray:
        """Colored decision of every trial whose draws are a row of draws.

        A screen first says no to every coloring under which, for some
        class q with a positive deficit, the ``loss`` longest taxa due by q
        that have a candidate tuple are too short together to pay that
        deficit.  The screen is exact: a yes sacrifices a set of such taxa,
        one tuple each, whose lengths due by q pay every positive deficit
        d_q, as saving all the other taxa needs.  Their paths are pairwise
        color-disjoint within c1, which holds at most ``loss`` colors, and
        each path holds at least one, so at most ``loss`` taxa are
        sacrificed.  Each taxon counts once, so the sums stay below the
        total length.  All such taxa are summed first, one product that
        most rows fail, and the rows left sum the ``loss`` longest.  The
        rows that pass fill the tables, ``rows`` per pass, and every row is
        decided.  The first row that succeeds is
        kept, with its table, in ``kept`` for ``solve_one``.
        """
        self.kept = None
        bits = np.left_shift(1, draws - 1)
        pmask = np.bitwise_or.reduceat(bits[:, self.path_draws], self.path_starts,
                                       axis=1)
        kbit = bits[:, self.sibling_draw]
        candidate = self._candidates(pmask, kbit)
        sacrificable = np.logical_or.reduceat(candidate, self.taxon_starts, axis=1)
        # all of them first, a product that most rows fail; then, per owed
        # class, the first loss of them by pay
        live = np.flatnonzero(
            (sacrificable.astype(self.dtype) @ self.pay >= self.owed).all(axis=1))
        if live.size:
            paying = sacrificable[live][:, self.by_pay]
            paying &= np.cumsum(paying, axis=1) <= self.loss
            live = live[((paying * self.pay_sorted).sum(axis=1) >= self.owed).all(axis=1)]
        pow3 = self.pow3[draws[live]]
        shift = (np.add.reduceat(pow3[:, self.path_draws], self.path_starts, axis=1)
                 - 2 * pow3[:, self.sibling_draw]) * self.nc + self.cls
        found = np.zeros(len(draws), dtype=bool)
        for lo in range(0, len(live), self.rows):
            part = live[lo:lo + self.rows]
            hit, table = self._fill(pmask[part], kbit[part], shift[lo:lo + self.rows])
            found[part] = hit
            if self.kept is None and hit.any():
                r = int(np.flatnonzero(hit)[0])
                # copies, so that the pass's tables are not kept alive
                self.kept = (pmask[part[r]].copy(), kbit[part[r]].copy(), table[r].copy())
        return found

    def _fill(self, pmask, kbit, shift):
        """Fill the tables of a pass of rows, one row per trial: per tuple its
        path colors (``too_wide`` when it is no candidate), its sibling key
        color and its child's offset.  Returns (found, table): whether some
        cell of the last class meets the last deficit, and the cells (row,
        cell, class)."""
        n, nc, d, minf = len(pmask), self.nc, self.deficits, self.minf
        last = nc - 1
        need = max(d[last], 0)
        table = np.full((n, self.n_cells, nc), minf, dtype=self.dtype)
        table[:, self.layers[0].cells] = self.base  # no candidate fits c1 = {}
        flat = table.reshape(-1)
        # child index of each (trial, tuple), less its parent's cell number
        at = np.arange(n)[:, None] * (self.n_cells * nc) + shift
        found = np.full(n, self.base[last] >= need)
        for layer in self.layers[1:]:
            # axes (member, trial, c1, class, c2)
            sel = layer.tuples
            fits = pmask[:, sel].transpose(1, 0, 2)[:, :, None] & layer.not_c1 == 0
            kb = kbit[:, sel].transpose(1, 0, 2)[:, :, None, :, None]
            # a tuple that does not fit may point outside the table; ok drops it
            child = flat.take(at[:, sel].transpose(1, 0, 2)[:, :, None, :, None]
                              + nc * layer.cells[:, None], mode="clip")
            ok = kb & layer.c2[:, None] != 0
            ok &= fits[..., None]
            child += self.ell[sel][:, None, None, :, None]
            by_class = np.where(ok, child, minf).max(axis=0)
            keys = np.bitwise_or.reduce(np.where(fits, kb[..., 0], 0), axis=0)
            # ground: the key bits of the candidates of classes <= q; a c2
            # that holds none of them is a base cell
            best, ground = np.full(layer.c2.shape, minf, dtype=self.dtype), 0
            for q in range(nc):
                if q:
                    best = np.where(best >= d[q - 1], best, minf)
                k = layer.slot[q]
                if k >= 0:
                    best = np.maximum(by_class[:, :, k], best)
                    ground = ground | keys[:, :, k, None]
                cell = np.where(layer.c2 & ground == 0, self.base[q], best)
                table[:, layer.cells, q] = cell
                if q == last:
                    found |= (cell >= need).any(axis=(-2, -1))
        return found, table

    def solve_one(self, idx: DerivedIndex, coloring: LossColoring):
        """(found, anchored set or None) of one coloring: its tuples within
        the loss are written as one row, ``_candidates`` picks the
        candidates as it does for every trial, and the witness is read back
        from that row's table.  When the row is the one ``decide`` kept,
        its table is the kept one; else the row is filled as a one-row
        pass.  BadParams for a malformed coloring, before any array is
        written (``_check_colors``)."""
        _check_colors(idx.instance.tree, coloring)
        full = (1 << self.bits) - 1
        pmask = np.full(len(self.cls), self.too_wide)
        kbit = np.zeros_like(pmask)
        for x, v, e, path in self.tuples:
            j = self.index_of.get((x, v, e))
            # a path with an ineligible edge stays too_wide, whatever its colors
            if j is not None and all(p in coloring.eligible for p in path):
                pm, kb = coloring.path_mask(path), coloring.key_bit(e)
                if pm | kb <= full:  # a color off the palette fits no cell
                    pmask[j], kbit[j] = pm, kb
        tup = np.flatnonzero(self._candidates(pmask, kbit))
        keys = list(self.index_of)  # the tuples within the loss, in anchored order
        cands = [(idx.class_of[keys[j][0]], idx.instance.length(keys[j][0]),
                  int(pmask[j]), int(kbit[j]), keys[j]) for j in tup.tolist()]
        if self._is_kept(pmask, kbit):
            table = self.kept[2]
        else:
            shift = self.cls.copy()  # a non-candidate's child is never read
            shift[tup] += (self.t3[pmask[tup]] - 2 * self.t3[kbit[tup]]) * self.nc
            found, tables = self._fill(pmask[None], kbit[None], shift[None])
            if not found[0]:
                return False, None
            table = tables[0]
        return True, self._extract(table, cands, *self._accept(table))

    def _is_kept(self, pmask, kbit) -> bool:
        """Whether a row, its candidates picked, is the row ``decide`` kept:
        the same path colors, ``too_wide`` on the same non-candidates, and
        the same sibling key colors off them.  A non-candidate's sibling and
        child are never read, so the row's table is the kept one."""
        if self.kept is None:
            return False
        kept_pmask, kept_kbit, _ = self.kept
        tuples = pmask != self.too_wide
        return (np.array_equal(kept_pmask, pmask)
                and np.array_equal(kept_kbit[tuples], kbit[tuples]))

    def _accept(self, table):
        """The first cell (c1, c2) whose last class meets the last deficit:
        c1 by popcount and then by position, c2 downwards over the subsets
        of its complement."""
        need = max(self.deficits[-1], 0)
        for layer in self.layers:
            hits = np.flatnonzero(table[layer.cells[:, ::-1], -1] >= need)
            if hits.size:
                i, j = divmod(int(hits[0]), layer.c2.shape[1])
                return int(~layer.not_c1[i, 0]), int(layer.c2[i, -1 - j])
        raise RescuePDError("loss table has no accepting cell")  # pragma: no cover

    def _extract(self, table, cands, c1, c2):
        """Backtrack one qualifying cell into an anchored taxa set: at each
        cell, the first candidate in anchored order whose child is reached
        and gives the cell's value under the deficit rule."""
        anchored = []
        q = self.nc - 1
        while True:
            val = table[self._cell(c1, c2), q]
            fit = [t for t in cands if t[2] & ~c1 == 0 and t[0] <= q and t[3] & c2]
            if not fit:
                if val != 0:  # pragma: no cover
                    raise RescuePDError("loss table backtrack hit a bad base")
                return anchored
            for cls_t, ell_t, pmask, kbit, tup in fit:
                child = table[self._cell(c1 & ~pmask, (c2 | pmask) & ~kbit), cls_t]
                if child >= 0 and child + ell_t == val and (
                        cls_t == q or val >= max(self.deficits[cls_t:q])):
                    break
            else:  # pragma: no cover
                raise RescuePDError("loss table backtrack failed")
            anchored.append(tup)
            c1, c2, q = c1 & ~pmask, (c2 | pmask) & ~kbit, cls_t


def _check_colors(tree: PhyloTree, coloring: LossColoring):
    """BadParams unless the key colors and extra color masks are mappings,
    every edge has a key color that is an integer >= 1, every extra color
    mask is an integer >= 0, and every eligible edge has as many colors as
    it weighs.  Colors above the palette are allowed."""
    if not isinstance(coloring.key_color, Mapping) or \
            not isinstance(coloring.extra_colors, Mapping):
        raise BadParams("key colors and extra color masks must be mappings of edges")
    for e, mask in coloring.extra_colors.items():
        check_size(mask, f"the extra color mask of edge {e!r}")
    for e in tree.edge_order:
        key = coloring.key_color.get(e)
        if not isinstance(key, numbers.Integral) or isinstance(key, bool) or key < 1:
            raise BadParams(f"the key color of edge {e!r} must be an integer >= 1, "
                            f"got {key!r}")
        if e in coloring.eligible and coloring.color_mask(e).bit_count() != tree.weight[e]:
            raise BadParams(f"eligible edge {e!r} must have {tree.weight[e]} colors")


def _check_binary(tree: PhyloTree):
    if not tree.is_binary():
        raise NonBinaryTree("the loss-parameterized solver needs a binary tree; "
                            "use the target-diversity or brute-force solver")


def loss_dp_solve(instance: Instance, coloring: LossColoring, loss: int,
                  idx: DerivedIndex = None, plan: _LossBatch = None):
    """Colored decision: (found, anchored set or None, table entry count).

    ``idx`` and ``plan`` are the request's index and ``_LossBatch`` when the
    caller already has them; a new batch refuses a table beyond its guards
    with LossTooLarge before it builds any array."""
    _check_binary(instance.tree)
    if idx is None:
        idx = build_derived_index(instance)
    batch = plan or _LossBatch(idx, loss)
    found, anchored = batch.solve_one(idx, coloring)
    return found, anchored, batch.entries


def solve_time_pd_by_loss(instance: Instance, delta: float = 1e-3,
                          seed: int = 0) -> SolveOutcome:
    """Randomized loss-parameterized solver, collaborative mode.

    One-sided like the target solver: yes answers ship verified witnesses,
    a no is wrong with probability at most delta.  Loss budget zero needs
    no colors: saving everything either works or nothing does.  Colorings
    are drawn for blocks of 4, 16, 64, ... trials; the reported trial is
    the lowest that succeeds, and its witness is read from the table of
    the pass that decided it.
    """
    seed = checked_seed(seed, delta)
    check_mode(instance, COLLABORATIVE, "fpt-dbar")
    idx = build_derived_index(instance)
    out = trivial_outcome(idx, "fpt-dbar", trials=0, seed=seed)
    if out is not None:
        return out
    _check_binary(instance.tree)
    loss = idx.loss_budget
    if loss == 0:
        if collaborative_feasible(idx, instance.tree.taxa):
            saved = instance.tree.taxa
            return checked_yes(idx, "fpt-dbar", saved,
                               build_collaborative_schedule(idx, saved),
                               trials=0, seed=seed)
        return SolveOutcome(False, "fpt-dbar", trials=0, seed=seed,
                            diagnostics={"deterministic": "zero loss budget"})
    tree = instance.tree
    batch = _LossBatch(idx, loss)
    n_trials = trial_count(2 * loss, delta)
    # x4, not fpt-d's x16: a loss row costs much more, so a yes profits
    # from small blocks
    hit = first_success(seed, n_trials, DRAW_ROWS, 2 * loss, batch.width, batch.decide, 4)
    if hit is None:
        return SolveOutcome(False, "fpt-dbar", trials=n_trials, seed=seed,
                            diagnostics={"planned_trials": n_trials, "delta": delta,
                                         "table_entries": batch.entries})
    # the witness is read from the table of the pass that decided the trial
    trial, row = hit
    coloring = _row_coloring(tree, loss, batch.positions, row.tolist())
    _, anchored, entries = loss_dp_solve(instance, coloring, loss, idx, batch)
    sacrificed = {x for x, _, _ in anchored}
    saved = canon(set(tree.taxa) - sacrificed)
    return checked_yes(idx, "fpt-dbar", saved, build_collaborative_schedule(idx, saved),
                       trials=trial, seed=seed,
                       diagnostics={"planned_trials": n_trials, "table_entries": entries})
