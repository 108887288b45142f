"""Color-coding solvers parameterized by the target diversity.

Each edge of weight w receives up to w colors from a palette whose size is
the target; a set of taxa wins iff the union of colors on root paths covers
the whole palette and the set passes the mode's feasibility test.  Covering
the palette certifies diversity at least the palette size, so a colored
"yes" is sound; randomized trials over seeded colorings make missing a true
solution unlikely (a fixed witness is hit with probability >= e^-k per
trial, hence ceil(e^k * ln(1/delta)) trials bound the false-no rate by
delta).

The colored decision is one recurrence over color sets.  Taxa are taken
in deadline order, and entry g[C] is the least rescue length of a set that
covers at least the colors C and fits a capacity row: a taxon with colors m
and length ell sets g[C] = min(g[C], g[C & ~m] + ell) wherever that sum is
within the row's hours at the taxon's deadline class.  Checking each
taxon's class as it joins keeps every prefix of the set schedulable.  The
collaborative row is the prefix hours of all teams; in strict mode the
table runs once per team against that team's hours, and the boolean cover
product merges the teams.

Trial t colors the tree from its own draws: the color at position p is
draw(seed, t, p), one SplitMix64 hash of the seed's key, the trial and the
position, mapped onto the palette by a multiply-shift with exact rejection
(Salmon et al., SC 2011, on counter-based generators; Steele, Lea & Flood,
OOPSLA 2014, on SplitMix64; Lemire, TOMACS 2019, on the bounded map).  Every
trial is decided independently of the others, and its colors are uniform.
``trial_draws`` makes the colorings of a block of trials in a few numpy
passes, the same formula for every block size.  The stream is the
library's own, so no numpy version changes it; ``tests/test_trial_draws.py``
pins known rows of it.

The request's ``_TrialPlan`` decides every trial, in blocks of 16, 256, ...
colorings of at most max(16, 2^14 / 2^k) rows and DRAW_CELLS draws (a
block starts at its growth factor, since a one-row block costs about what
a 16-row one does), and screens each block first: a coloring under which
the taxa that fit some capacity row do not cover the palette between them
is a no, exactly, since a table adds no other taxon.  The rest are decided
2^14 table cells per numpy pass over (trials x color sets).
``first_success``, which both color-coding solvers use, returns the lowest
successful trial.  The one-coloring kernel (``solve_colored_time_pd`` /
``solve_colored_s_time_pd``) is that table filled as a one-row block, the
request's plan reused, which also records the set of cells each taxon
improved; the witness is read back from them, so the outcome is the one a
trial-by-trial loop gives, and the library holds one colored recurrence.
``tests/reference.py`` keeps a plain-Python copy of it as the oracle.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np

from .cover import boolean_cover_combine, cover_rows
from .errors import BadParams, TargetTooLarge
from .feasibility import (build_collaborative_schedule, schedule_team_parts,
                          strict_feasible)
from .model import (COLLABORATIVE, STRICT, DerivedIndex, Instance, PhyloTree,
                    _read_back, build_derived_index, canon, check_size,
                    pd_of_subset, savable_alone)
from .outcome import SolveOutcome, check_mode, checked_yes, trivial_outcome

INF = 2**63  # above every capacity (MAX_HOURS = 2^63 - 1); -INF is below every deficit

MASK_LIMIT = 30
BATCH_CELLS = 2**14  # trials x masks per batched table; bounds the extra memory
DRAW_CELLS = 2**16  # trials x draw positions per block; bounds the draws' memory
# fpt-d's blocks grow x16: its rows are cheap next to a block's fixed cost
_GROWTH = 16
_UNREACHED = np.uint64(INF)  # a cell plus a length (< 2^63) stays below 2^64


@dataclass(frozen=True)
class TargetColoring:
    """Per-edge color sets (bitmasks) drawn from a palette of n_colors."""

    n_colors: int
    edge_colors: dict  # edge (child vertex) -> bitmask

    def taxon_masks(self, tree: PhyloTree) -> dict:
        """Union of edge colors along each root-to-leaf path.  The palette
        must pass _palette, and every edge a color set within it."""
        full = _palette(self.n_colors)
        masks = {tree.root: 0}
        for e in tree.edge_order:  # a parent's mask is set before its children's
            c = self.edge_colors.get(e)
            if not isinstance(c, numbers.Integral) or not 0 <= c <= full:
                raise BadParams(f"edge {e!r} has no colors within [1, {self.n_colors}]: {c!r}")
            masks[e] = masks[tree.parent[e]] | c
        return {x: masks[x] for x in tree.taxa}


def color_edges_from_hash(tree: PhyloTree, n_colors: int, f) -> TargetColoring:
    """Slice a function on [W] into per-edge color sets.

    Edge j (canonical order) with weight w_j gets the colors at positions
    W_{j-1}+1 .. W_j, where W_j are the weight prefix sums.  ``f`` is
    callable or indexable with 1-based positions; repeated colors within an
    edge collapse, so an edge may end up with fewer colors than its weight.
    An integer ndarray row is sliced; any other f is read position by
    position.  The range check and the edge masks then take a few numpy
    passes over all W positions.
    """
    edges = tree.edge_order
    if not edges:
        return TargetColoring(n_colors, {})
    weights = [tree.weight[e] for e in edges]
    width = sum(weights)
    if isinstance(f, np.ndarray) and f.ndim == 1 and f.dtype.kind in "iu":
        if len(f) <= width:
            raise BadParams(f"f has no color at position {max(len(f), 1)}")
        colors = f[1:width + 1]
    else:
        colors = _color_positions(f, width)
    if colors.min() < 1 or colors.max() > n_colors:
        c = colors[(colors < 1) | (colors > n_colors)][0]
        raise BadParams(f"color {int(c)} outside palette [1, {n_colors}]")
    bits = 1 << (colors.astype(np.int64 if n_colors < 64 else object) - 1)
    masks = np.bitwise_or.reduceat(bits, list(itertools.accumulate(weights[:-1], initial=0)))
    return TargetColoring(n_colors, dict(zip(edges, masks.tolist())))


def _color_positions(f, width: int) -> np.ndarray:
    """Positions 1..width of a callable or indexable f, each an integer."""
    pick = f if callable(f) else f.__getitem__
    colors = []
    for pos in range(1, width + 1):
        try:
            c = pick(pos)
        except (IndexError, KeyError):
            raise BadParams(f"f has no color at position {pos}") from None
        if not isinstance(c, numbers.Integral):
            raise BadParams(f"color {c!r} at position {pos} is not an integer")
        colors.append(int(c))
    return np.array(colors)


def _palette(n_colors) -> int:
    """The full color set of a palette of n_colors, checked before any table
    is sized: BadParams for a size that is not an integer >= 0, and
    TargetTooLarge above MASK_LIMIT."""
    check_size(n_colors, "the palette size")
    if n_colors > MASK_LIMIT:
        raise TargetTooLarge(f"{n_colors} colors exceed the mask-width limit {MASK_LIMIT}")
    return (1 << n_colors) - 1


def _colored_parts(idx: DerivedIndex, coloring: TargetColoring, rows, plan):
    """The recurrence on one coloring against each capacity row of rows, as
    a one-row block of ``plan`` (a new ``_TrialPlan`` for these rows when it
    is None): the per-row parts, disjoint and in row order, of a set that
    covers the palette, or None.  The rows' tables are merged by the boolean
    cover product, the palette is split back along the merge, and each
    row's part is read back from the cells its taxa improved, each cell
    losing a taxon's colors; one row needs no merge and keeps the whole
    palette."""
    full = _palette(coloring.n_colors)
    masks = coloring.taxon_masks(idx.instance.tree)
    plan = plan or _TrialPlan(idx, coloring.n_colors, rows)
    keep = np.array([[~masks[x] for x in idx.order]], dtype=np.int64)
    improved = [[()] * len(idx.order) for _ in plan.room]
    bits = [plan._reachable(keep, room, cells)[0]
            for room, cells in zip(plan.room, improved)]
    shares = [full] * len(bits)
    if len(bits) == 1:  # g[full] alone decides; there is nothing to merge
        if not bits[0][full]:
            return None
    else:
        stages = list(itertools.accumulate(bits, boolean_cover_combine))
        if not stages[-1][full]:
            return None
        # split the palette: row i covers cell ^ sub, and rows 0 .. i - 1 sub
        for i in range(len(bits) - 1, 0, -1):
            cell = shares[i]
            sub = next(s for s in range(cell, -1, -1)
                       if s | cell == cell and stages[i - 1][s] and bits[i][cell ^ s])
            shares[i], shares[i - 1] = cell ^ sub, sub
    parts, used = [], set()
    for share, cells in zip(shares, improved):
        part = [x for x in _read_back(idx.order, cells, share,
                                      lambda x, c: c & ~masks[x]) if x not in used]
        used.update(part)
        parts.append(tuple(part))
    return tuple(parts)


def solve_colored_time_pd(idx: DerivedIndex, coloring: TargetColoring, plan=None):
    """Exact decision for one coloring, collaborative mode.

    Returns (True, saved set) when some feasible set covers the palette,
    else (False, None).  The capacity row is the prefix hours of all teams.
    ``plan`` is the request's ``_TrialPlan`` for this palette and row when
    the caller has one.
    """
    parts = _colored_parts(idx, coloring, (idx.hours,), plan)
    return (False, None) if parts is None else (True, canon(parts[0]))


def solve_colored_s_time_pd(idx: DerivedIndex, coloring: TargetColoring, plan=None):
    """Exact decision for one coloring, strict mode: one capacity row per
    team, its own prefix hours.  Returns (True, per-team parts), which are
    disjoint, or (False, None); ``plan`` as above, for the teams' rows.
    """
    parts = _colored_parts(idx, coloring, idx.team_hours, plan)
    return (False, None) if parts is None else (True, parts)


def _check_delta(delta) -> None:
    if not isinstance(delta, numbers.Real) or not 0 < delta < 1:
        raise BadParams(f"delta must be a real number in (0, 1), got {delta!r}")


def checked_seed(seed, delta) -> int:
    """The seed as an int, once seed and delta are known to be valid: a
    non-negative integer, and a real number in (0, 1)."""
    _check_delta(delta)
    try:
        seed = operator.index(seed)
    except TypeError:
        raise BadParams(f"seed must be an integer, got {seed!r}") from None
    if seed < 0:
        raise BadParams(f"seed must be non-negative, got {seed}")
    return seed


def trial_count(n_colors: int, delta: float) -> int:
    """ceil(e^k * ln(1/delta)) independent colorings of a palette that
    passes _palette."""
    _palette(n_colors)
    _check_delta(delta)
    return math.ceil(math.exp(n_colors) * math.log(1 / delta))


def trial_blocks(n_trials: int, most: int, growth: int = 4):
    """(first, count) of the trial blocks growth, growth^2, ... trials long,
    each at most ``most`` >= 1, that cover trials 1 to n_trials in order."""
    if most < 1:
        raise BadParams(f"a trial block must hold at least one trial, got {most!r}")
    first, count = 1, growth
    while first <= n_trials:
        count = min(count, most, n_trials - first + 1)
        yield first, count
        first += count
        count *= growth


# The trial stream.  draw(seed, t, p) is a stateless hash of the seed, the
# trial and the position: the seed's 64-bit words are folded into a key, trial
# t's row key is mix(key ^ t G), and word j of the row, mix(row + j G), holds
# positions 2j (low half) and 2j + 1 (high half), where mix is SplitMix64's
# finalizer and G its increment.  A half h maps to color (h k >> 32) + 1,
# unless the low half of h k falls below 2^32 mod k: then the position is
# redrawn from the same half of the word at counter j + 2^32, j + 2 2^32, ...
# until it is accepted, so every color has exactly floor(2^32 / k) halves.
_GAMMA_INT = 0x9E3779B97F4A7C15
_MIX_INT = ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB))
_GAMMA = np.uint64(_GAMMA_INT)
_MIX = tuple((np.uint64(shift), np.uint64(mult)) for shift, mult in _MIX_INT)
_MASK64 = 2**64 - 1
_LOW32, _SHIFT32 = np.uint64(2**32 - 1), np.uint64(32)


def _mix(z: np.ndarray) -> np.ndarray:
    """SplitMix64's finalizer of each uint64 of z, in place."""
    for shift, mult in _MIX:
        z ^= z >> shift
        z *= mult
    z ^= z >> np.uint64(31)
    return z


@functools.lru_cache(maxsize=1)
def _seed_key(seed: int) -> np.uint64:
    """The key of a non-negative seed: key = mix((key + G) ^ w) over its 64-bit
    words w, low word first, from key 0; one word for seed 0.  It is folded
    on Python ints, once per seed, since a request's blocks share one."""
    key = 0
    while True:
        key = ((key + _GAMMA_INT) & _MASK64) ^ (seed & _MASK64)
        for shift, mult in _MIX_INT:
            key ^= key >> shift
            key = key * mult & _MASK64
        key ^= key >> 31
        seed >>= 64
        if not seed:
            return np.uint64(key)


def trial_draws(seed: int, first: int, count: int, n_colors: int, width: int) -> np.ndarray:
    """Color draws of trials first .. first + count - 1, one row per trial.

    Row r holds the colors in [1, n_colors] at positions 0 .. width of trial
    first + r (position 0 is drawn but unused), each draw(seed, first + r,
    p) of the trial stream above, so a trial's coloring does not depend on
    how the trials are grouped into blocks.  Every block is drawn by the
    same few numpy passes; the rare rejected draw (a chance below 2^-27)
    is redrawn in place.  The rows are defined by that formula alone, not
    by any numpy generator, and ``tests/test_trial_draws.py`` pins some.

    A block holds count x (width + 1) draws, and its arrays grow with that;
    ``first_success`` keeps it within DRAW_CELLS.
    """
    rows = np.arange(first, first + count, dtype=np.uint64)
    rows *= _GAMMA
    rows ^= _seed_key(seed)
    _mix(rows)
    words = np.arange(width // 2 + 1, dtype=np.uint64)
    words *= _GAMMA
    words = _mix(words + rows[:, None])
    # the 32-bit halves of each word, low half first, times n_colors: the
    # high half of a product is the color less one, and its low half is in
    # the rejection zone below the threshold
    k, threshold = np.uint64(n_colors), 2**32 % n_colors
    halves = words.astype("<u8", copy=False).view("<u4")[:, :width + 1]
    draws = np.multiply(halves, k, dtype="<u8")
    low = draws.view("<u4")[:, 0::2]
    rejected = np.nonzero(low < threshold) if threshold and low.min() < threshold else ()
    draws >>= _SHIFT32
    draws = draws.view("<i8")
    draws += 1
    if rejected:
        r, p = rejected
        counter = (p // 2).astype(np.uint64)
        while r.size:
            counter += np.uint64(2**32)
            word = _mix(counter * _GAMMA + rows[r])
            product = (word >> (_SHIFT32 * (p % 2).astype(np.uint64)) & _LOW32) * k
            ok = (product & _LOW32) >= threshold
            draws[r[ok], p[ok]] = (product[ok] >> _SHIFT32) + 1
            r, p, counter = r[~ok], p[~ok], counter[~ok]
    return draws


class _TrialPlan:
    """What every batch of one request shares: each edge's slice of the draw
    positions, each taxon's root-path edges, per capacity row (the prefix
    hours, or each team's) the room cap - length left by each taxon, and the
    draw positions on the root paths of the taxa that fit at least one row;
    taxa are in deadline order."""

    def __init__(self, idx: DerivedIndex, n_colors: int, caps):
        tree = idx.instance.tree
        column = {e: j for j, e in enumerate(tree.edge_order)}
        weights = [tree.weight[e] for e in tree.edge_order]
        paths = [[column[e] for e in tree.root_path(x)] for x in idx.order]
        self.edge_starts = np.cumsum([0] + weights[:-1])
        self.path_edges = np.array([j for path in paths for j in path])
        self.path_starts = np.cumsum([0] + [len(path) for path in paths[:-1]])
        self.ell = [idx.instance.length(x) for x in idx.order]
        self.room = [[cap[idx.class_of[x]] - ell for x, ell in zip(idx.order, self.ell)]
                     for cap in caps]
        fitting = {j for t, path in enumerate(paths)
                   if any(room[t] >= 0 for room in self.room) for j in path}
        self.fit_draws = np.array([p for j in sorted(fitting) for p in range(
            self.edge_starts[j] + 1, self.edge_starts[j] + weights[j] + 1)], dtype=np.intp)
        self.n_colors = n_colors
        self.full = (1 << n_colors) - 1
        self.pass_rows = max(1, BATCH_CELLS >> n_colors)
        self.buffers = None  # the table passes' arrays, grown to the largest pass

    def decide(self, draws: np.ndarray) -> np.ndarray:
        """Colored decision of every trial whose draws are a row of draws.

        A screen first says no to every coloring under which the taxa that
        fit some capacity row (room >= 0) do not cover the whole palette
        between them, that is, the draws on their root paths do not.  The
        screen is exact: a set that covers the palette in a table, or in
        the teams' cover product, is made of taxa that fit a row, since the
        table of a row skips every other taxon.  The rows that pass fill
        the tables, BATCH_CELLS table cells per numpy pass.
        """
        covered = np.bitwise_or.reduce(np.left_shift(1, draws[:, self.fit_draws] - 1), axis=1)
        live = np.flatnonzero(covered == self.full)
        found = np.zeros(len(draws), dtype=bool)
        if live.size:
            bits = np.left_shift(1, draws[live, 1:] - 1)
            edge_masks = np.bitwise_or.reduceat(bits, self.edge_starts, axis=1)
            keep = ~np.bitwise_or.reduceat(edge_masks[:, self.path_edges],
                                           self.path_starts, axis=1)
            for lo in range(0, len(live), self.pass_rows):
                found[live[lo:lo + self.pass_rows]] = self._decide_rows(
                    keep[lo:lo + self.pass_rows])
        return found

    def _decide_rows(self, keep: np.ndarray) -> np.ndarray:
        """The tables' decision of each row of keep, the complements of the
        rows' taxon masks."""
        tables = [self._reachable(keep, room) for room in self.room]
        acc = tables[0]
        if len(tables) == 1:
            return acc[:, -1]
        for team in tables[1:-1]:
            acc = cover_rows(acc, team)
        return (acc & tables[-1][:, ::-1]).any(axis=1)

    def _reachable(self, keep: np.ndarray, room, improved=None) -> np.ndarray:
        """Per trial and color set C: does some set that fits the capacity
        row cover at least C?  g[C] = min(g[C], g[C & ~m] + ell) per taxon,
        where the sum is within the row.  A sum that is not gets the top
        bit, the unreached mark, so one plain minimum keeps g[C].  Given
        ``improved``, one entry per taxon, entry t becomes the set of the
        flat indices of the cells taxon t lowered, the color sets of a
        one-row batch, so that the read-back tests a cell in O(1)."""
        batch = len(keep)
        if self.buffers is None or len(self.buffers[0]) < batch:
            shape = (batch, self.full + 1)
            # base[r, C] = r 2^k + C, the flat index of cell C of row r
            self.buffers = (np.empty(shape, dtype=np.uint64), np.empty(shape, dtype=np.int64),
                            np.empty(shape, dtype=np.uint64),
                            np.arange(shape[0] * shape[1]).reshape(shape))
        g, at, src, base = (b[:batch] for b in self.buffers)
        g.fill(_UNREACHED)
        g[:, 0] = 0
        flat = g.reshape(-1)
        over = at.view(np.uint64)  # at is spent once src is taken
        for t, limit in enumerate(room):
            if limit < 0:
                continue
            # ~m has every bit from k up, so the row's offset r 2^k stays
            np.bitwise_and(base, keep[:, t, None], out=at)
            flat.take(at, out=src)
            np.subtract(limit, src, out=over)  # top bit set iff src > limit
            over &= _UNREACHED
            src += self.ell[t]
            src |= over
            if improved is not None:
                improved[t] = set((src < g).ravel().nonzero()[0].tolist())
            np.minimum(g, src, out=g)
        return g != _UNREACHED


def _singleton_shortcut(instance, idx, algorithm):
    """Any savable taxon whose root path already meets the target is a yes.

    This also covers the heavy-edge shortcut: an edge at least as heavy as
    the target with a savable offspring yields such a taxon.
    """
    values = {x: pd_of_subset(instance.tree, [x]) for x in instance.tree.taxa
              if savable_alone(instance, idx, x)}
    x = max(values, key=values.get, default=None)  # the first of the best
    if x is None or values[x] < instance.target:
        return None
    sched = (strict_feasible(instance, [x]) if instance.mode == STRICT
             else build_collaborative_schedule(idx, [x]))
    return checked_yes(idx, algorithm, (x,), sched, trials=0,
                       diagnostics={"shortcut": "single taxon"})


def first_success(seed: int, n_trials: int, most: int, n_colors: int,
                  width: int, decide, growth: int):
    """(trial, draws row) of the lowest of trials 1 .. n_trials whose row
    ``decide`` accepts, or None; trials are drawn in the blocks of
    ``trial_blocks(n_trials, most, growth)``, where ``most`` is further
    capped at DRAW_CELLS draws per block.  ``decide`` is exact, so its first
    yes is the first success."""
    most = min(most, max(1, DRAW_CELLS // (width + 1)))
    for first, count in trial_blocks(n_trials, most, growth):
        draws = trial_draws(seed, first, count, n_colors, width)
        hits = np.flatnonzero(decide(draws))
        if hits.size:
            return first + int(hits[0]), draws[hits[0]]
    return None


def _solve_by_target(instance, delta, seed, mode):
    """The trial loop of both modes: the request's ``_TrialPlan`` decides
    every trial against each team's hours in strict mode, else the prefix
    hours of all teams, and the mode's kernel re-runs the first success as a
    one-row block of the same plan for its parts, the witness."""
    seed = checked_seed(seed, delta)
    check_mode(instance, mode, "fpt-d")
    idx = build_derived_index(instance)
    out = (trivial_outcome(idx, "fpt-d", trials=0)
           or _singleton_shortcut(instance, idx, "fpt-d"))
    if out is not None:
        out.seed = seed
        return out
    k, tree = instance.target, instance.tree
    _palette(k)  # TargetTooLarge before any table is sized
    strict = mode == STRICT
    plan = _TrialPlan(idx, k, idx.team_hours if strict else (idx.hours,))
    n_trials = trial_count(k, delta)
    # up to 16 rows a block even at wide targets: a block's fixed cost is many rows' worth
    hit = first_success(seed, n_trials, max(16, BATCH_CELLS >> k), k,
                        tree.total_weight(), plan.decide, _GROWTH)
    if hit is None:
        return SolveOutcome(False, "fpt-d", trials=n_trials, seed=seed,
                            diagnostics={"planned_trials": n_trials, "delta": delta})
    trial, row = hit
    # by name at call time, so that a rebound kernel (the tracer's) runs
    kernel = solve_colored_s_time_pd if strict else solve_colored_time_pd
    _, found = kernel(idx, color_edges_from_hash(tree, k, row), plan)
    parts = found if strict else (found,)
    saved = canon(x for part in parts for x in part)
    sched = (schedule_team_parts(instance, parts) if strict
             else build_collaborative_schedule(idx, saved))
    return checked_yes(idx, "fpt-d", saved, sched, trials=trial, seed=seed,
                       diagnostics={"planned_trials": n_trials})


def solve_time_pd_by_target(instance: Instance, delta: float = 1e-3,
                            seed: int = 0) -> SolveOutcome:
    """Randomized color-coding solver, collaborative mode.

    One-sided: every yes ships a re-verified witness; a no is wrong with
    probability at most delta.
    """
    return _solve_by_target(instance, delta, seed, COLLABORATIVE)


def solve_s_time_pd_by_target(instance: Instance, delta: float = 1e-3,
                              seed: int = 0) -> SolveOutcome:
    """Randomized color-coding solver, strict mode (same contract)."""
    return _solve_by_target(instance, delta, seed, STRICT)
