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

Trial t colors the tree from its own seeded generator,
``Generator(PCG64(SeedSequence([seed, t])))``, so every trial is decided
independently of the others.  ``trial_draws`` makes the colorings of a
block of trials at once: from 16 rows up it runs the SeedSequence hashing
and the PCG64 steps of every row in numpy, on the 128-bit states as pairs
of uint64 words, and applies Lemire's bounded draw to the whole block.
What the blocks of one request share is worked out once, in its
``_BlockConstants``.  The rows are bit-identical to the per-trial
generator, which redraws the rare row that hits Lemire's rejection;
``tests/test_trial_draws.py`` pins this for the installed numpy.

The request's ``_TrialPlan`` decides every trial, in blocks of 1, 16, 256,
... colorings of at most max(16, 2^14 / 2^k) rows and DRAW_CELLS draws,
and screens each block first: a coloring under which the taxa that fit
some capacity row do not cover the palette between them is a no, exactly,
since a table adds no other taxon.  The rest are decided 2^14 table cells
per numpy pass over (trials x color sets).  ``first_success``, which both color-coding solvers
use, returns the lowest successful trial.  The one-coloring kernel
(``solve_colored_time_pd`` / ``solve_colored_s_time_pd``) runs the same
recurrence on that coloring alone and reads the witness back from the
cells each taxon improved, so the outcome is the one a trial-by-trial
loop gives.
"""

from __future__ import annotations

import itertools
import math
import numbers
import operator
from dataclasses import dataclass
from functools import cached_property

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


def _colored_table(idx: DerivedIndex, masks: dict, cap, full: int):
    """The recurrence on one coloring against one capacity row.

    Returns g, where g[C] is the least rescue length of a set that covers
    at least the colors C and fits the capacity row, and per taxon in
    deadline order the cells it improved, from which a witness is read back.
    """
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


def _palette(n_colors) -> int:
    """The full color set of a palette of n_colors, checked before any table
    is sized: BadParams for a size that is not an integer >= 0, and
    TargetTooLarge above MASK_LIMIT."""
    check_size(n_colors, "the palette size")
    if n_colors > MASK_LIMIT:
        raise TargetTooLarge(f"{n_colors} colors exceed the mask-width limit {MASK_LIMIT}")
    return (1 << n_colors) - 1


def _colored_parts(idx: DerivedIndex, coloring: TargetColoring, rows):
    """The recurrence on one coloring against each capacity row of rows:
    the per-row parts, disjoint and in row order, of a set that covers the
    palette, or None.  The rows' tables are merged by the boolean cover
    product, the palette is split back along the merge, and each row's part
    is read back from the cells its taxa improved, each cell losing a
    taxon's colors; one row needs no merge and keeps the whole palette."""
    full = _palette(coloring.n_colors)
    masks = coloring.taxon_masks(idx.instance.tree)
    tables = [_colored_table(idx, masks, cap, full) for cap in rows]
    shares = [full] * len(tables)
    if len(tables) == 1:  # g[full] alone decides; there is nothing to merge
        if tables[0][0][full] == INF:
            return None
    else:
        bits = [[v < INF for v in g] for g, _ in tables]
        stages = list(itertools.accumulate(bits, boolean_cover_combine))
        if not stages[-1][full]:
            return None
        # split the palette: row i covers cell ^ sub, and rows 0 .. i - 1 sub
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


def solve_colored_time_pd(idx: DerivedIndex, coloring: TargetColoring):
    """Exact decision for one coloring, collaborative mode.

    Returns (True, saved set) when some feasible set covers the palette,
    else (False, None).  The capacity row is the prefix hours of all teams.
    """
    parts = _colored_parts(idx, coloring, (idx.hours,))
    return (False, None) if parts is None else (True, canon(parts[0]))


def solve_colored_s_time_pd(idx: DerivedIndex, coloring: TargetColoring):
    """Exact decision for one coloring, strict mode: one capacity row per
    team, its own prefix hours.  Returns (True, per-team parts), which are
    disjoint, or (False, None).
    """
    parts = _colored_parts(idx, coloring, idx.team_hours)
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
    """(first, count) of the trial blocks 1, growth, growth^2, ... trials
    long, each at most ``most`` >= 1, that cover trials 1 to n_trials in
    order."""
    if most < 1:
        raise BadParams(f"a trial block must hold at least one trial, got {most!r}")
    first, count = 1, 1
    while first <= n_trials:
        count = min(count, most, n_trials - first + 1)
        yield first, count
        first += count
        count *= growth


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, trial])))


# numpy's SeedSequence: a pool of four uint32 words, each input word and each
# pool word hashed with the next constant of a fixed sequence, and the words
# crossed by mix().  mix_entropy makes 4 + 12 hashes, generate_state(4,
# uint64) eight.  PCG64 is then seeded with PCG's srandom: inc = 2 seq + 1,
# state = (inc + init) M + inc (mod 2^128).  Each raw output steps the state,
# s <- s M + inc, and returns the XSL-RR of the new state.  The 128-bit
# numbers are (hi, lo) pairs of uint64 arrays, whose arithmetic wraps mod 2^64.
_POOL = 4
_BLOCK_ROWS = 16  # below this the per-call cost beats the per-row saving
_MIX_L, _MIX_R, _XSHIFT = np.uint32(0xca01f9dd), np.uint32(0x4973f715), np.uint32(16)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK64, _MASK128 = 2**32 - 1, 2**64 - 1, 2**128 - 1
_LOW32, _SHIFT32 = np.uint64(_MASK32), np.uint64(32)


def _hash_constants(value: int, mult: int, n: int) -> np.ndarray:
    out = [value]
    for _ in range(n):
        out.append(out[-1] * mult & _MASK32)
    return np.array(out, dtype=np.uint32)


_MIX_HASH = _hash_constants(0x43b0d7e5, 0x931e8875, 16)[:, None]
_STATE_HASH = _hash_constants(0x8b51f9dd, 0x58f38ded, 8)
_OTHERS = [np.array([dst for dst in range(_POOL) if dst != src]) for src in range(_POOL)]
_TWICE = np.tile(np.arange(_POOL), 2)  # generate_state hashes the pool words twice over


def _hashmix(value: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """numpy's hashmix with consecutive constants: where value broadcasts
    against consts[j], it is xored with consts[j] and times consts[j + 1]."""
    value = (value ^ consts[:-1]) * consts[1:]
    return value ^ (value >> _XSHIFT)


def _seed_words(seed: int) -> list:
    """The 32-bit words SeedSequence takes from a non-negative int."""
    words = [seed & _MASK32]
    while seed := seed >> 32:
        words.append(seed & _MASK32)
    return words


def _mulhi64(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The high 64 bits of each a * b, from products of 32-bit limbs."""
    a0, a1 = a & _LOW32, a >> _SHIFT32
    b0, b1 = b & _LOW32, b >> _SHIFT32
    mid = a0 * b0
    mid >>= _SHIFT32
    mid += a1 * b0
    low = a0 * b1
    low += mid & _LOW32
    low >>= _SHIFT32
    mid >>= _SHIFT32
    mid += low
    del low  # at most three block-sized arrays live at once
    mid += a1 * b1
    return mid


def _mul128(hi: np.ndarray, lo: np.ndarray, k_hi: np.ndarray, k_lo: np.ndarray):
    """(hi, lo) * (k_hi, k_lo) mod 2^128."""
    high = _mulhi64(lo, k_lo)
    high += hi * k_lo
    high += lo * k_hi
    return high, lo * k_lo


def _iadd128(hi: np.ndarray, lo: np.ndarray, hi2: np.ndarray, lo2: np.ndarray):
    """(hi, lo) += (hi2, lo2) mod 2^128, in place; the low words' sum carries."""
    lo += lo2
    hi += hi2
    hi += lo < lo2


def _xsl_rr(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """PCG64's output of each state: hi ^ lo rotated right by hi >> 58."""
    folded = hi ^ lo
    rot = hi >> np.uint64(58)
    out = folded >> rot
    np.negative(rot, out=rot)
    rot &= np.uint64(63)  # a rotation by 0 shifts left by 0, not 64
    folded <<= rot
    out |= folded
    return out


_jumps = np.zeros((2, 2, 1, 0), dtype=np.uint64)  # see _jump_table


def _jump_table(n: int) -> np.ndarray:
    """The (hi, lo) words of the constants of raw positions 0 .. n - 1.

    Seeded with (init, seq), PCG64 is at P init + Q inc after j + 1 steps,
    where P = M^(j+2), Q = 1 + M + ... + M^(j+2) and inc = 2 seq + 1, and
    [:, :, 0, j] holds P and Q.  One table serves every call: it grows on
    demand to the widest row drawn, and each call takes a slice of it.
    """
    global _jumps
    table = _jumps
    if table.shape[-1] < n:
        power, total, columns = _PCG_MULT**2 & _MASK128, 1 + _PCG_MULT, []
        for _ in range(max(n, 2 * table.shape[-1])):
            total = (total + power) & _MASK128
            columns.append((power, total))
            power = power * _PCG_MULT & _MASK128
        consts = np.array(columns, dtype=object).T[:, None]
        table = _jumps = np.array([consts >> 64, consts & _MASK64], dtype=np.uint64)
    return table[..., :n]


def _mix_round(pool: np.ndarray, src: int) -> None:
    """mix_entropy's round of source word src, in place: pool[src] is fixed
    while it is mixed into the other three words."""
    n = _POOL + (_POOL - 1) * src
    others = _OTHERS[src]
    mixed = _MIX_L * pool[others] - _MIX_R * _hashmix(pool[src], _MIX_HASH[n:n + _POOL])
    pool[others] = mixed ^ (mixed >> _XSHIFT)


def _seed_prefix(words: list):
    """What SeedSequence([seed, t]) computes before it first reads t, the
    same for every t: the pool after the rounds of the seed's words (its
    word len(words), t's, is a placeholder that each block overwrites), and
    per such round what it subtracts from t's word."""
    at = len(words)
    entropy = np.zeros((_POOL, 1), dtype=np.uint32)
    entropy[:at, 0] = words
    pool = _hashmix(entropy, _MIX_HASH[:_POOL + 1])
    subtract = []
    for src in range(at):
        j = _POOL + (_POOL - 1) * src + at - 1  # t's word is the (at - 1)-th of the others
        subtract.append(_MIX_R * _hashmix(pool[src], _MIX_HASH[j:j + 2]))
        _mix_round(pool, src)
    return pool, subtract


def _seed_block(prefix, at: int, first: int, count: int) -> np.ndarray:
    """SeedSequence([seed, t]).generate_state(4, np.uint64) for each trial t
    of first .. first + count - 1 < 2^32, one column per trial, from the
    seed's ``_seed_prefix`` and its word count ``at``, which leaves room for
    t in the pool.  PCG64 reads the rows as init's (hi, lo) and seq's (hi,
    lo)."""
    const, subtract = prefix
    word = _hashmix(np.arange(first, first + count, dtype=np.uint32),
                    _MIX_HASH[at:at + 2])
    for sub in subtract:
        word = _MIX_L * word - sub
        word ^= word >> _XSHIFT
    pool = np.empty((_POOL, count), dtype=np.uint32)
    pool[:] = const
    pool[at] = word
    for src in range(at, _POOL):
        _mix_round(pool, src)
    # uint64 word j of the state is its uint32 words 2j (low) and 2j + 1
    half = _hashmix(pool.T.take(_TWICE, axis=1), _STATE_HASH)
    return half.astype("<u4", copy=False).view("<u8").T


def _pcg_outputs(seeded: np.ndarray, n: int, table: np.ndarray = None) -> np.ndarray:
    """The first n raw outputs of PCG64 seeded with each column of seeded,
    (init_hi, init_lo, seq_hi, seq_lo), one row per column; ``table`` is
    ``_jump_table(n)`` when the caller holds it."""
    if table is None:
        table = _jump_table(n)
    words = seeded.copy()  # (init, seq) becomes (init, inc), inc = 2 seq + 1
    words[2:] <<= np.uint64(1)
    words[2] |= seeded[3] >> np.uint64(63)
    words[3] |= np.uint64(1)
    hi, lo = _mul128(words[0::2, :, None], words[1::2, :, None], *table)
    _iadd128(hi[0], lo[0], hi[1], lo[1])
    return _xsl_rr(hi[0], lo[0])


class _BlockConstants:
    """What every block of one seed, palette and width that is drawn in
    numpy shares: the seed's words and their part of the SeedSequence
    pool, the jump constants of the row's positions and Lemire's rejection
    threshold.  The pool and the jump constants are worked out at the
    first such block; a request whose blocks all stay per-trial, such as
    one of very wide rows, needs neither."""

    def __init__(self, seed: int, n_colors: int, width: int):
        self.words = _seed_words(seed)
        self.n_raw = width // 2 + 1
        self.threshold = np.uint64((2**32 - n_colors) % n_colors)

    @cached_property
    def prefix(self):
        return _seed_prefix(self.words)

    @cached_property
    def table(self) -> np.ndarray:
        return _jump_table(self.n_raw)


def trial_draws(seed: int, first: int, count: int, n_colors: int, width: int,
                shared: _BlockConstants = None) -> np.ndarray:
    """Color draws of trials first .. first + count - 1, one row per trial.

    Row r holds the colors in [1, n_colors] at positions 0 .. width of trial
    first + r (position 0 is drawn but unused), bit-identical to
    ``_trial_rng(seed, first + r).integers(1, n_colors + 1, size=width + 1)``,
    so a trial's coloring does not depend on how the trials are grouped.

    Blocks of 16 rows or more run every row's PCG64 in numpy: the
    SeedSequence hashing over the trial indices, then the 128-bit seeding,
    steps and output of all rows and positions at once, each position's
    state reached by jumping ahead from the seed.  Lemire's bounded draw
    maps the 32-bit halves (low half first) to colors for the whole block.
    A row in which some draw falls in Lemire's rejection zone is redrawn by
    ``_trial_rng``, as are small blocks, seeds of four or more words and
    blocks that reach trial 2^32 (whose entropy no longer fits the pool).
    numpy does not promise stable streams across versions (NEP 19); the
    equality test against ``_trial_rng`` pins the installed numpy.

    A block holds count x (width + 1) draws, and its arrays grow with
    that; ``first_success`` keeps it within DRAW_CELLS.  A caller that
    draws many blocks of one seed, palette and width passes their
    ``_BlockConstants`` as ``shared``, so each is worked out once.
    """
    draws = np.empty((count, width + 1), dtype=np.int64)
    shared = shared or _BlockConstants(seed, n_colors, width)
    words = shared.words
    if count < _BLOCK_ROWS or len(words) >= _POOL or first + count > 2**32:
        redraw = range(count)
    else:
        raw = _pcg_outputs(_seed_block(shared.prefix, len(words), first, count),
                           shared.n_raw, shared.table)
        # the 32-bit halves of each output, low half first, times n_colors;
        # the high half of a product is the color less one, the low half is
        # in the rejection zone below the threshold
        scaled = raw.astype("<u8", copy=False).view("<u4")[:, :width + 1] * np.uint64(n_colors)
        halves = scaled.astype("<u8", copy=False).view("<u4")
        np.add(halves[:, 1::2], 1, out=draws, casting="unsafe")
        low, redraw = halves[:, 0::2], []
        if shared.threshold and low.min() < shared.threshold:
            redraw = np.flatnonzero((low < shared.threshold).any(axis=1)).tolist()
    for r in redraw:
        draws[r] = _trial_rng(seed, first + r).integers(1, n_colors + 1, size=width + 1)
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
        if self.buffers is None or len(self.buffers[0]) < len(keep):
            shape = (len(keep), self.full + 1)
            # base[r, C] = r 2^k + C, the flat index of cell C of row r
            self.buffers = (np.empty(shape, dtype=np.uint64), np.empty(shape, dtype=np.int64),
                            np.empty(shape, dtype=np.uint64),
                            np.arange(shape[0] * shape[1]).reshape(shape))
        tables = [self._reachable(keep, room) for room in self.room]
        acc = tables[0]
        if len(tables) == 1:
            return acc[:, -1]
        for team in tables[1:-1]:
            acc = cover_rows(acc, team)
        return (acc & tables[-1][:, ::-1]).any(axis=1)

    def _reachable(self, keep: np.ndarray, room) -> np.ndarray:
        """Per trial and color set C: does some set that fits the capacity
        row cover at least C?  g[C] = min(g[C], g[C & ~m] + ell) per taxon,
        where the sum is within the row.  A sum that is not gets the top
        bit, the unreached mark, so one plain minimum keeps g[C]."""
        batch = len(keep)
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
            np.take(flat, at, out=src)
            np.subtract(limit, src, out=over)  # top bit set iff src > limit
            over &= _UNREACHED
            src += self.ell[t]
            src |= over
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
    shared = _BlockConstants(seed, n_colors, width)
    for first, count in trial_blocks(n_trials, most, growth):
        draws = trial_draws(seed, first, count, n_colors, width, shared)
        hits = np.flatnonzero(decide(draws))
        if hits.size:
            return first + int(hits[0]), draws[hits[0]]
    return None


def _solve_by_target(instance, delta, seed, kernel, witness, mode):
    """The trial loop of both modes: the request's ``_TrialPlan`` decides
    every trial against each team's hours in strict mode, else the prefix
    hours of all teams, as ``kernel`` does; ``kernel`` and ``witness`` turn
    the first success into a (saved set, schedule)."""
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
    plan = _TrialPlan(idx, k, idx.team_hours if mode == STRICT else (idx.hours,))
    n_trials = trial_count(k, delta)
    # blocks of 16 rows or more take the block draw at any target
    hit = first_success(seed, n_trials, max(_BLOCK_ROWS, BATCH_CELLS >> k), k,
                        tree.total_weight(), plan.decide, _GROWTH)
    if hit is None:
        return SolveOutcome(False, "fpt-d", trials=n_trials, seed=seed,
                            diagnostics={"planned_trials": n_trials, "delta": delta})
    trial, row = hit
    _, found = kernel(idx, color_edges_from_hash(tree, k, row))
    saved, sched = witness(instance, idx, found)
    return checked_yes(idx, "fpt-d", saved, sched, trials=trial, seed=seed,
                       diagnostics={"planned_trials": n_trials})


def _collaborative_witness(instance, idx, saved):
    return saved, build_collaborative_schedule(idx, saved)


def _strict_witness(instance, idx, parts):
    return canon(x for part in parts for x in part), schedule_team_parts(instance, parts)


def solve_time_pd_by_target(instance: Instance, delta: float = 1e-3,
                            seed: int = 0) -> SolveOutcome:
    """Randomized color-coding solver, collaborative mode.

    One-sided: every yes ships a re-verified witness; a no is wrong with
    probability at most delta.
    """
    return _solve_by_target(instance, delta, seed, solve_colored_time_pd,
                            _collaborative_witness, COLLABORATIVE)


def solve_s_time_pd_by_target(instance: Instance, delta: float = 1e-3,
                              seed: int = 0) -> SolveOutcome:
    """Randomized color-coding solver, strict mode (same contract)."""
    return _solve_by_target(instance, delta, seed, solve_colored_s_time_pd,
                            _strict_witness, STRICT)
