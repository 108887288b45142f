"""Known answers and statistics of the trial stream.

Trial t's color at position p is draw(seed, t, p): a SplitMix64 hash of the
seed's key, the trial and the position, mapped onto the palette by a
multiply-shift with exact rejection (see ``rescuepd.color_target``).  The
stream is the library's own formula, so the rows pinned here hold for every
numpy version.  A change to any of them changes every randomized trial's
coloring, and with it first-success trials and the outcome digests, so it
is a redefinition to be made on purpose.  ``reference.trial_colors``
computes the same formula on Python ints.
"""

import itertools
import math
import statistics

import numpy as np
import pytest

from rescuepd import Instance, PhyloTree, TaxonInfo, TeamWindow, build_derived_index
from rescuepd.color_loss import LOSS_LIMIT
from rescuepd.color_target import MASK_LIMIT, _TrialPlan, trial_draws

from reference import GAMMA, MASK32, MASK64, row_key, splitmix, trial_colors
from test_color_batch import BATCH_STARTS

SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**96)
PALETTES = (1, 2, 5, 26, 2 * LOSS_LIMIT, MASK_LIMIT)

# trial 1 at width 25: every seed at 26 colors, and seed 1 at every palette
PINNED = {
    (0, 26): [14, 10, 7, 3, 26, 12, 13, 2, 1, 19, 1, 9, 24, 8, 24, 11, 24, 7, 18, 21, 11,
              21, 16, 26, 1, 10],
    (1, 26): [8, 25, 6, 10, 20, 15, 7, 17, 2, 7, 15, 13, 17, 25, 7, 17, 3, 18, 11, 5, 21,
              25, 19, 5, 23, 8],
    (2**32 - 1, 26): [19, 23, 14, 4, 2, 26, 20, 21, 8, 25, 11, 5, 21, 1, 15, 24, 5, 1, 9,
                      13, 16, 17, 7, 26, 17, 23],
    (2**32, 26): [21, 14, 7, 20, 5, 15, 20, 4, 21, 4, 17, 6, 16, 10, 3, 17, 22, 18, 14, 10,
                  24, 2, 1, 22, 19, 9],
    (2**64 + 5, 26): [6, 3, 8, 11, 19, 3, 4, 10, 16, 9, 24, 13, 8, 21, 1, 13, 8, 9, 3, 13,
                      2, 24, 9, 15, 25, 9],
    (2**96, 26): [23, 25, 25, 23, 19, 2, 5, 7, 14, 13, 17, 2, 13, 16, 16, 10, 23, 9, 25, 13,
                  26, 13, 7, 6, 6, 2],
    (1, 1): [1] * 26,
    (1, 2): [1, 2, 1, 1, 2, 2, 1, 2, 1, 1, 2, 1, 2, 2, 1, 2, 1, 2, 1, 1, 2, 2, 2, 1, 2, 1],
    (1, 5): [2, 5, 1, 2, 4, 3, 2, 4, 1, 2, 3, 3, 4, 5, 2, 4, 1, 4, 2, 1, 4, 5, 4, 1, 5, 2],
    (1, 28): [9, 27, 6, 11, 21, 16, 8, 19, 2, 8, 16, 14, 18, 27, 7, 18, 4, 19, 12, 5, 22,
              26, 20, 5, 24, 8],
    (1, 30): [10, 29, 6, 12, 23, 17, 8, 20, 2, 9, 17, 15, 19, 29, 8, 20, 4, 21, 12, 5, 24,
              28, 22, 5, 26, 9],
}


@pytest.mark.parametrize("seed, n_colors", sorted(PINNED, key=str))
def test_pinned_rows(seed, n_colors):
    """Trial 1's row, and its prefixes at widths 0 and 1, in the library and
    in the scalar formula."""
    row = PINNED[seed, n_colors]
    for width in (0, 1, 25):
        assert trial_draws(seed, 1, 1, n_colors, width).tolist() == [row[:width + 1]]
        assert trial_colors(seed, 1, n_colors, width).tolist() == row[:width + 1]


def test_a_row_does_not_depend_on_its_block():
    """Trial 300 of seed 2027 is the same row alone, inside fpt-dbar's block
    of 256 (trials 85-340) and fpt-d's of 512 at target 5 (trials 273-784),
    in a block of 512 from trial 1, and in a block that crosses trial
    2^32."""
    row = [1, 1, 1, 2, 5, 2, 2, 3, 3, 5, 4, 2, 5, 2, 1, 1, 2, 4, 3, 3, 2, 2, 1, 3, 2, 4]
    for first, count in ((300, 1), (85, 256), (273, 512), (1, 512)):
        assert trial_draws(2027, first, count, 5, 25)[300 - first].tolist() == row
    late = [2, 4, 2, 5, 5, 3, 4, 4, 1, 3, 2, 5, 5, 4, 2, 3, 5, 4, 1, 2, 1, 2, 5, 5, 1, 4]
    for first, count in ((2**32 + 3, 1), (2**32 - 10, 20)):
        assert trial_draws(2027, first, count, 5, 25)[2**32 + 3 - first].tolist() == late


@pytest.mark.parametrize("seed", SEEDS)
def test_rows_equal_the_per_trial_generator(seed):
    """Blocks of 20 rows, from each block start of both solvers and across
    trial 2^32, at every palette and at widths 0, 1 and 25, against the
    scalar formula one trial at a time."""
    starts = BATCH_STARTS + (2**32 - 20, 2**32 - 10)  # the last block crosses 2^32
    for n_colors, first, width in itertools.product(PALETTES, starts, (0, 1, 25)):
        got = trial_draws(seed, first, 20, n_colors, width)
        want = [trial_colors(seed, t, n_colors, width) for t in range(first, first + 20)]
        assert np.array_equal(got, want), (seed, n_colors, first, width)


def test_large_blocks_and_wide_rows():
    for seed, n_colors, width in ((12345, 7, 55), (2027 * 1_000_003 + 17, 3, 2),
                                  (2**40 + 5, MASK_LIMIT, 200)):
        want = [trial_colors(seed, t, n_colors, width) for t in range(86, 386)]
        assert np.array_equal(trial_draws(seed, 86, 300, n_colors, width), want)


@pytest.mark.parametrize("first, count", [(1, 1), (2, 4), (6, 15), (2**32 - 15, 16)])
def test_small_and_late_blocks_stay_per_trial(first, count):
    """Blocks of one row, of a few and past trial 2^32 hold each trial's
    own row, as larger blocks do."""
    want = [trial_colors(7, t, 5, 9) for t in range(first, first + count)]
    assert np.array_equal(trial_draws(7, first, count, 5, 9), want)


def test_blocks_take_the_numpy_path(monkeypatch):
    """No numpy generator is built: the stream is the library's formula."""
    def refuse(*args, **kwargs):
        raise AssertionError("a numpy generator was built")

    for name in ("Generator", "PCG64", "SeedSequence", "default_rng"):
        monkeypatch.setattr(np.random, name, refuse)
    for count in (1, 16, 64):
        want = [trial_colors(1, t, 5, 25) for t in range(2, 2 + count)]
        assert np.array_equal(trial_draws(1, 2, count, 5, 25), want)


def test_seeds_that_differ_above_bit_64_differ():
    rows = {seed: trial_draws(seed, 1, 4, 30, 25).tobytes()
            for seed in (0, 1, 5, 2**64, 2**64 + 1, 2**64 + 5, 2**65 + 5, 2**96, 2**128)}
    assert len(set(rows.values())) == len(rows)


def test_a_rejected_draw_is_redrawn():
    """Position 49 of trial 1088761 of seed 1, found by a search, draws a
    half whose product with 26 has its low half below 2^32 mod 26 = 22.  The
    plain map would give color 14; the redraw from counter 24 + 2^32 gives
    1, in a block of one row and inside a block of 100."""
    word = splitmix((row_key(1, 1088761) + 24 * GAMMA) & MASK64)
    product = (word >> 32) * 26
    assert product & MASK32 < 2**32 % 26 and (product >> 32) + 1 == 14
    assert trial_colors(1, 1088761, 26, 49)[49] == 1
    assert trial_draws(1, 1088761, 1, 26, 49)[0, 49] == 1
    block = trial_draws(1, 1088700, 100, 26, 60)
    assert np.array_equal(block[61], trial_colors(1, 1088761, 26, 60))


def chi_square_limit(df: int, alpha: float = 1e-6) -> float:
    """The upper alpha quantile of chi-square with df degrees of freedom,
    by the Wilson-Hilferty approximation."""
    z = statistics.NormalDist().inv_cdf(1 - alpha)
    return df * (1 - 2 / (9 * df) + z * math.sqrt(2 / (9 * df))) ** 3


def chi_square(counts: np.ndarray) -> float:
    expected = counts.sum() / counts.size
    return float(((counts - expected) ** 2).sum() / expected)


@pytest.mark.parametrize("n_colors", [2, 5, 26, MASK_LIMIT])
def test_colors_and_pairs_are_uniform(n_colors):
    """2048 trials x 100 positions of seed 2027: the color frequencies, the
    pairs within a word (2j, 2j + 1), across words (2j + 1, 2j + 2) and of
    one position in consecutive trials each pass a chi-square test at
    1e-6."""
    draws = trial_draws(2027, 1, 2048, n_colors, 99) - 1
    assert chi_square(np.bincount(draws.ravel(), minlength=n_colors)) < \
        chi_square_limit(n_colors - 1)
    pairs = ((draws[:, 0::2], draws[:, 1::2]), (draws[:, 1:-1:2], draws[:, 2::2]),
             (draws[:-1], draws[1:]))
    for a, b in pairs:
        counts = np.bincount((a * n_colors + b).ravel(), minlength=n_colors**2)
        assert chi_square(counts) < chi_square_limit(n_colors**2 - 1), n_colors


@pytest.mark.parametrize("k", [3, 4])
def test_each_trial_hits_a_planted_witness_often_enough(k):
    """k unit leaves that one team can just save, beside two heavy leaves
    that cannot be saved: a trial succeeds iff the k leaves get k distinct
    colors, with chance k!/k^k >= e^-k, the bound that the trial count
    ceil(e^k ln(1/delta)) rests on.  Over 4096 trials the share of
    successes is at least e^-k less a binomial margin, and within one of
    k!/k^k."""
    edges = [("r", f"x{i}", 1) for i in range(k)] + [("r", "y", 2), ("r", "z", 2)]
    taxa = {f"x{i}": TaxonInfo(1, k) for i in range(k)}
    taxa.update(y=TaxonInfo(k + 1, k), z=TaxonInfo(k + 1, k))
    inst = Instance(PhyloTree.from_edges(edges), taxa, (TeamWindow(0, k),), k)
    idx = build_derived_index(inst)
    n = 4096
    for seed in (1, 2027):
        draws = trial_draws(seed, 1, n, k, inst.tree.total_weight())
        share = _TrialPlan(idx, k, (idx.hours,)).decide(draws).mean()
        exact = math.factorial(k) / k**k
        bound = math.exp(-k)
        assert share >= bound - 5 * math.sqrt(bound * (1 - bound) / n), (seed, share)
        assert abs(share - exact) <= 5 * math.sqrt(exact * (1 - exact) / n), (seed, share)
