"""Block draws of trial colorings against the per-trial generator.

``trial_draws`` seeds many trials' PCG64 generators per numpy pass and maps
their raw output to colors with Lemire's bounded method, which must give
the colors ``_trial_rng`` gives, row for row.  numpy does not promise stable
streams across versions (NEP 19), so these tests pin the installed numpy:
after an upgrade they fail loudly rather than let reported trials drift.
Never skip them.
"""

import numpy as np
import pytest

from rescuepd import color_target
from rescuepd.color_loss import LOSS_LIMIT
from rescuepd.color_target import MASK_LIMIT, _trial_rng, trial_draws

from test_color_batch import BATCH_STARTS

SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**96)
PALETTES = (1, 2, 5, 26, 2 * LOSS_LIMIT, MASK_LIMIT)


def reference(seed, first, count, n_colors, width):
    return np.array([_trial_rng(seed, t).integers(1, n_colors + 1, size=width + 1)
                     for t in range(first, first + count)]).reshape(count, width + 1)


@pytest.fixture
def scalar_trials(monkeypatch):
    """The trials that trial_draws hands to the per-trial generator."""
    trials = []

    def counted(seed, trial):
        trials.append(trial)
        return _trial_rng(seed, trial)

    monkeypatch.setattr(color_target, "_trial_rng", counted)
    return trials


def plain_lemire(seed, trial, n_colors, width):
    """Lemire's map without its rejection step, from the trial's raw stream."""
    bitgen = np.random.PCG64(np.random.SeedSequence([seed, trial]))
    raw = bitgen.random_raw(width // 2 + 1)
    halves = np.stack([raw & np.uint64(2**32 - 1), raw >> np.uint64(32)], axis=1)
    return (halves.reshape(-1)[:width + 1] * np.uint64(n_colors) >> np.uint64(32)) + 1


def test_a_rejected_draw_is_redrawn(scalar_trials):
    # trial 16908 of seed 1 draws a value in Lemire's rejection zone for a
    # 26-color palette, so its colors are not the plain map of its stream
    row = trial_draws(1, 16908, 16, 26, 200)[0]
    expected = reference(1, 16908, 1, 26, 200)[0]
    assert not np.array_equal(plain_lemire(1, 16908, 26, 200), expected)
    assert np.array_equal(row, expected)
    assert scalar_trials == [16908]


def test_blocks_take_the_numpy_path(scalar_trials):
    draws = trial_draws(1, 2, 64, 5, 25)
    assert scalar_trials == []
    assert np.array_equal(draws, reference(1, 2, 64, 5, 25))


@pytest.mark.parametrize("seed", SEEDS)
def test_rows_equal_the_per_trial_generator(seed):
    starts = BATCH_STARTS + (2**32 - 20, 2**32 - 10)  # the last block crosses 2^32
    for n_colors in PALETTES:
        for first in starts:
            for width in (0, 1, 25):
                got = trial_draws(seed, first, 20, n_colors, width)
                assert np.array_equal(got, reference(seed, first, 20, n_colors, width)), \
                    (seed, n_colors, first, width)


def test_large_blocks_and_wide_rows():
    for seed, n_colors, width in ((12345, 7, 55), (2027 * 1_000_003 + 17, 3, 2),
                                  (2**40 + 5, MASK_LIMIT, 200)):
        assert np.array_equal(trial_draws(seed, 86, 300, n_colors, width),
                              reference(seed, 86, 300, n_colors, width))


@pytest.mark.parametrize("first, count", [(1, 1), (2, 4), (6, 15), (2**32 - 15, 16)])
def test_small_and_late_blocks_stay_per_trial(scalar_trials, first, count):
    assert np.array_equal(trial_draws(7, first, count, 5, 9),
                          reference(7, first, count, 5, 9))
    assert scalar_trials == list(range(first, first + count))
