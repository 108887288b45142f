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
from hypothesis import example, given, settings, strategies as st

from rescuepd import color_target
from rescuepd.color_loss import LOSS_LIMIT
from rescuepd.color_target import (MASK_LIMIT, _iadd128, _mul128, _pcg_outputs,
                                   _trial_rng, _xsl_rr, trial_draws)

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


def test_blocks_take_the_numpy_path(scalar_trials, monkeypatch):
    generators = []
    pcg64 = np.random.PCG64
    monkeypatch.setattr(np.random, "PCG64",
                        lambda *args: generators.append(args) or pcg64(*args))
    draws = trial_draws(1, 2, 64, 5, 25)
    assert generators == []  # the block is stepped in numpy, not by a PCG64
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


MASK64, MASK128 = 2**64 - 1, 2**128 - 1
EDGES = (0, 2**64 - 1, 2**128 - 1)
WIDE = st.integers(0, MASK128) | st.sampled_from(EDGES)


def split(*values):
    """uint64 (hi, lo) arrays of 128-bit ints."""
    return (np.array([v >> 64 for v in values], dtype=np.uint64),
            np.array([v & MASK64 for v in values], dtype=np.uint64))


def joined(hi, lo):
    return [int(h) << 64 | int(l) for h, l in zip(hi.tolist(), lo.tolist())]


def xsl_rr(state):
    """PCG64's output function on a Python int."""
    value, rot = (state >> 64 ^ state) & MASK64, state >> 122
    return (value >> rot | value << (64 - rot)) & MASK64


@settings(max_examples=200)
@given(states=st.lists(WIDE, min_size=1, max_size=6), inc=WIDE, k=WIDE)
@example(states=list(EDGES), inc=MASK128, k=MASK128)
@example(states=list(EDGES), inc=0, k=0)
def test_128_bit_step_and_output_equal_int_arithmetic(states, inc, k):
    hi, lo = split(*states)
    n, mult = len(states), color_target._PCG_MULT
    incs = split(*[inc] * n)
    assert joined(*_mul128(hi, lo, *split(*[k] * n))) == [s * k & MASK128 for s in states]
    assert _xsl_rr(hi, lo).tolist() == [xsl_rr(s) for s in states]
    step = _mul128(hi, lo, *split(*[mult] * n))
    _iadd128(*step, *incs)
    assert joined(*step) == [s * mult + inc & MASK128 for s in states]
    _iadd128(hi, lo, *incs)
    assert joined(hi, lo) == [s + inc & MASK128 for s in states]


def test_output_at_every_rotation():
    # hi >> 58 is the rotation; 0 must leave hi ^ lo as it is
    states = [rot << 122 | 0x0123456789abcdef << 64 | 0xfedcba9876543210
              for rot in range(64)]
    got = _xsl_rr(*split(*states)).tolist()
    assert got == [xsl_rr(s) for s in states]
    assert got[0] == (states[0] >> 64 ^ states[0]) & MASK64


@settings(max_examples=60)
@given(init=WIDE, seq=WIDE, n=st.integers(1, 70))
def test_jumps_equal_the_stepped_generator(init, seq, n):
    """Position j of a row is PCG64's (j + 1)-th raw output after seeding
    with (init, seq), whatever width the shared jump table has grown to."""
    inc = 2 * seq + 1 & MASK128
    bitgen = np.random.PCG64(0)
    bitgen.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                    "state": {"state": ((inc + init) * color_target._PCG_MULT + inc)
                              & MASK128, "inc": inc}}
    seeded = np.array([[init >> 64], [init & MASK64], [seq >> 64], [seq & MASK64]],
                      dtype=np.uint64)
    assert np.array_equal(_pcg_outputs(seeded, n)[0], bitgen.random_raw(n))
