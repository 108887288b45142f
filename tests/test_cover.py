import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rescuepd.cover import boolean_cover_combine, cover_rows

from reference import cover_product_direct, cover_product_ranked


def test_indicator_of_empty_is_identity():
    size = 16
    e = [1] + [0] * (size - 1)
    assert cover_product_direct(e, e) == e
    assert cover_product_ranked(e, e) == e
    g = [random.Random(1).randint(0, 1) for _ in range(size)]
    assert cover_product_direct(e, g) == g


def test_all_ones_side():
    size = 32
    ones = [1] * size
    g = [0] * size
    g[0b00110] = 1
    h = cover_product_direct(ones, g)
    expected = [1 if (mask | 0b00110) == mask else 0 for mask in range(size)]
    assert h == expected
    assert cover_product_ranked(ones, g) == h


def test_two_implementations_agree_width_10():
    rng = random.Random(42)
    size = 1 << 10
    f = [rng.randint(0, 1) for _ in range(size)]
    g = [rng.randint(0, 1) for _ in range(size)]
    assert cover_product_ranked(f, g) == cover_product_direct(f, g)


@given(st.integers(1, 6), st.integers(0, 2**10))
@settings(max_examples=60, deadline=None)
def test_agreement_property(width, seed):
    rng = random.Random(seed)
    size = 1 << width
    f = [rng.randint(0, 1) for _ in range(size)]
    g = [rng.randint(0, 1) for _ in range(size)]
    assert cover_product_ranked(f, g) == cover_product_direct(f, g)


def test_dispatch_by_width():
    # the submask-pair gather up to 256 masks, the ranked transform above
    for width in (2, 8, 9):
        rng = random.Random(width)
        f = [rng.randint(0, 1) for _ in range(1 << width)]
        g = [rng.randint(0, 1) for _ in range(1 << width)]
        assert boolean_cover_combine(f, g) == cover_product_direct(f, g) \
            == cover_product_ranked(f, g)


@given(st.integers(0, 9), st.integers(1, 5), st.integers(0, 2**10))
@settings(max_examples=40, deadline=None)
def test_rows_match_the_sweep(width, rows, seed):
    # the submask-pair gather up to 256 masks, the ranked transform above,
    # each row on its own
    rng = np.random.default_rng(seed)
    f = rng.random((rows, 1 << width)) < 0.3
    g = rng.random((rows, 1 << width)) < 0.3
    h = cover_rows(f, g)
    assert h.dtype == bool and h.shape == f.shape
    for a, b, c in zip(f, g, h):
        assert c.astype(int).tolist() == cover_product_direct(a.tolist(), b.tolist())
