"""Boolean cover product over color masks.

h(C) = OR over C' subset of C of f(C') AND g(C \\ C').

Two interchangeable implementations with bit-identical output: a direct
3^w submask sweep, and the ranked subset convolution (zeta transform per
popcount slice, pointwise rank convolution, Moebius inversion) with the
integer result thresholded at >= 1.
"""

from __future__ import annotations

import numpy as np


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


def _zeta_inplace(table: np.ndarray, width: int) -> None:
    for i in range(width):
        bit = 1 << i
        hi = (np.arange(table.shape[1]) & bit) != 0
        table[:, hi] += table[:, ~hi]


def _moebius_inplace(table: np.ndarray, width: int) -> None:
    for i in range(width):
        bit = 1 << i
        hi = (np.arange(table.shape[1]) & bit) != 0
        table[:, hi] -= table[:, ~hi]


def cover_product_ranked(f, g) -> list[int]:
    """Ranked subset convolution over the integers, thresholded to bits."""
    size = len(f)
    assert len(g) == size and size & (size - 1) == 0
    width = size.bit_length() - 1
    masks = np.arange(size)
    ranks = np.zeros(size, dtype=np.int64)
    for i in range(width):
        ranks += (masks >> i) & 1
    fr = np.zeros((width + 1, size), dtype=np.int64)
    gr = np.zeros((width + 1, size), dtype=np.int64)
    fa = np.asarray(list(f), dtype=np.int64)
    ga = np.asarray(list(g), dtype=np.int64)
    for r in range(width + 1):
        sel = ranks == r
        fr[r, sel] = fa[sel]
        gr[r, sel] = ga[sel]
    _zeta_inplace(fr, width)
    _zeta_inplace(gr, width)
    hr = np.zeros((width + 1, size), dtype=np.int64)
    for r in range(width + 1):
        for a in range(r + 1):
            hr[r] += fr[a] * gr[r - a]
    _moebius_inplace(hr, width)
    out = hr[ranks, masks]
    return [1 if v >= 1 else 0 for v in out]


def boolean_cover_combine(f, g) -> list[int]:
    """Dispatch between the two implementations by mask width.

    The direct sweep runs on narrow masks, where it beats the numpy
    transform overhead, and the ranked transform otherwise.
    """
    if len(f) <= 256:
        return cover_product_direct(f, g)
    return cover_product_ranked(f, g)
