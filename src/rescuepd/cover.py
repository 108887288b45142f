"""Boolean cover product over color masks.

h(C) = OR over C' subset of C of f(C') AND g(C \\ C').

``cover_rows`` takes the product of each row of one 0/1 table with the same
row of another.  Up to 256 masks it gathers every (C', C \\ C') pair at once
(3^w pairs per row); above, it runs the ranked subset convolution (zeta
transform per popcount slice, pointwise rank convolution, Moebius
inversion) with the integer result thresholded at >= 1, whose memory stays
near w * 2^w per row.
"""

from __future__ import annotations

import functools

import numpy as np

PAIR_MASKS = 256  # widest row taken by the submask-pair gather


@functools.lru_cache(maxsize=None)
def _submask_pairs(width: int):
    """Every (S, C ^ S) with S a submask of C, grouped by C in increasing
    order, and the start of each group."""
    cells = np.arange(1 << width)
    c, s = np.nonzero((cells[None, :] & ~cells[:, None]) == 0)
    return s, c ^ s, np.searchsorted(c, cells)


def _transform(table: np.ndarray, width: int, sign: int) -> None:
    """Zeta (sign 1) or Moebius (sign -1) transform along the last axis."""
    for i in range(width):
        bit = 1 << i
        halves = table.reshape(*table.shape[:-1], -1, 2, bit)
        halves[..., 1, :] += sign * halves[..., 0, :]


def _ranked_rows(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The ranked subset convolution of each row pair, thresholded at >= 1."""
    rows, size = f.shape
    width = size.bit_length() - 1
    masks = np.arange(size)
    ranks = np.zeros(size, dtype=np.int64)
    for i in range(width):
        ranks += (masks >> i) & 1
    fr = np.zeros((rows, width + 1, size), dtype=np.int64)
    gr = np.zeros((rows, width + 1, size), dtype=np.int64)
    fr[:, ranks, masks] = f
    gr[:, ranks, masks] = g
    _transform(fr, width, 1)
    _transform(gr, width, 1)
    hr = np.zeros((rows, width + 1, size), dtype=np.int64)
    for r in range(width + 1):
        for a in range(r + 1):
            hr[:, r] += fr[:, a] * gr[:, r - a]
    _transform(hr, width, -1)
    return hr[:, ranks, masks] >= 1


def cover_rows(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Boolean cover product of each row of f with the same row of g; both
    are boolean arrays of shape (rows, 2^w)."""
    size = f.shape[1]
    assert g.shape == f.shape and size & (size - 1) == 0
    if size > PAIR_MASKS:
        return _ranked_rows(f, g)
    left, right, starts = _submask_pairs(size.bit_length() - 1)
    both = f[:, left]
    both &= g[:, right]
    return np.logical_or.reduceat(both, starts, axis=1)


def boolean_cover_combine(f, g) -> list[int]:
    """The cover product of two 0/1 sequences of length 2^w."""
    row = cover_rows(np.asarray(f, dtype=bool)[None, :], np.asarray(g, dtype=bool)[None, :])
    return row[0].astype(int).tolist()
