"""Hot counting kernels: pure numpy, one thread.

Every kernel takes an int64 block array as its first argument and returns
exact int64 counts; callers finish the arithmetic in Python integers, so
nothing here can silently overflow (the per-kernel counts are bounded by
b^2 * v, far below 2^63 at the supported sizes).

Kernels:
  * diff_pair_hist      -- for each listed ordered base-block pair (i, j) and group
                           element d, tallies how often each multiplicity
                           N_d of d in the multiset D_i - D_j occurs
                           (the (i, i, 0) self-pair cell is excluded);
  * block_intersection_hist -- pairwise |B_i & B_j| histogram over distinct
                           block indices, via bit-packed rows;
  * pair_coverage       -- per point pair, in how many blocks it appears.
"""

from __future__ import annotations

import numpy as np


def backend() -> str:
    """Name of the counting backend; numpy is the only one."""
    return "numpy"


def diff_pair_hist(blocks, base, digits, order, pairs=None, weights=None):
    """Histogram over N of the (i, j, d) multiplicity cells (see module doc).

    Entry N counts the cells whose multiplicity is N; each cell stands for
    `order` ordered block pairs of the developed design.  `pairs` lists pair
    indices i*b + j, each standing for `weights` of them (an orbit
    representative and its orbit size); by default every one of the b^2
    pairs counts once.
    """
    blocks = np.asarray(blocks, dtype=np.int64)
    b, k = blocks.shape
    if pairs is None:
        pairs, weights = range(b * b), [1] * (b * b)
    pows = base ** np.arange(digits, dtype=np.int64)
    dig = (blocks[:, :, None] // pows) % base  # (b, k, digits)
    hist = np.zeros(k + 1, dtype=np.int64)
    for pair, w in zip(pairs, weights):
        i, j = divmod(int(pair), b)
        dd = (dig[i][:, None, :] - dig[j][None, :, :]) % base
        d = (dd * pows).sum(axis=2).ravel()
        if i == j:
            d = d[d != 0]
        cells = np.bincount(np.bincount(d, minlength=order), minlength=k + 1)
        if i == j:
            cells[0] -= 1  # d = 0 is not part of the d-space when i == j
        hist += w * cells
    return hist


def block_intersection_hist(blocks, v):
    """Histogram of |B_i & B_j| over unordered pairs of distinct block indices."""
    blocks = np.asarray(blocks, dtype=np.int64)
    B, k = blocks.shape
    inc = np.zeros((B, ((v + 63) // 64) * 64), dtype=bool)
    inc[np.arange(B)[:, None], blocks] = True
    packed8 = np.packbits(inc, axis=1, bitorder="little")
    hist = np.zeros(k + 1, dtype=np.int64)
    for i in range(B - 1):
        anded = packed8[i] & packed8[i + 1 :]
        sizes = np.bitwise_count(anded).sum(axis=1, dtype=np.int64)
        hist += np.bincount(sizes, minlength=k + 1)
    return hist


def pair_coverage(blocks, v):
    """Flat (v*v,) array: entry u*v+w counts blocks containing both u and w (u < w)."""
    blocks = np.asarray(blocks, dtype=np.int64)
    B, k = blocks.shape
    iu, ju = np.triu_indices(k, 1)
    cnt = np.zeros(v * v, dtype=np.int64)
    rows_per_chunk = max(1, (1 << 22) // max(iu.size, 1))
    for s in range(0, B, rows_per_chunk):
        chunk = blocks[s : s + rows_per_chunk]
        flat = (chunk[:, iu] * v + chunk[:, ju]).ravel()
        cnt += np.bincount(flat, minlength=v * v)
    return cnt
