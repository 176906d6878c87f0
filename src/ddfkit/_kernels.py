"""Hot counting kernels: pure numpy, one thread, whole-array passes.

Every kernel takes an int64 block array as its first argument and returns
exact int64 counts; callers finish the arithmetic in Python integers, so
nothing here can silently overflow (the per-kernel counts are bounded by
b^2 * v, far below 2^63 at the supported sizes).

Kernels:
  * diff_cell_hist      -- for listed group elements d, each standing for
                           a weight of them, tallies how often each value
                           of the cell N_d(i, j) = |D_i & (D_j + d)| occurs
                           over the b^2 base-block pairs (i, j) (the
                           (i, i, 0) self-pair cell is excluded);
  * block_intersection_hist -- pairwise |B_i & B_j| histogram over distinct
                           block indices, from Gram products of the 0/1
                           incidence matrix;
  * pair_coverage       -- per point pair, in how many blocks it appears.
"""

from __future__ import annotations

import numpy as np

# Entries per pass of diff_cell_hist: chunks of d values whose b*k shifted
# elements and b^2 cells stay near 2^16 int64 values (0.5 MB) ran fastest
# among 2^14..2^20 on the feng families and on wilson-half (7,2) without
# multipliers; a single d whose table is larger is a chunk of its own.
_CHUNK = 1 << 16
# Cells per Gram-product chunk of block_intersection_hist: 4 MB of float32
# products and 8 MB of int64 copies, whatever the number of blocks.
_GRAM_CELLS = 1 << 20


def backend() -> str:
    """Name of the counting backend; numpy is the only one."""
    return "numpy"


def _distinct(values):
    """The distinct entries of a 1-D array, ascending.

    np.unique would do, but its first call in a process took 13 ms on a
    2-vCPU Xeon VM, more than a whole t = 25 profile.
    """
    values = np.sort(values)
    return values[np.concatenate(([True], values[1:] != values[:-1]))]


def _point_layers(blocks, order):
    """(L, order) array: row l maps a point y to the l-th block containing y, or b.

    A disjoint family has one layer, which is the owner of each point.
    """
    b, k = blocks.shape
    pts = blocks.ravel()
    rows = np.arange(pts.size, dtype=np.int64) // k
    layers = np.full((int(np.bincount(pts).max()), order), b, dtype=np.int64)
    for layer in layers:
        # one of the entries at each point lands; a point is in a block once
        layer[pts] = rows
        left = layer[pts] != rows
        pts, rows = pts[left], rows[left]
    return layers


def diff_cell_hist(blocks, base, digits, order, reps, weights):
    """Histogram over N of the (i, j, d) cells N_d(i, j) (see module doc).

    The group is (Z_base)^digits of the given order, elements packed as
    sum(c_l * base^l).  For each d in `reps` the b^2 cell table is one
    bincount of row(x) * (b + 1) + layer(x - d) over the block elements x;
    the table's cells are histogrammed and added `weights` times (an orbit
    representative and its orbit size).  Each cell stands for `order`
    ordered block pairs of the developed design.
    """
    blocks = np.asarray(blocks, dtype=np.int64)
    reps = np.asarray(reps, dtype=np.int64)
    weights = np.asarray(weights, dtype=np.int64)
    b, k = blocks.shape
    layers = _point_layers(blocks, order)
    pows = base ** np.arange(digits, dtype=np.int64)
    pts = blocks.ravel()
    # row l: digit l of each block element x, times base^l
    pt_digits = np.ascontiguousarray(((pts[:, None] // pows) % base * pows).T)
    cells = b * (b + 1)  # column b of row i counts the x in D_i with x - d in no block
    chunk = max(1, _CHUNK // max(pts.size, cells))
    offsets = np.arange(chunk, dtype=np.int64)[:, None] * cells \
        + np.repeat(np.arange(b, dtype=np.int64) * (b + 1), k)
    # a cell is at most k; a spare cell is at most k per layer
    hist = np.zeros(layers.shape[0] * k + 1, dtype=np.int64)
    for w in _distinct(weights):
        group = reps[weights == w]
        for s in range(0, group.size, chunk):
            d = group[s:s + chunk]
            d_digits = (d[:, None] // pows) % base * pows
            # x - d, packed: the integer difference plus base^(l+1) for every
            # digit l that borrows
            shifted = pts[None, :] - d[:, None]
            for l in range(digits):
                shifted += (pt_digits[l][None, :] < d_digits[:, l, None]) * (base * pows[l])
            table = np.bincount((offsets[:d.size] + layers[:, shifted]).ravel(),
                                minlength=d.size * cells)
            hist += w * (np.bincount(table, minlength=hist.size)
                         - np.bincount(table[b::b + 1], minlength=hist.size))
    hist[k] -= b * int(weights[reps == 0].sum())  # the (i, i, 0) self-pair cells
    return hist[:k + 1]


def block_intersection_hist(blocks):
    """Histogram of |B_i & B_j| over unordered pairs of distinct block indices.

    The points that occur are relabelled 0..u-1 (u <= B*k), so memory does
    not depend on the size of the point set.  The intersection sizes are the
    entries of the Gram matrix of the 0/1 incidence matrix, taken in chunks
    of rows above the diagonal; every entry is an integer at most k, which
    float32 represents exactly below 2^24.
    """
    blocks = np.asarray(blocks, dtype=np.int64)
    B, k = blocks.shape
    pts = blocks.ravel()
    points = _distinct(pts)
    inc = np.zeros((B, points.size), dtype=np.float32 if k < 1 << 24 else np.float64)
    inc[np.repeat(np.arange(B), k), np.searchsorted(points, pts)] = 1
    hist = np.zeros(k + 1, dtype=np.int64)
    step = max(1, _GRAM_CELLS // max(B, 1))
    for s in range(0, B - 1, step):
        gram = inc[s:s + step] @ inc[s:].T  # rows s.., columns s..
        r = gram.shape[0]
        hist += np.bincount(gram[:, r:].astype(np.int64).ravel(), minlength=k + 1)
        upper = gram[:, :r][np.triu_indices(r, 1)]
        hist += np.bincount(upper.astype(np.int64), minlength=k + 1)
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
