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
# Pair indices per bincount of pair_coverage: 32 MB of int64.
_COVER_INDICES = 1 << 22


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
    not depend on the size of the point set: by occupancy when every label
    is below B*k, as in every developed design, else by sorting.  The sizes
    are the entries of the Gram matrix of the 0/1 incidence matrix, integers
    at most k (exact in float32 below 2^24), in chunks of r rows from the
    diagonal on; a chunk's symmetric r x r square counts each pair twice.
    """
    blocks = np.asarray(blocks, dtype=np.int64)
    B, k = blocks.shape
    pts = blocks.ravel()
    if pts.max(initial=-1) < pts.size:
        used = np.bincount(pts) > 0
        cols, u = (np.cumsum(used) - 1)[pts], int(np.count_nonzero(used))
    else:
        points = _distinct(pts)
        cols, u = np.searchsorted(points, pts), points.size
    inc = np.zeros(B * u, dtype=np.float32 if k < 1 << 24 else np.float64)
    inc[cols.reshape(B, k) + np.arange(0, B * u, u, dtype=np.int64)[:, None]] = 1
    inc = inc.reshape(B, u)
    hist = np.zeros(k + 1, dtype=np.int64)
    step = max(1, _GRAM_CELLS // max(B, 1))
    products = np.empty(min(step, B) * B, dtype=inc.dtype)  # both reused by every chunk
    cells = np.empty(products.size, dtype=np.int64)
    for s in range(0, B - 1, step):
        r, c = min(step, B - s), B - s  # rows s.., columns s..
        gram = cells[:r * c].reshape(r, c)
        np.copyto(gram, np.matmul(inc[s:s + r], inc[s:].T,
                                  out=products[:r * c].reshape(r, c)), casting="unsafe")
        square = gram[:, :r]
        hist += np.bincount(gram.ravel(), minlength=k + 1) \
            - (np.bincount(square.ravel(), minlength=k + 1)
               + np.bincount(square.diagonal(), minlength=k + 1)) // 2
    return hist


def pair_coverage(blocks, v):
    """Flat (v*v,) array: entry u*v+w counts blocks containing both u and w (u < w).

    Rows must be ascending.  The block array is transposed once to columns;
    column i pairs with each later column j as cols[i] * v + cols[j], in
    bincounts of at most max(_COVER_INDICES, B) indices.
    """
    blocks = np.asarray(blocks, dtype=np.int64)
    B, k = blocks.shape
    cols = np.ascontiguousarray(blocks.T)
    cnt = np.zeros(v * v, dtype=np.int64)
    rows = max(1, _COVER_INDICES // max(B, 1))
    for i in range(k - 1):
        first = cols[i] * v
        for j in range(i + 1, k, rows):
            cnt += np.bincount((first + cols[j:j + rows]).ravel(), minlength=v * v)
    return cnt
