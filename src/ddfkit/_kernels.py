"""Hot counting kernels: pure numpy, one thread, passes over bounded slices.

Every kernel takes a block array of non-negative integers as its first
argument, in any integer dtype but uint64: a developed or loaded design
comes in the narrowest unsigned dtype that holds its points (see
designs.point_dtype), and the kernels read it as it is, widening only the
slices they compute offsets from.  Beyond its inputs and its result, each
kernel's working set is bounded by a slice (the module constants below),
not by its table: a cell table is built in strips of rows, Gram cells are
histogrammed in slices, and pair coverage is added in place.  The
histograms are exact int64 counts; callers finish the arithmetic in Python
integers, so nothing here can silently overflow (the per-kernel counts are
bounded by b^2 * v, far below 2^63 at the supported sizes).  Pair coverage
counts are int32, since a count is at most the number of blocks B, and
int64 only when B >= 2^31, which only a loaded design could reach.

Kernels:
  * diff_cell_hist      -- for listed group elements d, each standing for
                           a weight of them, tallies how often each value
                           of the cell N_d(i, j) = |D_i & (D_j + d)| occurs
                           over the b^2 base-block pairs (i, j) (the
                           (i, i, 0) self-pair cell is excluded);
  * block_intersection_hist -- pairwise |B_i & B_j| histogram over distinct
                           block indices: for sparse designs from the
                           binomial moments sum_S C(lam_S, 2) of the point
                           subsets S the blocks share, with no block pair
                           formed, else from Gram products of the 0/1
                           incidence matrix, in uint8 cells when k < 256
                           and uint16 cells below 2^16;
                           no group arithmetic either way;
  * pair_coverage       -- per point pair u < w, in how many blocks it
                           appears, in a triangular int32 table of
                           v(v-1)/2.
"""

from __future__ import annotations

from math import comb

import numpy as np

# Entries per pass of diff_cell_hist: chunks of d values whose b*k shifted
# elements and b^2 cells stay near 2^16 int64 values (0.5 MB) ran fastest
# among 2^14..2^20 on the feng families and on wilson-half (7,2) over all
# negation orbits; a table larger than that is built in strips of rows of
# about 2^16 cells, one d at a time.
_CHUNK = 1 << 16
# Cells per Gram-product chunk of block_intersection_hist: 2 MB of float32
# products and 0.5 MB of uint8 copies (1 MB of uint16 when k >= 256), whatever
# the number of blocks.
_GRAM_CELLS = 1 << 19
# Values per bincount of _cell_hist (cells, or pairs of uint8 cells):
# bincount reads its input as intp, so this bounds that copy at 0.5 MB.
_HIST_CELLS = 1 << 16
# Subset keys per level of block_intersection_hist's moment route: 8 MB of
# int64, held with its parts, its sorted copy and the level before it.
_SUBSET_KEYS = 1 << 20
# Pair indices per np.add.at of pair_coverage: 2 MB of int64.
_COVER_INDICES = 1 << 18


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

    A disjoint family has one layer, which is the owner of each point.  The
    entries, and the point counts that give L, are in the narrowest unsigned
    dtype that holds b.
    """
    b, k = blocks.shape
    pts = blocks.ravel()
    dtype = np.min_scalar_type(b)
    rows = np.repeat(np.arange(b, dtype=dtype), k)
    counts = np.zeros(order, dtype=dtype)
    np.add.at(counts, pts, dtype.type(1))
    layers = np.full((int(counts.max()), order), b, dtype=dtype)
    del counts
    for layer in layers:
        # one of the entries at each point lands; a point is in a block once
        layer[pts] = rows
        left = layer[pts] != rows
        pts, rows = pts[left], rows[left]
    return layers


def diff_cell_hist(blocks, base, digits, order, reps, weights):
    """Histogram over N of the (i, j, d) cells N_d(i, j) (see module doc).

    The group is (Z_base)^digits of the given order, elements packed as
    sum(c_l * base^l).  For each d in `reps` the b^2 cell table is built in
    strips of rows i: a strip is one bincount of row(x) * (b + 1) +
    layer(x - d) over the elements x of its D_i, a contiguous slice of the
    block elements.  Each strip's cells are histogrammed and added `weights`
    times (an orbit representative and its orbit size).  Each cell stands
    for `order` ordered block pairs of the developed design.
    """
    blocks = np.asarray(blocks, dtype=np.int64)
    reps = np.asarray(reps, dtype=np.int64)
    weights = np.asarray(weights, dtype=np.int64)
    b, k = blocks.shape
    layers = _point_layers(blocks, order)
    pows = base ** np.arange(digits, dtype=np.int64)
    pts = blocks.ravel()
    # row l: digit l of each block element x, in the narrowest dtype that holds it
    pt_digits = np.empty((digits, pts.size), dtype=np.min_scalar_type(base - 1))
    for lo in range(0, pts.size, _CHUNK):
        for l, pow_l in enumerate(pows.tolist()):
            pt_digits[l, lo:lo + _CHUNK] = pts[lo:lo + _CHUNK] // pow_l % base
    # column b of row i counts the x in D_i with x - d in no block; a row has
    # k elements and b + 1 cells, and a pass takes a strip of rows for one d,
    # or every row for a chunk of d values when the whole table fits
    width = max(k, b + 1)
    rows = min(b, max(1, _CHUNK // width))
    chunk = max(1, _CHUNK // (b * width)) if rows == b else 1
    offsets = np.arange(chunk, dtype=np.int64)[:, None] * (rows * (b + 1)) \
        + np.repeat(np.arange(rows, dtype=np.int64) * (b + 1), k)
    # a cell is at most k; a spare cell is at most k per layer
    hist = np.zeros(layers.shape[0] * k + 1, dtype=np.int64)
    for w in _distinct(weights):
        group = reps[weights == w]
        for s in range(0, group.size, chunk):
            d = group[s:s + chunk]
            d_digits = (d[:, None] // pows) % base
            for top in range(0, b, rows):
                n = min(rows, b - top)  # rows in this strip, so cells n * (b + 1) per d
                strip = slice(top * k, (top + n) * k)
                # x - d, packed: the integer difference plus base^(l+1) for
                # every digit l that borrows
                shifted = pts[None, strip] - d[:, None]
                for l in range(digits):
                    shifted += (pt_digits[l][None, strip] < d_digits[:, l, None]) \
                        * (base * pows[l])
                table = np.bincount((offsets[:d.size, :n * k] + layers[:, shifted]).ravel(),
                                    minlength=d.size * n * (b + 1))
                hist += w * (np.bincount(table, minlength=hist.size)
                             - np.bincount(table[b::b + 1], minlength=hist.size))
    hist[k] -= b * int(weights[reps == 0].sum())  # the (i, i, 0) self-pair cells
    return hist[:k + 1]


def _sliced_bincount(values, size):
    """np.bincount of a 1-D array with minlength `size`, in slices of at most
    _HIST_CELLS values: bincount reads its input as intp, and a slice bounds
    that copy whatever the array."""
    counts = np.zeros(size, dtype=np.int64)
    for lo in range(0, values.size, _HIST_CELLS):
        counts += np.bincount(values[lo:lo + _HIST_CELLS], minlength=size)
    return counts


def _cell_hist(cells, k):
    """Histogram of the values 0..k of a 1-D array of Gram cells.

    uint8 cells (k < 256) are bincounted two at a time: a uint16 view reads
    each pair as one value lo + 256*hi <= 257*k, and the (k + 1, 256) joint
    table is summed over both bytes.  Any other dtype is bincounted as it
    is.  Either way the bincounts are sliced (_sliced_bincount).
    """
    if cells.dtype != np.uint8:
        return _sliced_bincount(cells, k + 1)
    cells = np.ascontiguousarray(cells)
    even = cells.size & ~1
    joint = _sliced_bincount(cells[:even].view(np.uint16), 256 * (k + 1))
    joint = joint.reshape(k + 1, 256)[:, :k + 1]
    hist = joint.sum(axis=0) + joint.sum(axis=1)
    hist[cells[even:]] += 1  # the odd cell out, if any
    return hist


def _relabel(blocks):
    """(cols, u): the (B, k) block array with the points that occur relabelled
    0..u-1 in their order, u <= B*k.

    By occupancy when every label is below B*k, else by sorting, so memory
    does not depend on the point labels.  When the labels already are
    exactly 0..u-1, as in every developed design, the block array itself
    comes back; new labels are in the narrowest unsigned dtype that holds
    u - 1.
    """
    pts = blocks.ravel()
    if pts.max(initial=0) < max(pts.size, 1):
        used = np.bincount(pts) > 0
        u = int(np.count_nonzero(used))
        if u == used.size:
            return blocks, u
        labels = (np.cumsum(used) - 1).astype(np.min_scalar_type(u - 1))
        cols = labels[pts]
    else:
        points = _distinct(pts)
        u = points.size
        cols = np.searchsorted(points, pts).astype(np.min_scalar_type(u - 1))
    return cols.reshape(blocks.shape), u


def _gram_hist(cols, u):
    """Histogram of |B_i & B_j| from Gram products of the 0/1 incidence matrix.

    `cols` holds points 0..u-1, rows in any order, and is scattered into
    the (B, u) incidence matrix by a broadcast (row, col) index.  The sizes
    are integers at most k (exact in float32 below 2^24), in chunks of r
    rows from the diagonal on; a chunk's symmetric r x r square counts each
    pair twice.  The entries are copied into the narrowest unsigned cells
    that hold k: uint8 when k < 256, uint16 below 2^16.
    """
    B, k = cols.shape
    inc = np.zeros((B, u), dtype=np.float32 if k < 1 << 24 else np.float64)
    inc[np.arange(B)[:, None], cols] = 1
    hist = np.zeros(k + 1, dtype=np.int64)
    step = max(1, _GRAM_CELLS // max(B, 1))
    products = np.empty(min(step, B) * B, dtype=inc.dtype)  # both reused by every chunk
    cells = np.empty(products.size, dtype=np.min_scalar_type(k))
    for s in range(0, B - 1, step):
        r, c = min(step, B - s), B - s  # rows s.., columns s..
        gram = cells[:r * c].reshape(r, c)
        np.copyto(gram, np.matmul(inc[s:s + r], inc[s:].T,
                                  out=products[:r * c].reshape(r, c)), casting="unsafe")
        square = gram[:, :r]
        hist += _cell_hist(gram.ravel(), k) \
            - (_cell_hist(square.ravel(), k)
               + np.bincount(square.diagonal(), minlength=k + 1)) // 2
    return hist


def _moment_hist(cols, u):
    """Histogram of |B_i & B_j| from the binomial moments of the numbers.

    A j-subset S of points in lam_S blocks lies in C(lam_S, 2) block pairs,
    and a pair meeting in N points shares C(N, j) j-subsets, so
    M_j = sum_S C(lam_S, 2) = sum_N C(N, j) m_N.  Level j packs each block's
    j-subsets x_1 < ... < x_j (rows sorted, any order given) as the key
    sum x_i u^(j-i), exact while u^j < 2^63: a (j-1)-subset's key times u
    plus a later point.  lam_S is a run of equal sorted keys.  The first
    M_j = 0 ends the levels, as no larger subset then lies in two blocks;
    binomial inversion gives m_N = sum_(j>=N) (-1)^(j-N) C(j, N) M_j for
    N >= 1, and m_0 is the rest of C(B, 2).  No block pair is formed.
    """
    B, k = cols.shape
    rows = np.sort(cols, axis=1)
    moments = [0]  # M_j at index j
    # the keys of level j - 1, a column per subset, and each subset's last position
    keys, last = np.zeros((B, 1), dtype=np.int64), np.array([-1])
    for j in range(1, k + 1):
        parts = [keys[:, last < q] * u + rows[:, q, None] for q in range(j - 1, k)]
        last = np.repeat(np.arange(j - 1, k), [part.shape[1] for part in parts])
        keys = np.concatenate(parts, axis=1)
        flat = np.sort(keys, axis=None)
        # a run of lam equal keys is lam - 1 consecutive equal neighbours
        same = np.flatnonzero(flat[1:] == flat[:-1])
        ends = np.flatnonzero(np.diff(same) != 1)
        runs = np.diff(np.concatenate(([-1], ends, [same.size - 1])))  # lam - 1 each
        moment = int((runs * (runs + 1)).sum()) // 2
        if moment == 0:
            break
        moments.append(moment)
    hist = [sum((-1) ** (j - n) * comb(j, n) * moments[j] for j in range(n, len(moments)))
            for n in range(1, k + 1)]
    return np.array([comb(B, 2) - sum(hist)] + hist, dtype=np.int64)


def block_intersection_hist(blocks):
    """Histogram of |B_i & B_j| over unordered pairs of distinct block indices.

    The points that occur are relabelled 0..u-1 (see _relabel).  The moment
    route (_moment_hist) runs when its subset keys, B*(2^k - 1) over all
    levels, are no more than the C(B, 2) Gram cells, when one level's keys,
    at most B*C(k, k//2), fit in _SUBSET_KEYS, and when u^k < 2^63 keeps
    every key exact; the Gram route (_gram_hist) runs otherwise.
    """
    cols, u = _relabel(np.asarray(blocks))
    B, k = cols.shape
    if B * (2 ** k - 1) <= comb(B, 2) and B * comb(k, k // 2) <= _SUBSET_KEYS \
            and u ** k < 2 ** 63:
        return _moment_hist(cols, u)
    return _gram_hist(cols, u)


def pair_coverage(blocks, v):
    """Flat (v(v-1)/2,) array: entry u(2v-u-1)/2 + w-u-1 counts the blocks
    containing both u and w, for u < w; the pairs are in row-major order.

    Rows must be ascending.  The counts are int32, as no count exceeds the
    B < 2^31 blocks of any developed design, and int64 only for B >= 2^31.
    The block array is transposed once to columns in its own dtype; column
    i, widened to int64 alone, pairs with each later column j as
    start(cols[i]) + cols[j], start(u) = u(2v-u-1)/2 - u - 1, added into
    the table in place by np.add.at, at most max(_COVER_INDICES, B)
    indices per call.
    """
    blocks = np.asarray(blocks)
    B, k = blocks.shape
    cols = np.ascontiguousarray(blocks.T)
    cnt = np.zeros(v * (v - 1) // 2, dtype=np.int32 if B < 1 << 31 else np.int64)
    one = cnt.dtype.type(1)  # numpy's add.at fast path needs the table's dtype
    rows = max(1, _COVER_INDICES // max(B, 1))
    for i in range(k - 1):
        u = cols[i].astype(np.int64)
        start = u * (2 * v - u - 1) // 2 - u - 1
        for j in range(i + 1, k, rows):
            np.add.at(cnt, (start + cols[j:j + rows]).ravel(), one)
    return cnt
