"""Hot counting kernels: pure numpy, passes over bounded slices.

Every kernel takes a block array of non-negative integers as its first
argument, in any integer dtype but uint64: a developed or loaded design
comes in the narrowest unsigned dtype that holds its points (see
designs.point_dtype), and the kernels read it as it is, widening only the
slices they compute offsets from.  Beyond its inputs and its result, each
kernel's working set is bounded by a slice (the module constants below),
not by its table: a cell table is built in strips of rows, Gram products
are formed tile by tile from a bit-packed incidence matrix, and pair
coverage is added in place from slices of transposed blocks.  The direct
routes check their own work against the budgets below before they
allocate anything of its size.  The histograms are exact int64 counts;
callers finish the arithmetic in Python integers, so nothing here can
silently overflow (the per-kernel counts are bounded by b^2 * v, far
below 2^63 at the supported sizes).  Pair coverage counts are int32: a
count is at most B, and B <= 2^30 within COVER_INDEX_BUDGET once k >= 2.

No kernel starts a thread, but np.matmul uses OpenBLAS's pool unless
OPENBLAS_NUM_THREADS=1.  With the other vCPU of a 2-vCPU Xeon VM busy,
the Gram route of wilson (3,2) took 8.0-8.6 ms pooled, 3.7-3.8 ms pinned,
and the moment route, which k = 8 takes, 4.4-6.9 ms: it loses only pinned.

Kernels:
  * diff_cell_hist      -- for listed group elements d, each standing for
                           a weight of them, tallies how often each value
                           of the cell N_d(i, j) = |D_i & (D_j + d)| occurs
                           over the b^2 base-block pairs (i, j) (the
                           (i, i, 0) self-pair cell is excluded);
  * block_intersection_hist -- pairwise |B_i & B_j| histogram over distinct
                           block indices, from the binomial moments of the
                           point subsets the blocks share for sparse
                           designs, else from Gram products of tiles of the
                           0/1 incidence matrix; no group arithmetic;
  * pair_coverage       -- per point pair u < w, in how many blocks it
                           appears, in a triangular int32 table of
                           v(v-1)/2.
"""

from __future__ import annotations

from math import comb

import numpy as np

from .errors import BudgetError

# Gram multiply-adds, C(B+1, 2)*v/lanes: 12-14 s at 45-49 ps on one thread.
GRAM_MULADD_BUDGET = 2 ** 38
# Cells per Gram tile, min(B, _GRAM_ROWS)*v: 16 MB of float32; with the
# multiply-adds it keeps the packed incidence matrix, B*v/8, under 16 MB.
GRAM_TILE_BUDGET = 2 ** 22
# pair_coverage's pair indices, B*C(k, 2): 3-5 s at 2.9-4.3 ns each.
COVER_INDEX_BUDGET = 2 ** 30
# pair_coverage's table cells, v(v-1)/2: 64 MB of int32, 16 MB of flags.
COVER_CELL_BUDGET = 2 ** 24

# Entries per pass of diff_cell_hist: chunks of d values whose b*k shifted
# elements and b^2 cells stay near 2^16 int64 values (0.5 MB) ran fastest
# among 2^14..2^20 on the feng families and on wilson-half (7,2) over all
# negation orbits; a table larger than that is built in strips of rows of
# about 2^16 cells, one d at a time.
_CHUNK = 1 << 16
# Block rows per Gram tile of block_intersection_hist: a (256, v) float32
# column tile, a left tile of two 128-row lanes and 128 x 256 products, about
# 2 MB at feng-1's v = 1331 whatever the number of blocks.
_GRAM_ROWS = 256
# Subset keys per level of block_intersection_hist's moment route: 8 MB of
# int64, held with its parts, its sorted copy and the level before it.
_SUBSET_KEYS = 1 << 20
# Pair indices per np.add.at of pair_coverage: 2 MB of int64.
_COVER_INDICES = 1 << 18
# Blocks per transposed slice of pair_coverage: 0.6 MB of uint16 at k = 18.
_COVER_BLOCKS = 1 << 14


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


def _incidence(blocks, v):
    """(B, ceil(v/8)) uint8: the 0/1 incidence matrix of the blocks on points
    0..v-1, bit-packed along each row by np.packbits (padding bits are 0).

    Built _GRAM_ROWS rows at a time through one boolean tile of them.
    """
    B = blocks.shape[0]
    packed = np.empty((B, (v + 7) // 8), dtype=np.uint8)
    tile = np.empty((min(_GRAM_ROWS, B), v), dtype=bool)
    for s in range(0, B, _GRAM_ROWS):
        rows = tile[:min(_GRAM_ROWS, B - s)]
        rows.fill(False)
        rows[np.arange(rows.shape[0])[:, None], blocks[s:s + rows.shape[0]]] = True
        packed[s:s + rows.shape[0]] = np.packbits(rows, axis=1)
    return packed


def _gram_hist(blocks, v):
    """Histogram of |B_i & B_j| from Gram products of the 0/1 incidence matrix.

    `blocks` holds points 0..v-1, rows in any order.  The incidence matrix
    stays bit-packed (_incidence); tiles of _GRAM_ROWS block rows are
    unpacked into float32 one at a time, a left tile against each column
    tile from the diagonal on.  A product entry |B_i & B_j| is an integer
    at most k < 2^w, w = bit_length(k).  When 2w <= 24 the left tile holds
    two lanes of h = _GRAM_ROWS/2 rows, rows[:h] + 2^w * rows[h:], so each
    product is N_low + 2^w * N_high and every partial sum is an integer
    below 2^24, exact in float32; the lanes are split by & (2^w - 1) and
    >> w.  Otherwise one lane holds all the rows, exact as an entry is at
    most v <= GRAM_TILE_BUDGET < 2^24.  The diagonal tile is
    the symmetric square of the left tile's rows over both lanes together:
    its histogram less its diagonal's is halved (one lane's alone can be
    odd).  Raises BudgetError before _incidence past GRAM_MULADD_BUDGET
    multiply-adds or GRAM_TILE_BUDGET cells in a tile.
    """
    B, k = blocks.shape
    w = k.bit_length()
    lanes = 2 if 2 * w <= 24 else 1
    for work, budget, what in ((comb(B + 1, 2) * v // lanes, GRAM_MULADD_BUDGET,
                                "multiply-adds (C(B+1, 2)*v/lanes)"),
                               (min(B, _GRAM_ROWS) * v, GRAM_TILE_BUDGET,
                                f"cells per Gram tile (min(B, {_GRAM_ROWS})*v)")):
        if work > budget:
            raise BudgetError(f"direct profile capped at {budget} {what}, got {work}")
    packed = _incidence(blocks, v)
    h = -(-_GRAM_ROWS // lanes)  # rows per lane
    left = np.empty((min(h, B), packed.shape[1] * 8), dtype=np.float32)
    right = np.empty((min(_GRAM_ROWS, B), left.shape[1]), dtype=np.float32)
    products = np.empty((left.shape[0], right.shape[0]), dtype=np.float32)
    hist = np.zeros(k + 1, dtype=np.int64)
    for s in range(0, B, _GRAM_ROWS):
        n = min(_GRAM_ROWS, B - s)  # block rows s..s+n-1, the first `low` in the low lane
        low, high = min(h, n), n - min(h, n)
        np.copyto(left[:low], np.unpackbits(packed[s:s + low], axis=1))
        if high:
            left[:high] += np.unpackbits(packed[s + low:s + n], axis=1) * np.float32(1 << w)
        for c in range(s, B, _GRAM_ROWS):
            m = min(_GRAM_ROWS, B - c)
            np.copyto(right[:m], np.unpackbits(packed[c:c + m], axis=1))
            cells = np.matmul(left[:low], right[:m].T,
                              out=products[:low, :m]).astype(np.intp)
            lo_cells, hi_cells = cells & ((1 << w) - 1), cells[:high] >> w
            counts = np.bincount(lo_cells.ravel(), minlength=k + 1) \
                + np.bincount(hi_cells.ravel(), minlength=k + 1)
            if c == s:
                # rows s..s+n-1 against themselves; row i of the high lane is
                # block s + low + i
                diagonal = np.concatenate((lo_cells.diagonal(), hi_cells[:, low:].diagonal()))
                counts = (counts - np.bincount(diagonal, minlength=k + 1)) // 2
            hist += counts
    return hist


def _moment_hist(blocks, v):
    """Histogram of |B_i & B_j| from the binomial moments of the numbers.

    A j-subset S of points in lam_S blocks lies in C(lam_S, 2) block pairs,
    and a pair meeting in N points shares C(N, j) j-subsets, so
    M_j = sum_S C(lam_S, 2) = sum_N C(N, j) m_N.  Level j packs each block's
    j-subsets x_1 < ... < x_j (rows sorted, any order given) as the key
    sum x_i v^(j-i), exact while v^j < 2^63: a (j-1)-subset's key times v
    plus a later point.  lam_S is a run of equal sorted keys.  The first
    M_j = 0 ends the levels, as no larger subset then lies in two blocks;
    binomial inversion gives m_N = sum_(j>=N) (-1)^(j-N) C(j, N) M_j for
    N >= 1, and m_0 is the rest of C(B, 2).  No block pair is formed.
    """
    B, k = blocks.shape
    rows = np.sort(blocks, axis=1)
    moments = [0]  # M_j at index j
    # the keys of level j - 1, a column per subset, and each subset's last position
    keys, last = np.zeros((B, 1), dtype=np.int64), np.array([-1])
    for j in range(1, k + 1):
        parts = [keys[:, last < q] * v + rows[:, q, None] for q in range(j - 1, k)]
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


def block_intersection_hist(blocks, v):
    """Histogram of |B_i & B_j| over unordered pairs of distinct block indices
    of a block array on points 0..v-1.

    Unused points change no count.  When v exceeds the B*k entries, which
    only a loaded design can declare, the points that occur are first
    renumbered 0..u-1 in order by a sort.  The moment route (_moment_hist)
    runs when its subset keys, B*(2^k - 1) over all levels, are no more
    than the C(B, 2) Gram cells, when one level's keys, at most
    B*C(k, k//2), fit in _SUBSET_KEYS, and when v^k < 2^63 keeps every key
    exact; the Gram route (_gram_hist) runs otherwise, and raises
    BudgetError past its budgets.
    """
    blocks = np.asarray(blocks)
    B, k = blocks.shape
    if v > blocks.size:
        points = _distinct(blocks.ravel())
        blocks, v = np.searchsorted(points, blocks), points.size
    if B * (2 ** k - 1) <= comb(B, 2) and B * comb(k, k // 2) <= _SUBSET_KEYS \
            and v ** k < 2 ** 63:
        return _moment_hist(blocks, v)
    return _gram_hist(blocks, v)


def pair_coverage(blocks, v):
    """Flat (v(v-1)/2,) array: entry u(2v-u-1)/2 + w-u-1 counts the blocks
    containing both u and w, for u < w; the pairs are in row-major order.

    Rows must be ascending.  The counts are int32 (see the module doc).
    Slices of _COVER_BLOCKS blocks are transposed in turn to columns in the
    array's own dtype; column i, widened to int64 alone, pairs with each
    later column j as start(cols[i]) + cols[j], start(u) = u(2v-u-1)/2 -
    u - 1, added into the table in place by np.add.at, at most
    max(_COVER_INDICES, slice) indices per call.  Raises BudgetError before
    the table is allocated past COVER_CELL_BUDGET or COVER_INDEX_BUDGET.
    """
    blocks = np.asarray(blocks)
    B, k = blocks.shape
    for work, budget, what in ((v * (v - 1) // 2, COVER_CELL_BUDGET, "table cells (v(v-1)/2)"),
                               (B * comb(k, 2), COVER_INDEX_BUDGET, "pair indices (B*C(k, 2))")):
        if work > budget:
            raise BudgetError(f"exhaustive pair counting capped at {budget} {what}, got {work}")
    cnt = np.zeros(v * (v - 1) // 2, dtype=np.int32)
    one = np.int32(1)  # numpy's add.at fast path needs the table's dtype
    for lo in range(0, B, _COVER_BLOCKS):
        cols = np.ascontiguousarray(blocks[lo:lo + _COVER_BLOCKS].T)
        rows = max(1, _COVER_INDICES // cols.shape[1])
        for i in range(k - 1):
            u = cols[i].astype(np.int64)
            start = u * (2 * v - u - 1) // 2 - u - 1
            for j in range(i + 1, k, rows):
                np.add.at(cnt, (start + cols[j:j + rows]).ravel(), one)
    return cnt
