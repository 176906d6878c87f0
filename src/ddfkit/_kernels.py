"""Hot counting kernels: pure numpy, passes over bounded slices.

Every kernel takes a block array of non-negative integers as its first
argument, in any integer dtype but uint64: a family or a developed or
loaded design comes in the narrowest unsigned dtype that holds its points
(see groups.point_dtype), and the kernels read it as it is, widening only
the slices they compute offsets from.  The direct kernels
(block_intersection_hist, pair_coverage) also take, in place of the array,
any iterable of its row slices in order that has the array's `shape`: a
designs.Development develops each slice as it is read, and an array is its
own one slice.  The Gram route and pair coverage read a development one
slice at a time; the moment route, whose subset keys _SUBSET_KEYS bounds
and outnumber the design's entries, copies the slices into one array.
Beyond its inputs (a family's blocks, a loaded design, or one slice of a
development at a time) and its result, each kernel's working set is
bounded by a slice (the module constants below), not by its table: a cell
table is built in strips of rows, Gram products are formed tile by tile
from a bit-packed incidence matrix, and pair coverage is added in place
from slices of transposed blocks.  The direct routes check their own work
against the budgets below, on the shape alone, before they allocate
anything of its size or read a slice.  The histograms are exact int64
counts; callers finish the arithmetic in Python integers, so nothing here can
silently overflow (the per-kernel counts are bounded by b^2 * v, far
below 2^63 at the supported sizes).  Pair coverage counts are exact in
int32: a count is at most B, and B <= 2^30 within COVER_INDEX_BUDGET once
k >= 2.  In uint8 or uint16 they are residues mod M = 2^8 or 2^16, which
still decide a 2-design: rows of k distinct points put exactly B*C(k, 2)
into the table, so if that is lam*C(v, 2), lam < M and every residue is
lam, each count is at least lam and none can exceed it.

No kernel starts a thread.  np.matmul would use OpenBLAS's pool, but
importing ddfkit sets OPENBLAS_NUM_THREADS=1 unless it is set already (or
numpy was loaded first).  With the other vCPU of a 2-vCPU Xeon VM busy,
the Gram route of wilson (3,2) took 8.0-8.6 ms pooled, 3.7-3.8 ms pinned,
and the moment route, which k = 8 takes, 4.4-6.9 ms: it loses only pinned.

Kernels:
  * row_ranges, strip_cells, cell_hist -- the one cell layout, which
                           diff_cell_hist, residue's tables of size t and
                           the cyclotomic tables count their cells through;
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
                           appears, in a triangular table of v(v-1)/2,
                           exact in int32 or mod 2^8 or 2^16.
"""

from __future__ import annotations

from math import comb

import numpy as np

from .errors import check_budget
from .groups import digit_columns

# Gram multiply-adds, C(B+1, 2)*v/lanes: 12-14 s at 45-49 ps on one thread.
GRAM_MULADD_BUDGET = 2 ** 38
# Cells per Gram tile, min(B, _GRAM_ROWS)*v: 16 MB of float32; with the
# multiply-adds it keeps the packed incidence matrix, B*v/8, under 16 MB.
GRAM_TILE_BUDGET = 2 ** 22
# pair_coverage's pair indices, B*C(k, 2): 3-5 s at 2.9-4.3 ns each.
COVER_INDEX_BUDGET = 2 ** 30
# pair_coverage's table cells, v(v-1)/2: 16 MB of uint8 where a design
# passes, else 64 MB of int32 and 16 MB of flags for the first bad pair.
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
# Pair indices per np.add.at of pair_coverage: 256 KB of int64.  On
# gr-squares (37,1) the median call took 65.3 ms, against 66.5 ms at 2^18.
_COVER_INDICES = 1 << 15
# Blocks per transposed slice of pair_coverage: 0.6 MB of uint16 at k = 18.
_COVER_BLOCKS = 1 << 14


def backend() -> str:
    """Name of the counting backend; numpy is the only one."""
    return "numpy"


def _row_slices(blocks):
    """(B, k) and the row slices, in order, of a block array, which is its own
    one slice, or of an iterable of slices with a `shape` (a designs.Design
    or designs.Development), which yields them when iterated."""
    if not hasattr(blocks, "shape"):
        blocks = np.asarray(blocks)
    return blocks.shape, (blocks,) if isinstance(blocks, np.ndarray) else blocks


def _joined(B, k, slices, copy=False):
    """The rows of the slices of a (B, k) block array in one array: a slice
    that holds every row is that array itself unless `copy`, else the slices
    are copied in order into one new array of their dtype."""
    out, at = None, 0
    for part in slices:
        if part.shape[0] == B and not copy:
            return part
        if out is None:
            out = np.empty((B, k), dtype=part.dtype)
        out[at:at + part.shape[0]] = part
        at += part.shape[0]
    return out


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


def row_ranges(rows, width):
    """(lo, hi) ranges of `rows` rows of `width` entries each, about _CHUNK
    entries a range and at least one row."""
    step = max(1, _CHUNK // width)
    for lo in range(0, rows, step):
        yield lo, min(lo + step, rows)


def strip_cells(cols, b):
    """The cells of a strip, row by row, each row's b cells and then a spare
    one: cols[..., i, :] holds the blocks, in [0, b], that row i's elements
    land in, b for no block; leading axes (layers) add into the same cells.
    One bincount of row * (b + 1) + block."""
    rows = cols.shape[-2]
    codes = cols + np.arange(0, rows * (b + 1), b + 1)[:, None]
    return np.bincount(codes.ravel(), minlength=rows * (b + 1))


def cell_hist(strips, b, k):
    """hist[N]: the cells equal to N over the rows of the strips (see
    strip_cells), the spare cells left out.  A cell is at most k."""
    hist = np.zeros(k + 1, dtype=np.int64)
    for cols in strips:
        cells = strip_cells(cols, b)
        counts = np.bincount(cells, minlength=k + 1)  # a spare cell may pass k
        counts -= np.bincount(cells[b::b + 1], minlength=counts.size)
        hist += counts[:k + 1]
    return hist


def diff_cell_hist(blocks, base, digits, order, reps, weights):
    """Histogram over N of the (i, j, d) cells N_d(i, j) (see module doc).

    The group is (Z_base)^digits of the given order, elements packed as
    sum(c_l * base^l).  For each d in `reps` the b^2 cell table is built in
    strips of rows i: a strip is layers[:, x - d] over the elements x of
    its D_i, a contiguous slice of the block elements, as an (L, rows, k)
    array for cell_hist.  Each strip's cells are histogrammed and added
    `weights` times (an orbit representative and its orbit size).  Each
    cell stands for `order` ordered block pairs of the developed design.
    """
    blocks = np.asarray(blocks)
    reps = np.asarray(reps, dtype=np.int64)
    weights = np.asarray(weights, dtype=np.int64)
    b, k = blocks.shape
    layers = _point_layers(blocks, order)
    pows = base ** np.arange(digits, dtype=np.int64)
    pts = blocks.ravel()
    # row l: digit l of each block element x, in the narrowest dtype that holds it
    pt_digits = digit_columns(pts, base, digits)
    # a row has k elements and b + 1 cells; a pass takes a strip of rows for
    # one d, or every row for a chunk of d values when the whole table fits
    width = max(k, b + 1)
    chunk = max(1, _CHUNK // (b * width)) if _CHUNK // width >= b else 1

    def strips(group):
        for s in range(0, group.size, chunk):
            d = group[s:s + chunk]
            d_digits = digit_columns(d, base, digits)
            for lo, hi in row_ranges(b, width):
                # x - d, packed: the integer difference, widened to int64 a
                # strip at a time, plus base^(l+1) for every digit l that borrows
                shifted = pts[None, lo * k:hi * k] - d[:, None]
                for l in range(digits):
                    shifted += (pt_digits[l][None, lo * k:hi * k] < d_digits[l][:, None]) \
                        * (base * pows[l])
                # the rows of each d in the chunk follow those of the one before
                yield layers[:, shifted].reshape(layers.shape[0], -1, k)

    hist = np.zeros(k + 1, dtype=np.int64)
    for w in _distinct(weights):
        hist += w * cell_hist(strips(reps[weights == w]), b, k)
    hist[k] -= b * int(weights[reps == 0].sum())  # the (i, i, 0) self-pair cells
    return hist


def _incidence(B, slices, v):
    """(B, ceil(v/8)) uint8: the 0/1 incidence matrix on points 0..v-1 of
    the B blocks in a sequence of row slices, bit-packed along each row by
    np.packbits (padding bits are 0).

    Built _GRAM_ROWS rows of a slice at a time: each entry is scattered
    through its flat index row*v + point into one 1-D boolean tile, whose
    (rows, v) view is packed.
    """
    packed = np.empty((B, (v + 7) // 8), dtype=np.uint8)
    tile = np.empty(min(_GRAM_ROWS, B) * v, dtype=bool)
    offsets = np.arange(0, tile.size, v, dtype=np.intp)[:, None]  # row*v
    at = 0  # the first row of `part`
    for part in slices:
        for s in range(0, part.shape[0], _GRAM_ROWS):
            n = min(_GRAM_ROWS, part.shape[0] - s)
            rows = tile[:n * v]
            rows.fill(False)
            rows[(part[s:s + n] + offsets[:n]).ravel()] = True
            packed[at + s:at + s + n] = np.packbits(rows.reshape(n, v), axis=1)
        at += part.shape[0]
    return packed


def _gram_hist(blocks, v):
    """Histogram of |B_i & B_j| from Gram products of the 0/1 incidence matrix.

    `blocks` holds points 0..v-1, rows in any order, as an array or its
    slices (see _row_slices).  The incidence matrix stays bit-packed
    (_incidence); tiles of _GRAM_ROWS block rows are
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
    (B, k), slices = _row_slices(blocks)
    w = k.bit_length()
    lanes = 2 if 2 * w <= 24 else 1
    check_budget("direct profile", GRAM_MULADD_BUDGET, "multiply-adds (C(B+1, 2)*v/lanes)",
                 comb(B + 1, 2) * v // lanes)
    check_budget("direct profile", GRAM_TILE_BUDGET,
                 f"cells per Gram tile (min(B, {_GRAM_ROWS})*v)", min(B, _GRAM_ROWS) * v)
    packed = _incidence(B, slices, v)
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
    j-subsets x_1 < ... < x_j (rows of an array or of its slices, copied
    into one array and sorted there; any order given) as the key
    sum x_i v^(j-i), exact while v^j < 2^63: a (j-1)-subset's key times v
    plus a later point.  lam_S is a run of equal sorted keys.  The first
    M_j = 0 ends the levels, as no larger subset then lies in two blocks;
    binomial inversion gives m_N = sum_(j>=N) (-1)^(j-N) C(j, N) M_j for
    N >= 1, and m_0 is the rest of C(B, 2).  No block pair is formed.
    """
    (B, k), slices = _row_slices(blocks)
    rows = _joined(B, k, slices, copy=True)
    rows.sort(axis=1)
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
    of a block array on points 0..v-1, or of its slices (see _row_slices).

    Unused points change no count.  When v exceeds the B*k entries, which
    only a loaded design can declare, the points that occur are first
    renumbered 0..u-1 in order by a sort.  The route is chosen on B, k and
    v alone.  The moment route (_moment_hist)
    runs when its subset keys, B*(2^k - 1) over all levels, are no more
    than the C(B, 2) Gram cells, when one level's keys, at most
    B*C(k, k//2), fit in _SUBSET_KEYS, and when v^k < 2^63 keeps every key
    exact; the Gram route (_gram_hist) runs otherwise, and raises
    BudgetError past its budgets.
    """
    (B, k), slices = _row_slices(blocks)
    if v > B * k:
        blocks = _joined(B, k, slices)
        points = _distinct(blocks.ravel())
        blocks, v = np.searchsorted(points, blocks), points.size
    if B * (2 ** k - 1) <= comb(B, 2) and B * comb(k, k // 2) <= _SUBSET_KEYS \
            and v ** k < 2 ** 63:
        return _moment_hist(blocks, v)
    return _gram_hist(blocks, v)


def pair_coverage(blocks, v, dtype=np.int32):
    """Flat (v(v-1)/2,) array: entry u(2v-u-1)/2 + w-u-1 counts the blocks
    containing both u and w, for u < w; the pairs are in row-major order.

    `blocks` is an array or its slices (see _row_slices), rows ascending.
    The counts are in `dtype`: exact in the default int32, else mod 2^8
    or 2^16, which with the pair sum decides a 2-design (see the module doc).
    Each slice is read in pieces of _COVER_BLOCKS blocks, transposed in
    turn to columns in the slice's own dtype; column i pairs with each
    later column j as start[cols[i]] + cols[j], from the v row starts
    start[u] = u(2v-u-1)/2 - u - 1 in int64, added into the table in place
    by np.add.at, at most max(_COVER_INDICES, slice) indices per call.
    Raises BudgetError before the table is allocated, or a slice read, past
    COVER_CELL_BUDGET or COVER_INDEX_BUDGET.
    """
    (B, k), slices = _row_slices(blocks)
    check_budget("exhaustive pair counting", COVER_CELL_BUDGET, "table cells (v(v-1)/2)",
                 v * (v - 1) // 2)
    check_budget("exhaustive pair counting", COVER_INDEX_BUDGET, "pair indices (B*C(k, 2))",
                 B * comb(k, 2))
    cnt = np.zeros(v * (v - 1) // 2, dtype=dtype)
    u = np.arange(v, dtype=np.int64)
    starts = u * (2 * v - u - 1) // 2 - u - 1
    for part in slices:
        _add_pairs(cnt, part, starts)
        del part  # not held while the next slice is developed
    return cnt


def _add_pairs(cnt, part, starts):
    """Add the pairs of one slice of ascending rows into pair_coverage's table."""
    one = cnt.dtype.type(1)  # numpy's add.at fast path needs the table's dtype
    for lo in range(0, part.shape[0], _COVER_BLOCKS):
        cols = np.ascontiguousarray(part[lo:lo + _COVER_BLOCKS].T)
        rows = max(1, _COVER_INDICES // cols.shape[1])
        for i in range(part.shape[1] - 1):
            start = starts[cols[i]]
            for j in range(i + 1, part.shape[1], rows):
                np.add.at(cnt, (start + cols[j:j + rows]).ravel(), one)
