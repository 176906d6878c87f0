"""Hot counting kernels, each with a numba and a pure-numpy implementation.

Backend selection is an import-time decision driven by the DDF_BACKEND
environment variable: "numpy" forces the fallbacks, "numba" insists on the
JIT path, unset prefers numba when importable.  Every kernel works on
int64 inputs and produces exact int64 counts; callers finish the arithmetic
in Python integers, so nothing here can silently overflow (the per-kernel
counts are bounded by b^2 * v, far below 2^63 at the supported sizes).

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

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

_REQUESTED = os.environ.get("DDF_BACKEND", "").strip().lower()
if _REQUESTED not in ("", "numba", "numpy"):
    raise RuntimeError(f"DDF_BACKEND must be 'numba' or 'numpy', got {_REQUESTED!r}")

_HAVE_NUMBA = False
if _REQUESTED != "numpy":
    try:
        from numba import njit

        _HAVE_NUMBA = True
    except ImportError:
        if _REQUESTED == "numba":
            raise RuntimeError("DDF_BACKEND=numba but numba is not importable")


def backend() -> str:
    """Name of the backend picked at import time."""
    return "numba" if _HAVE_NUMBA else "numpy"


def _pick(force_backend):
    if force_backend is None:
        return backend()
    if force_backend not in ("numba", "numpy"):
        raise ValueError(f"unknown backend {force_backend!r}")
    if force_backend == "numba" and not _HAVE_NUMBA:
        raise RuntimeError("numba backend requested but unavailable")
    return force_backend


# ---------------------------------------------------------------------------
# numpy implementations
# ---------------------------------------------------------------------------

def _diff_hist_np(blocks, base, digits, order, lo, hi):
    b, k = blocks.shape
    pows = base ** np.arange(digits, dtype=np.int64)
    dig = (blocks[:, :, None] // pows) % base  # (b, k, digits)
    hist = np.zeros(k + 1, dtype=np.int64)
    for pair in range(lo, hi):
        i, j = divmod(pair, b)
        dd = (dig[i][:, None, :] - dig[j][None, :, :]) % base
        d = (dd * pows).sum(axis=2).ravel()
        if i == j:
            d = d[d != 0]
        per_d = np.bincount(d, minlength=order)
        hist += np.bincount(per_d, minlength=k + 1)
        if i == j:
            hist[0] -= 1  # d = 0 is not part of the d-space when i == j
    return hist


def _intersect_hist_np(packed8, k):
    B = packed8.shape[0]
    hist = np.zeros(k + 1, dtype=np.int64)
    for i in range(B - 1):
        anded = packed8[i] & packed8[i + 1 :]
        sizes = np.bitwise_count(anded).sum(axis=1, dtype=np.int64)
        hist += np.bincount(sizes, minlength=k + 1)
    return hist


def _pair_coverage_np(blocks, v):
    B, k = blocks.shape
    iu, ju = np.triu_indices(k, 1)
    cnt = np.zeros(v * v, dtype=np.int64)
    pairs_per_row = iu.size
    rows_per_chunk = max(1, (1 << 22) // max(pairs_per_row, 1))
    for s in range(0, B, rows_per_chunk):
        chunk = blocks[s : s + rows_per_chunk]
        flat = (chunk[:, iu] * v + chunk[:, ju]).ravel()
        cnt += np.bincount(flat, minlength=v * v)
    return cnt


# ---------------------------------------------------------------------------
# numba implementations
# ---------------------------------------------------------------------------

if _HAVE_NUMBA:
    _M1 = np.uint64(0x5555555555555555)
    _M2 = np.uint64(0x3333333333333333)
    _M4 = np.uint64(0x0F0F0F0F0F0F0F0F)
    _H01 = np.uint64(0x0101010101010101)
    _S1 = np.uint64(1)
    _S2 = np.uint64(2)
    _S4 = np.uint64(4)
    _S56 = np.uint64(56)

    @njit(cache=True, nogil=True, inline="always")
    def _popcount64(x):
        x = x - ((x >> _S1) & _M1)
        x = (x & _M2) + ((x >> _S2) & _M2)
        x = (x + (x >> _S4)) & _M4
        return (x * _H01) >> _S56

    @njit(cache=True, nogil=True, inline="always")
    def _gsub(a, b, base, digits):
        res = np.int64(0)
        mult = np.int64(1)
        for _ in range(digits):
            dd = a % base - b % base
            if dd < 0:
                dd += base
            res += dd * mult
            a //= base
            b //= base
            mult *= base
        return res

    @njit(cache=True, nogil=True)
    def _diff_hist_nb(blocks, base, digits, order, lo, hi):
        b, k = blocks.shape
        hist = np.zeros(k + 1, dtype=np.int64)
        per_d = np.zeros(order, dtype=np.int64)
        touched = np.empty(k * k, dtype=np.int64)
        for pair in range(lo, hi):
            i = pair // b
            j = pair % b
            ntouched = 0
            for x in range(k):
                ax = blocks[i, x]
                for y in range(k):
                    d = _gsub(ax, blocks[j, y], base, digits)
                    if i == j and d == 0:
                        continue
                    if per_d[d] == 0:
                        touched[ntouched] = d
                        ntouched += 1
                    per_d[d] += 1
            dspace = order - 1 if i == j else order
            hist[0] += dspace - ntouched
            for t in range(ntouched):
                d = touched[t]
                hist[per_d[d]] += 1
                per_d[d] = 0
        return hist

    @njit(cache=True, nogil=True)
    def _intersect_hist_nb(words, k):
        B, W = words.shape
        hist = np.zeros(k + 1, dtype=np.int64)
        for i in range(B):
            for j in range(i + 1, B):
                c = np.uint64(0)
                for w in range(W):
                    c += _popcount64(words[i, w] & words[j, w])
                hist[np.int64(c)] += 1
        return hist

    @njit(cache=True, nogil=True)
    def _pair_coverage_nb(blocks, v):
        B, k = blocks.shape
        cnt = np.zeros(v * v, dtype=np.int64)
        for bi in range(B):
            for x in range(k):
                row = blocks[bi, x] * v
                for y in range(x + 1, k):
                    cnt[row + blocks[bi, y]] += 1
        return cnt


# ---------------------------------------------------------------------------
# dispatch wrappers
# ---------------------------------------------------------------------------

def _runs(pairs, weights):
    """Maximal runs (lo, hi, weight) of consecutive pair indices sharing one weight."""
    cut = np.flatnonzero((np.diff(pairs) != 1) | (np.diff(weights) != 0)) + 1
    starts = np.concatenate(([0], cut))
    stops = np.concatenate((cut, [len(pairs)]))
    return [(int(pairs[s]), int(pairs[e - 1]) + 1, int(weights[s]))
            for s, e in zip(starts, stops)]


def diff_pair_hist(blocks, base, digits, order, threads=1, force_backend=None,
                   pairs=None, weights=None):
    """Histogram over N of the (i, j, d) multiplicity cells (see module doc).

    Entry N counts the cells whose multiplicity is N; each cell stands for
    `order` ordered block pairs of the developed design.  `pairs` lists
    ascending pair indices i*b + j, each standing for `weights` of them (an
    orbit representative and its orbit size); by default every one of the
    b^2 pairs counts once.  The kernels run on runs of consecutive indices
    sharing a weight, and each partial histogram is scaled by that weight.
    Work splits into contiguous chunks of the listed pairs; partial
    histograms merge by addition, so any chunking yields identical results.
    """
    blocks = np.ascontiguousarray(blocks, dtype=np.int64)
    b, k = blocks.shape
    impl = _diff_hist_nb if _pick(force_backend) == "numba" else _diff_hist_np
    total = b * b if pairs is None else len(pairs)

    def part(lo, hi):  # positions lo..hi of the listed pairs
        runs = [(lo, hi, 1)] if pairs is None else _runs(pairs[lo:hi], weights[lo:hi])
        hist = np.zeros(k + 1, dtype=np.int64)
        for s, e, w in runs:
            hist += w * impl(blocks, base, digits, order, s, e)
        return hist

    threads = max(1, min(int(threads), total))
    if threads == 1:
        return part(0, total)
    bounds = np.linspace(0, total, threads + 1, dtype=np.int64)
    with ThreadPoolExecutor(max_workers=threads) as ex:
        parts = ex.map(lambda se: part(int(se[0]), int(se[1])),
                       zip(bounds[:-1], bounds[1:]))
        return sum(parts)


def _pack_blocks(blocks, v):
    B = blocks.shape[0]
    width = ((v + 63) // 64) * 64
    inc = np.zeros((B, width), dtype=bool)
    inc[np.arange(B)[:, None], blocks] = True
    return np.packbits(inc, axis=1, bitorder="little")


def block_intersection_hist(blocks, v, force_backend=None):
    """Histogram of |B_i & B_j| over unordered pairs of distinct block indices."""
    blocks = np.ascontiguousarray(blocks, dtype=np.int64)
    k = blocks.shape[1]
    packed8 = _pack_blocks(blocks, v)
    if _pick(force_backend) == "numba":
        words = np.ascontiguousarray(packed8).view(np.uint64)
        return _intersect_hist_nb(words, k)
    return _intersect_hist_np(packed8, k)


def pair_coverage(blocks, v, force_backend=None):
    """Flat (v*v,) array: entry u*v+w counts blocks containing both u and w (u < w)."""
    blocks = np.ascontiguousarray(blocks, dtype=np.int64)
    if _pick(force_backend) == "numba":
        return _pair_coverage_nb(blocks, v)
    return _pair_coverage_np(blocks, v)


def warmup():
    """Trigger JIT compilation of the numba kernels on toy inputs."""
    toy = np.array([[0, 1], [1, 2]], dtype=np.int64)
    diff_pair_hist(toy, 3, 1, 3)
    block_intersection_hist(toy, 3)
    pair_coverage(toy, 3)
