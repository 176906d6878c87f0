"""Kernel results against hand-checked examples and scalar references."""

from collections import Counter
from itertools import combinations

import numpy as np

from ddfkit import _kernels


def random_blocks(rng, b, k, v):
    rows = [rng.choice(v, size=k, replace=False) for _ in range(b)]
    return np.sort(np.array(rows, dtype=np.int64), axis=1)


def test_diff_hist_single_block_z5():
    # base block {1, 2} in Z_5: the two nonzero differences 1 and 4 each occur
    # once, the remaining two d-values have multiplicity 0
    blocks = np.array([[1, 2]], dtype=np.int64)
    hist = _kernels.diff_pair_hist(blocks, 5, 1, 5)
    assert hist.tolist() == [2, 2, 0]


def test_intersect_hist_tiny():
    blocks = np.array([[0, 1], [0, 1], [1, 2]], dtype=np.int64)
    hist = _kernels.block_intersection_hist(blocks, 3)
    # pairs: (0,1) identical -> 2; (0,2) and (1,2) share point 1 -> 1
    assert hist.tolist() == [0, 2, 1]


def test_pair_coverage_tiny():
    blocks = np.array([[0, 1, 2], [1, 2, 3]], dtype=np.int64)
    cnt = _kernels.pair_coverage(blocks, 4).reshape(4, 4)
    assert cnt[0, 1] == 1 and cnt[0, 2] == 1 and cnt[1, 2] == 2
    assert cnt[1, 3] == 1 and cnt[2, 3] == 1 and cnt[0, 3] == 0


def _group_sub(x, y, base, digits):
    """x - y in Z_base^digits, on packed base-`base` digit encodings."""
    out, mult = 0, 1
    for _ in range(digits):
        out += (x % base - y % base) % base * mult
        x, y, mult = x // base, y // base, mult * base
    return out


def _diff_hist_reference(blocks, base, digits, pairs, weights):
    b, k = blocks.shape
    order = base ** digits
    hist = [0] * (k + 1)
    for pair, w in zip(pairs, weights):
        i, j = divmod(pair, b)
        per_d = Counter(_group_sub(int(x), int(y), base, digits)
                        for x in blocks[i] for y in blocks[j])
        for d in range(order):
            if i == j and d == 0:
                continue  # the excluded self-pair cell
            hist[per_d[d]] += w
    return hist


def test_kernels_match_scalar_references():
    rng = np.random.default_rng(7)
    for base, digits in [(5, 2), (25, 1), (3, 3), (7, 2)]:
        v = base ** digits
        b = 6
        blocks = random_blocks(rng, b=b, k=min(5, v // 2), v=v)
        case = (base, digits)

        every = range(b * b)
        hist = _kernels.diff_pair_hist(blocks, base, digits, v)
        assert hist.tolist() == _diff_hist_reference(blocks, base, digits, every,
                                                     [1] * b * b), case
        pairs = np.sort(rng.choice(b * b, size=11, replace=False))
        weights = rng.integers(1, 6, size=pairs.size)
        hist = _kernels.diff_pair_hist(blocks, base, digits, v,
                                       pairs=pairs, weights=weights)
        assert hist.tolist() == _diff_hist_reference(
            blocks, base, digits, pairs.tolist(), weights.tolist()), case

        rows = [set(map(int, row)) for row in blocks]
        ref = [0] * (blocks.shape[1] + 1)
        for a, c in combinations(rows, 2):
            ref[len(a & c)] += 1
        assert _kernels.block_intersection_hist(blocks, v).tolist() == ref, case

        cover = Counter(pair for row in rows for pair in combinations(sorted(row), 2))
        cnt = _kernels.pair_coverage(blocks, v).reshape(v, v)
        assert {(int(u), int(w)): int(cnt[u, w])
                for u, w in zip(*np.nonzero(cnt))} == \
            dict(cover), case


def test_intersect_hist_wide_rows():
    # several 64-bit words per row
    rng = np.random.default_rng(11)
    blocks = random_blocks(rng, b=40, k=30, v=700)
    ref = np.zeros(31, dtype=np.int64)
    rows = [set(map(int, row)) for row in blocks]
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            ref[len(rows[i] & rows[j])] += 1
    hist = _kernels.block_intersection_hist(blocks, 700)
    assert hist.tolist() == ref.tolist()
