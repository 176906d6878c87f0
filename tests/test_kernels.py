"""Kernel results against hand-checked examples and scalar references."""

from collections import Counter
from itertools import combinations
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from ddfkit import (build_field, build_ring, develop, furino_family,
                    profile_direct, profile_via_differences, wilson_family)
from ddfkit import _kernels
from ddfkit.designs import PROFILE_DIRECT_BLOCK_BUDGET, IntersectionProfile
from ddfkit.families import DifferenceFamily
from ddfkit.groups import field_group, ring_group

from test_multipliers import cyclotomic_cases


def random_blocks(rng, b, k, v):
    rows = [rng.choice(v, size=k, replace=False) for _ in range(b)]
    return np.sort(np.array(rows, dtype=np.int64), axis=1)


def test_diff_hist_single_block_z5():
    # base block {1, 2} in Z_5: the two nonzero differences 1 and 4 each occur
    # once, the remaining two d-values have multiplicity 0
    blocks = np.array([[1, 2]], dtype=np.int64)
    hist = _kernels.diff_cell_hist(blocks, 5, 1, 5, np.arange(5), np.ones(5))
    assert hist.tolist() == [2, 2, 0]


def test_intersect_hist_tiny():
    blocks = np.array([[0, 1], [0, 1], [1, 2]], dtype=np.int64)
    hist = _kernels.block_intersection_hist(blocks)
    # pairs: (0,1) identical -> 2; (0,2) and (1,2) share point 1 -> 1
    assert hist.tolist() == [0, 2, 1]


def test_pair_coverage_tiny():
    blocks = np.array([[0, 1, 2], [1, 2, 3]], dtype=np.int64)
    cnt = _kernels.pair_coverage(blocks, 4).reshape(4, 4)
    assert cnt[0, 1] == 1 and cnt[0, 2] == 1 and cnt[1, 2] == 2
    assert cnt[1, 3] == 1 and cnt[2, 3] == 1 and cnt[0, 3] == 0


def _coverage_reference(blocks, v):
    cnt = np.zeros((v, v), dtype=np.int64)
    for row in blocks.tolist():
        for u, w in combinations(row, 2):
            cnt[u, w] += 1
    return cnt.ravel()


def test_pair_coverage_edge_widths_and_split_bincounts(monkeypatch):
    rng = np.random.default_rng(3)
    single = random_blocks(rng, b=9, k=1, v=10)
    assert _kernels.pair_coverage(single, 10).tolist() == [0] * 100
    pairs = random_blocks(rng, b=30, k=2, v=10)
    assert _kernels.pair_coverage(pairs, 10).tolist() == \
        _coverage_reference(pairs, 10).tolist()
    blocks = random_blocks(rng, b=50, k=7, v=20)
    ref = _coverage_reference(blocks, 20).tolist()
    # 3, 2 or 1 later columns per bincount; a bound below B still takes one
    for bound in (150, 100, 1):
        monkeypatch.setattr(_kernels, "_COVER_INDICES", bound)
        assert _kernels.pair_coverage(blocks, 20).tolist() == ref, bound


def _group_sub(x, y, base, digits):
    """x - y in Z_base^digits, on packed base-`base` digit encodings."""
    out, mult = 0, 1
    for _ in range(digits):
        out += (x % base - y % base) % base * mult
        x, y, mult = x // base, y // base, mult * base
    return out


def _diff_hist_reference(blocks, base, digits, ds, weights):
    """Cell histogram over all b^2 base pairs and the listed d, with weights."""
    b, k = blocks.shape
    hist = [0] * (k + 1)
    for i in range(b):
        for j in range(b):
            per_d = Counter(_group_sub(int(x), int(y), base, digits)
                            for x in blocks[i] for y in blocks[j])
            for d, w in zip(ds, weights):
                if i == j and d == 0:
                    continue  # the excluded self-pair cell
                hist[per_d[d]] += w
    return hist


def _diff_pair_hist(blocks, base, digits, order):
    """The per-pair route: one difference multiset D_i - D_j per base pair.

    For every ordered pair (i, j) it bincounts the k^2 differences over the
    group and histograms the v multiplicities, excluding the (i, i, 0) cell.
    """
    blocks = np.asarray(blocks, dtype=np.int64)
    b, k = blocks.shape
    pows = base ** np.arange(digits, dtype=np.int64)
    dig = (blocks[:, :, None] // pows) % base  # (b, k, digits)
    hist = np.zeros(k + 1, dtype=np.int64)
    for i in range(b):
        for j in range(b):
            dd = (dig[i][:, None, :] - dig[j][None, :, :]) % base
            d = (dd * pows).sum(axis=2).ravel()
            if i == j:
                d = d[d != 0]
            cells = np.bincount(np.bincount(d, minlength=order), minlength=k + 1)
            if i == j:
                cells[0] -= 1  # d = 0 is not part of the d-space when i == j
            hist += cells
    return hist


def _per_pair_profile(fam):
    g = fam.group
    hist = _diff_pair_hist(fam.block_array(), g.base, g.digits, g.order)
    return IntersectionProfile({n: g.order * int(c) // 2 for n, c in enumerate(hist)})


def test_kernels_match_scalar_references():
    rng = np.random.default_rng(7)
    for base, digits in [(5, 2), (25, 1), (3, 3), (7, 2)]:
        v = base ** digits
        b = 6
        # independent random rows: blocks overlap and may contain 0
        blocks = random_blocks(rng, b=b, k=min(5, v // 2), v=v)
        case = (base, digits)

        every = np.arange(v)
        hist = _kernels.diff_cell_hist(blocks, base, digits, v, every, np.ones(v))
        assert hist.tolist() == _diff_hist_reference(blocks, base, digits, every,
                                                     [1] * v), case
        assert hist.tolist() == _diff_pair_hist(blocks, base, digits, v).tolist(), case
        ds = np.sort(rng.choice(v, size=11, replace=False))
        ds[0] = 0  # the self-pair exclusion is weighted too
        weights = rng.integers(1, 6, size=ds.size)
        hist = _kernels.diff_cell_hist(blocks, base, digits, v, ds, weights)
        assert hist.tolist() == _diff_hist_reference(
            blocks, base, digits, ds.tolist(), weights.tolist()), case

        rows = [set(map(int, row)) for row in blocks]
        ref = [0] * (blocks.shape[1] + 1)
        for a, c in combinations(rows, 2):
            ref[len(a & c)] += 1
        assert _kernels.block_intersection_hist(blocks).tolist() == ref, case

        cover = Counter(pair for row in rows for pair in combinations(sorted(row), 2))
        cnt = _kernels.pair_coverage(blocks, v).reshape(v, v)
        assert {(int(u), int(w)): int(cnt[u, w])
                for u, w in zip(*np.nonzero(cnt))} == \
            dict(cover), case


def test_intersect_hist_wide_rows(monkeypatch):
    # many more points than blocks, and a Gram product split into row chunks
    rng = np.random.default_rng(11)
    blocks = random_blocks(rng, b=40, k=30, v=700)
    ref = np.zeros(31, dtype=np.int64)
    rows = [set(map(int, row)) for row in blocks]
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            ref[len(rows[i] & rows[j])] += 1
    hist = _kernels.block_intersection_hist(blocks)
    assert hist.tolist() == ref.tolist()
    monkeypatch.setattr(_kernels, "_GRAM_CELLS", 7 * 40)  # chunks of 7 rows
    assert _kernels.block_intersection_hist(blocks).tolist() == ref.tolist()


@st.composite
def block_arrays(draw):
    """(B, k) arrays of ascending rows; labels below k (every point used),
    below B*k (the occupancy relabel, with unused points) or far above it
    (the sort path)."""
    count = draw(st.integers(1, 7))
    k = draw(st.integers(1, 5))
    top = draw(st.sampled_from([k, count * k, 3 * count * k, 2 ** 40]))
    block = st.lists(st.integers(0, top - 1), min_size=k, max_size=k, unique=True)
    return np.sort(np.array(draw(st.lists(block, min_size=count, max_size=count)),
                            dtype=np.int64), axis=1)


@settings(max_examples=150, deadline=None)
@given(block_arrays(), st.integers(1, 3))
def test_intersect_hist_matches_pair_loop(blocks, rows_per_chunk):
    rows = [frozenset(row) for row in blocks.tolist()]
    ref = [0] * (blocks.shape[1] + 1)
    for a, c in combinations(rows, 2):
        ref[len(a & c)] += 1
    assert _kernels.block_intersection_hist(blocks).tolist() == ref
    # several chunks, each starting with an r x r square on the diagonal
    with mock.patch.object(_kernels, "_GRAM_CELLS", rows_per_chunk * blocks.shape[0]):
        assert _kernels.block_intersection_hist(blocks).tolist() == ref


def test_intersect_hist_ignores_unused_points():
    # labels far beyond any table size: only the points that occur count
    blocks = np.array([[3, 2 ** 40 - 1], [5, 2 ** 40 - 1], [3, 5]], dtype=np.int64)
    assert _kernels.block_intersection_hist(blocks).tolist() == [0, 3, 0]


# ---------------------------------------------------------------------------
# the difference route against the per-pair route and the direct scan
# ---------------------------------------------------------------------------

def _furino_cases():
    # the Teichmüller subgroups of order >= 2 in GR(p^2, r) with p^r <= 13
    cases = []
    for p, r in [(3, 1), (5, 1), (7, 1), (11, 1), (13, 1), (3, 2)]:
        t = p ** r
        cases += [(p, r, e) for e in range(1, t - 1) if (t - 1) % e == 0]
    return cases


@st.composite
def loaded_families(draw):
    """Random base blocks over a small field or ring group, as a file would load."""
    kind, p, n = draw(st.sampled_from([("field", 5, 1), ("field", 2, 3), ("field", 3, 2),
                                       ("field", 7, 1), ("ring", 3, 1), ("ring", 2, 2),
                                       ("ring", 5, 1)]))
    g = field_group(p, n) if kind == "field" else ring_group(p, n)
    k = draw(st.integers(1, min(5, g.order - 1)))
    block = st.lists(st.integers(0, g.order - 1), min_size=k, max_size=k, unique=True)
    blocks = draw(st.lists(block, min_size=1, max_size=4))
    rows = tuple(tuple(sorted(row)) for row in blocks)
    return DifferenceFamily(group=g, blocks=rows, v=g.order, k=k, lam=0,
                            disjoint=False, near_complete=False, name="loaded")


families = st.one_of(
    st.sampled_from(cyclotomic_cases()).map(
        lambda c: wilson_family(build_field(c[0], c[1]), c[2])),
    st.sampled_from(_furino_cases()).map(
        lambda c: furino_family(build_ring(c[0], c[1]),
                                build_ring(c[0], c[1]).teichmuller[1::c[2]])),
    loaded_families(),
)


@settings(max_examples=60, deadline=None)
@given(families)
def test_difference_route_matches_per_pair_route_and_direct_scan(fam):
    prof = profile_via_differences(fam)
    assert prof == _per_pair_profile(fam), fam.name
    if fam.v * fam.b <= PROFILE_DIRECT_BLOCK_BUDGET:
        assert prof == profile_direct(develop(fam)), fam.name
