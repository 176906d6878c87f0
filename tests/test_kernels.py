"""Kernel results against hand-checked examples and scalar references."""

import tracemalloc
from collections import Counter
from itertools import combinations
from math import comb
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ddfkit import (BudgetError, build_field, build_ring, develop, furino_family,
                    profile_direct, profile_via_differences, wilson_family)
from ddfkit import _kernels, residue
from ddfkit.cli import construction_family
from ddfkit.designs import (_DEVELOP_CHUNK, Design, Development, IntersectionProfile,
                            difference_orbits, verify_2design)
from ddfkit.errors import check_budget
from ddfkit.families import DifferenceFamily
from ddfkit.groups import field_group, ring_group

from test_multipliers import DIRECT_SWEEP_BLOCKS, cyclotomic_cases, labelled_orbits


def random_blocks(rng, b, k, v):
    rows = [rng.choice(v, size=k, replace=False) for _ in range(b)]
    return np.sort(np.array(rows, dtype=np.int64), axis=1)


def gram(blocks, v):
    """The Gram route's histogram, whichever route the selection would take."""
    return _kernels._gram_hist(np.asarray(blocks), v).tolist()


def moments(blocks, v):
    """The moment route's histogram, whichever route the selection would take."""
    return _kernels._moment_hist(np.asarray(blocks), v).tolist()


def pair_loop(blocks):
    """|B_i & B_j| over the unordered pairs of distinct block indices, one by one."""
    rows = [set(row) for row in np.asarray(blocks).tolist()]
    ref = [0] * (np.shape(blocks)[1] + 1)
    for a, c in combinations(rows, 2):
        ref[len(a & c)] += 1
    return ref


def test_diff_hist_single_block_z5():
    # base block {1, 2} in Z_5: the two nonzero differences 1 and 4 each occur
    # once, the remaining two d-values have multiplicity 0
    blocks = np.array([[1, 2]], dtype=np.int64)
    hist = _kernels.diff_cell_hist(blocks, 5, 1, 5, np.arange(5), np.ones(5))
    assert hist.tolist() == [2, 2, 0]


def test_intersect_hist_tiny():
    blocks = np.array([[0, 1], [0, 1], [1, 2]], dtype=np.int64)
    hist = _kernels.block_intersection_hist(blocks, 3)
    # pairs: (0,1) identical -> 2; (0,2) and (1,2) share point 1 -> 1
    assert hist.tolist() == gram(blocks, 3) == moments(blocks, 3) == [0, 2, 1]


def test_pair_coverage_tiny():
    blocks = np.array([[0, 1, 2], [1, 2, 3]], dtype=np.int64)
    # the pairs u < w of 4 points in row-major order:
    # (0,1) (0,2) (0,3) (1,2) (1,3) (2,3)
    assert _kernels.pair_coverage(blocks, 4).tolist() == [1, 1, 0, 2, 1, 1]


def _coverage_reference(blocks, v):
    """Per pair u < w, in row-major order, the blocks containing both."""
    cover = Counter(pair for row in blocks.tolist() for pair in combinations(row, 2))
    return [cover[pair] for pair in combinations(range(v), 2)]


def test_pair_coverage_edge_widths_and_split_bincounts(monkeypatch):
    rng = np.random.default_rng(3)
    single = random_blocks(rng, b=9, k=1, v=10)
    assert _kernels.pair_coverage(single, 10).tolist() == [0] * 45
    # one point, so no pair; two points, so one pair in every block
    assert _kernels.pair_coverage(np.zeros((3, 1), dtype=np.int64), 1).tolist() == []
    assert _kernels.pair_coverage(np.array([[0, 1]] * 3), 2).tolist() == [3]
    pairs = random_blocks(rng, b=30, k=2, v=10)
    assert _kernels.pair_coverage(pairs, 10).tolist() == _coverage_reference(pairs, 10)
    blocks = random_blocks(rng, b=50, k=7, v=20)
    ref = _coverage_reference(blocks, 20)
    # 3, 2 or 1 later columns per np.add.at; a bound below B still takes one
    for bound in (150, 100, 1):
        monkeypatch.setattr(_kernels, "_COVER_INDICES", bound)
        assert _kernels.pair_coverage(blocks, 20).tolist() == ref, bound
    # transposed slices of 7 blocks (the last one of 1), with 6 or 1 later
    # columns per np.add.at, and of one block
    for slice_blocks, bound in ((7, 45), (7, 1), (1, 1)):
        monkeypatch.setattr(_kernels, "_COVER_BLOCKS", slice_blocks)
        monkeypatch.setattr(_kernels, "_COVER_INDICES", bound)
        assert _kernels.pair_coverage(blocks, 20).tolist() == ref, slice_blocks


@pytest.mark.parametrize("bound", [1 << 18, 1000])
def test_pair_coverage_on_wide_blocks_counts_in_int32(monkeypatch, bound):
    # k = 300 >= 256 in uint16 rows; a bound of 1000 indices takes 200 later
    # columns of the 5 blocks per np.add.at
    blocks = random_blocks(np.random.default_rng(300), b=5, k=300, v=310)
    blocks[4] = blocks[0]  # pairs covered twice
    monkeypatch.setattr(_kernels, "_COVER_INDICES", bound)
    cnt = _kernels.pair_coverage(blocks.astype(np.uint16), 310)
    assert cnt.dtype == np.int32
    assert cnt.tolist() == _coverage_reference(blocks, 310)


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.int32])
def test_pair_coverage_counts_modulo_its_dtype(dtype):
    # 600 blocks of 4 on 6 points, so counts of up to 600 pass 2^8: in
    # uint8 and uint16 the additions wrap, and each entry is its count mod M
    blocks = random_blocks(np.random.default_rng(8), b=600, k=4, v=6)
    cnt = _kernels.pair_coverage(blocks, 6, dtype)
    assert cnt.dtype == dtype
    ref = np.array(_coverage_reference(blocks, 6))
    assert max(ref) > 255 and cnt.tolist() == (ref % (1 << 8 * cnt.itemsize)).tolist()


def test_pair_coverage_working_set():
    # gr-squares (37,1): 104044 blocks of 18 on 1369 points.  The int32 table,
    # slices of 2^14 transposed blocks and 2^15 indices stay under 12 MB; an
    # int64 table plus a per-column int64 bincount of it and 2^22-index blocks
    # took 34.5 MB, and the whole transposed block array 3.7 MB more
    design = develop(construction_family("gr-squares", 37, 1))
    tracemalloc.start()
    try:
        cnt = _kernels.pair_coverage(design.blocks, design.v)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (cnt == 17).all()
    assert peak < 4 * cnt.size + (8 << 20), peak


class Sliced:
    """A block array read as the given row slices, as a Development is."""

    def __init__(self, blocks, cuts):
        self.shape = blocks.shape
        self.parts = np.split(blocks, cuts)

    def __iter__(self):
        return iter(self.parts)


@pytest.mark.parametrize("cuts", [[], [1], [3, 3, 250], [5, 9, 300]])
def test_direct_kernels_read_row_slices(monkeypatch, cuts):
    # 300 blocks of 6 on 40 points, cut into slices of uneven lengths (an
    # empty one too) that straddle the Gram route's 4-row tiles
    monkeypatch.setattr(_kernels, "_GRAM_ROWS", 4)
    monkeypatch.setattr(_kernels, "_COVER_BLOCKS", 7)
    blocks = random_blocks(np.random.default_rng(6), b=300, k=6, v=40).astype(np.uint8)
    assert _kernels.pair_coverage(Sliced(blocks, cuts), 40).tolist() == \
        _coverage_reference(blocks, 40)
    ref = pair_loop(blocks)
    assert gram(blocks, 40) == _kernels._gram_hist(Sliced(blocks, cuts), 40).tolist() == ref
    assert _kernels._moment_hist(Sliced(blocks, cuts), 40).tolist() == ref
    assert _kernels.block_intersection_hist(Sliced(blocks, cuts), 40).tolist() == ref
    # a design on more points than entries is renumbered from its slices
    assert _kernels.block_intersection_hist(Sliced(blocks, cuts), 5000).tolist() == ref


def test_verify_working_set_over_a_development():
    # gr-squares (37,1): 104044 blocks of 18 on 1369 points, developed a
    # slice of at most 2^18 entries at a time into the pair table, which
    # takes a byte per cell on this passing design and is bounded here at
    # the int32 table's four.  Beside the table, the peak holds a slice, its
    # transposed copy, the index chunk and the int64 columns it is formed
    # from, under three uint16 slices and an index chunk; the whole 3.7 MB
    # design took the peak to 10.5 MB
    fam = construction_family("gr-squares", 37, 1)
    table = 4 * comb(fam.v, 2)
    tracemalloc.start()
    try:
        assert verify_2design(Development(fam), fam.lam) == (True, None)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < table + 3 * 2 * _DEVELOP_CHUNK + 8 * _kernels._COVER_INDICES, peak


def test_direct_working_set_over_a_development():
    # feng-1: 2662 blocks of 665 on 1331 points, developed a slice at a time
    # into the bit-packed incidence matrix (0.44 MB).  Beside it, the Gram
    # tiles (2 MB of float32) take as much again for the unpacked bits, the
    # scaled high lane and the integer products, and a slice is developed
    # before the tiles exist; the whole 3.5 MB design took the peak to 8 MB
    fam = construction_family("feng-1", None, None)
    B, v = fam.v * fam.b, fam.v
    packed = B * ((v + 7) // 8)
    tiles = 4 * (_kernels._GRAM_ROWS // 2 + _kernels._GRAM_ROWS) * 8 * ((v + 7) // 8)
    tracemalloc.start()
    try:
        hist = _kernels.block_intersection_hist(Development(fam), v)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert int(hist.sum()) == comb(B, 2)
    assert peak < packed + 2 * tiles + 2 * _DEVELOP_CHUNK, peak


def test_check_budget_admits_the_limit_and_refuses_one_more():
    check_budget("development", 10, "block entries (v*b*k)", 10)
    with pytest.raises(BudgetError) as refused:
        check_budget("development", 10, "block entries (v*b*k)", 11)
    assert str(refused.value) == "development capped at 10 block entries (v*b*k), got 11"


def _peak_of_refusal(kernel, *args, work):
    """tracemalloc's peak over kernel(*args), which must raise BudgetError
    naming `work`."""
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError, match=f"got {work}$"):
            kernel(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


@pytest.mark.parametrize("budget", ["COVER_CELL_BUDGET", "COVER_INDEX_BUDGET"])
def test_cover_budgets_count_the_work_before_the_table(monkeypatch, budget):
    # 50 random blocks of 5 on 600 points: 179700 table cells and 500 pair
    # indices.  At its exact work the pairs are counted; at one less the
    # kernel raises before its 719 KB int32 table is allocated
    blocks = random_blocks(np.random.default_rng(600), b=50, k=5, v=600)
    work = {"COVER_CELL_BUDGET": comb(600, 2), "COVER_INDEX_BUDGET": 50 * comb(5, 2)}[budget]
    monkeypatch.setattr(_kernels, budget, work)
    assert _kernels.pair_coverage(blocks, 600).tolist() == _coverage_reference(blocks, 600)
    monkeypatch.setattr(_kernels, budget, work - 1)
    peak = _peak_of_refusal(_kernels.pair_coverage, blocks, 600, work=work)
    assert peak < 4 * comb(600, 2) // 10, peak


@st.composite
def drawn_blocks(draw):
    """An int64 (B, k) array of ascending rows on v points, and v: dense or
    sparse labels, from uint8 to uint32 points."""
    v = draw(st.sampled_from([1, 2, 9, 200, 256, 257, 1000, 70000]))
    k = draw(st.integers(1, min(6, v)))
    row = st.lists(st.integers(0, v - 1), min_size=k, max_size=k, unique=True).map(sorted)
    return np.array(draw(st.lists(row, min_size=1, max_size=40)), dtype=np.int64), v


@settings(max_examples=100, deadline=None)
@given(drawn_blocks())
def test_kernels_agree_on_int64_and_narrowest_copies(drawn):
    wide, v = drawn
    narrow = wide.astype(np.min_scalar_type(v - 1))
    assert _kernels.block_intersection_hist(narrow, v).tolist() == \
        _kernels.block_intersection_hist(wide, v).tolist() == pair_loop(wide)
    assert gram(narrow, v) == gram(wide, v) and moments(narrow, v) == moments(wide, v)
    if v <= 1000:  # u(2v-u-1) passes 2^16 at v = 1000, so start(u) must widen
        assert _kernels.pair_coverage(narrow, v).tolist() == \
            _kernels.pair_coverage(wide, v).tolist() == _coverage_reference(wide, v)


def test_design_with_label_gaps_and_unsorted_rows():
    # points 0..39 of which only 12 occur, rows in no order: unused points
    # are zero columns of the incidence matrix and in no subset of a block
    labels = np.array([0, 3, 7, 8, 14, 15, 21, 22, 30, 31, 38, 39])
    rng = np.random.default_rng(12)
    for count, k, route in ((20, 3, "moment"), (12, 6, "gram")):
        blocks = np.array([rng.choice(labels, size=k, replace=False) for _ in range(count)])
        ref = pair_loop(blocks)
        assert _route(blocks, 40) == route
        # a Design holds ascending rows; the kernels read the unsorted ones
        design = Design(v=40, blocks=np.sort(blocks, axis=1).astype(np.uint8))
        assert profile_direct(design) == IntersectionProfile(dict(enumerate(ref))), count
        assert gram(blocks, 40) == moments(blocks, 40) == ref, count


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16])
def test_kernels_on_unsigned_arrays_whose_max_is_zero(dtype):
    blocks = np.zeros((3, 1), dtype=dtype)
    assert _kernels.block_intersection_hist(blocks, 1).tolist() == [0, 3]
    assert gram(blocks, 1) == moments(blocks, 1) == [0, 3]
    assert _kernels.pair_coverage(blocks, 1).tolist() == []


def test_gram_route_in_uint16_cells(monkeypatch):
    # k = 300 >= 256 in uint16 block arrays: two lanes of w = 9 bits
    blocks = random_blocks(np.random.default_rng(5), b=7, k=300, v=320)
    assert gram(blocks.astype(np.uint16), 320) == gram(blocks, 320) == pair_loop(blocks)
    monkeypatch.setattr(_kernels, "_GRAM_ROWS", 4)  # tiles of 4 and 3 block rows
    assert gram(blocks.astype(np.uint16), 320) == pair_loop(blocks)


@pytest.mark.parametrize("k", [1, 255, 256, 4095, 4096])
def test_gram_lanes_are_exact_across_tiles(monkeypatch, k):
    # tiles of 4 block rows: two lanes of 2 rows while k < 4096 (w = 12),
    # one lane of 4 from k = 4096 (w = 13).  Blocks 0 and 2, the first rows
    # of the two lanes, equal the last block, in a later tile from 5 blocks
    # on, so that product is k + 2^w * k: 2^24 - 1 at k = 4095
    rng = np.random.default_rng(k)
    v = k + 5
    monkeypatch.setattr(_kernels, "_GRAM_ROWS", 4)
    for count in (0, 1, 2, 3, 4, 5, 9, 10):
        blocks = random_blocks(rng, b=max(count, 1), k=k, v=v)[:count]
        if count >= 3:
            blocks[2] = blocks[-1] = blocks[0]
        assert gram(blocks, v) == pair_loop(blocks), count


def test_gram_working_set_over_the_incidence_matrix():
    # feng-1: 2662 blocks of 665 on 1331 points.  The bit-packed incidence
    # matrix (0.44 MB), two float32 tiles of 256 block rows and their
    # products stay under 6 MB; the whole float32 incidence matrix was 14 MB
    # of the 17.8 MB the Gram route took before
    design = develop(construction_family("feng-1", None, None))
    tracemalloc.start()
    try:
        hist = _kernels._gram_hist(design.blocks, design.v)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert int(hist.sum()) == comb(design.block_count, 2)
    assert peak < 6 << 20, peak


@pytest.mark.parametrize("budget", ["GRAM_MULADD_BUDGET", "GRAM_TILE_BUDGET"])
def test_gram_budgets_count_the_work_before_the_tiles(monkeypatch, budget):
    # 300 random blocks of 40 on 600 points take the Gram route in two lanes:
    # C(301, 2) * 600 / 2 multiply-adds, and tiles of 256 * 600 cells.  At
    # its exact work the design is profiled; at one less the kernel raises
    # before the incidence matrix and the 614 KB float32 tiles are built
    blocks = random_blocks(np.random.default_rng(40), b=300, k=40, v=600)
    work = {"GRAM_MULADD_BUDGET": comb(301, 2) * 600 // 2,
            "GRAM_TILE_BUDGET": 256 * 600}[budget]
    monkeypatch.setattr(_kernels, budget, work)
    assert _kernels.block_intersection_hist(blocks, 600).tolist() == pair_loop(blocks)
    monkeypatch.setattr(_kernels, budget, work - 1)
    peak = _peak_of_refusal(_kernels.block_intersection_hist, blocks, 600, work=work)
    assert peak < 4 * 256 * 600 // 10, peak


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
        ref = _diff_hist_reference(blocks, base, digits, ds.tolist(), weights.tolist())
        # the whole table for a chunk of all 11 d, then strips of 1 row and
        # of 4 + 2 rows for one d at a time
        for entries in (_kernels._CHUNK, b + 1, 4 * (b + 1)):
            with mock.patch.object(_kernels, "_CHUNK", entries):
                hist = _kernels.diff_cell_hist(blocks, base, digits, v, ds, weights)
            assert hist.tolist() == ref, (case, entries)

        ref = pair_loop(blocks)
        assert _kernels.block_intersection_hist(blocks, v).tolist() == ref, case
        assert gram(blocks, v) == moments(blocks, v) == ref, case

        rows = [set(map(int, row)) for row in blocks]
        cover = Counter(pair for row in rows for pair in combinations(sorted(row), 2))
        cnt = _kernels.pair_coverage(blocks, v).tolist()
        assert {pair: c for pair, c in zip(combinations(range(v), 2), cnt) if c} == \
            dict(cover), case

    # compare's tables of size t take their strips from the same row ranges:
    # a field and a ring construction, b = 24, whose ring parts of t + 1 = 12
    # rows strips of 5 rows split unevenly; find_cell's first N = 3 cell is
    # row 23 at d = 11, the last row of the second part
    field = residue.construction("wilson-half", 11, 1)
    ring = residue.construction("gr-squares", 11, 1)
    b = ring.b

    def tables():
        hists = {c.name: {d: h.tolist() for d, h in residue.cell_hists(c).items()}
                 for c in (field, ring)}
        return hists, [residue.find_cell(ring, n) for n in range(ring.k + 1)]

    expected = tables()
    assert expected[1][3] == (23, 11, 11)
    for entries in (b + 1, 4 * (b + 1), 5 * (b + 1)):
        with mock.patch.object(_kernels, "_CHUNK", entries):
            assert tables() == expected, entries


def test_intersect_hist_wide_rows(monkeypatch):
    # many more points than blocks, and a Gram product split into tiles
    rng = np.random.default_rng(11)
    blocks = random_blocks(rng, b=40, k=30, v=700)
    ref = pair_loop(blocks)
    assert gram(blocks, 700) == ref
    monkeypatch.setattr(_kernels, "_GRAM_ROWS", 14)  # tiles of two 7-row lanes
    assert gram(blocks, 700) == ref


@pytest.mark.parametrize("k", [255, 256])
def test_intersect_hist_either_side_of_byte_cells(monkeypatch, k):
    # k = 255 is the largest k whose lanes are 8 bits wide; k = 256 takes 9
    rng = np.random.default_rng(k)
    blocks = random_blocks(rng, b=7, k=k, v=k + 20)
    blocks[6] = blocks[0]  # one pair meets in all k points
    ref = pair_loop(blocks)
    assert ref[k] == 1
    assert gram(blocks, k + 20) == ref
    monkeypatch.setattr(_kernels, "_GRAM_ROWS", 3)  # tiles of 3, 3 and 1 rows
    assert gram(blocks, k + 20) == ref


@st.composite
def block_arrays(draw):
    """(B, k) arrays of rows with distinct entries, ascending or as drawn,
    on v points: labels below k (every point used), below B*k (with unused
    points) or far above it (renumbered by a sort), and that v."""
    count = draw(st.integers(1, 7))
    k = draw(st.integers(1, 5))
    top = draw(st.sampled_from([k, count * k, 3 * count * k, 2 ** 40]))
    block = st.lists(st.integers(0, top - 1), min_size=k, max_size=k, unique=True)
    blocks = np.array(draw(st.lists(block, min_size=count, max_size=count)), dtype=np.int64)
    return (np.sort(blocks, axis=1) if draw(st.booleans()) else blocks), top


@settings(max_examples=150, deadline=None)
@given(block_arrays(), st.integers(1, 6))
def test_intersect_hist_matches_pair_loop(drawn, tile_rows):
    blocks, v = drawn
    ref = pair_loop(blocks)
    assert _kernels.block_intersection_hist(blocks, v).tolist() == ref
    if v < 2 ** 40:
        assert moments(blocks, v) == ref
        assert gram(blocks, v) == ref
        # several tiles, each starting with its square on the diagonal
        with mock.patch.object(_kernels, "_GRAM_ROWS", tile_rows):
            assert gram(blocks, v) == ref


def test_intersect_hist_ignores_unused_points():
    # labels far beyond any table size: only the points that occur count
    blocks = np.array([[3, 2 ** 40 - 1], [5, 2 ** 40 - 1], [3, 5]], dtype=np.int64)
    assert _kernels.block_intersection_hist(blocks, 2 ** 40).tolist() == [0, 3, 0]


def _route(blocks, v):
    """The helper block_intersection_hist calls for `blocks` on v points:
    "moment" or "gram"."""
    taken = []
    with mock.patch.object(_kernels, "_moment_hist",
                           side_effect=lambda *a: taken.append("moment")), \
            mock.patch.object(_kernels, "_gram_hist",
                              side_effect=lambda *a: taken.append("gram")):
        _kernels.block_intersection_hist(blocks, v)
    return taken[0]


def _cyclic_rows(b, k, u):
    """b rows of k consecutive points mod u, rows ascending; every point is
    used when b*k >= u."""
    return np.sort((np.arange(b)[:, None] * k + np.arange(k)) % u, axis=1)


@pytest.mark.parametrize("k", [1, 3, 6])
def test_route_selection_at_key_count_edge(k):
    # B*(2^k - 1) subset keys against C(B, 2) Gram cells: equal at B = 2^(k+1) - 1
    edge = 2 ** (k + 1) - 1
    for b, route in [(edge - 1, "gram"), (edge, "moment")]:
        blocks = _cyclic_rows(b, k, b * k)
        assert _route(blocks, b * k) == route, b
        assert gram(blocks, b * k) == moments(blocks, b * k) == pair_loop(blocks)


def test_route_selection_at_level_and_exactness_edges(monkeypatch):
    # one level of keys: B*C(k, k//2) against _SUBSET_KEYS
    blocks = _cyclic_rows(300, 6, 100)
    level = 300 * comb(6, 3)
    monkeypatch.setattr(_kernels, "_SUBSET_KEYS", level)
    assert _route(blocks, 100) == "moment"
    monkeypatch.setattr(_kernels, "_SUBSET_KEYS", level - 1)
    assert _route(blocks, 100) == "gram"
    monkeypatch.undo()
    # exact keys: v^k < 2^63, so 511 points of 7-subsets pack and 512 do not
    for v, route in [(511, "moment"), (512, "gram")]:
        blocks = _cyclic_rows(300, 7, v)
        assert _route(blocks, v) == route, v
        assert gram(blocks, v) == pair_loop(blocks), v
    assert moments(_cyclic_rows(300, 7, 511), 511) == pair_loop(_cyclic_rows(300, 7, 511))


def test_construction_routes():
    # gr-squares (13,1), 4732 blocks of 6, takes the moment route; feng-1,
    # 2662 blocks of 665, the Gram route
    squares = develop(construction_family("gr-squares", 13, 1))
    feng = develop(construction_family("feng-1", None, None))
    assert (_route(squares.blocks, squares.v), _route(feng.blocks, feng.v)) == \
        ("moment", "gram")


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
                                       ("ring", 5, 1), ("ring", 2, 1)]))
    g = field_group(p, n) if kind == "field" else ring_group(p, n)
    k = draw(st.integers(1, min(5, g.order - 1)))
    block = st.lists(st.integers(0, g.order - 1), min_size=k, max_size=k, unique=True)
    blocks = draw(st.lists(block, min_size=1, max_size=4))
    rows = tuple(tuple(sorted(row)) for row in blocks)
    return DifferenceFamily(group=g, blocks=rows, lam=0, name="loaded")


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
    if fam.v * fam.b <= DIRECT_SWEEP_BLOCKS:
        assert prof == profile_direct(develop(fam)), fam.name


@settings(max_examples=60, deadline=None)
@given(families, st.booleans())
def test_cell_table_strips_match_per_pair_route(fam, one_row):
    # strips of one row, or of b - 1 rows and then one (b >= 3), at every
    # orbit representative; _CHUNK sets the rows of a strip
    blocks, g = fam.block_array(), fam.group
    b, k = blocks.shape
    rows = 1 if one_row or b < 3 else b - 1
    reps, sizes = difference_orbits(fam)
    with mock.patch.object(_kernels, "_CHUNK", rows * max(k, b + 1)):
        hist = _kernels.diff_cell_hist(blocks, g.base, g.digits, g.order, reps, sizes)
    assert hist.tolist() == _diff_pair_hist(blocks, g.base, g.digits, g.order).tolist(), \
        fam.name


def test_cell_table_working_set():
    # wilson-half (509,1): 1020 base blocks of 254, so the b(b+1) int64 cell
    # table alone would be 8.3 MB; strips of 2^16 cells, point layers in
    # uint16 and digit rows built in slices stay under it (3.0 MB).  The
    # whole table with int64 layers and index copies took 26 MB
    fam = construction_family("wilson-half", 509, 1)
    reps, sizes = difference_orbits(fam)  # builds and caches the field's tables
    blocks, g = fam.block_array(), fam.group
    tracemalloc.start()
    try:
        hist = _kernels.diff_cell_hist(blocks, g.base, g.digits, g.order, reps, sizes)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    b = fam.b
    assert int(hist.sum()) == b * b * int(sizes.sum()) - b * int(sizes[reps == 0].sum())
    assert peak < b * (b + 1) * 8, peak


@st.composite
def unit_orbit_families(draw):
    """The distinct images u*D of one union D of unit cosets sH (plus 0 at
    times) under every unit u, as a file would load them, so every unit
    permutes the blocks; or a near miss, with one element of one block
    swapped for an element outside it."""
    kind, p, n = draw(st.sampled_from([("field", 5, 1), ("field", 7, 1), ("field", 2, 3),
                                       ("field", 3, 2), ("field", 2, 4), ("ring", 3, 1),
                                       ("ring", 5, 1), ("ring", 2, 2)]))
    if kind == "field":
        alg = build_field(p, n)  # the field or ring, for its mul and pow
        g, gen, order = alg.group, alg.generator, alg.q - 1
        units = range(1, g.order)
    else:
        alg = build_ring(p, n)
        g, gen, order = alg.group, alg.xi, alg.teich_size - 1
        units = [x for x in range(g.order) if alg.is_unit(x)]
    e = draw(st.sampled_from([e for e in range(1, order + 1) if order % e == 0]))
    subgroup = [alg.pow(gen, e * j) for j in range(order // e)]
    cosets = draw(st.lists(st.integers(1, g.order - 1), min_size=1, max_size=2))
    union = {alg.mul(s, h) for s in cosets for h in subgroup} | \
        ({0} if draw(st.booleans()) else set())
    rows = sorted({tuple(sorted(alg.mul(u, x) for x in union)) for u in units})
    name = "unit-orbit"
    if len(union) < g.order and draw(st.booleans()):
        i = draw(st.integers(0, len(rows) - 1))
        row = list(rows[i])
        row[draw(st.integers(0, len(row) - 1))] = draw(
            st.sampled_from([x for x in range(g.order) if x not in row]))
        rows[i], name = tuple(sorted(row)), "near-miss"
    return DifferenceFamily(group=g, blocks=rows, lam=0, name=name)


@settings(max_examples=60, deadline=None)
@given(unit_orbit_families())
def test_unit_discovery_on_unit_orbit_families_and_near_misses(fam):
    reps, sizes = difference_orbits(fam)
    if fam.name == "unit-orbit":
        assert reps.tolist() == ([0, 1] if fam.group.kind == "field" else [0, 1, fam.group.p])
    ref_reps, ref_sizes = labelled_orbits(fam)
    assert (reps.tolist(), sizes.tolist()) == (ref_reps.tolist(), ref_sizes.tolist())
    prof = profile_via_differences(fam)
    assert prof == _per_pair_profile(fam), fam.name
    if fam.v * fam.b <= DIRECT_SWEEP_BLOCKS:
        assert prof == profile_direct(develop(fam)), fam.name


def test_difference_route_peak_memory_at_sixteen_digits():
    # wilson over F_(2^16), e = 257: 16 digits and b*k = 65535 block elements,
    # so (digits, b*k) int64 digit rows alone would take 8 MiB
    fam = wilson_family(build_field(2, 16), 257)
    difference_orbits(fam)  # builds and caches the field's tables
    tracemalloc.start()
    try:
        prof = profile_via_differences(fam)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert prof.total() == comb(fam.v * fam.b, 2)
    assert peak < 8 << 20, peak
