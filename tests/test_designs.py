"""Development, 2-design verification, profiles and the isomorphism search."""

import math
import random
import tracemalloc
from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ddfkit.designs
from ddfkit import (BudgetError, build_field, build_ring, davis_family,
                    develop, feng_families, iso_oracle,
                    load_design, profile_direct, profile_via_differences,
                    save_design, squares_family, verify_2design, wilson_family)
from ddfkit.cli import construction_family
from ddfkit.designs import Design, Development, IntersectionProfile, has_duplicate_blocks
from ddfkit.families import DifferenceFamily, load_family, save_family
from ddfkit.groups import field_group, point_dtype, ring_group

from test_multipliers import DIRECT_SWEEP_BLOCKS


def single_block_family(block=(1, 2)):
    g = field_group(5, 1)
    return DifferenceFamily(group=g, blocks=(tuple(block),), lam=1)


# ---------------------------------------------------------------------------
# development
# ---------------------------------------------------------------------------

def test_develop_single_block_translation_orbit():
    fam = single_block_family()
    design = develop(fam)
    assert design.block_count == 5
    rows = {tuple(map(int, r)) for r in design.blocks}
    assert rows == {(1, 2), (2, 3), (3, 4), (0, 4), (0, 1)}
    assert not has_duplicate_blocks(fam)
    # row idx is D_i + t with (i, t) = divmod(idx, v): here D_0 + 0, 1, 2
    for idx in range(3):
        i, t = divmod(idx, fam.v)
        expected = sorted(fam.group.add(x, t) for x in fam.block_array()[i].tolist())
        assert design.blocks[idx].tolist() == expected
    assert design.blocks[:3].tolist() == [[1, 2], [2, 3], [3, 4]]


def test_develop_counts():
    assert develop(squares_family(build_ring(5, 1))).block_count == 300
    assert develop(wilson_family(build_field(5, 4), 52)).block_count == 32500


def test_develop_translate_contents():
    fam = davis_family(build_ring(3, 1))
    design = develop(fam)
    g = fam.group
    assert design.block_count == fam.b * fam.v
    for idx in range(design.block_count):
        i, t = divmod(idx, fam.v)
        expected = sorted(g.add(x, t) for x in fam.block_array()[i].tolist())
        assert list(map(int, design.blocks[idx])) == expected


def _scalar_develop(fam):
    """Row i*v + t is the sorted D_i + t, by the group's scalar add."""
    g = fam.group
    return [sorted(g.add(x, t) for x in row) for row in fam.block_array().tolist()
            for t in range(g.order)]


def test_develop_loaded_paley_family_over_f251(tmp_path):
    # the nonzero squares of F_251, 251 = 3 mod 4: a (251, 125, 62) difference
    # set; with n = 1 a translate's digit sums reach 250 + 250 = 500, past uint8
    field = build_field(251, 1)
    squares = sorted({field.mul(x, x) for x in range(1, 251)})
    path = tmp_path / "paley.txt"
    save_family(DifferenceFamily(group=field.group, blocks=(squares,), lam=62), path)
    fam = load_family(path, "field", 251)
    design = develop(fam)
    assert design.blocks.dtype == np.uint8
    assert design.blocks.tolist() == _scalar_develop(fam)
    assert verify_2design(design, 62) == (True, None)


def test_develop_ring_family_in_uint16():
    # three base blocks of gr-squares over GR(5^2, 2): v = 625 points, two
    # digits in base 25
    built = squares_family(build_ring(5, 2))
    fam = DifferenceFamily(group=built.group, blocks=built.block_array()[:3], lam=0)
    design = develop(fam)
    assert design.blocks.dtype == np.uint16
    assert design.blocks.tolist() == _scalar_develop(fam)


def _developed_by_add_arrays(fam):
    """Row i*v + t is the sorted D_i + t, by the group's carrying array add."""
    g = fam.group
    blocks = fam.block_array().astype(np.int64)
    sums = g.add_arrays(blocks[:, None, :], np.arange(g.order)[None, :, None])
    return np.sort(sums, axis=2).reshape(-1, fam.k)


_SQUARES_7_2 = squares_family(build_ring(7, 2))
_SLICED = {
    "uint8-ring": (davis_family(build_ring(5, 1)), np.uint8),  # 25 points, cyclic
    "uint8-field": (wilson_family(build_field(3, 4), 20), np.uint8),  # 81 points, 4 digits
    # three base blocks of 24 on 2401 points
    "uint16": (DifferenceFamily(group=_SQUARES_7_2.group,
                                blocks=_SQUARES_7_2.block_array()[:3], lam=0), np.uint16),
    "uint32": (DifferenceFamily(group=field_group(257, 2),
                                blocks=((0, 1, 66048), (256, 257, 30000)), lam=0), np.uint32),
}


# a chunk below k develops one translate per slice (on the small groups
# alone); 3000 entries split a base block's translates but for the first
# family, and 2^18 takes whole base blocks but for the last
@pytest.mark.parametrize("name, chunk", [(name, chunk) for name in _SLICED
                                         for chunk in (1, 3000, 1 << 18)
                                         if chunk > 1 or name.startswith("uint8")])
def test_development_slices_concatenate_to_develop(monkeypatch, name, chunk):
    fam, dtype = _SLICED[name]
    monkeypatch.setattr(ddfkit.designs, "_DEVELOP_CHUNK", chunk)
    development = Development(fam)
    assert (development.v, development.k) == (fam.v, fam.k)
    assert development.shape == (development.block_count, fam.k) == (fam.v * fam.b, fam.k)
    slices = list(development)
    assert all(part.dtype == dtype and part.ndim == 2 for part in slices)
    assert max(part.size for part in slices) <= max(chunk, fam.k)
    whole = np.concatenate(slices)
    assert np.array_equal(whole, _developed_by_add_arrays(fam))
    assert whole.dtype == develop(fam).blocks.dtype
    assert np.array_equal(whole, develop(fam).blocks)
    # every iteration develops afresh, from the first slice
    assert np.array_equal(np.concatenate(list(development)), whole)


# m is the number of low digits whose translates come from one outer sum of
# per-digit tables: the most with base^m * k entries within the chunk
_DIGIT_SPLITS = {
    # m = 0: three blocks of 3 on GR(7^2, 1), 49 * 3 entries per block
    # against a chunk of 100, so slices of 33 translates
    "m = 0": (DifferenceFamily(group=ring_group(7, 1),
                               blocks=squares_family(build_ring(7, 1)).block_array()[:3],
                               lam=0), 100, [33, 16] * 3),
    # 0 < m = 2 < 5: F_(3^5), 9 * 4 entries per table sum, so slices of
    # 18 translates, the last of a block 9
    "0 < m < n": (DifferenceFamily(group=field_group(3, 5),
                                   blocks=((0, 1, 5, 77), (2, 100, 200, 242)), lam=0),
                  100, ([18] * 13 + [9]) * 2),
    # m = n = 4: F_(2^4), 16 * 3 entries per block, two blocks per slice
    "m = n": (DifferenceFamily(group=field_group(2, 4),
                               blocks=((0, 1, 3), (0, 2, 7), (1, 4, 9), (3, 5, 6), (8, 9, 15)),
                               lam=0), 100, [32, 32, 16]),
}


@pytest.mark.parametrize("name", list(_DIGIT_SPLITS))
def test_development_by_digit_tables(monkeypatch, name):
    fam, chunk, rows = _DIGIT_SPLITS[name]
    monkeypatch.setattr(ddfkit.designs, "_DEVELOP_CHUNK", chunk)
    slices = list(Development(fam))
    assert [part.shape[0] for part in slices] == rows
    assert all(part.dtype == point_dtype(fam.v) for part in slices)
    assert max(part.size for part in slices) <= max(chunk, fam.k)
    assert np.array_equal(np.concatenate(slices), _developed_by_add_arrays(fam))


def test_development_of_few_blocks_on_many_points_stays_small():
    # sixteen one-point blocks on F_(2^16): the translates' 16 digit rows
    # take 1 MB in uint8 and a slice of 4 * 2^16 rows 0.5 MB in uint16,
    # where an int64 (v, digits) digit matrix alone would take 8 MB
    fam = DifferenceFamily(group=field_group(2, 16), blocks=[[x] for x in range(1, 17)],
                           lam=0)
    tracemalloc.start()
    try:
        count = sum(rows.shape[0] for rows in Development(fam))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert count == 16 << 16
    assert peak < 4 << 20, peak


@pytest.mark.parametrize("v, dtype", [(2, np.uint8), (256, np.uint8), (257, np.uint16),
                                      (1 << 16, np.uint16), ((1 << 16) + 1, np.uint32),
                                      (1 << 32, np.uint32), ((1 << 32) + 1, np.int64),
                                      (10 ** 30, np.int64)])
def test_point_dtype_holds_every_point(v, dtype):
    assert point_dtype(v) == dtype


def test_develop_duplicate_flag():
    # base block = full nonzero part of Z_5 minus nothing is not constructible
    # here; instead force duplicates with the two-element block {0, 2}ish orbit
    g = field_group(2, 2)  # Z_2 x Z_2: translating {0,1} by 1 gives {0,1} again? no
    fam = DifferenceFamily(group=g, blocks=((0, 1, 2, 3),), lam=4)
    design = develop(fam)
    assert design.block_count == 4
    assert has_duplicate_blocks(fam)  # every translate of the full set repeats


def _family(group, blocks):
    return DifferenceFamily(group=group, blocks=tuple(map(tuple, blocks)), lam=0)


def _duplicates_by_unique(design):
    return np.unique(design.blocks, axis=0).shape[0] < design.block_count


@pytest.mark.parametrize("group, blocks, expected", [
    (field_group(5, 1), [(1, 2)], False),
    (field_group(7, 1), [(1, 2, 4), (3, 5, 6)], False),
    (field_group(5, 1), [(1, 2), (2, 3)], True),  # D_1 = D_0 + 1
    (field_group(3, 2), [(0, 1, 2)], True),  # a subgroup: D + 1 = D
    (field_group(3, 2), [(1, 5), (0, 1)], False),
    (ring_group(2, 2), [(1, 3), (0, 2)], True),  # {0, 2} + 2 = {0, 2}
    (ring_group(2, 2), [(1, 2), (3, 4)], False),
])
def test_duplicate_flag_cases(group, blocks, expected):
    fam = _family(group, blocks)
    assert has_duplicate_blocks(fam) == _duplicates_by_unique(develop(fam)) == expected


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([field_group(2, 2), field_group(5, 1), field_group(3, 2),
                        field_group(2, 3), ring_group(2, 2), ring_group(3, 1)]),
       st.data())
def test_duplicate_flag_matches_unique(group, data):
    k = data.draw(st.integers(1, min(4, group.order)))
    block = st.lists(st.integers(0, group.order - 1), min_size=k, max_size=k,
                     unique=True).map(sorted)
    blocks = data.draw(st.lists(block, min_size=1, max_size=3))
    fam = _family(group, blocks)
    assert has_duplicate_blocks(fam) == _duplicates_by_unique(develop(fam))


def test_duplicate_check_budget(monkeypatch):
    # wilson-half (5,1): 12 base blocks of 2, so 48 translate entries
    monkeypatch.setattr(ddfkit.designs, "DEVELOP_ENTRY_BUDGET", 47)
    fam = wilson_family(build_field(5, 2), 12)
    with pytest.raises(BudgetError, match="got 48$"):
        has_duplicate_blocks(fam)
    monkeypatch.setattr(ddfkit.designs, "DEVELOP_ENTRY_BUDGET", 48)
    assert not has_duplicate_blocks(fam)


# ---------------------------------------------------------------------------
# 2-design verification
# ---------------------------------------------------------------------------

def test_verify_2design_passes():
    assert verify_2design(develop(squares_family(build_ring(5, 1))), 1) == (True, None)
    assert verify_2design(develop(wilson_family(build_field(3, 2), 4)), 1) == (True, None)


def test_verify_2design_fail_witness():
    design = develop(wilson_family(build_field(3, 2), 4))
    blocks = design.blocks.copy()
    blocks[0] = np.array([0, 3])  # clobber one block: (0, 3) twice, (1, 2) never
    broken = Design(v=design.v, blocks=blocks)
    ok, witness = verify_2design(broken, 1)
    assert not ok
    # the first pair u < w, in row-major order, not in exactly one block
    cover = Counter(pair for row in blocks.tolist() for pair in combinations(row, 2))
    bad = [(u, w) for u in range(9) for w in range(u + 1, 9) if cover[u, w] != 1]
    assert witness == bad[0], bad


def _first_bad_pair_row_major(design, lam):
    """The first (u, w), u < w, of a v x v pair table scanned row by row
    whose pair is not in exactly lam blocks."""
    v = design.v
    cnt = np.zeros((v, v), dtype=np.int64)
    for row in design.blocks.tolist():
        for u, w in combinations(row, 2):
            cnt[u, w] += 1
    bad = np.flatnonzero(np.triu(cnt != lam, 1))
    return divmod(int(bad[0]), v) if bad.size else None


@pytest.mark.parametrize("corner", ["first", "last"])
def test_verify_2design_witness_at_the_table_corners(corner):
    # the blocks of 2-(5, 2, 1) are all ten pairs; one extra block covers
    # the first pair (0, 1) or the last pair (v-2, v-1) of the triangular
    # table twice, and no other pair is off
    design = develop(wilson_family(build_field(5, 1), 2))
    v = design.v
    pair = (0, 1) if corner == "first" else (v - 2, v - 1)
    broken = Design(v=v, blocks=np.vstack([design.blocks, pair]))
    assert verify_2design(broken, 1) == (False, pair)
    assert _first_bad_pair_row_major(broken, 1) == pair


def _pair_design(v, lam, counts):
    """The design on v points whose blocks are point pairs, each pair
    u < w repeated counts.get((u, w), lam) times."""
    rows = [pair for pair in combinations(range(v), 2) for _ in range(counts.get(pair, lam))]
    return Design(v=v, blocks=np.array(rows, dtype=np.int64).reshape(-1, 2))


@pytest.fixture
def coverage_dtypes(monkeypatch):
    """The dtypes of the pair coverage tables that verify_2design counts in."""
    seen, real = [], ddfkit._kernels.pair_coverage

    def spy(blocks, v, dtype=np.int32):
        seen.append(np.dtype(dtype))
        return real(blocks, v, dtype)
    monkeypatch.setattr(ddfkit._kernels, "pair_coverage", spy)
    return seen


def test_verify_2design_passes_in_a_byte_per_cell(coverage_dtypes):
    # gr-squares (37,1), developed a slice at a time: a passing design is
    # counted once, modulo 2^8, so the peak holds one byte per pair cell
    # beside the slices and index chunks; the int32 table alone is 3.7 MB
    fam = construction_family("gr-squares", 37, 1)
    tracemalloc.start()
    try:
        assert verify_2design(Development(fam), fam.lam) == (True, None)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert coverage_dtypes == [np.uint8]
    slack = 3 * 2 * ddfkit.designs._DEVELOP_CHUNK + 16 * ddfkit._kernels._COVER_INDICES
    assert peak < math.comb(fam.v, 2) + slack < 4 * math.comb(fam.v, 2), peak


@pytest.mark.parametrize("counts, dtypes", [
    # lam + 256 at (0, 1) has residue lam, and (0, 2) in no block has not;
    # the sum is off, so only the exact count runs
    ({(0, 1): 356, (0, 2): 0}, [np.int32]),
    # the same, with (0, 3) and (0, 4) short so that the sum is lam*C(v, 2):
    # the residues differ at (0, 2), and the exact count runs next
    ({(0, 1): 356, (0, 2): 0, (0, 3): 0, (0, 4): 44}, [np.uint8, np.int32])])
def test_verify_2design_reports_the_first_bad_pair_past_a_hidden_one(
        coverage_dtypes, counts, dtypes):
    design = _pair_design(6, 100, counts)
    assert verify_2design(design, 100) == (False, (0, 1))
    assert _first_bad_pair_row_major(design, 100) == (0, 1)
    assert coverage_dtypes == dtypes


def test_verify_2design_needs_the_pair_sum_identity(coverage_dtypes):
    # every pair once but (2, 4), 257 times: each residue mod 2^8 is lam = 1,
    # and only the sum B*C(k, 2) = C(v, 2) + 256 tells the design apart
    design = _pair_design(7, 1, {(2, 4): 257})
    assert verify_2design(design, 1) == (False, (2, 4))
    assert coverage_dtypes == [np.int32]


@pytest.mark.parametrize("lam, dtypes", [(255, [np.uint8]), (256, [np.uint16]),
                                         ((1 << 16) - 1, [np.uint16]),
                                         (1 << 16, [np.int32])])
def test_verify_2design_residue_width_follows_lam(coverage_dtypes, lam, dtypes):
    # pairs as blocks on 3 points, lam times each: uint8 below 2^8, uint16
    # below 2^16, else only the exact int32 count
    assert verify_2design(_pair_design(3, lam, {}), lam) == (True, None)
    assert coverage_dtypes == dtypes
    coverage_dtypes.clear()
    # one pair 2^16 more times, a multiple of either modulus: the pair sum
    # is off, and the exact count finds it
    assert verify_2design(_pair_design(3, lam, {(1, 2): lam + (1 << 16)}), lam) == \
        (False, (1, 2))


def _verify_peak(design, lam):
    """verify_2design(design, lam), or the BudgetError it raises, and
    tracemalloc's peak over the call."""
    tracemalloc.start()
    try:
        result = verify_2design(design, lam)
    except BudgetError as err:
        result = err
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return result, peak


def test_verify_2design_budget():
    # pair coverage budgets its table cells and pair indices, not v: the
    # five blocks on 2000 points are counted, and almost every pair, from
    # (0, 2) on, is in none, yet the first is found with one flag per cell
    # beside the int32 table.  From v = 5794, C(v, 2) is over
    # COVER_CELL_BUDGET = 2^24: few blocks on many points are refused
    # before the table is allocated
    design = develop(single_block_family())
    result, peak = _verify_peak(Design(v=2000, blocks=design.blocks), 1)
    assert result == (False, (0, 2))
    assert peak < 5 * math.comb(2000, 2) + (1 << 20), peak
    for v in (5794, 1 << 16):
        err, peak = _verify_peak(Design(v=v, blocks=design.blocks), 1)
        assert isinstance(err, BudgetError) and str(err) == (
            f"exhaustive pair counting capped at 16777216 table cells (v(v-1)/2), "
            f"got {math.comb(v, 2)}")
        assert peak < 1 << 20, (v, peak)


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------

def test_profile_direct_keys_and_total():
    design = develop(squares_family(build_ring(5, 1)))
    prof = profile_direct(design)
    assert set(prof.counts) <= {0, 1, 2}
    assert prof.total() == math.comb(300, 2)


def test_profile_direct_identical_blocks():
    blocks = np.array([[0, 1], [0, 1]], dtype=np.int64)
    prof = profile_direct(Design(v=3, blocks=blocks))
    assert prof.counts == {2: 1}


def test_profile_direct_wilson_f9():
    prof = profile_direct(develop(wilson_family(build_field(3, 2), 4)))
    assert prof.numbers() == [0, 1]


def test_profile_direct_budget():
    # no block count caps the direct profile: 5001 equal blocks of two
    # points take the moment route, whose two levels of keys are bounded
    blocks = np.tile(np.array([[0, 1]], dtype=np.int64), (5001, 1))
    assert profile_direct(Design(v=3, blocks=blocks)).counts == {2: math.comb(5001, 2)}


def test_published_profiles_reproduce():
    ch = wilson_family(build_field(5, 4), 52)
    assert profile_via_differences(ch).counts == {
        0: 410_328_750, 1: 117_000_000, 5: 195_000, 6: 585_000}
    eh = squares_family(build_ring(5, 2))
    assert profile_via_differences(eh).counts == {
        0: 417_078_750, 1: 100_687_500, 2: 10_312_500, 5: 7_500, 6: 22_500}


def test_partition_family_profile():
    fams = feng_families(build_field(11, 3))
    expected = {0: 1_331, 332: 2_655_345, 333: 885_115}
    for fam in fams:
        assert profile_via_differences(fam).counts == expected


def test_intersection_number_sets():
    assert profile_via_differences(
        wilson_family(build_field(5, 4), 52)).numbers() == [0, 1, 5, 6]
    assert profile_via_differences(
        squares_family(build_ring(5, 2))).numbers() == [0, 1, 2, 5, 6]
    assert profile_via_differences(
        wilson_family(build_field(5, 4), 26)).numbers() == [0, 1, 23]


def small_family_zoo():
    fams = [
        wilson_family(build_field(3, 2), 2),
        wilson_family(build_field(3, 2), 4),
        wilson_family(build_field(5, 2), 6),
        wilson_family(build_field(7, 2), 16),
        davis_family(build_ring(3, 1)),
        davis_family(build_ring(5, 1)),
        davis_family(build_ring(7, 1)),
        squares_family(build_ring(5, 1)),
        squares_family(build_ring(7, 1)),
        squares_family(build_ring(13, 1)),
    ]
    assert all(fam.v * fam.b <= 5000 for fam in fams)
    return fams


def test_profile_methods_agree_at_desk_scale():
    for fam in small_family_zoo():
        direct = profile_direct(develop(fam))
        via_diff = profile_via_differences(fam)
        assert direct == via_diff, fam.name


def construction_families_within_sweep():
    """Every construction family with v*b <= DIRECT_SWEEP_BLOCKS.

    wilson and gr-teichmuller have b = t + 1 and need t >= 3 (t <= 16 is
    within the bound); the half constructions have b = 2(t + 1) and need odd
    t >= 5 (t <= 13); the three feng families have v*b = 2662.
    """
    fams = [construction_family(name, p, r)
            for name in ("wilson", "gr-teichmuller")
            for p, r in [(3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1),
                         (2, 4)]]
    fams += [construction_family(name, p, r)
             for name in ("wilson-half", "gr-squares")
             for p, r in [(5, 1), (7, 1), (3, 2), (11, 1), (13, 1)]]
    fams += [construction_family(f"feng-{i}", None, None) for i in (1, 2, 3)]
    assert all(fam.v * fam.b <= DIRECT_SWEEP_BLOCKS for fam in fams)
    return fams


def test_direct_route_matches_differences_on_every_construction_within_budget():
    for fam in construction_families_within_sweep():
        assert profile_direct(develop(fam)) == profile_via_differences(fam), \
            (fam.name, fam.v, fam.b)


def test_profile_total_is_block_pair_count():
    for fam in small_family_zoo():
        prof = profile_via_differences(fam)
        n = fam.v * fam.b
        assert prof.total() == math.comb(n, 2)


def test_zero_key_covers_same_translate_pairs():
    # blocks sharing a translate but not a base index never meet, so the
    # 0 key holds at least v * b(b-1)/2 pairs for a disjoint family
    for fam in small_family_zoo():
        prof = profile_via_differences(fam)
        assert prof.counts.get(0, 0) >= fam.v * fam.b * (fam.b - 1) // 2


def test_profile_invariant_under_point_relabeling():
    rng = random.Random(42)
    for fam in [wilson_family(build_field(3, 4), 10),
                squares_family(build_ring(7, 1))]:
        design = develop(fam)
        base = profile_direct(design)
        for _ in range(3):
            perm = list(range(design.v))
            rng.shuffle(perm)
            relabeled = np.sort(np.vectorize(perm.__getitem__)(design.blocks), axis=1)
            shuffled = Design(v=design.v, blocks=relabeled.astype(np.int64))
            assert profile_direct(shuffled) == base


def test_profile_json_roundtrip():
    prof = profile_via_differences(squares_family(build_ring(5, 1)))
    text = prof.to_json()
    assert text == '{"0":"37950","1":"6900"}'
    assert IntersectionProfile.from_json(text) == prof


# ---------------------------------------------------------------------------
# isomorphism search
# ---------------------------------------------------------------------------

def relabel(design, perm):
    relabeled = np.sort(np.vectorize(perm.__getitem__)(design.blocks), axis=1)
    return Design(v=design.v, blocks=relabeled.astype(np.int64))


def test_iso_oracle_identity():
    design = develop(wilson_family(build_field(3, 2), 2))
    res = iso_oracle(design, design)
    assert res.status == "mapping"
    assert res.mapping == tuple(range(9))


def test_iso_oracle_profile_precheck():
    a = develop(wilson_family(build_field(5, 2), 6))
    b = develop(davis_family(build_ring(5, 1)))
    assert (a.v, a.block_count, a.k) == (b.v, b.block_count, b.k)
    res = iso_oracle(a, b)
    assert res.status == "nonexistent"
    assert res.nodes == 0  # profiles already differ


def test_iso_oracle_recovers_relabeling():
    rng = random.Random(7)
    for fam in [wilson_family(build_field(3, 2), 2), davis_family(build_ring(5, 1))]:
        design = develop(fam)
        perm = list(range(design.v))
        rng.shuffle(perm)
        other = relabel(design, perm)
        res = iso_oracle(design, other, node_budget=500_000)
        assert res.status == "mapping"
        mapped = relabel(design, list(res.mapping))
        a = {tuple(map(int, r)) for r in np.sort(mapped.blocks, axis=1)}
        b = {tuple(map(int, r)) for r in other.blocks}
        assert a == b


def test_iso_oracle_budget_exhaustion():
    design = develop(davis_family(build_ring(5, 1)))
    perm = list(range(25))
    random.Random(3).shuffle(perm)
    res = iso_oracle(design, relabel(design, perm), node_budget=2)
    assert res.status == "unknown"


def test_iso_oracle_parameter_mismatch():
    a = develop(wilson_family(build_field(3, 2), 2))
    b = develop(wilson_family(build_field(3, 2), 4))
    with pytest.raises(ValueError):
        iso_oracle(a, b)


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def test_design_roundtrip(tmp_path):
    design = develop(davis_family(build_ring(3, 1)))
    path = tmp_path / "design.txt"
    save_design(design, path)
    loaded = load_design(path)
    assert loaded.v == design.v and loaded.k == design.k
    assert np.array_equal(loaded.blocks, design.blocks)
    assert loaded.blocks.dtype == design.blocks.dtype == np.uint8
    text = path.read_text()
    assert text.startswith("9 36 2\n")


def test_design_load_keeps_labels_past_uint32(tmp_path):
    # a header v past 2^32 loads its rows as int64, which every kernel reads
    path = tmp_path / "wide.txt"
    path.write_text(f"{10 ** 12} 3 2\n0 1\n1 2\n0 {10 ** 12 - 1}\n")
    design = load_design(path)
    assert design.blocks.dtype == np.int64
    assert design.blocks[2].tolist() == [0, 10 ** 12 - 1]
    assert profile_direct(design) == IntersectionProfile({0: 1, 1: 2})


def test_design_load_rejects_bad_files(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("9 2 2\n0 1\n")
    with pytest.raises(ValueError):
        load_design(bad)
    bad.write_text("9 2 2\n0 1\n0 11\n")
    with pytest.raises(ValueError):
        load_design(bad)
    for row in ("0 0", "1 0"):  # repeated or unsorted entries
        bad.write_text(f"9 2 2\n0 1\n{row}\n")
        with pytest.raises(ValueError):
            load_design(bad)


@pytest.mark.parametrize("header", ["", "9 2", "9 2 2 1"])
def test_design_load_names_the_header(tmp_path, header):
    bad = tmp_path / "bad.txt"
    bad.write_text(f"{header}\n0 1\n0 2\n" if header else "")
    with pytest.raises(ValueError, match="^design header must be 'v b k'$"):
        load_design(bad)


def test_profile_file_roundtrip(tmp_path):
    # a profile file, as `ddf profile --out` writes it, reads back
    prof = profile_via_differences(davis_family(build_ring(3, 1)))
    path = tmp_path / "profile.json"
    path.write_text(prof.to_json() + "\n")
    assert IntersectionProfile.from_json(path.read_text()) == prof


def test_group_for_rejects_non_power_order():
    from ddfkit.groups import group_for
    with pytest.raises(ValueError):
        group_for("field", 5, 26)
    with pytest.raises(ValueError):
        group_for("ring", 5, 5)
