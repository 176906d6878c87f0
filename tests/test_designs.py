"""Development, 2-design verification, profiles and the isomorphism search."""

import math
import random
from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ddfkit import (BudgetError, build_field, build_ring, davis_family,
                    develop, feng_families, iso_oracle,
                    load_design, profile_direct, profile_via_differences,
                    save_design, squares_family, verify_2design, wilson_family)
from ddfkit.designs import Design, IntersectionProfile
from ddfkit.families import DifferenceFamily
from ddfkit.groups import field_group, ring_group


def single_block_family(block=(1, 2)):
    g = field_group(5, 1)
    return DifferenceFamily(group=g, blocks=(tuple(block),), v=5, k=len(block),
                            lam=1, disjoint=True, near_complete=False)


# ---------------------------------------------------------------------------
# development
# ---------------------------------------------------------------------------

def test_develop_single_block_translation_orbit():
    fam = single_block_family()
    design = develop(fam)
    assert design.block_count == 5
    rows = {tuple(map(int, r)) for r in design.blocks}
    assert rows == {(1, 2), (2, 3), (3, 4), (0, 4), (0, 1)}
    assert not design.has_duplicate_blocks
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


def test_develop_duplicate_flag():
    # base block = full nonzero part of Z_5 minus nothing is not constructible
    # here; instead force duplicates with the two-element block {0, 2}ish orbit
    g = field_group(2, 2)  # Z_2 x Z_2: translating {0,1} by 1 gives {0,1} again? no
    fam = DifferenceFamily(group=g, blocks=((0, 1, 2, 3),), v=4, k=4, lam=4,
                           disjoint=True, near_complete=False)
    design = develop(fam)
    assert design.block_count == 4
    assert design.has_duplicate_blocks  # every translate of the full set repeats


def _family(group, blocks):
    k = len(blocks[0])
    return DifferenceFamily(group=group, blocks=tuple(map(tuple, blocks)), v=group.order,
                            k=k, lam=0, disjoint=False, near_complete=False)


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
    design = develop(_family(group, blocks))
    assert design.has_duplicate_blocks == _duplicates_by_unique(design) == expected


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([field_group(2, 2), field_group(5, 1), field_group(3, 2),
                        field_group(2, 3), ring_group(2, 2), ring_group(3, 1)]),
       st.data())
def test_duplicate_flag_matches_unique(group, data):
    k = data.draw(st.integers(1, min(4, group.order)))
    block = st.lists(st.integers(0, group.order - 1), min_size=k, max_size=k,
                     unique=True).map(sorted)
    blocks = data.draw(st.lists(block, min_size=1, max_size=3))
    design = develop(_family(group, blocks))
    assert design.has_duplicate_blocks == _duplicates_by_unique(design)


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
    broken = Design(v=design.v, k=design.k, blocks=blocks)
    ok, witness = verify_2design(broken, 1)
    assert not ok
    # the first pair u < w, in row-major order, not in exactly one block
    cover = Counter(pair for row in blocks.tolist() for pair in combinations(row, 2))
    bad = [(u, w) for u in range(9) for w in range(u + 1, 9) if cover[u, w] != 1]
    assert witness == bad[0], bad


def test_verify_2design_budget():
    fam = single_block_family()
    design = develop(fam)
    big = Design(v=2000, k=2, blocks=design.blocks)
    with pytest.raises(BudgetError):
        verify_2design(big, 1)


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
    prof = profile_direct(Design(v=3, k=2, blocks=blocks))
    assert prof.counts == {2: 1}


def test_profile_direct_wilson_f9():
    prof = profile_direct(develop(wilson_family(build_field(3, 2), 4)))
    assert prof.numbers() == [0, 1]


def test_profile_direct_budget():
    blocks = np.tile(np.array([[0, 1]], dtype=np.int64), (5001, 1))
    with pytest.raises(BudgetError):
        profile_direct(Design(v=3, k=2, blocks=blocks))


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
            shuffled = Design(v=design.v, k=design.k,
                              blocks=relabeled.astype(np.int64))
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
    return Design(v=design.v, k=design.k, blocks=relabeled.astype(np.int64))


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
    text = path.read_text()
    assert text.startswith("9 36 2\n")


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


def test_profile_file_roundtrip(tmp_path):
    from ddfkit.designs import save_profile
    prof = profile_via_differences(davis_family(build_ring(3, 1)))
    path = tmp_path / "profile.json"
    save_profile(prof, path)
    assert IntersectionProfile.from_json(path.read_text()) == prof


def test_group_for_rejects_non_power_order():
    from ddfkit.groups import group_for
    with pytest.raises(ValueError):
        group_for("field", 5, 26)
    with pytest.raises(ValueError):
        group_for("ring", 5, 5)
