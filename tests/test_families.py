"""Difference-family constructions, validation and file round-trips."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ddfkit import (build_field, build_ring, davis_family, develop, feng_families,
                    furino_family, load_family, save_family, squares_family,
                    validate_ddf, wilson_family)
from ddfkit import families
from ddfkit.designs import design_to_text
from ddfkit.families import (DifferenceFamily, ValidationReport, _make_family,
                             family_to_text, rows_to_text)
from ddfkit.groups import field_group, group_for, ring_group


def block_rows(fam):
    """The blocks as tuples of Python ints, for comparison with scalar references."""
    return tuple(map(tuple, fam.block_array().tolist()))


def assert_valid(fam):
    report = validate_ddf(fam)
    assert report.is_difference_family, report
    assert report.observed_lambda == fam.lam
    assert report.disjoint and fam.disjoint
    assert report.near_complete and fam.near_complete
    return report


# ---------------------------------------------------------------------------
# cyclotomic-coset construction
# ---------------------------------------------------------------------------

def test_wilson_f9_e4():
    fam = wilson_family(build_field(3, 2), 4)
    assert (fam.v, fam.k, fam.lam, fam.b) == (9, 2, 1, 4)
    assert_valid(fam)


def test_wilson_f625_e52():
    fam = wilson_family(build_field(5, 4), 52)
    assert (fam.v, fam.k, fam.lam, fam.b) == (625, 12, 11, 52)


def test_wilson_f1331_e14():
    fam = wilson_family(build_field(11, 3), 14)
    assert (fam.v, fam.k, fam.lam, fam.b) == (1331, 95, 94, 14)


def test_wilson_f9_e2():
    fam = wilson_family(build_field(3, 2), 2)
    assert (fam.v, fam.k, fam.lam) == (9, 4, 3)
    assert_valid(fam)


def test_wilson_parameter_errors():
    f9 = build_field(3, 2)
    with pytest.raises(ValueError):
        wilson_family(f9, 3)  # 3 does not divide 8
    with pytest.raises(ValueError):
        wilson_family(f9, 8)  # f = 1 < 2
    with pytest.raises(ValueError):
        wilson_family(f9, 1)


# ---------------------------------------------------------------------------
# Teichmüller-coset constructions
# ---------------------------------------------------------------------------

def test_davis_gr9_exact_blocks():
    # direct expansion mod 9: (1+3a)T* for a in (0, 1, 8), then 3T*
    fam = davis_family(build_ring(3, 1))
    assert block_rows(fam) == ((1, 8), (4, 5), (2, 7), (3, 6))
    assert (fam.v, fam.k, fam.lam) == (9, 2, 1)
    assert_valid(fam)


def test_davis_parameters():
    fam = davis_family(build_ring(5, 2))
    assert (fam.v, fam.k, fam.lam, fam.b) == (625, 24, 23, 26)
    fam = davis_family(build_ring(5, 1))
    assert (fam.v, fam.k, fam.lam, fam.b) == (25, 4, 3, 6)
    assert_valid(fam)


def test_squares_gr25():
    fam = squares_family(build_ring(5, 1))
    assert (fam.v, fam.k, fam.lam, fam.b) == (25, 2, 1, 12)
    assert_valid(fam)


def test_squares_gr625():
    fam = squares_family(build_ring(5, 2))
    assert (fam.v, fam.k, fam.lam, fam.b) == (625, 12, 11, 52)


def test_squares_rejects_small():
    with pytest.raises(ValueError):
        squares_family(build_ring(3, 1))  # p^r = 3 < 5


def test_squares_refine_davis_blocks():
    # every Teichmüller-coset block splits into exactly two square-coset blocks
    for p, r in [(5, 1), (5, 2), (7, 1)]:
        davis = davis_family(build_ring(p, r))
        halves = squares_family(build_ring(p, r))
        half_sets = [set(b) for b in block_rows(halves)]
        for block in block_rows(davis):
            parts = [h for h in half_sets if h <= set(block)]
            assert len(parts) == 2
            assert parts[0] | parts[1] == set(block)


# ---------------------------------------------------------------------------
# digit-matrix construction against scalar multiplication
# ---------------------------------------------------------------------------

def scalar_cyclotomic_blocks(field, e):
    """C_i = g^i * C_0 by field.mul, with C_0 the set of e-th powers."""
    powers = {field.pow(a, e) for a in range(1, field.q)}
    shift, blocks = 1, []
    for _ in range(e):
        blocks.append(tuple(sorted(field.mul(shift, x) for x in powers)))
        shift = field.mul(shift, field.generator)
    return tuple(blocks)


def scalar_coset_blocks(ring, parts):
    """(1 + p*alpha)*part for alpha in T order, then p*part, by ring.mul."""
    blocks = []
    for part in parts:
        for alpha in ring.teichmuller:
            u = ring.add(1, ring.scalar_p(alpha))
            blocks.append(tuple(sorted(ring.mul(u, x) for x in part)))
        blocks.append(tuple(sorted(ring.scalar_p(x) for x in part)))
    return tuple(blocks)


@pytest.mark.parametrize("p, r", [(3, 2), (5, 2), (3, 3), (7, 2), (11, 2)])
def test_constructions_match_scalar_reference(p, r):
    t = p ** r
    field = build_field(p, 2 * r)
    for e in (t + 1, 2 * (t + 1)):
        fam = wilson_family(field, e)
        assert block_rows(fam) == scalar_cyclotomic_blocks(field, e), e
        assert fam.disjoint and fam.near_complete
    ring = build_ring(p, r)
    fam = davis_family(ring)
    assert block_rows(fam) == scalar_coset_blocks(ring, (ring.teichmuller[1:],))
    assert fam.disjoint and fam.near_complete
    fam = squares_family(ring)
    assert block_rows(fam) == scalar_coset_blocks(ring, ring.square_split())
    assert fam.disjoint and fam.near_complete


def test_make_family_checks_rows():
    g = field_group(5, 1)
    for rows in ([[1, 1]], [[2, 1]], [[1, 2, 3]], [1, 2]):
        with pytest.raises(AssertionError):
            _make_family(g, rows, 2, 1, "bad")
    fam = _make_family(g, [[1, 2], [2, 3]], 2, 1, "overlap")
    assert not fam.disjoint and not fam.near_complete
    fam = _make_family(g, [[0, 1], [2, 3]], 2, 1, "covers zero")
    assert fam.disjoint and not fam.near_complete
    fam = _make_family(g, [[1, 4], [2, 3]], 2, 1, "cosets")
    assert fam.disjoint and fam.near_complete
    assert block_rows(fam) == ((1, 4), (2, 3))


# ---------------------------------------------------------------------------
# generic unit-subgroup cosets
# ---------------------------------------------------------------------------

def test_furino_reproduces_teichmuller_cosets():
    ring = build_ring(5, 1)
    fam = furino_family(ring, ring.teichmuller[1:])
    davis = davis_family(ring)
    assert set(map(frozenset, block_rows(fam))) == set(map(frozenset, block_rows(davis)))


def test_furino_reproduces_square_cosets():
    ring = build_ring(5, 1)
    squares, _ = ring.square_split()
    fam = furino_family(ring, squares)
    halves = squares_family(ring)
    assert set(map(frozenset, block_rows(fam))) == set(map(frozenset, block_rows(halves)))


def test_furino_cube_subgroup_gr49():
    ring = build_ring(7, 1)
    cubes = sorted({ring.pow(t, 3) for t in ring.teichmuller[1:]})
    assert len(cubes) == 2  # {1, xi^3}
    fam = furino_family(ring, cubes)
    assert (fam.v, fam.k, fam.lam, fam.b) == (49, 2, 1, 24)
    assert_valid(fam)


def test_furino_rejects_nonunit_differences():
    # principal units of Z_25: closed under multiplication, but 6 - 1 = 5
    ring = build_ring(5, 1)
    with pytest.raises(ValueError, match="not a unit"):
        furino_family(ring, [1, 6, 11, 16, 21])


def test_furino_rejects_non_subgroup():
    ring = build_ring(5, 1)
    with pytest.raises(ValueError):
        furino_family(ring, [1, 7, 24])  # 7*24 = 18 missing


# ---------------------------------------------------------------------------
# partition families of F_{11^3}
# ---------------------------------------------------------------------------

def test_feng_block_sizes_and_validation():
    fams = feng_families(build_field(11, 3))
    assert len(fams) == 3
    for fam in fams:
        assert (fam.v, fam.k, fam.lam, fam.b) == (1331, 665, 664, 2)
        assert fam.block_array().shape == (2, 665)
        assert_valid(fam)


def test_feng_cut_recovers_cyclotomic_family():
    field = build_field(11, 3)
    fams = feng_families(field)
    wilson = wilson_family(field, 14)
    classes = set(map(frozenset, field.class_array(14).tolist()))
    assert set(map(frozenset, block_rows(wilson))) == classes
    for fam in fams:
        for block in block_rows(fam):
            pieces = {cls for cls in classes if cls <= set(block)}
            assert len(pieces) == 7
            covered = set()
            for cls in pieces:
                covered |= cls
            assert covered == set(block)


def test_feng_requires_f1331():
    with pytest.raises(ValueError):
        feng_families(build_field(5, 4))


# ---------------------------------------------------------------------------
# validation reports
# ---------------------------------------------------------------------------

def test_validate_flags_duplicate_element():
    g = field_group(5, 1)
    fam = DifferenceFamily(group=g, blocks=((1, 2), (2, 3)), v=5, k=2, lam=1,
                           disjoint=False, near_complete=False)
    report = validate_ddf(fam)
    assert not report.disjoint
    assert report.offending_element == 2


def test_validate_flags_nonconstant_counts():
    g = field_group(5, 1)
    fam = DifferenceFamily(group=g, blocks=((1, 2),), v=5, k=2, lam=1,
                           disjoint=True, near_complete=False)
    report = validate_ddf(fam)
    assert not report.is_difference_family
    assert report.observed_lambda is None
    assert report.offending_element is not None


def scalar_validate(fam):
    """The per-block validate_ddf loop that whole-array passes replaced."""
    g = fam.group
    counts = np.zeros(g.order, dtype=np.int64)
    seen = np.zeros(g.order, dtype=np.int64)
    for block in block_rows(fam):
        counts += g.difference_counts(block, block)
        seen += np.bincount(block, minlength=g.order)
    nonzero = counts[1:]
    constant = bool(nonzero.size) and int(nonzero.min()) == int(nonzero.max())
    disjoint = bool(seen.max(initial=0) <= 1)
    offending = None
    if not disjoint:
        offending = int(np.nonzero(seen > 1)[0][0])
    elif not constant:
        mode = int(np.bincount(nonzero).argmax())
        offending = int(np.nonzero(nonzero != mode)[0][0]) + 1
    return ValidationReport(
        is_difference_family=constant,
        observed_lambda=int(nonzero[0]) if constant else None,
        disjoint=disjoint,
        near_complete=disjoint and seen[0] == 0 and int(seen.sum()) == g.order - 1,
        offending_element=offending)


def all_constructions():
    ring = build_ring(7, 1)
    return [wilson_family(build_field(3, 2), 4), wilson_family(build_field(5, 2), 6),
            wilson_family(build_field(5, 4), 52), davis_family(build_ring(3, 2)),
            squares_family(build_ring(5, 2)), squares_family(build_ring(11, 1)),
            furino_family(ring, ring.teichmuller[1::3]),
            *feng_families(build_field(11, 3))]


@pytest.mark.parametrize("pass_size", [1, 3, 7, 50, families._VALIDATE_PASS])
def test_validate_matches_scalar_reference_on_constructions(monkeypatch, pass_size):
    # small passes split blocks by rows of their left operand
    monkeypatch.setattr(families, "_VALIDATE_PASS", pass_size)
    for fam in all_constructions():
        assert validate_ddf(fam) == scalar_validate(fam), fam.name


@st.composite
def block_families(draw):
    """Base blocks that may overlap, repeat or miss the difference property."""
    kind, p, n = draw(st.sampled_from([("field", 5, 1), ("field", 2, 3), ("field", 3, 2),
                                       ("field", 13, 1), ("ring", 3, 1), ("ring", 2, 2),
                                       ("ring", 5, 1)]))
    g = field_group(p, n) if kind == "field" else ring_group(p, n)
    k = draw(st.integers(1, min(6, g.order)))
    block = st.lists(st.integers(0, g.order - 1), min_size=k, max_size=k, unique=True)
    blocks = draw(st.lists(block.map(sorted), min_size=1, max_size=5))
    return DifferenceFamily(group=g, blocks=blocks, v=g.order, k=k, lam=0,
                            disjoint=False, near_complete=False)


@settings(max_examples=200, deadline=None)
@given(block_families(), st.sampled_from([1, 2, 5, 16, families._VALIDATE_PASS]))
def test_validate_matches_scalar_reference_on_random_blocks(fam, pass_size):
    saved = families._VALIDATE_PASS
    families._VALIDATE_PASS = pass_size
    try:
        report = validate_ddf(fam)
    finally:
        families._VALIDATE_PASS = saved
    assert report == scalar_validate(fam)


def test_parameter_identity_all_constructions():
    fams = [
        wilson_family(build_field(3, 2), 4),
        wilson_family(build_field(5, 2), 6),
        davis_family(build_ring(5, 1)),
        squares_family(build_ring(5, 2)),
        furino_family(build_ring(7, 1),
                      sorted({build_ring(7, 1).pow(t, 3)
                              for t in build_ring(7, 1).teichmuller[1:]})),
    ]
    for fam in fams:
        assert fam.lam * (fam.v - 1) == fam.b * fam.k * (fam.k - 1)
        total = sum(len(b) for b in block_rows(fam))
        assert total == fam.v - 1  # blocks partition the nonzero elements
        union = set()
        for b in block_rows(fam):
            union.update(b)
        assert union == set(range(1, fam.v))


def test_observed_lambda_matches_declared_at_desk_scale():
    families = []
    for e in (2, 4):
        families.append(wilson_family(build_field(3, 2), e))
    for e in (2, 3, 4, 6, 8, 12):
        families.append(wilson_family(build_field(5, 2), e))
    for e in (2, 8, 16, 24):
        families.append(wilson_family(build_field(7, 2), e))
    families.append(wilson_family(build_field(5, 4), 26))
    families.append(wilson_family(build_field(5, 4), 52))
    for p, r in [(3, 1), (5, 1), (7, 1), (5, 2)]:
        families.append(davis_family(build_ring(p, r)))
    for p, r in [(5, 1), (7, 1), (11, 1), (5, 2)]:
        families.append(squares_family(build_ring(p, r)))
    for fam in families:
        assert_valid(fam)


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------

def test_family_roundtrip(tmp_path):
    fam = squares_family(build_ring(5, 1))
    path = tmp_path / "fam.txt"
    save_family(fam, path)
    loaded = load_family(path, group_for("ring", 5, 25))
    assert np.array_equal(loaded.block_array(), fam.block_array())
    assert (loaded.v, loaded.k, loaded.lam, loaded.b) == (fam.v, fam.k, fam.lam, fam.b)
    assert loaded.disjoint and loaded.near_complete


def test_family_text_deterministic():
    fam = davis_family(build_ring(3, 1))
    assert family_to_text(fam) == "9 2 1 4\n1 8\n4 5\n2 7\n3 6\n"


def test_family_load_rejects_bad_files(tmp_path):
    g = group_for("field", 5, 5)
    cases = {
        "bad-header.txt": "5 2 1\n1 2\n",
        "wrong-count.txt": "5 2 1 2\n1 2\n",
        "unsorted.txt": "5 2 1 2\n2 1\n3 4\n",
        "out-of-range.txt": "5 2 1 2\n1 2\n3 7\n",
        "bad-lambda.txt": "5 2 2 2\n1 2\n3 4\n",
        "dup-in-block.txt": "5 2 1 2\n1 1\n3 4\n",
    }
    for name, text in cases.items():
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(ValueError):
            load_family(path, g)


def test_family_load_group_mismatch(tmp_path):
    fam = davis_family(build_ring(3, 1))
    path = tmp_path / "fam.txt"
    save_family(fam, path)
    with pytest.raises(ValueError):
        load_family(path, group_for("field", 5, 5))


def scalar_rows_text(header, rows):
    """The writer rows_to_text replaced: one str() per entry."""
    lines = [header]
    for row in rows:
        lines.append(" ".join(str(int(x)) for x in row))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("chunk", [1, 3, families._TEXT_CHUNK])
def test_rows_to_text_matches_scalar_writer(monkeypatch, chunk):
    # chunks of 1 and 3 entries split rows of 2 or more
    monkeypatch.setattr(families, "_TEXT_CHUNK", chunk)
    cases = [
        [[0]],
        [[0, 9, 10], [1, 99, 100], [9, 10, 11]],  # 9/10 and 99/100 digit boundaries
        [[7], [0], [10], [99], [100]],  # k = 1
        [[0, 1, 9, 10, 99, 100, 101, 999, 1000, 12345]],  # a single row
        [[255, 256], [65535, 65536], [2 ** 32 - 1, 2 ** 32]],  # dtype widths
        np.arange(0, 7 * 180, 7).reshape(12, 15),
    ]
    for rows in cases:
        rows = np.array(rows, dtype=np.int64)
        assert rows_to_text("9 8 7", rows) == scalar_rows_text("9 8 7", rows), rows


def test_text_writers_match_scalar_writer():
    fams = [wilson_family(build_field(5, 2), 4), davis_family(build_ring(3, 2)),
            squares_family(build_ring(5, 1)), feng_families(build_field(11, 3))[0]]
    for fam in fams:
        header = f"{fam.v} {fam.k} {fam.lam} {fam.b}"
        assert family_to_text(fam) == scalar_rows_text(header, block_rows(fam)), fam.name
        design = develop(fam)
        header = f"{design.v} {design.block_count} {design.k}"
        assert design_to_text(design) == scalar_rows_text(header, design.blocks), fam.name


def test_block_array_is_the_read_only_block_table(tmp_path):
    built = squares_family(build_ring(5, 1))
    save_family(built, tmp_path / "ring.txt")
    field_fam = wilson_family(build_field(3, 2), 4)
    save_family(field_fam, tmp_path / "field.txt")
    ring = build_ring(7, 1)
    fams = [field_fam, built, davis_family(build_ring(3, 2)),
            furino_family(ring, ring.teichmuller[1::3]), *feng_families(build_field(11, 3)),
            load_family(tmp_path / "ring.txt", group_for("ring", 5, 25)),
            load_family(tmp_path / "field.txt", group_for("field", 3, 9)),
            DifferenceFamily(group=field_group(7, 1), blocks=((1, 2), (3, 5)), v=7,
                             k=2, lam=0, disjoint=True, near_complete=False),
            dataclasses.replace(built, blocks=built.block_array(), lam=0)]
    for fam in fams:
        arr = fam.block_array()
        assert arr.dtype == np.int64 and arr.shape == (fam.b, fam.k)
        assert type(fam.b) is int
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0, 0] = 0
        assert fam.block_array() is arr
        assert not hasattr(fam, "blocks")
    # the stored table is not shared with the caller's array
    rows = np.array([[1, 4], [2, 3]], dtype=np.int64)
    _make_family(field_group(5, 1), rows, 2, 1, "cosets")
    assert rows.flags.writeable


def test_family_holds_only_its_block_array():
    field = build_field(13, 4)
    tracemalloc.start()
    try:
        fam = wilson_family(field, 2 * (13 ** 2 + 1))
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert fam.block_array().nbytes == 8 * (13 ** 4 - 1)
    assert held <= 1.5 * fam.block_array().nbytes
