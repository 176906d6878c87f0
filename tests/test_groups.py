"""Packed-group array arithmetic against the scalar digit-by-digit reference."""

import numpy as np
import pytest

from ddfkit.groups import (_DIGIT_CHUNK, digit_columns, field_group, floor_divmod, mod,
                           point_dtype, ring_group)

GROUPS = {
    "F_9": field_group(3, 2),
    "F_27": field_group(3, 3),
    "F_32": field_group(2, 5),
    "Z_25": ring_group(5, 1),
    "GR(9,2)": ring_group(3, 2),
}


@pytest.mark.parametrize("name", GROUPS)
def test_array_arithmetic_on_every_element_pair(name):
    g = GROUPS[name]
    x = np.arange(g.order, dtype=np.int64)
    sums = g.add_arrays(x[:, None], x[None, :])
    diffs = g.sub_arrays(x[:, None], x[None, :])
    assert sums.shape == diffs.shape == (g.order, g.order)
    assert sums.tolist() == [[g.add(a, b) for b in range(g.order)] for a in range(g.order)]
    assert diffs.tolist() == [[g.sub(a, b) for b in range(g.order)] for a in range(g.order)]


@pytest.mark.parametrize("name", ["F_27", "GR(9,2)"])
def test_array_arithmetic_broadcasts(name):
    g = GROUPS[name]
    rng = np.random.default_rng(5)
    block = rng.choice(g.order, size=7, replace=False)  # (k,)
    translates = np.arange(g.order)[:, None]  # (v, 1)
    assert g.add_arrays(block, translates).tolist() == \
        [[g.add(int(a), y) for a in block] for y in range(g.order)]
    assert g.sub_arrays(block, translates).tolist() == \
        [[g.sub(int(a), y) for a in block] for y in range(g.order)]
    assert g.sub_arrays(translates, block).tolist() == \
        [[g.sub(y, int(a)) for a in block] for y in range(g.order)]
    # 0-d operands, as arrays or Python ints, give a scalar
    for a, b in [(5, 22), (np.int64(22), 5), (np.array(17), np.array(0)), (0, 11)]:
        assert np.ndim(g.add_arrays(a, b)) == 0
        assert g.add_arrays(a, b) == g.add(int(a), int(b))
        assert g.sub_arrays(a, b) == g.sub(int(a), int(b))
    assert g.sub_arrays(0, block).tolist() == [g.sub(0, int(a)) for a in block]


def test_array_arithmetic_random_pairs_in_f_2_20():
    g = field_group(2, 20)
    rng = np.random.default_rng(20)
    a = rng.integers(0, g.order, size=3000)
    b = rng.integers(0, g.order, size=3000)
    a[:3], b[:3] = g.order - 1, [g.order - 1, 0, 1]  # every digit carries or borrows
    assert g.add_arrays(a, b).tolist() == [g.add(int(x), int(y)) for x, y in zip(a, b)]
    assert g.sub_arrays(a, b).tolist() == [g.sub(int(x), int(y)) for x, y in zip(a, b)]
    assert g.add_arrays(a, 1).tolist() == [g.add(int(x), 1) for x in a]


@pytest.mark.parametrize("g", [field_group(2, 20), field_group(1009, 2), ring_group(23, 2),
                               ring_group(3, 2), ring_group(251, 1), ring_group(8191, 1)],
                         ids=["F_2^20", "F_1009^2", "GR(23^2,2)", "GR(9,2)", "GR(251^2,1)",
                              "GR(8191^2,1)"])
def test_digit_columns_match_the_row_product(g):
    # sums in uint8 for F_2^20 and GR(9,2), uint32 for the next three and
    # uint64 for GR(8191^2, 1); GR(251^2, 1) has 16-bit digits and sums up
    # to 3.97e9, past int32.  All-(base-1) maps and columns reach the
    # largest sum, digits*(base-1)^2
    rng = np.random.default_rng(g.order % 1000)
    n = g.digits
    maps = rng.integers(0, g.base, size=(3, n, n))
    maps[0] = g.base - 1
    elements = rng.integers(0, g.order, size=50)
    elements[0] = g.order - 1
    pows = g.base ** np.arange(n)
    rows = elements[:, None] // pows % g.base  # (50, n), digit l in column l
    cols = rows.T.astype(np.min_scalar_type(g.base - 1))
    images = g.map_columns(maps, cols)
    assert images.shape == (3, n, 50) and images.dtype == cols.dtype
    # the reference: Python-int rows times each map, mod base
    expected = [(rows.astype(object) @ m.astype(object) % g.base).T for m in maps]
    assert images.astype(object).tolist() == [e.tolist() for e in expected]
    assert g.pack_columns(cols).tolist() == elements.tolist()
    assert g.pack_columns(images).tolist() == [(e.T.astype(np.int64) @ pows).tolist()
                                               for e in expected]
    out = np.empty((n, 50), dtype=cols.dtype)
    assert g.map_columns(maps[1], cols, out=out) is out
    assert np.array_equal(out, images[1])


@pytest.mark.parametrize("g, width", [(field_group(2, 20), "uint8"), (ring_group(13, 2), "uint8"),
                                      (ring_group(23, 2), "uint16"),
                                      (field_group(65537, 1), "uint32")],
                         ids=["F_2^20", "GR(13^2,2)", "GR(23^2,2)", "F_65537"])
def test_digit_columns_match_inline_digits(g, width):
    # digits below 2^8, 2^16 and 2^32 (65537 - 1 = 2^16 needs 32 bits), on
    # sizes either side of a chunk and across several, from encodings in
    # point_dtype as blocks hold them and in int64, against one broadcast
    # floor division by the places base^l
    rng = np.random.default_rng(g.base)
    pows = g.base ** np.arange(g.digits)
    for size in (0, 1, _DIGIT_CHUNK - 1, _DIGIT_CHUNK, _DIGIT_CHUNK + 1, 2 * _DIGIT_CHUNK + 3):
        x = rng.integers(0, g.order, size=size)
        x[:1] = g.order - 1
        expected = (x[:, None] // pows % g.base).T
        for encodings in (x, x.astype(point_dtype(g.order))):
            cols = digit_columns(encodings, g.base, g.digits)
            assert cols.dtype == width and cols.shape == (g.digits, size)
            assert np.array_equal(cols, expected)
    # an explicit wider dtype, which holds the sum of two digits (uint16 for
    # GR(13^2, 2), whose digits fit uint8), on a 2-D input flattened in C order
    blocks = rng.integers(0, g.order, size=(3, 5))
    wide = np.min_scalar_type(2 * (g.base - 1))
    cols = digit_columns(blocks, g.base, g.digits, wide)
    assert cols.dtype == wide and cols.shape == (g.digits, 15)
    assert np.array_equal(cols, (blocks.ravel()[:, None] // pows % g.base).T)


@pytest.mark.parametrize("dtype", ["uint8", "uint16", "uint32", "uint64", "int32", "int64"])
def test_mod_matches_np_remainder(dtype):
    info = np.iinfo(dtype)
    rng = np.random.default_rng(np.dtype(dtype).itemsize)
    for m in (1, 2, 10, 23, 25, 127):
        a = rng.integers(info.min, info.max, size=1000, dtype=dtype, endpoint=True)
        a[:2] = info.min, info.max
        expected = np.remainder(a, m)
        got = mod(a, m)
        assert got.dtype == expected.dtype and np.array_equal(got, expected)
        quot, rem = floor_divmod(a, m)
        assert np.array_equal(quot, a // m) and np.array_equal(rem, expected)
        # a residue written straight into a narrower dtype, as digit rows are
        narrow = np.empty(a.shape, dtype=np.uint8)
        assert mod(a, m, out=narrow) is narrow
        assert np.array_equal(narrow, expected)
        # out aliasing the input, on a strided view
        alias = a.copy()
        mod(alias[::2], m, out=alias[::2])
        assert np.array_equal(alias[::2], expected[::2])
        assert np.array_equal(alias[1::2], a[1::2])


def test_mod_of_negatives_and_0d_operands():
    a = np.arange(-1000, 1000, dtype=np.int64)
    for m in (1, 3, 10, 625):
        assert np.array_equal(mod(a, m), np.remainder(a, m))
        assert (mod(a, m) >= 0).all()
        quot, rem = floor_divmod(a, m)
        assert np.array_equal(quot, np.floor_divide(a, m))
        assert np.array_equal(quot * m + rem, a)
    for x in (np.array(-7), np.int64(-7), np.array(41, dtype=np.uint16), -7, 41):
        assert np.ndim(mod(x, 5)) == 0 and mod(x, 5) == x % 5
        assert floor_divmod(x, 5) == divmod(int(x), 5)
    zero_d = np.array(-7)
    assert mod(zero_d, 5, out=zero_d) is zero_d and zero_d == 3
