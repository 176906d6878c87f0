"""Galois ring structure: Teichmüller set, decompositions, square split."""

import dataclasses

import numpy as np
import pytest

from ddfkit import BudgetError, build_field, build_ring
from ddfkit.arith import is_prime
from ddfkit.fields import TABLE_CACHE_SIZE, least_primitive_poly
from ddfkit.galois_ring import (TWO_NONSQUARE, TWO_NOT_IN_T, TWO_SQUARE,
                                _check_teichmuller, _teichmuller_set)
from scalar_oracles import is_irreducible, ring_decompositions


def test_build_ring_z25():
    # oracle: exhaustive solve of t^5 = t (mod 25)
    expected = sorted(t for t in range(25) if pow(t, 5, 25) == t)
    assert expected == [0, 1, 7, 18, 24]
    ring = build_ring(5, 1)
    assert sorted(ring.teichmuller.tolist()) == expected


def test_build_ring_z9():
    expected = sorted(t for t in range(9) if pow(t, 3, 9) == t)
    assert expected == [0, 1, 8]
    assert sorted(build_ring(3, 1).teichmuller.tolist()) == expected


def test_build_ring_25_2():
    ring = build_ring(5, 2)
    assert len(ring.teichmuller) == 25
    # xi has multiplicative order 24 (brute iteration)
    cur, order = ring.xi, 1
    while cur != 1:
        cur = ring.mul(cur, ring.xi)
        order += 1
    assert order == 24


def test_padic_examples():
    z25 = build_ring(5, 1)
    assert z25.p_adic(12) == (7, 1)  # 12 = 7 + 5*1 with 7 in T
    assert z25.p_adic(0) == (0, 0)
    z9 = build_ring(3, 1)
    assert z9.p_adic(5) == (8, 8)  # 5 = 8 + 3*8 (mod 9)
    a0, a1 = z25.p_adic(np.array([[12, 0], [7, 24]]))
    assert a0.tolist() == [[7, 0], [7, 24]] and a1.tolist() == [[1, 0], [0, 0]]


# every odd prime power t <= 49: the rings whose T the scalar power loop checks
SMALL_RINGS = [(p, r) for p in range(3, 50, 2) if is_prime(p)
               for r in range(1, 4) if p ** r <= 49]


def test_padic_roundtrip_and_uniqueness():
    # against every a0 + p*a1 by scalar products, on every element at once
    for p, r in SMALL_RINGS:
        ring = build_ring(p, r)
        expected, _ = ring_decompositions(ring, scalar_teichmuller(ring)[1])
        a0, a1 = ring.p_adic(np.arange(ring.order))
        assert list(zip(a0.tolist(), a1.tolist())) == [expected[a] for a in range(ring.order)]


def test_unit_decompose_examples():
    z25 = build_ring(5, 1)
    assert z25.unit_decompose(6) == (1, 1)  # 6 = 1 * (1 + 5)
    assert z25.unit_decompose(7) == (7, 0)  # already Teichmüller
    z9 = build_ring(3, 1)
    assert z9.unit_decompose(4) == (1, 1)  # 4 = 1 + 3
    a0, a1 = z25.unit_decompose(np.array([6, 7]))
    assert a0.tolist() == [1, 7] and a1.tolist() == [1, 0]


def test_unit_decompose_all_units():
    # against every xi^e * (1 + p*a1) by scalar products, on every unit at once
    for p, r in SMALL_RINGS:
        ring = build_ring(p, r)
        _, expected = ring_decompositions(ring, scalar_teichmuller(ring)[1])
        units = np.array(sorted(expected))
        a0, a1 = ring.unit_decompose(units)
        assert list(zip(a0.tolist(), a1.tolist())) == [expected[u][:2] for u in units.tolist()]


def test_unit_decompose_rejects_ideal():
    ring = build_ring(5, 1)
    for non_unit in (5, 0, np.array([6, 7, 10])):
        with pytest.raises(ValueError, match="not a unit"):
            ring.unit_decompose(non_unit)


@pytest.mark.parametrize("method", ["p_adic", "unit_decompose", "coset_parity"])
@pytest.mark.parametrize("bad", [25, 27, -1, -23, 2 ** 64 + 2])
def test_decompositions_reject_out_of_range(method, bad):
    # on Z_25, 27 would read as 2 and -23 as 2 (mod 25) without the check;
    # 2^64 + 2 does not fit int64
    ring = build_ring(5, 1)
    for a in (bad, np.array([6, bad])):
        with pytest.raises(ValueError, match="must lie in"):
            getattr(ring, method)(a)


def test_square_split_z25():
    ring = build_ring(5, 1)
    squares, non_squares = ring.square_split()
    assert squares.dtype == non_squares.dtype == np.int64
    assert squares.tolist() == [1, 24]
    assert non_squares.tolist() == [7, 18]


def test_square_split_structure():
    for p, r in [(5, 1), (7, 1), (3, 2), (5, 2), (11, 1)]:
        ring = build_ring(p, r)
        t = ring.teich_size
        squares, non_squares = (part.tolist() for part in ring.square_split())
        assert squares == sorted(squares) and non_squares == sorted(non_squares)
        assert len(squares) == len(non_squares) == (t - 1) // 2
        sq = set(squares)
        for a in squares:  # subgroup closure
            for b in squares:
                assert ring.mul(a, b) in sq
        assert {ring.mul(ring.xi, s) for s in squares} == set(non_squares)


def test_square_split_requires_odd_p_and_size():
    with pytest.raises(ValueError):
        build_ring(3, 1).square_split()  # p^r = 3 < 5
    with pytest.raises(ValueError):
        build_ring(2, 2).square_split()


def test_minus_one_parity():
    # -1 is a Teichmüller square exactly when p^r = 1 (mod 4)
    for p, r in [(5, 1), (13, 1), (3, 2), (5, 2), (7, 1), (11, 1), (19, 1), (3, 3)]:
        ring = build_ring(p, r)
        squares, non_squares = ring.square_split()
        minus_one = ring.group.sub(0, 1)
        if (p ** r) % 4 == 1:
            assert minus_one in set(squares)
        else:
            assert minus_one in set(non_squares)


def test_two_classification():
    assert build_ring(5, 1).two_in_teichmuller() == TWO_NOT_IN_T  # 2^4 = 16 != 1 (mod 25)
    assert pow(2, 4, 25) == 16
    assert build_ring(7, 1).two_in_teichmuller() == TWO_NOT_IN_T  # 2^6 = 15 (mod 49)
    assert pow(2, 6, 49) == 15
    # Wieferich prime: 2 lands in T*; 1093 = 5 (mod 8) makes it a non-square
    assert build_ring(1093, 1).two_in_teichmuller() == TWO_NONSQUARE
    assert build_ring(3511, 1).two_in_teichmuller() in (TWO_SQUARE, TWO_NONSQUARE)


def test_two_classification_checks_the_lift():
    # a ring whose T lists 2's residue with another lift: the Wieferich test
    # passes, but the lift of 2's residue is not 2
    ring = build_ring(1093, 1)
    teich = ring.teichmuller.copy()
    teich[teich == 2] = 2 + 1093
    with pytest.raises(AssertionError, match="not in T"):
        dataclasses.replace(ring, teichmuller=teich).two_in_teichmuller()


def test_reduction_mod_p_bijection():
    for p, r in [(5, 1), (5, 2), (3, 2), (7, 1)]:
        ring = build_ring(p, r)
        residues = ring.residue(ring.teichmuller)
        assert sorted(residues.tolist()) == list(range(ring.teich_size))
        assert [ring.residue(t) for t in ring.teichmuller.tolist()] == residues.tolist()


def test_modulus_reduces_irreducibly():
    for p, r in [(5, 2), (3, 2), (7, 2), (3, 3)]:
        ring = build_ring(p, r)
        reduced = [c % p for c in ring.modulus]
        assert is_irreducible(reduced, p)


def test_principal_unit_product_identity():
    # (1 + p*a)(1 + p*b) = 1 + p*(a + b), exhaustively for p^r <= 49
    for p, r in [(3, 1), (5, 1), (7, 1), (3, 2), (11, 1), (13, 1), (5, 2), (3, 3), (7, 2)]:
        ring = build_ring(p, r)
        teich = ring.teichmuller.tolist()
        for a in teich:
            ua = ring.group.add(1, ring.mul(p, a))
            for b in teich:
                lhs = ring.mul(ua, ring.group.add(1, ring.mul(p, b)))
                rhs = ring.group.add(1, ring.mul(p, ring.group.add(a, b)))
                assert lhs == rhs


def test_sixth_roots_sum_to_zero():
    for p, r in [(7, 1), (13, 1), (5, 2), (7, 2), (19, 1), (31, 1)]:
        ring = build_ring(p, r)
        t = ring.teich_size
        assert (t - 1) % 6 == 0
        roots = [u for u in ring.teichmuller[1:].tolist() if ring.pow(u, 6) == 1]
        assert len(roots) == 6
        total = 0
        for u in roots:
            total = ring.group.add(total, u)
        assert total == 0


def test_one_in_difference_sets_mod12():
    # 1 lies in the difference set of the Teichmüller squares exactly when
    # p^r = 1 (mod 12), and in non-squares minus squares exactly when = 7
    for p, r in [(5, 1), (7, 1), (3, 2), (11, 1), (13, 1), (17, 1), (19, 1),
                 (23, 1), (5, 2), (3, 3), (31, 1), (37, 1), (7, 2)]:
        ring = build_ring(p, r)
        t = ring.teich_size
        squares, non_squares = (part.tolist() for part in ring.square_split())
        delta = {ring.group.sub(a, b) for a in squares for b in squares if a != b}
        cross = {ring.group.sub(a, b) for a in non_squares for b in squares}
        assert (1 in delta) == (t % 12 == 1)
        assert (1 in cross) == (t % 12 == 7)


def test_two_is_ring_square_mod8():
    # 2 is a ring square exactly when p^r = 1 or 7 (mod 8); squareness via
    # the Teichmüller-part parity of its unit decomposition
    for p, r in [(5, 1), (7, 1), (3, 2), (11, 1), (13, 1), (5, 2), (3, 3), (7, 2)]:
        ring = build_ring(p, r)
        t = ring.teich_size
        assert (ring.coset_parity(2) == 0) == (t % 8 in (1, 7))


def test_coset_parity_array_matches_per_element_calls():
    for p, r in [(3, 1), (5, 1), (3, 2), (7, 1), (5, 2)]:
        ring = build_ring(p, r)
        units = np.array([u for u in range(ring.order) if ring.is_unit(u)])
        parity = ring.coset_parity(units)
        assert parity.tolist() == [int(ring.coset_parity(int(u))) for u in units]
        # u = xi^e * (1 + p*a) is in a square coset exactly when e is even
        _, expected = ring_decompositions(ring, scalar_teichmuller(ring)[1])
        assert parity.tolist() == [expected[u][2] % 2 for u in units.tolist()]
        assert parity.sum() * 2 == units.size
        for non_unit in (0, p, ring.mul(p, ring.xi)):
            with pytest.raises(ValueError):
                ring.coset_parity(non_unit)
            with pytest.raises(ValueError):
                ring.coset_parity(np.append(units[:5], non_unit))


def test_teichmuller_differences_are_units():
    for p, r in [(5, 1), (3, 2), (7, 1), (5, 2)]:
        ring = build_ring(p, r)
        tstar = ring.teichmuller[1:].tolist()
        for a in tstar:
            for b in tstar:
                if a != b:
                    assert ring.is_unit(ring.group.sub(a, b))


def test_build_errors():
    with pytest.raises(ValueError):
        build_ring(4, 1)
    with pytest.raises(ValueError):
        build_ring(2, 1)  # p^r = 2 < 3
    with pytest.raises(BudgetError):
        build_ring(251, 2)


@pytest.mark.parametrize("p, r", [(3, 2), (5, 1), (3, 3)])
def test_mul_arrays_matches_scalar_mul(p, r):
    ring = build_ring(p, r)
    elems = np.arange(ring.order, dtype=np.int64)
    table = ring.mul_arrays(elems[:, None], elems[None, :])
    expected = [[ring.mul(a, b) for b in range(ring.order)] for a in range(ring.order)]
    assert table.tolist() == expected
    # broadcasting: a scalar against an array, and two scalars
    assert ring.mul_arrays(ring.xi, elems).tolist() == [ring.mul(ring.xi, b) for b in elems]
    assert ring.mul_arrays(elems[-1], ring.xi) == ring.mul(ring.order - 1, ring.xi)
    assert ring.mul_arrays(elems.reshape(-1, 1, p), 2).shape == (ring.order // p, 1, p)


@pytest.mark.parametrize("p, r", [(3, 8), (5, 4), (23, 2), (8191, 1)])
def test_mul_arrays_matches_scalar_mul_on_random_pairs(p, r):
    # rings too large for a full table, r >= 4 among them: 2000 seeded
    # pairs each, the top element (every digit p^2 - 1) squared among them
    ring = build_ring(p, r)
    rng = np.random.default_rng(ring.order)
    a, b = rng.integers(0, ring.order, size=(2, 2000))
    a[0] = b[0] = ring.order - 1
    got = ring.mul_arrays(a, b)
    assert got.dtype == np.int64
    assert got.tolist() == [ring.mul(x, y) for x, y in zip(a.tolist(), b.tolist())]
    # int64 and the broadcast shape for 0-d x 0-d, 0-d x (n,) and (n, 1) x (r,)
    for x, y in ((int(a[1]), int(b[1])), (a[1], b), (a[:5, None], b[:r])):
        prod = ring.mul_arrays(x, y)
        shape = np.broadcast_shapes(np.shape(x), np.shape(y))
        assert prod.dtype == np.int64 and np.shape(prod) == shape
        pairs = zip(*(np.ravel(z) for z in np.broadcast_arrays(x, y)))
        expected = [ring.mul(int(u), int(w)) for u, w in pairs]
        assert np.ravel(prod).tolist() == expected


def scalar_teichmuller(ring):
    """xi = a^(p^r) and T = 0, 1, xi, xi^2, ... by scalar ring.mul."""
    p, r = ring.p, ring.r
    a = ring.group.pack([0, 1] + [0] * (r - 2)) if r >= 2 else (-ring.modulus[0]) % (p * p)
    xi = ring.pow(a, p ** r)
    teich, cur = [0, 1], 1
    for _ in range(p ** r - 2):
        cur = ring.mul(cur, xi)
        teich.append(cur)
    assert ring.mul(cur, xi) == 1
    return xi, teich


def scalar_residue(ring, a):
    """a's image in F_{p^r}, packed base p, from its scalar digits."""
    return sum(d % ring.p * ring.p ** ell for ell, d in enumerate(ring.group.unpack(a)))


def test_teichmuller_set_matches_scalar_power_loop():
    assert len(SMALL_RINGS) == 18  # every odd prime power up to 49
    for p, r in SMALL_RINGS:
        ring = build_ring(p, r)
        xi, teich = scalar_teichmuller(ring)
        assert ring.xi == xi and ring.teichmuller.tolist() == teich, (p, r)
        assert ring.teichmuller.dtype == np.int64
        assert not ring.teichmuller.flags.writeable
        # residue -> exponent of xi of the element of T with that residue
        assert ring.residue_exp.dtype == np.int32
        assert not ring.residue_exp.flags.writeable
        exps = {scalar_residue(ring, t): e for e, t in enumerate(teich[1:])}
        assert ring.residue_exp.tolist() == [exps.get(s, -1) for s in range(p ** r)]


@pytest.mark.parametrize("p", [251, 1009, 8191])
def test_teichmuller_lists_with_wide_sums_take_one_step(p):
    # r*(p^2 - 1)^2 >= 2^31, past int32: p = 251 has 16-bit digits and
    # sums up to 3.97e9, and p = 8191 needs 64-bit sums; each listed power
    # times xi, by the digit convolution, is the next
    ring = build_ring(p, 1)
    units = ring.teichmuller[1:]
    assert np.array_equal(ring.mul_arrays(ring.xi, units), np.roll(units, -1))
    assert units[0] == 1 and len(set(units.tolist())) == p - 1


def test_ring_cache_is_bounded():
    for p in (3, 5, 7, 11, 13, 17, 19)[: TABLE_CACHE_SIZE + 2]:
        build_ring(p, 1)
        assert build_ring.cache_info().currsize <= TABLE_CACHE_SIZE
    assert build_ring.cache_info().maxsize == TABLE_CACHE_SIZE


def test_build_ring_builds_no_field_tables():
    # the ring needs only the residue field's modulus, not its exp/log tables
    build_ring.cache_clear()
    before = build_field.cache_info()
    ring = build_ring(7, 3)
    after = build_field.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)
    assert ring.modulus == least_primitive_poly(7, 3)


def test_teichmuller_checks_reject_bad_sets():
    ring = build_ring(5, 1)
    assert ring.teichmuller.tolist() == [0, 1, 18, 24, 7]
    # the residue class a = 23 of x, not lifted: a^4 = 16, not 1 (mod 25)
    with pytest.raises(AssertionError, match="order"):
        _teichmuller_set(ring, 23)
    # xi^2 has order 2, so the order check passes and T repeats itself
    with pytest.raises(AssertionError, match="distinct"):
        _teichmuller_set(ring, ring.mul(ring.xi, ring.xi))
    # 6 = 1 (mod 5): distinct elements, two of them with residue 1
    with pytest.raises(AssertionError, match="bijectively"):
        _check_teichmuller(ring, np.array([0, 1, 18, 24, 6]))
    # 23 = 18 (mod 5) replaces 18: distinct residues, but 23^5 = 18 (mod 25)
    with pytest.raises(AssertionError, match="failed for 23"):
        _check_teichmuller(ring, np.array([0, 1, 23, 24, 7]))
    _check_teichmuller(ring, ring.teichmuller)


def test_teichmuller_check_needs_the_last_power_to_wrap():
    ring = build_ring(5, 1)
    # the powers of 23, which is not lifted, with the residues 0, 1, 3, 4, 2:
    # distinct and bijective mod 5, and 23 times each entry is the next,
    # but 23 * 17 = 16 (mod 25), not 1
    teich = np.array([0, 1, 23, 4, 17])
    assert ring.mul_arrays(23, teich[1:]).tolist() == [23, 4, 17, 16]
    with pytest.raises(AssertionError, match="failed for 17"):
        _check_teichmuller(ring, teich)
    # a set that starts with p * 1 instead of 0
    with pytest.raises(AssertionError, match="start 0, 1"):
        _check_teichmuller(ring, np.array([5, 1, 18, 24, 7]))
