"""Field construction, arithmetic and cyclotomic cosets."""

import dataclasses
import hashlib
import itertools

import numpy as np
import pytest

from ddfkit import BudgetError, build_field, fields
from ddfkit.arith import is_prime, multiplicative_order, prime_divisors
from ddfkit.fields import (_ORDER_CELLS, _ROOT_CELLS, FIELD_ORDER_BUDGET, TABLE_CACHE_SIZE, Field,
                           _check_bijection, _exp_table, _rootless, _x_has_full_order,
                           least_primitive_poly, poly_mulmod)
from ddfkit.groups import field_group, point_dtype
from scalar_oracles import is_irreducible, is_primitive, primes_below, x_generates


def brute_order(a, modulus):
    """Multiplicative order by repeated multiplication (independent oracle)."""
    assert a % modulus != 0
    x, order = a % modulus, 1
    while x != 1:
        x = x * a % modulus
        order += 1
    return order


def test_build_field_5_1():
    # oracle: exhaustive order check of 1..4 mod 5
    orders = {a: brute_order(a, 5) for a in range(1, 5)}
    assert orders == {1: 1, 2: 4, 3: 4, 4: 2}
    f = build_field(5, 1)
    assert f.q == 5
    # lex-least monic primitive degree-1 polynomial: first c0 whose root -c0
    # has full order; c0=1 gives root 4 (order 2), c0=2 gives root 3 (order 4)
    assert f.modulus == (2, 1)
    assert f.generator == 3
    assert orders[f.generator] == 4


def test_build_field_3_2():
    # oracle: scan the 9 monic quadratics over F_3 in lex order; the first
    # irreducible one whose root has order 8 is x^2 + x + 2
    found = None
    for c0 in range(3):
        for c1 in range(3):
            mod = [c0, c1, 1]
            if not is_irreducible(mod, 3):
                continue
            x = [0, 1]
            cur, order = x, 1
            while cur != [1, 0]:
                cur = poly_mulmod(cur, x, mod, 3)
                order += 1
            if order == 8:
                found = (c0, c1, 1)
                break
        if found:
            break
    assert found == (2, 1, 1)
    f = build_field(3, 2)
    assert f.modulus == (2, 1, 1)
    assert f.q == 9
    # generator is the class of x, packed base 3
    assert f.generator == 3
    powers = {f.pow(f.generator, t) for t in range(8)}
    assert len(powers) == 8


def test_build_field_11_3():
    f = build_field(11, 3)
    assert f.q == 1331
    # order check via the factored group order 1330 = 2 * 5 * 7 * 19
    assert prime_divisors(1330) == [2, 5, 7, 19]
    assert f.pow(f.generator, 1330) == 1
    for ell in (2, 5, 7, 19):
        assert f.pow(f.generator, 1330 // ell) != 1


def test_generator_has_full_order_everywhere():
    for p, n in [(2, 3), (3, 2), (5, 2), (7, 1), (11, 1), (13, 1)]:
        f = build_field(p, n)
        q1 = f.q - 1
        assert f.pow(f.generator, q1) == 1
        for d in range(1, q1):
            if q1 % d == 0:
                assert f.pow(f.generator, d) != 1


def test_field_ops_f9():
    f = build_field(3, 2)
    # x * x reduces to 2x + 1 under x^2 + x + 2 (schoolbook oracle)
    assert poly_mulmod([0, 1], [0, 1], [2, 1, 1], 3) == [1, 2]
    assert f.mul(3, 3) == 7  # packed: x -> 3, 2x+1 -> 7


def test_add_zero_identity():
    for p, n in [(5, 1), (3, 2), (7, 1), (2, 3)]:
        f = build_field(p, n)
        for a in range(f.q):
            assert f.group.add(a, 0) == a


def test_inverse_f5():
    f = build_field(5, 1)
    assert f.inv(2) == 3  # 2*3 = 6 = 1 (mod 5)


def test_inverse_and_pow_consistency():
    for p, n in [(5, 1), (3, 2), (7, 1)]:
        f = build_field(p, n)
        for a in range(1, f.q):
            assert f.mul(a, f.inv(a)) == 1
            acc = 1
            for e in range(4):
                assert f.pow(a, e) == acc
                acc = f.mul(acc, a)
    with pytest.raises(ZeroDivisionError):
        build_field(5, 1).inv(0)


# n = 1 and p = 2 among them; in F_2, inv(1) is pow(1, q - 2) = pow(1, 0)
@pytest.mark.parametrize("p, n", [(2, 1), (2, 5), (2, 8), (3, 1), (3, 3), (5, 2), (7, 1),
                                  (13, 1)])
def test_scalar_ops_agree_with_the_table(p, n):
    # the scalar ops run polynomial products, not table lookups, so they
    # check the table rather than read it
    f = build_field(p, n)
    assert [f.pow(f.generator, t) for t in range(f.q - 1)] == f.exp.tolist()
    for a in range(1, f.q):
        assert f.mul(a, f.inv(a)) == 1
        assert f.pow(a, -1) == f.inv(a)
        assert f.pow(a, -2) == f.mul(f.inv(a), f.inv(a))
    assert f.pow(0, 0) == 1
    assert f.pow(0, 3) == 0
    assert f.mul(0, f.generator) == f.mul(f.generator, 0) == 0
    with pytest.raises(ZeroDivisionError):
        f.pow(0, -1)
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


def test_a_field_holds_only_its_power_table():
    # no discrete-log table beside exp: classes and multipliers are read
    # off exp and the digits
    assert [fld.name for fld in dataclasses.fields(Field)] == \
        ["p", "n", "q", "modulus", "generator", "group", "exp"]
    f = build_field(3, 4)
    assert [name for name, value in vars(f).items() if isinstance(value, np.ndarray)] == ["exp"]


@pytest.mark.parametrize("p, n, dtype", [(2, 8, np.uint8), (5, 4, np.uint16), (2, 16, np.uint16),
                                         (2, 17, np.uint32)])
def test_tables_are_held_at_their_natural_width(p, n, dtype):
    # exp at the width of the field's elements, the width of a family's
    # blocks
    f = build_field(p, n)
    assert f.exp.dtype == point_dtype(f.q) == dtype
    assert f.class_array(f.q - 1).dtype == dtype


def test_cyclotomic_classes_f5():
    f = build_field(5, 1)
    # squares mod 5 by exhaustion: {1, 4}; non-squares {2, 3}
    assert sorted(a * a % 5 for a in range(1, 5)) == [1, 1, 4, 4]
    assert f.class_array(2).tolist() == [[1, 4], [2, 3]]


def test_cyclotomic_classes_f9_e4():
    f = build_field(3, 2)
    classes = f.class_array(4)
    assert classes.shape == (4, 2)
    assert sorted(classes.ravel().tolist()) == list(range(1, 9))


def test_cyclotomic_classes_f625_e52():
    f = build_field(5, 4)
    classes = f.class_array(52)
    # exp's dtype, point_dtype(625); a difference of uint16 rows would wrap
    assert classes.shape == (52, 12) and classes.dtype == np.uint16
    assert (classes[:, 1:] > classes[:, :-1]).all()


def test_cyclotomic_classes_structure():
    # C_0 is the subgroup of e-th powers; C_i = generator^i * C_0
    for (p, n), e in [((3, 2), 4), ((5, 1), 2), ((7, 1), 3)]:
        f = build_field(p, n)
        classes = f.class_array(e).tolist()
        powers = {f.pow(a, e) for a in range(1, f.q)}
        assert set(classes[0]) == powers
        for i in range(1, e):
            shifted = {f.mul(f.pow(f.generator, i), x) for x in classes[0]}
            assert set(classes[i]) == shifted


def test_cyclotomic_classes_divisibility_error():
    with pytest.raises(ValueError):
        build_field(5, 1).class_array(3)


def test_frobenius_additivity():
    # (a+b)^p = a^p + b^p, exhaustively for q <= 121
    for p, n in [(3, 2), (5, 1), (7, 1), (2, 4), (11, 1), (3, 4), (11, 2)]:
        f = build_field(p, n)
        for a in range(f.q):
            ap = f.pow(a, p)
            for b in range(f.q):
                assert f.pow(f.group.add(a, b), p) == f.group.add(ap, f.pow(b, p))


def test_encoding_roundtrip():
    for p, n in [(5, 1), (3, 2), (11, 3), (2, 5)]:
        f = build_field(p, n)
        g = f.group
        for a in range(f.q):
            assert g.pack(g.unpack(a)) == a


def test_exp_log_mutual_inverse():
    for p, n in [(3, 2), (7, 1), (5, 2)]:
        f = build_field(p, n)
        # exp is onto the nonzero elements, so inverting it gives a log of each
        log = np.full(f.q, -1)
        log[f.exp] = np.arange(f.q - 1)
        assert log[0] == -1 and (log[1:] >= 0).all()
        for t in range(f.q - 1):
            assert log[f.exp[t]] == t


def test_least_primitive_poly_is_primitive():
    for p, n in [(5, 1), (3, 2), (7, 2), (11, 3)]:
        f = list(least_primitive_poly(p, n))
        assert is_primitive(f, p)


def test_build_errors():
    with pytest.raises(ValueError):
        build_field(4, 1)
    with pytest.raises(ValueError):
        build_field(6, 2)
    with pytest.raises(BudgetError):
        build_field(2, 21)  # 2^21 > 2^20 budget


def test_least_primitive_poly_is_lex_least():
    # oracle: the first primitive polynomial in (c_0, ..., c_{n-1}) order,
    # without the norm shortcut of the library search
    for p, n in [(2, 4), (3, 3), (5, 2), (5, 3), (7, 3), (11, 2), (13, 2), (23, 2)]:
        first = next(coeffs + (1,) for coeffs in itertools.product(range(p), repeat=n)
                     if is_primitive(list(coeffs) + [1], p))
        assert least_primitive_poly(p, n) == first


def unfiltered_least_primitive_poly(p, n):
    """The library search with no root pre-filter: every candidate with a
    generating norm goes through is_primitive, in the same order."""
    for c0 in range(1, p):
        norm = (-c0) % p if n % 2 else c0
        if multiplicative_order(norm, p, p - 1) != p - 1:
            continue
        for rest in itertools.product(range(p), repeat=n - 1):
            if is_primitive([c0, *rest, 1], p):
                return (c0, *rest, 1)
    raise AssertionError((p, n))


GRID = [(p, n) for p in (2, 3, 5, 7, 11, 13) for n in range(1, 13) if p ** n <= 3 ** 12]


@pytest.mark.parametrize("p, n", GRID)
def test_least_primitive_poly_matches_the_unfiltered_search(p, n):
    assert least_primitive_poly(p, n) == unfiltered_least_primitive_poly(p, n)


@pytest.mark.parametrize("p, n", [(2, 2), (2, 7), (3, 2), (3, 3), (3, 5), (5, 2), (5, 4),
                                  (7, 3), (13, 2), (13, 3)])
@pytest.mark.parametrize("cells", [_ROOT_CELLS, 1])
def test_rootless_keeps_exactly_the_candidates_without_a_root(p, n, cells, monkeypatch):
    # cells = 1 keeps every chunk at 8 candidates, so chunk edges fall throughout
    monkeypatch.setattr(fields, "_ROOT_CELLS", cells)
    for c0 in range(1, p):
        want = [[c0, *rest, 1] for rest in itertools.product(range(p), repeat=n - 1)
                if all(sum(c * a ** i for i, c in enumerate([c0, *rest, 1])) % p
                       for a in range(1, p))]
        assert [f for polys in _rootless(c0, p, n) for f in polys.tolist()] == want, c0


def scalar_least_primitive_poly(p, n):
    """The rootless candidates in the library's order, each through
    Rabin's test (from degree 4, as a rootless polynomial of lower degree
    is irreducible) and then the order of x, one polynomial at a time."""
    for c0 in range(1, p):
        norm = (-c0) % p if n % 2 else c0
        if multiplicative_order(norm, p, p - 1) != p - 1:
            continue
        for polys in _rootless(c0, p, n):
            for f in polys.tolist():
                if (n <= 3 or is_irreducible(f, p)) and x_generates(f, p):
                    return tuple(f)
    raise AssertionError((p, n))


def test_batched_order_test_matches_the_scalar_search_within_the_budget():
    cases = [(p, n) for p in range(2, 1 << 10) if is_prime(p)
             for n in range(2, 21) if p ** n <= FIELD_ORDER_BUDGET]
    assert len(cases) == 242
    for p, n in cases:
        assert least_primitive_poly(p, n) == scalar_least_primitive_poly(p, n), (p, n)


def test_order_test_alone_rejects_a_rootless_reducible_quartic():
    # (x^2 + 1)(x^2 + x + 3) over F_7: both factors are irreducible (-1 and
    # the discriminant 1 - 12 = 3 are non-squares mod 7), the product has no
    # root, and its c_0 = 3 generates F_7^*, so only the order of x rejects it
    f = [3, 1, 4, 1, 1]
    assert poly_mulmod([1, 0, 1], [3, 1, 1], [0, 0, 0, 0, 1], 7) == f[:4]
    assert multiplicative_order(3, 7, 6) == 6 and not is_irreducible(f, 7)
    assert f in [g for polys in _rootless(3, 7, 4) for g in polys.tolist()]
    primitive = list(least_primitive_poly(7, 4))
    assert _x_has_full_order(np.array([f, primitive]), 7) == [False, True]


def test_order_test_stacks_stay_under_their_cap(monkeypatch):
    # at (2, 20) a chunk of _rootless could hold 2^16 candidates, 210 MB of
    # companion matrices; with every candidate refused the search walks all
    # 2^19 of them, so the chunks grow to their cap
    seen = []

    def refuse_all(polys, p):
        seen.append(polys.shape[0] * (polys.shape[1] - 1) ** 2)
        return [False] * polys.shape[0]

    monkeypatch.setattr(fields, "_x_has_full_order", refuse_all)
    with pytest.raises(AssertionError, match="no primitive polynomial"):
        least_primitive_poly(2, 20)
    assert max(seen) <= _ORDER_CELLS
    assert max(seen) > _ORDER_CELLS // 4  # the chunks did grow to the cap's scale


def scalar_exp(p, n, modulus):
    """exp by walking powers of the generator with poly_mulmod."""
    q = p ** n
    gen = [0, 1] + [0] * (n - 2) if n >= 2 else [(-modulus[0]) % p]
    exp = np.zeros(q - 1, dtype=np.int64)
    cur = [1] + [0] * (n - 1)
    for t in range(q - 1):
        exp[t] = sum(c * p ** i for i, c in enumerate(cur))
        cur = poly_mulmod(cur, gen, list(modulus), p)
    assert cur == [1] + [0] * (n - 1)
    return exp


def test_tables_match_poly_mulmod_walk():
    cases = [(p, n) for p in primes_below(40) for n in range(1, 5) if p ** n <= 30_000]
    assert len(cases) == 41
    for p, n in cases:
        f = build_field(p, n)
        exp = scalar_exp(p, n, f.modulus)
        assert np.array_equal(f.exp, exp), (p, n)
        assert f.generator == exp[1 % (f.q - 1)]  # F_2 has exp = [1]


def assert_one_step(group, step, table):
    """table[t+1] = g*table[t] for every t, wrapping to table[0] = 1.

    One product with `step`, the digit matrix of g, on all digits of each
    entry: no doubling, in chunks that bound the int64 digit matrices.
    """
    following = np.roll(table, -1)
    pows = group.base ** np.arange(group.digits)
    for lo in range(0, table.size, 1 << 16):
        digits = table[lo : lo + (1 << 16), None] // pows % group.base
        assert np.array_equal((digits @ step % group.base) @ pows,
                              following[lo : lo + (1 << 16)]), lo


def companion(f):
    """Row l holds the digits of g * x^l, for the generator g = x."""
    n = f.n
    step = np.zeros((n, n), dtype=np.int64)
    step[np.arange(n - 1), np.arange(1, n)] = 1
    step[n - 1] = [(-c) % f.p for c in f.modulus[:n]]
    return step


@pytest.mark.parametrize("p, n", [(2, 17), (3, 11)])
def test_tables_past_one_chunk_take_one_step_per_entry(p, n):
    # q - 1 = 131071 and 177146 entries: more than one doubling chunk
    f = build_field(p, n)
    assert_one_step(f.group, companion(f), f.exp)


@pytest.mark.parametrize("p, n, digest", [
    (2, 20, "4cb1763d286d33f42814e96b18116a3f53b823240feed3677dbcb0bcef577222"),
    (3, 12, "9f603c59fd6c914ceb8bf06d1bba4936019dba1432bd265768876335775a123f"),
    (1009, 2, "d1c6d408907e8f1299b11c05e1a6734d81af310eb9d17f2a66b98c8863fec5aa"),
], ids=["2-20", "3-12", "1009-2"])
def test_tables_at_the_budget_top_are_pinned(p, n, digest):
    # SHA-256 of the exp table widened to little-endian int64, as the int64
    # digit-row doubling built it; the table itself is uint32
    exp = build_field(p, n).exp
    assert exp.dtype == np.uint32
    assert hashlib.sha256(exp.astype("<i8").tobytes()).hexdigest() == digest


def test_field_cache_is_bounded():
    for n in range(1, TABLE_CACHE_SIZE + 3):
        build_field(3, n)
        assert build_field.cache_info().currsize <= TABLE_CACHE_SIZE
    assert build_field.cache_info().maxsize == TABLE_CACHE_SIZE


def test_table_checks_reject_bad_tables():
    with pytest.raises(AssertionError):  # 2 twice, 4 never
        _check_bijection(np.array([1, 2, 2, 3], dtype=np.int64), 5)
    with pytest.raises(AssertionError):  # hits 0, so misses a unit
        _check_bijection(np.array([1, 0, 4, 3], dtype=np.int64), 5)
    # the companion matrix of x^2 over F_3 is nilpotent: x^8 = 0, not 1
    nilpotent = np.array([[0, 1], [0, 0]], dtype=np.int64)
    with pytest.raises(AssertionError):
        _exp_table(field_group(3, 2), nilpotent, 9)
    # 4 has order 2 in F_5: the order check passes, the bijection check fails
    exp = _exp_table(field_group(5, 1), np.array([[4]], dtype=np.int64), 5)
    assert exp.tolist() == [1, 4, 1, 4]
    with pytest.raises(AssertionError):
        _check_bijection(exp, 5)


def test_is_prime_is_bounded():
    assert is_prime(4_294_967_291)  # the largest prime below 2^32
    assert not is_prime(4_294_967_295)
    for n in (1 << 32, 1_000_000_000_000_000_003):
        with pytest.raises(ValueError):
            is_prime(n)


def test_is_prime_matches_trial_division_and_refuses_strong_pseudoprimes():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))

    assert [n for n in range(20_000) if is_prime(n)] == [n for n in range(20_000) if trial(n)]
    # strong pseudoprimes to base 2 (2047, 3277), to 2, 3, 5 (25326001) and
    # to 2, 3, 5, 7 (3215031751), and Carmichael numbers: all composite
    for n in (2047, 3277, 25_326_001, 3_215_031_751, 561, 1105, 1729, 2821, 6601):
        assert not trial(n) and not is_prime(n), n
    assert all(is_prime(p) for p in (2, 7, 61, 1093, 3511, 65_537, 2_147_483_647))
