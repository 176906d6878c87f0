"""Field construction, arithmetic and cyclotomic cosets."""

import itertools

import numpy as np
import pytest

from ddfkit import BudgetError, build_field
from ddfkit.arith import is_prime, prime_divisors, primes_below
from ddfkit.fields import (_exp_table, _log_table, is_irreducible, is_primitive,
                           least_primitive_poly, poly_mulmod)
from ddfkit.groups import field_group


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
        for a in f.elements():
            assert f.add(a, 0) == a


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
    assert classes.shape == (52, 12) and classes.dtype == np.int64
    assert (np.diff(classes, axis=1) > 0).all()


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
        for a in f.elements():
            ap = f.pow(a, p)
            for b in f.elements():
                assert f.pow(f.add(a, b), p) == f.add(ap, f.pow(b, p))


def test_encoding_roundtrip():
    for p, n in [(5, 1), (3, 2), (11, 3), (2, 5)]:
        f = build_field(p, n)
        g = f.group
        for a in f.elements():
            assert g.pack(g.unpack(a)) == a


def test_exp_log_mutual_inverse():
    for p, n in [(3, 2), (7, 1), (5, 2)]:
        f = build_field(p, n)
        for t in range(f.q - 1):
            assert f.log[f.exp[t]] == t


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


def scalar_tables(p, n, modulus):
    """exp and log by walking powers of the generator with poly_mulmod."""
    q = p ** n
    gen = [0, 1] + [0] * (n - 2) if n >= 2 else [(-modulus[0]) % p]
    exp = np.zeros(q - 1, dtype=np.int64)
    log = np.full(q, -1, dtype=np.int64)
    cur = [1] + [0] * (n - 1)
    for t in range(q - 1):
        packed = sum(c * p ** i for i, c in enumerate(cur))
        exp[t] = packed
        log[packed] = t
        cur = poly_mulmod(cur, gen, list(modulus), p)
    assert cur == [1] + [0] * (n - 1)
    return exp, log


def test_tables_match_poly_mulmod_walk():
    cases = [(p, n) for p in primes_below(40) for n in range(1, 5) if p ** n <= 30_000]
    assert len(cases) == 41
    for p, n in cases:
        f = build_field(p, n)
        exp, log = scalar_tables(p, n, f.modulus)
        assert np.array_equal(f.exp, exp), (p, n)
        assert np.array_equal(f.log, log), (p, n)
        assert f.generator == exp[1 % (f.q - 1)]  # F_2 has exp = [1]


def test_table_checks_reject_bad_tables():
    with pytest.raises(AssertionError):  # 2 twice, 4 never
        _log_table(np.array([1, 2, 2, 3], dtype=np.int64), 5)
    with pytest.raises(AssertionError):  # hits 0, so misses a unit
        _log_table(np.array([1, 0, 4, 3], dtype=np.int64), 5)
    # the companion matrix of x^2 over F_3 is nilpotent: x^8 = 0, not 1
    nilpotent = np.array([[0, 1], [0, 0]], dtype=np.int64)
    with pytest.raises(AssertionError):
        _exp_table(field_group(3, 2), nilpotent, 9)
    # 4 has order 2 in F_5: the order check passes, the bijection check fails
    exp = _exp_table(field_group(5, 1), np.array([[4]], dtype=np.int64), 5)
    assert exp.tolist() == [1, 4, 1, 4]
    with pytest.raises(AssertionError):
        _log_table(exp, 5)


def test_is_prime_is_bounded():
    assert is_prime(4_294_967_291)  # the largest prime below 2^32
    assert not is_prime(4_294_967_295)
    for n in (1 << 32, 1_000_000_000_000_000_003):
        with pytest.raises(ValueError):
            is_prime(n)
