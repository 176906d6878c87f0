"""Scalar reference tests the suite checks the library against: a numpy
sieve of primes, Rabin's irreducibility test, the order of x by
per-polynomial square-and-multiply (ddfkit.fields.poly_powmod), and the
p-adic and unit decompositions of a Galois ring by scalar products."""

import numpy as np

from ddfkit.arith import multiplicative_order, prime_divisors
from ddfkit.fields import poly_powmod


def primes_below(limit: int) -> list[int]:
    """All primes < limit, via a numpy sieve."""
    if limit <= 2:
        return []
    sieve = np.ones(limit, dtype=bool)
    sieve[:2] = False
    for d in range(2, int(limit ** 0.5) + 1):
        if sieve[d]:
            sieve[d * d :: d] = False
    return [int(x) for x in np.nonzero(sieve)[0]]


def _poly_x(n: int) -> list[int]:
    return ([0, 1] + [0] * (n - 2))[:n]


def is_irreducible(f: list[int], p: int) -> bool:
    """Rabin irreducibility test for a monic polynomial over F_p."""
    n = len(f) - 1
    if n == 1:
        return True
    if f[0] == 0:  # divisible by x
        return False
    x = _poly_x(n)
    if poly_powmod(x, p ** n, f, p) != x:
        return False
    for t in prime_divisors(n):
        if poly_powmod(x, p ** (n // t), f, p) == x:
            return False
    return True


def x_generates(f: list[int], p: int) -> bool:
    """Whether x has order q-1 modulo the irreducible f of degree n >= 2."""
    n = len(f) - 1
    q = p ** n
    x = _poly_x(n)
    one = [1] + [0] * (n - 1)
    return all(poly_powmod(x, (q - 1) // ell, f, p) != one for ell in prime_divisors(q - 1))


def is_primitive(f: list[int], p: int) -> bool:
    """True iff f is irreducible and its residue class of x generates F_{p^n}^*."""
    n = len(f) - 1
    if n == 1:
        root = (-f[0]) % p
        return root != 0 and multiplicative_order(root, p, p - 1) == p - 1
    return is_irreducible(f, p) and x_generates(f, p)


def ring_decompositions(ring, teich: list[int]) -> tuple[dict, dict]:
    """Every a = a0 + p*a1 and every unit u = xi^e * (1 + p*a1) of the ring,
    over all a0, a1 in T = teich = [0, 1, xi, xi^2, ...], by the scalar
    GaloisRing.mul and group.add alone: the maps a -> (a0, a1) and
    u -> (xi^e, a1, e).  Each must reach every element, or every unit,
    exactly once."""
    g, p = ring.group, ring.p
    p_adic, units = {}, {}
    for a1 in teich:
        p_a1 = ring.mul(p, a1)
        principal = g.add(1, p_a1)
        for a0 in teich:
            p_adic[g.add(a0, p_a1)] = (a0, a1)
        for e, a0 in enumerate(teich[1:]):
            units[ring.mul(a0, principal)] = (a0, a1, e)
    assert len(p_adic) == ring.order
    assert len(units) == ring.order - ring.order // len(teich)  # all but pR
    return p_adic, units
