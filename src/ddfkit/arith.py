"""Small exact-integer number theory helpers (primality, factoring, sieves)."""

from __future__ import annotations

import numpy as np


PRIME_TEST_LIMIT = 1 << 32


def is_prime(n: int) -> bool:
    """Deterministic primality test by trial division, for n < 2^32.

    Raises ValueError for larger n, where trial division has no useful bound.
    """
    if n >= PRIME_TEST_LIMIT:
        raise ValueError(f"primality test is limited to n < 2^32, got {n}")
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def check_prime(p: int) -> None:
    """Raise ValueError unless p is a prime (see is_prime for the range)."""
    if not is_prime(p):
        raise ValueError(f"p = {p} is not a prime")


def factorize(n: int) -> list[int]:
    """Prime factors of n with multiplicity, ascending."""
    out = []
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.append(d)
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def prime_divisors(n: int) -> list[int]:
    """Distinct prime divisors of n, ascending."""
    return sorted(set(factorize(n)))


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    factors = factorize(n)
    out = [1]
    for ell in sorted(set(factors)):
        out = [d * ell ** e for d in out for e in range(factors.count(ell) + 1)]
    return sorted(out)


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


def multiplicative_order(a: int, modulus: int, group_order: int) -> int:
    """Order of a modulo `modulus`, given the containing group's order."""
    if a % modulus == 0:
        raise ValueError("zero has no multiplicative order")
    order = group_order
    for q in prime_divisors(group_order):
        while order % q == 0 and pow(a, order // q, modulus) == 1:
            order //= q
    return order
