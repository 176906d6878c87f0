"""Small exact-integer number theory helpers (primality, factoring, orders)."""

from __future__ import annotations


PRIME_TEST_LIMIT = 1 << 32


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin test for n < 2^32, else ValueError: the
    bases 2, 7 and 61 admit no strong pseudoprime below 4,759,123,141."""
    if n >= PRIME_TEST_LIMIT:
        raise ValueError(f"primality test is limited to n < 2^32, got {n}")
    if n < 2:
        return False
    for a in (2, 7, 61):
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 7, 61):
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_prime(p: int) -> None:
    """Raise ValueError unless p is a prime (see is_prime for the range)."""
    if not is_prime(p):
        raise ValueError(f"p = {p} is not a prime")


def wieferich(p: int) -> bool:
    """Exact test of 2^(p-1) = 1 (mod p^2), which holds exactly when 2 lies
    in the Teichmüller group of GR(p^2, r); requires prime p."""
    check_prime(p)
    return pow(2, p - 1, p * p) == 1


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


def multiplicative_order(a: int, modulus: int, group_order: int) -> int:
    """Order of a modulo `modulus`, given the containing group's order."""
    if a % modulus == 0:
        raise ValueError("zero has no multiplicative order")
    order = group_order
    for q in prime_divisors(group_order):
        while order % q == 0 and pow(a, order // q, modulus) == 1:
            order //= q
    return order
