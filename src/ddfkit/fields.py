"""Finite field F_{p^n} with discrete-log tables and cyclotomic cosets.

The modulus is the lexicographically least monic primitive polynomial of
degree n over F_p, ordered by its coefficient sequence (c_0, ..., c_{n-1}).
This fixed choice makes every downstream artifact (families, profiles,
exported files) reproducible byte for byte; any other primitive polynomial
would give isomorphic structures.  The residue class of x is the stored
generator, and full exp/log tables are precomputed (orders here stay small,
so table memory is trivial).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dfield
from functools import lru_cache

import numpy as np

from .arith import is_prime, multiplicative_order, prime_divisors
from .errors import BudgetError
from .groups import AdditiveGroup, field_group

FIELD_ORDER_BUDGET = 1 << 20


# ---------------------------------------------------------------------------
# polynomial arithmetic over F_p (coefficient lists, lowest degree first)
# ---------------------------------------------------------------------------

def poly_mulmod(a: list[int], b: list[int], mod: list[int], p: int) -> list[int]:
    """Product of a and b reduced modulo the monic polynomial `mod`, over F_p."""
    res = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            res[i + j] = (res[i + j] + ai * bj) % p
    n = len(mod) - 1
    for i in range(len(res) - 1, n - 1, -1):
        c = res[i]
        if c == 0:
            continue
        res[i] = 0
        for j in range(n):
            res[i - n + j] = (res[i - n + j] - c * mod[j]) % p
    out = res[:n]
    return out + [0] * (n - len(out))


def poly_powmod(a: list[int], e: int, mod: list[int], p: int) -> list[int]:
    n = len(mod) - 1
    result = [1] + [0] * (n - 1)
    acc = list(a)
    while e:
        if e & 1:
            result = poly_mulmod(result, acc, mod, p)
        acc = poly_mulmod(acc, acc, mod, p)
        e >>= 1
    return result


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


def is_primitive(f: list[int], p: int) -> bool:
    """True iff f is irreducible and its residue class of x generates F_{p^n}^*."""
    n = len(f) - 1
    if n == 1:
        root = (-f[0]) % p
        return root != 0 and multiplicative_order(root, p, p - 1) == p - 1
    if not is_irreducible(f, p):
        return False
    q = p ** n
    x = _poly_x(n)
    one = [1] + [0] * (n - 1)
    for ell in prime_divisors(q - 1):
        if poly_powmod(x, (q - 1) // ell, f, p) == one:
            return False
    return True


def least_primitive_poly(p: int, n: int) -> tuple[int, ...]:
    """Lexicographically least (by c_0..c_{n-1}) monic primitive polynomial."""
    for c0 in range(1, p):
        # the norm of x is (-1)^n c_0, which must generate F_p^*
        norm = (-c0) % p if n % 2 else c0
        if multiplicative_order(norm, p, p - 1) != p - 1:
            continue
        for rest in itertools.product(range(p), repeat=n - 1):
            f = [c0, *rest, 1]
            if is_primitive(f, p):
                return tuple(f)
    raise AssertionError(f"no primitive polynomial found for p={p}, n={n}")


# ---------------------------------------------------------------------------
# field context
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Field:
    """The finite field F_{p^n} with packed-integer elements in [0, q).

    exp[t] is the element generator^t for t in [0, q-1); log is its inverse
    on nonzero elements (log[0] = -1 as a sentinel).
    """

    p: int
    n: int
    q: int
    modulus: tuple[int, ...]  # monic, low degree first, length n+1
    generator: int
    group: AdditiveGroup
    exp: np.ndarray = dfield(repr=False)
    log: np.ndarray = dfield(repr=False)

    # -- arithmetic -----------------------------------------------------
    def add(self, a: int, b: int) -> int:
        return self.group.add(a, b)

    def sub(self, a: int, b: int) -> int:
        return self.group.sub(a, b)

    def neg(self, a: int) -> int:
        return self.group.neg(a)

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return int(self.exp[(int(self.log[a]) + int(self.log[b])) % (self.q - 1)])

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inversion of zero field element")
        return int(self.exp[(-int(self.log[a])) % (self.q - 1)])

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e < 0:
                raise ZeroDivisionError("inversion of zero field element")
            return 0 if e else 1
        return int(self.exp[(int(self.log[a]) * e) % (self.q - 1)])

    def elements(self) -> range:
        return range(self.q)

    # -- cyclotomic cosets ------------------------------------------------
    def class_array(self, e: int) -> np.ndarray:
        """The e cosets of the e-th powers as an (e, f) array, row i ascending.

        Row i is C_i = {generator^t : t = i (mod e)}; C_0 is the subgroup of
        order f = (q-1)/e and the rows partition the nonzero elements.
        """
        f = self._coset_size(e)
        classes = self.exp.reshape(f, e).T.copy()  # C order, so rows are contiguous
        classes.sort(axis=1)
        return classes

    def class_index(self, e: int) -> np.ndarray:
        """Array mapping each nonzero element to its coset index (0 stays -1)."""
        self._coset_size(e)
        idx = np.where(self.log >= 0, self.log % e, -1)
        return idx.astype(np.int64)

    def _coset_size(self, e: int) -> int:
        if e < 1 or (self.q - 1) % e != 0:
            raise ValueError(f"e={e} does not divide q-1={self.q - 1}")
        return (self.q - 1) // e


# digit rows per matrix product or pack in _exp_table; bounds its int64
# temporaries (build_field(2, 20) peaks at 69 MB with it and 245 MB without)
_EXP_CHUNK = 1 << 16


def _exp_table(group: AdditiveGroup, step: np.ndarray, q: int) -> np.ndarray:
    """exp[t] = g^t for t < q-1, where `step` is the digit matrix of g.

    Multiplying by g^m is the linear map given by step^m on digit rows, so
    rows [m, 2m) are rows [0, m) times step^m: about log2(q) doublings.
    The rows stay digits (in the smallest dtype that holds base-1) between
    doublings and are packed once at the end.  Entries stay below `base`,
    so a product entry is at most digits*(base-1)^2, which is below 2^52
    under both the field and the ring table budgets, far inside int64.
    Serves rings too: with base p^2 and q = p^r it lists the powers of a
    Teichmüller generator.  Raises AssertionError unless g^(q-1) = 1.
    """
    base = group.base
    rows = np.zeros((q - 1, group.digits), dtype=np.min_scalar_type(base - 1))
    rows[0, 0] = 1
    m, power = 1, step
    while m < q - 1:
        count = min(m, q - 1 - m)
        for lo in range(0, count, _EXP_CHUNK):
            hi = min(lo + _EXP_CHUNK, count)
            rows[m + lo : m + hi] = rows[lo:hi].astype(np.int64) @ power % base
        m += count
        power = power @ power % base
    if group.pack_digits(rows[-1:].astype(np.int64) @ step)[0] != 1:
        raise AssertionError("generator order check failed during table build")
    exp = np.empty(q - 1, dtype=np.int64)
    for lo in range(0, q - 1, _EXP_CHUNK):
        exp[lo : lo + _EXP_CHUNK] = group.pack_digits(rows[lo : lo + _EXP_CHUNK])
    return exp


def _log_table(exp: np.ndarray, q: int) -> np.ndarray:
    """Inverse of exp on the nonzero elements, with log[0] = -1.

    Raises AssertionError unless exp hits every nonzero element exactly
    once; exp has q-1 entries, so hitting all of them suffices.
    """
    log = np.full(q, -1, dtype=np.int64)
    log[exp] = np.arange(q - 1, dtype=np.int64)
    if (log[1:] < 0).any():
        raise AssertionError("exp table is not a bijection onto the nonzero elements")
    return log


@lru_cache(maxsize=None)
def build_field(p: int, n: int) -> Field:
    """Construct F_{p^n}; deterministic across runs (see module docstring)."""
    if not is_prime(p):
        raise ValueError(f"p={p} is not prime")
    if n < 1:
        raise ValueError("extension degree must be >= 1")
    q = p ** n
    if q > FIELD_ORDER_BUDGET:
        raise BudgetError(f"field order {q} exceeds table budget {FIELD_ORDER_BUDGET}")

    modulus = least_primitive_poly(p, n)
    group = field_group(p, n)
    # companion matrix of the modulus: row i holds the digits of x * x^i, so
    # the generator is the class of x (for n = 1, the root -c_0)
    step = np.zeros((n, n), dtype=np.int64)
    step[np.arange(n - 1), np.arange(1, n)] = 1
    step[n - 1] = [(-c) % p for c in modulus[:n]]
    generator = int(group.pack_digits(step[0]))

    exp = _exp_table(group, step, q)
    return Field(p=p, n=n, q=q, modulus=modulus, generator=generator,
                 group=group, exp=exp, log=_log_table(exp, q))
