"""Finite field F_{p^n} with its power table and cyclotomic cosets.

The modulus is the lexicographically least monic primitive polynomial of
degree n over F_p, ordered by its coefficient sequence (c_0, ..., c_{n-1}).
This fixed choice makes every downstream artifact (families, profiles,
exported files) reproducible byte for byte; any other primitive polynomial
would give isomorphic structures.  The residue class of x is the stored
generator, and the table exp of its powers is precomputed in
groups.point_dtype(q), the width of a family's blocks: at most 4 bytes per
element, 4 MB at the budget's top, q = 2^20.  No inverse table is kept:
a coset is a residue of the exponent, and multiplying by a fixed element
is F_p-linear on digit vectors.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dfield
from functools import lru_cache

import numpy as np

from .arith import check_prime, multiplicative_order, prime_divisors
from .errors import BudgetError
from .groups import AdditiveGroup, field_group

FIELD_ORDER_BUDGET = 1 << 20


# ---------------------------------------------------------------------------
# polynomial arithmetic over F_p (coefficient lists, lowest degree first)
# ---------------------------------------------------------------------------

def poly_mulmod(a: list[int], b: list[int], mod: list[int], p: int) -> list[int]:
    """Product of a and b reduced modulo the monic polynomial `mod`, with
    coefficients mod p: over F_p for a prime p, over Z_(p^2) in GR(p^2, r)."""
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


def _x_generates(f: list[int], p: int) -> bool:
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
    return is_irreducible(f, p) and _x_generates(f, p)


# Candidates times roots in the largest chunk of _rootless: 512 KB of int64.
_ROOT_CELLS = 1 << 16


def _rootless(c0: int, p: int, n: int):
    """Yield the monic [c0, c_1, ..., c_(n-1), 1] with no root in F_p, in
    lexicographic order of (c_1, ..., c_(n-1)), for n >= 2 and c0 != 0.

    Each chunk of candidates is evaluated at every a in F_p* by one Horner
    pass over a (candidates, p-1) array mod p; a = 0 is never a root, as
    c0 != 0.  Chunks start at 8 candidates and double up to _ROOT_CELLS
    values, since the search mostly ends within the first few dozen.
    """
    count = p ** (n - 1)
    places = p ** np.arange(n - 2, -1, -1, dtype=np.int64)  # c_1 is the leading place
    roots = np.arange(1, p, dtype=np.int64)
    lo, size = 0, 8
    while lo < count:
        hi = min(lo + size, count)
        coeffs = np.arange(lo, hi, dtype=np.int64)[:, None] // places % p
        values = np.ones((hi - lo, p - 1), dtype=np.int64)
        for j in range(n - 2, -1, -1):
            values *= roots
            values += coeffs[:, j, None]
            values %= p
        values *= roots
        values += c0
        values %= p
        for at in np.flatnonzero((values != 0).all(axis=1)).tolist():
            yield [c0, *coeffs[at].tolist(), 1]
        lo, size = hi, max(size, min(2 * size, _ROOT_CELLS // (p - 1)))


def least_primitive_poly(p: int, n: int) -> tuple[int, ...]:
    """Lexicographically least (by c_0..c_{n-1}) monic primitive polynomial.

    For n >= 2 the candidates with a root in F_p, which have a linear
    factor, are dropped first (see _rootless).  Below degree 4 a reducible
    polynomial has a linear factor, so a rootless one is irreducible and
    only the order of x is left to test.
    """
    for c0 in range(1, p):
        # the norm of x is (-1)^n c_0, which must generate F_p^*
        norm = (-c0) % p if n % 2 else c0
        if multiplicative_order(norm, p, p - 1) != p - 1:
            continue
        if n == 1:
            return (c0, 1)  # x + c0 has the root -c0 = norm, a generator
        for f in _rootless(c0, p, n):
            if (n <= 3 or is_irreducible(f, p)) and _x_generates(f, p):
                return tuple(f)
    raise AssertionError(f"no primitive polynomial found for p={p}, n={n}")


# ---------------------------------------------------------------------------
# field context
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Field:
    """The finite field F_{p^n} with packed-integer elements in [0, q).

    exp[t] is the element generator^t for t in [0, q-1), in point_dtype(q).
    """

    p: int
    n: int
    q: int
    modulus: tuple[int, ...]  # monic, low degree first, length n+1
    generator: int
    group: AdditiveGroup
    exp: np.ndarray = dfield(repr=False)

    # -- multiplicative ops (add and sub are the group's) ------------------
    def mul(self, a: int, b: int) -> int:
        g = self.group
        return g.pack(poly_mulmod(g.unpack(a), g.unpack(b), self.modulus, self.p))

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inversion of zero field element")
        return self.pow(a, self.q - 2)

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            a, e = self.inv(a), -e
        g = self.group
        return g.pack(poly_powmod(g.unpack(a), e, self.modulus, self.p))

    # -- cyclotomic cosets ------------------------------------------------
    def class_array(self, e: int) -> np.ndarray:
        """The e cosets of the e-th powers as an (e, f) array in exp's dtype,
        row i ascending.

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
        residues = np.arange(self.q - 1, dtype=np.int32)  # exponents fit int32 in budget
        residues %= e
        idx = np.full(self.q, -1, dtype=np.int64)
        idx[self.exp] = residues
        return idx

    def _coset_size(self, e: int) -> int:
        if e < 1 or (self.q - 1) % e != 0:
            raise ValueError(f"e={e} does not divide q-1={self.q - 1}")
        return (self.q - 1) // e


# accumulator entries (digits x columns) per doubling chunk in _exp_table:
# small enough to stay in cache, and a bound on the temporaries.  With it
# build_field(2, 20) peaks at 54 MB RSS (24.0 MB traced), with whole-table
# chunks at 79 MB (50 MB traced) and no faster
_EXP_CHUNK = 1 << 16


def _exp_table(group: AdditiveGroup, step: np.ndarray, q: int) -> np.ndarray:
    """exp[t] = g^t for t < q-1, where `step` is the digit matrix of g.

    The powers are held as digit columns, cols[l, t] = digit l of g^t, in
    the smallest dtype that holds base-1.  Multiplying by g^m is the linear
    map given by step^m, so columns [m, 2m) are columns [0, m) mapped by
    step^m (AdditiveGroup.map_columns): about log2(q) doublings.  The
    columns are packed once at the end, straight into the group's
    point_dtype (AdditiveGroup.pack_columns).  Serves rings too: with base
    p^2 and q = p^r it lists the powers of a Teichmüller generator.  Raises
    AssertionError unless g^(q-1) = 1.
    """
    cols = np.zeros((group.digits, q - 1), dtype=np.min_scalar_type(group.base - 1))
    cols[0, 0] = 1
    chunk = max(1, _EXP_CHUNK // group.digits)
    m, power = 1, step
    while m < q - 1:
        count = min(m, q - 1 - m)
        for lo in range(0, count, chunk):
            hi = min(lo + chunk, count)
            group.map_columns(power, cols[:, lo:hi], out=cols[:, m + lo : m + hi])
        m += count
        power = power @ power % group.base
    if group.pack_columns(group.map_columns(step, cols[:, -1:]))[0] != 1:
        raise AssertionError("generator order check failed during table build")
    return group.pack_columns(cols)


def _check_bijection(exp: np.ndarray, q: int) -> None:
    """Raise AssertionError unless exp hits every nonzero element; exp has
    q-1 entries, so it then hits each exactly once."""
    hit = np.zeros(q, dtype=bool)
    hit[exp] = True
    if not hit[1:].all():
        raise AssertionError("exp table is not a bijection onto the nonzero elements")


# tables kept alive by build_field and by build_ring, each: one `compare`
# builds F_{t^2} and GR(p^2, r), and a sweep over t must not keep every
# earlier table
TABLE_CACHE_SIZE = 4


def check_field_order(p: int, n: int) -> int:
    """q = p^n, the size of F_q's tables, or BudgetError past
    FIELD_ORDER_BUDGET, raised before p^n is formed when n rules it out."""
    if n >= FIELD_ORDER_BUDGET.bit_length():  # p^n >= 2^n, so not even formed
        raise BudgetError(f"field order {p}^{n} exceeds table budget {FIELD_ORDER_BUDGET}")
    q = p ** n
    if q > FIELD_ORDER_BUDGET:
        raise BudgetError(f"field order {q} exceeds table budget {FIELD_ORDER_BUDGET}")
    return q


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def build_field(p: int, n: int) -> Field:
    """Construct F_{p^n}; deterministic across runs (see module docstring)."""
    check_prime(p)
    if n < 1:
        raise ValueError("extension degree must be >= 1")
    q = check_field_order(p, n)
    modulus = least_primitive_poly(p, n)
    group = field_group(p, n)
    # companion matrix of the modulus: row i holds the digits of x * x^i, so
    # the generator is the class of x (for n = 1, the root -c_0)
    step = np.zeros((n, n), dtype=np.int64)
    step[np.arange(n - 1), np.arange(1, n)] = 1
    step[n - 1] = [(-c) % p for c in modulus[:n]]
    generator = int(group.pack_digits(step[0]))

    exp = _exp_table(group, step, q)
    _check_bijection(exp, q)
    return Field(p=p, n=n, q=q, modulus=modulus, generator=generator, group=group, exp=exp)
