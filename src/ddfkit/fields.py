"""Finite field F_{p^n} with its power table and cyclotomic cosets.

The modulus is the lexicographically least monic primitive polynomial of
degree n over F_p, ordered by its coefficient sequence (c_0, ..., c_{n-1}).
This fixed choice makes every downstream artifact (families, profiles,
exported files) reproducible byte for byte; any other primitive polynomial
would give isomorphic structures.  The search tests the order of x, which
alone decides primitivity, on chunks of candidates at once by
square-and-multiply on stacked companion matrices.  The class of x is the
stored generator, and the table exp of its powers is precomputed in
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
from .errors import check_power_budget
from .groups import AdditiveGroup, digit_columns, field_group

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


# The largest chunk of _rootless, 512 KB of int64 each: candidates times
# roots, and candidates times n^2 in the companion matrices its order test
# stacks (uncapped, a chunk at (2, 20) would stack 65536 of them, 210 MB)
_ROOT_CELLS = _ORDER_CELLS = 1 << 16


def _rootless(c0: int, p: int, n: int):
    """Yield (m, n+1) int64 arrays of the monic [c0, c_1, ..., c_(n-1), 1]
    with no root in F_p, in lexicographic order of (c_1, ..., c_(n-1)),
    for n >= 2 and c0 != 0.

    Each chunk of candidates is evaluated at every a in F_p* by one
    product with the powers a^i mod p (sums below (n+1)*(p-1)^2); a = 0
    is never a root, as c0 != 0.  Chunks start at 8 candidates and double
    up to _ROOT_CELLS values and _ORDER_CELLS companion-matrix entries,
    since the search mostly ends within the first few dozen.
    """
    count = p ** (n - 1)
    a = np.arange(max(p, n + 1), dtype=np.int64)
    places = p ** a[n - 2 :: -1]  # c_1 is the leading place
    powers = a[1:p] ** a[: n + 1, None]
    powers %= p  # row i: a^i for a in F_p*; a^n < p^n fits int64 within the budgets
    lo, size, top = 0, 8, min(_ROOT_CELLS // (p - 1), _ORDER_CELLS // (n * n))
    while lo < count:
        hi = min(lo + size, count)
        polys = np.empty((hi - lo, n + 1), dtype=np.int64)
        polys[:, 0], polys[:, n] = c0, 1
        np.floor_divide(np.arange(lo, hi, dtype=np.int64)[:, None], places, out=polys[:, 1:n])
        polys[:, 1:n] %= p
        values = polys @ powers
        values %= p
        # rows with no zero, by a list scan: on the small chunks where searches
        # end it beats numpy's all(), whose first call in a process costs more
        yield polys[[0 not in row for row in values.tolist()]]
        lo, size = hi, max(size, min(2 * size, top))


def _x_has_full_order(polys: np.ndarray, p: int) -> list[bool]:
    """For an (m, n+1) array of monic f over F_p with f(0) != 0, whether x
    has order q-1 = p^n - 1 modulo each f: exactly when f is primitive, as
    a reducible f leaves fewer than q-1 units.

    The digits of x^e are e_0 C^e for the companion matrix C (row i: the
    digits of x * x^i).  Per f, a stack holds C^(2^k) in rows [0, n) and
    the digits of x^(e_j mod 2^k) in row n + j, for e_j = q-1 and (q-1)/l,
    l a prime divisor of q-1.  Each step multiplies the stack by its first
    n rows (int64 mod p, sums below n*(p-1)^2 < 2^41 within the budget)
    and keeps the old power rows whose bit k is clear.
    """
    m, n = polys.shape[0], polys.shape[1] - 1
    q1 = p ** n - 1
    exps = [q1] + [q1 // ell for ell in prime_divisors(q1)]
    rows = n + len(exps)
    # the stack is linear in the coefficients: row n-1 of C is -c_i =
    # (p-1)*c_i mod p, and the leading 1 puts the ones above C's diagonal
    # and the digits of x^0 in each power row
    build = np.zeros((n + 1, rows, n), dtype=np.int64)
    for i in range(n):
        build[i, n - 1, i] = p - 1
    for i in range(n - 1):
        build[n, i, i + 1] = 1
    build[n, n:, 0] = 1
    stack = (polys @ build.reshape(n + 1, rows * n) % p).reshape(m, rows, n)
    keeps = np.array([[[e >> k & 1 == 0] for e in exps] for k in range(q1.bit_length())])
    for keep in keeps:  # keep[j]: bit k of e_j is clear
        step = stack @ stack[:, :n]
        step %= p
        np.copyto(step[:, n:], stack[:, n:], where=keep)
        stack = step
    one = [1] + [0] * (n - 1)
    return [pw[0] == one and one not in pw[1:] for pw in stack[:, n:].tolist()]


def least_primitive_poly(p: int, n: int) -> tuple[int, ...]:
    """Lexicographically least (by c_0..c_{n-1}) monic primitive polynomial.

    For n >= 2 the candidates with a root in F_p are dropped first (see
    _rootless), and each chunk of the rest gets one batched order test of
    x (see _x_has_full_order), which alone decides primitivity.
    """
    for c0 in range(1, p):
        # the norm of x is (-1)^n c_0, which must generate F_p^*
        norm = (-c0) % p if n % 2 else c0
        if multiplicative_order(norm, p, p - 1) != p - 1:
            continue
        if n == 1:
            return (c0, 1)  # x + c0 has the root -c0 = norm, a generator
        for polys in _rootless(c0, p, n):
            for f, primitive in zip(polys.tolist(), _x_has_full_order(polys, p)):
                if primitive:
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

    def unit_matrix(self, j) -> np.ndarray:
        """The (n, n) digit matrices of x -> g^j * x, broadcast over j: row l
        is g^j * x^l = exp[(j + l) mod (q-1)], as the generator g is the
        class of x (for n = 1 the one row is g^j)."""
        rows = self.exp[(np.asarray(j)[..., None] + np.arange(self.n)) % (self.q - 1)]
        return digit_columns(rows, self.p, self.n, np.int64).T.reshape(rows.shape + (self.n,))

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
# builds F_t and GR(p^2, r), and a sweep over t must not keep every
# earlier table
TABLE_CACHE_SIZE = 4


def check_field_order(p: int, n: int) -> int:
    """q = p^n, the size of F_q's tables, or BudgetError past
    FIELD_ORDER_BUDGET, raised before p^n is formed when n rules it out
    (errors.check_power_budget)."""
    check_power_budget("field order", FIELD_ORDER_BUDGET, "elements (p^n)", p, n)
    return p ** n


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def field_modulus(p: int, n: int) -> tuple[int, ...]:
    """least_primitive_poly(p, n), cached: build_field(p, n) and
    build_ring(p, n) share it, and compare builds both."""
    return least_primitive_poly(p, n)


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def build_field(p: int, n: int) -> Field:
    """Construct F_{p^n}; deterministic across runs (see module docstring)."""
    check_prime(p)
    if n < 1:
        raise ValueError("extension degree must be >= 1")
    q = check_field_order(p, n)
    modulus = field_modulus(p, n)
    group = field_group(p, n)
    # companion matrix of the modulus: row i holds the digits of x * x^i, so
    # the generator is the class of x (for n = 1, the root -c_0)
    step = np.zeros((n, n), dtype=np.int64)
    step[np.arange(n - 1), np.arange(1, n)] = 1
    step[n - 1] = [(-c) % p for c in modulus[:n]]
    generator = group.pack(step[0].tolist())

    exp = _exp_table(group, step, q)
    _check_bijection(exp, q)
    return Field(p=p, n=n, q=q, modulus=modulus, generator=generator, group=group, exp=exp)
