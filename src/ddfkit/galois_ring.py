"""The Galois ring GR(p^2, r): Teichmüller set, p-adic and unit decompositions.

GR(p^2, r) = Z_{p^2}[x]/<f> where f is the field modulus for F_{p^r} with its
coefficients reinterpreted modulo p^2 (a basic irreducible lift).  Elements
pack base p^2 into a single integer.  The Teichmüller generator comes from a
single Frobenius power: starting from the residue class a of x, xi = a^{p^r}
already satisfies xi^{p^r} = xi at characteristic p^2.  T = {0} plus the
powers of xi, listed by doubling on digit columns (fields._exp_table),
which also checks xi^(p^r - 1) = 1.  Construction then checks that T is
distinct, that it maps bijectively onto the residue field, and that xi
times each listed power is the next, the last wrapping to 1, by one ring
product over the whole array: so every t in T has t^{p^r} = t.

A ring keeps T once, as the array `teichmuller`.  As `residue_exp` holds
-1 at residue 0, the lift of a packed mod-p residue s to T is
teichmuller[1 + residue_exp[s]], which is 0 at s = 0.  The decompositions
are lifts on arrays: a = a0 + p*a1 lifts a and (a - a0)/p, and
u = xi^e * (1 + p*a1) reads e from residue_exp and lifts
(u * xi^(-e) - 1)/p.  Each takes a scalar or an array, and raises
ValueError for an entry outside [0, order).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field as dfield
from functools import lru_cache

import numpy as np

from .arith import check_prime, wieferich
from .errors import BudgetError
from .fields import (TABLE_CACHE_SIZE, _exp_table, field_modulus, poly_mulmod,
                     poly_powmod)
from .groups import AdditiveGroup, mod, ring_group

RING_ENCODING_BUDGET = 1 << 26

TWO_SQUARE = "square-in-T*"
TWO_NONSQUARE = "nonsquare-in-T*"
TWO_NOT_IN_T = "not-in-T*"


@dataclass(frozen=True)
class GaloisRing:
    p: int
    r: int
    char: int  # p^2
    order: int  # p^(2r)
    modulus: tuple[int, ...]  # monic over Z_{p^2}, low degree first
    group: AdditiveGroup
    xi: int
    # read-only int64 (0, 1, xi, xi^2, ..., xi^(p^r - 2))
    teichmuller: np.ndarray = dfield(repr=False, compare=False)
    # read-only int32, indexed by mod-p residue: the exponent of xi of the
    # element of T with that residue, -1 at residue 0
    residue_exp: np.ndarray = dfield(repr=False, compare=False)

    # -- multiplicative ops (add and sub are the group's) ------------------
    def mul(self, a: int, b: int) -> int:
        g = self.group
        return g.pack(poly_mulmod(g.unpack(a), g.unpack(b), self.modulus, self.char))

    def mul_arrays(self, a, b) -> np.ndarray:
        """a * b, broadcast: digit convolution reduced by the modulus, mod p^2.

        Entries stay below p^2, so a product sum is at most r*(p^2-1)^2,
        below 2^52 within RING_ENCODING_BUDGET and far inside int64.
        """
        g, r, psq = self.group, self.r, self.char
        ad = g.digit_matrix(a)
        bd = g.digit_matrix(b)
        shape = np.broadcast_shapes(ad.shape[:-1], bd.shape[:-1])
        res = np.zeros(shape + (2 * r - 1,), dtype=np.int64)
        for i in range(r):
            res[..., i : i + r] += ad[..., i : i + 1] * bd
        mod(res, psq, out=res)
        low = np.array(self.modulus[:r], dtype=np.int64)  # f = x^r + sum_j low_j x^j
        for i in range(2 * r - 2, r - 1, -1):  # x^i = -sum_j low_j x^(i-r+j)
            part = res[..., i - r : i]
            part -= res[..., i : i + 1] * low
            mod(part, psq, out=part)
        return g.pack_digits(res[..., :r])[()]  # a scalar for 0-d operands

    def unit_matrix(self, u) -> np.ndarray:
        """The (r, r) digit matrices of x -> u*x, broadcast over u: row l
        holds the digits of u * x^l, by one mul_arrays against the basis."""
        basis = self.char ** np.arange(self.r, dtype=np.int64)
        return self.group.digit_matrix(self.mul_arrays(np.asarray(u)[..., None], basis))

    def pow(self, a: int, e: int) -> int:
        g = self.group
        return g.pack(poly_powmod(g.unpack(a), e, self.modulus, self.char))

    def residue(self, a) -> np.ndarray:
        """Images in the residue field F_{p^r}, packed base p, of a scalar or
        an array: the sum of (digit l mod p) * p^l, one pass per digit."""
        a = np.asarray(a, dtype=np.int64)
        out = mod(a, self.p)
        for ell in range(1, self.r):
            out += mod(a // self.char ** ell, self.p) * self.p ** ell
        return out

    def is_unit(self, a: int) -> bool:
        return any(d % self.p for d in self.group.unpack(a))

    # -- Teichmüller structure --------------------------------------------
    @property
    def teich_size(self) -> int:
        return self.p ** self.r

    def _elements(self, a) -> np.ndarray:
        """a as an int64 array, or ValueError unless every entry lies in
        [0, order), checked before the cast so a wide int cannot wrap."""
        a = np.asarray(a)
        if a.size and (a.min() < 0 or a.max() >= self.order):
            raise ValueError(f"ring elements must lie in [0, {self.order})")
        return a.astype(np.int64, copy=False)

    def _unit_exps(self, u) -> np.ndarray:
        """Per unit u: the exponent e with u = xi^e * (1 + p*a), the entry of
        residue_exp at u's residue; ValueError if an entry is not a unit."""
        exps = self.residue_exp[self.residue(self._elements(u))]
        if (exps < 0).any():
            raise ValueError("entry lies in the maximal ideal pR; not a unit")
        return exps

    def _lift(self, a) -> np.ndarray:
        """Per entry of a: the element of T congruent to it mod p, by the lift."""
        return self.teichmuller[1 + self.residue_exp[self.residue(a)]]

    def p_adic(self, a):
        """The unique (a0, a1) in T x T with a = a0 + p*a1, entrywise.

        a - a0 lies in pR, with digits p times those of a1 mod p, so
        (a - a0) // p packs a1's residue digits base p^2.
        """
        a = self._elements(a)
        a0 = self._lift(a)
        return a0[()], self._lift(self.group.sub_arrays(a, a0) // self.p)[()]

    def unit_decompose(self, u):
        """The unique a0 in T*, a1 in T with u = a0 * (1 + p*a1), entrywise;
        a0^-1 = xi^(-e) for a0 = xi^e."""
        exps = self._unit_exps(u)
        inv0 = self.teichmuller[1 + mod(-exps, self.teich_size - 1)]
        w = self.mul_arrays(u, inv0)  # 1 + p*a1: digit 0 is at least 1, so w - 1 never borrows
        return self.teichmuller[1 + exps][()], self._lift((w - 1) // self.p)[()]

    # -- squares ----------------------------------------------------------
    def square_split(self) -> tuple[np.ndarray, np.ndarray]:
        """(squares, non-squares) of T*, each sorted: even and odd powers of xi.

        Requires odd p and p^r >= 5.  The labels are canonical up to the
        documented modulus choice, since xi reduces to a primitive element
        of the residue field.
        """
        if self.p == 2:
            raise ValueError("square/non-square split requires odd p")
        if self.teich_size < 5:
            raise ValueError("square split requires p^r >= 5")
        units = self.teichmuller[1:]
        return np.sort(units[0::2]), np.sort(units[1::2])

    def coset_parity(self, units) -> np.ndarray:
        """Per unit u = xi^e * (1 + p*a): e mod 2, 0 for a square coset of T_S*.

        Raises ValueError if any entry is not a unit.
        """
        return mod(self._unit_exps(units), 2)

    def two_in_teichmuller(self) -> str:
        """Classify the ring element 2 relative to the Teichmüller group.

        2 lies in T* exactly when p is a Wieferich prime; membership does
        not depend on r.  Its parity is that of residue_exp at 2's residue.
        """
        if self.p == 2:
            raise ValueError("classification of 2 requires odd p")
        if not wieferich(self.p):
            return TWO_NOT_IN_T
        e = self.residue_exp[self.residue(2)]
        if self.teichmuller[1 + e] != 2:
            raise AssertionError("2 passed the Wieferich test but is not in T*")
        return TWO_SQUARE if e % 2 == 0 else TWO_NONSQUARE


def check_ring_order(p: int, r: int) -> int:
    """p^(2r), the encoding space of GR(p^2, r), or BudgetError past
    RING_ENCODING_BUDGET, raised before p^(2r) is formed when r rules it out."""
    if 2 * r >= RING_ENCODING_BUDGET.bit_length():  # p^(2r) >= 4^r, so not even formed
        raise BudgetError(f"ring encoding space {p}^{2 * r} exceeds budget {RING_ENCODING_BUDGET}")
    order = (p * p) ** r
    if order > RING_ENCODING_BUDGET:
        raise BudgetError(f"ring encoding space {order} exceeds budget {RING_ENCODING_BUDGET}")
    return order


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def build_ring(p: int, r: int) -> GaloisRing:
    """Construct GR(p^2, r); deterministic via the field modulus choice."""
    check_prime(p)
    order = check_ring_order(p, r)
    if p ** r < 3:
        raise ValueError("require p^r >= 3")
    modulus = field_modulus(p, r)  # coefficients in [0, p) reinterpreted mod p^2
    group = ring_group(p, r)

    proto = GaloisRing(p=p, r=r, char=p * p, order=order, modulus=modulus,
                       group=group, xi=0, teichmuller=np.empty(0, dtype=np.int64),
                       residue_exp=np.empty(0, dtype=np.int32))
    # residue class a of x, then one Frobenius power lifts it into T
    if r >= 2:
        a = group.pack([0, 1] + [0] * (r - 2))
    else:
        a = (-modulus[0]) % (p * p)
    xi = proto.pow(a, p ** r)

    teich = _teichmuller_set(proto, xi)
    residue_exp = np.full(teich.size, -1, dtype=np.int32)
    residue_exp[proto.residue(teich[1:])] = np.arange(teich.size - 1)
    teich.flags.writeable = residue_exp.flags.writeable = False  # the cached ring is shared
    return dataclasses.replace(proto, xi=xi, teichmuller=teich, residue_exp=residue_exp)


def _teichmuller_set(ring: GaloisRing, xi: int) -> np.ndarray:
    """T = (0, 1, xi, xi^2, ..., xi^(p^r - 2)) as an int64 array.

    The powers are listed by doubling with xi's digit matrix
    (GaloisRing.unit_matrix), which raises AssertionError unless
    xi^(p^r - 1) = 1; T is then checked by _check_teichmuller.
    """
    teich = np.concatenate(([0], _exp_table(ring.group, ring.unit_matrix(xi), ring.teich_size)))
    _check_teichmuller(ring, teich)
    return teich


def _check_teichmuller(ring: GaloisRing, teich: np.ndarray) -> None:
    """Raise AssertionError unless `teich` is (0, 1, xi, ..., xi^(p^r - 2))
    with xi = teich[2], the Teichmüller set.

    Its p^r elements must be distinct and map bijectively onto the residue
    field, and one GaloisRing.mul_arrays product must move each unit to the
    next on multiplying by xi, the last to 1: so xi^(p^r - 1) = 1, and
    t^(p^r) = t for every t.
    """
    size = ring.teich_size
    ascending = np.sort(teich)
    if teich.size != size or (ascending[1:] == ascending[:-1]).any():
        raise AssertionError("Teichmüller elements are not distinct")
    if (np.bincount(ring.residue(teich), minlength=size) != 1).any():
        raise AssertionError("Teichmüller set does not map bijectively mod p")
    if teich[0] != 0 or teich[1] != 1:
        raise AssertionError("Teichmüller set does not start 0, 1")
    units = teich[1:]
    bad = np.flatnonzero(ring.mul_arrays(units[1], units) != np.roll(units, -1))
    if bad.size:
        raise AssertionError(f"Teichmüller check xi * t = next failed for {int(units[bad[0]])}")
