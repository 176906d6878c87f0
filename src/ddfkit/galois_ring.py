"""The Galois ring GR(p^2, r): Teichmüller set, p-adic and unit decompositions.

GR(p^2, r) = Z_{p^2}[x]/<f> where f is the field modulus for F_{p^r} with its
coefficients reinterpreted modulo p^2 (a basic irreducible lift).  Elements
pack base p^2 into a single integer.  The Teichmüller set T is computed by a
single Frobenius power: starting from the residue class a of x, xi = a^{p^r}
already satisfies xi^{p^r} = xi at characteristic p^2, and T = {0} plus the
powers of xi.  Construction asserts t^{p^r} = t for every t and that T maps
bijectively onto the residue field.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dfield
from functools import lru_cache

import numpy as np

from .arith import is_prime
from .errors import BudgetError
from .fields import build_field
from .groups import AdditiveGroup, ring_group

RING_ENCODING_BUDGET = 1 << 26

TWO_SQUARE = "square-in-T*"
TWO_NONSQUARE = "nonsquare-in-T*"
TWO_NOT_IN_T = "not-in-T*"


@dataclass(frozen=True)
class UnitDecomposition:
    """u = teich_part * (1 + p * principal_part), both parts in T."""

    teich_part: int
    principal_part: int


@dataclass(frozen=True)
class GaloisRing:
    p: int
    r: int
    char: int  # p^2
    order: int  # p^(2r)
    modulus: tuple[int, ...]  # monic over Z_{p^2}, low degree first
    group: AdditiveGroup
    xi: int
    teichmuller: tuple[int, ...] = dfield(repr=False)  # [0, 1, xi, xi^2, ...]
    teich_log: dict = dfield(repr=False)  # unit t -> exponent of xi
    _teich_by_residue: dict = dfield(repr=False)  # mod-p residue digits -> t

    # -- additive ops ----------------------------------------------------
    def add(self, a: int, b: int) -> int:
        return self.group.add(a, b)

    def sub(self, a: int, b: int) -> int:
        return self.group.sub(a, b)

    def neg(self, a: int) -> int:
        return self.group.neg(a)

    # -- multiplicative ops ------------------------------------------------
    def mul(self, a: int, b: int) -> int:
        psq = self.char
        r = self.r
        ad = self.group.unpack(a)
        bd = self.group.unpack(b)
        res = [0] * (2 * r - 1)
        for i in range(r):
            if ad[i] == 0:
                continue
            for j in range(r):
                res[i + j] = (res[i + j] + ad[i] * bd[j]) % psq
        mod = self.modulus
        for i in range(2 * r - 2, r - 1, -1):
            c = res[i]
            if c == 0:
                continue
            res[i] = 0
            for j in range(r):
                res[i - r + j] = (res[i - r + j] - c * mod[j]) % psq
        return self.group.pack(res[:r])

    def pow(self, a: int, e: int) -> int:
        result = 1
        acc = a
        while e:
            if e & 1:
                result = self.mul(result, acc)
            acc = self.mul(acc, acc)
            e >>= 1
        return result

    def is_unit(self, a: int) -> bool:
        return any(d % self.p for d in self.group.unpack(a))

    def residue(self, a: int) -> int:
        """Image in the residue field F_{p^r}, packed base p."""
        out, m = 0, 1
        for d in self.group.unpack(a):
            out += (d % self.p) * m
            m *= self.p
        return out

    # -- Teichmüller structure --------------------------------------------
    @property
    def teich_size(self) -> int:
        return self.p ** self.r

    def p_adic(self, a: int) -> tuple[int, int]:
        """The unique (a0, a1) in T x T with a = a0 + p*a1."""
        a0 = self._teich_by_residue[self.residue(a)]
        rest = self.sub(a, a0)
        a1 = self._teich_by_residue[self._divide_ideal(rest)]
        return a0, a1

    def unit_decompose(self, u: int) -> UnitDecomposition:
        """The unique a0 in T*, a1 in T with u = a0 * (1 + p*a1)."""
        a0 = self._teich_by_residue[self.residue(u)]
        if a0 == 0:
            raise ValueError(f"{u} lies in the maximal ideal; not a unit")
        inv0 = self.teich_inverse(a0)
        w = self.mul(u, inv0)  # = 1 + p*a1
        a1 = self._teich_by_residue[self._divide_ideal(self.sub(w, 1))]
        if self.mul(a0, self.add(1, self.scalar_p(a1))) != u:
            raise AssertionError("unit decomposition reconstruction failed")
        return UnitDecomposition(teich_part=a0, principal_part=a1)

    def teich_inverse(self, t: int) -> int:
        e = self.teich_log[t]
        return self.teichmuller[1 + (-e) % (self.teich_size - 1)]

    def scalar_p(self, a: int) -> int:
        """p * a; stays exact in the packed base-p^2 digits."""
        digs = [d * self.p % self.char for d in self.group.unpack(a)]
        return self.group.pack(digs)

    def _divide_ideal(self, m: int) -> int:
        """For m in pR, the mod-p residue of any b with p*b = m."""
        out, mult = 0, 1
        for d in self.group.unpack(m):
            if d % self.p:
                raise ValueError("element not in the maximal ideal")
            out += (d // self.p) * mult
            mult *= self.p
        return out

    # -- squares ----------------------------------------------------------
    def square_split(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(squares, non-squares) of T*: even and odd powers of xi.

        Requires odd p and p^r >= 5.  The labels are canonical up to the
        documented modulus choice, since xi reduces to a primitive element
        of the residue field.
        """
        if self.p == 2:
            raise ValueError("square/non-square split requires odd p")
        if self.teich_size < 5:
            raise ValueError("square split requires p^r >= 5")
        units = self.teichmuller[1:]
        squares = tuple(sorted(units[t] for t in range(0, len(units), 2)))
        non_squares = tuple(sorted(units[t] for t in range(1, len(units), 2)))
        return squares, non_squares

    def coset_parity(self, units) -> np.ndarray:
        """Per unit u = xi^e * (1 + p*a): e mod 2, 0 for a square coset of T_S*.

        xi^e is the element of T with u's residue mod p, so this is a lookup
        by residue.  Raises ValueError if any entry is not a unit.
        """
        g = self.group
        pows = self.p ** np.arange(self.r, dtype=np.int64)
        residues = g.digit_matrix(np.array(self.teichmuller)) % self.p @ pows
        parity = np.full(self.teich_size, -1, dtype=np.int64)  # -1: residue 0
        parity[residues[1:]] = np.arange(self.teich_size - 1) % 2
        parity = parity[g.digit_matrix(units) % self.p @ pows]
        if (parity < 0).any():
            raise ValueError("coset parity is defined for units only")
        return parity

    def two_in_teichmuller(self) -> str:
        """Classify the ring element 2 relative to the Teichmüller group.

        2 lies in T* exactly when 2^(p-1) = 1 (mod p^2), i.e. when p is a
        Wieferich prime; membership does not depend on r.
        """
        if self.p == 2:
            raise ValueError("classification of 2 requires odd p")
        if pow(2, self.p - 1, self.char) != 1:
            return TWO_NOT_IN_T
        if 2 not in self.teich_log:
            raise AssertionError("2 passed the membership test but is not in T*")
        return TWO_SQUARE if self.teich_log[2] % 2 == 0 else TWO_NONSQUARE


@lru_cache(maxsize=None)
def build_ring(p: int, r: int) -> GaloisRing:
    """Construct GR(p^2, r); deterministic via the field modulus choice."""
    if not is_prime(p):
        raise ValueError(f"p={p} is not prime")
    if p ** r < 3:
        raise ValueError("require p^r >= 3")
    order = (p * p) ** r
    if order > RING_ENCODING_BUDGET:
        raise BudgetError(f"ring encoding space {order} exceeds budget {RING_ENCODING_BUDGET}")

    fld = build_field(p, r)
    modulus = fld.modulus  # coefficients in [0, p) reinterpreted mod p^2
    group = ring_group(p, r)

    proto = GaloisRing(p=p, r=r, char=p * p, order=order, modulus=modulus,
                       group=group, xi=0, teichmuller=(), teich_log={},
                       _teich_by_residue={})
    # residue class a of x, then one Frobenius power lifts it into T
    if r >= 2:
        a = group.pack([0, 1] + [0] * (r - 2))
    else:
        a = (-modulus[0]) % (p * p)
    xi = proto.pow(a, p ** r)

    size = p ** r
    teich = [0, 1]
    cur = 1
    for _ in range(size - 2):
        cur = proto.mul(cur, xi)
        teich.append(cur)
    if proto.mul(cur, xi) != 1:
        raise AssertionError("xi does not have order p^r - 1")
    if len(set(teich)) != size:
        raise AssertionError("Teichmüller elements are not distinct")
    for t in teich:
        if proto.pow(t, size) != t:
            raise AssertionError(f"Teichmüller check t^(p^r) = t failed for {t}")
    residues = {proto.residue(t): t for t in teich}
    if len(residues) != size:
        raise AssertionError("Teichmüller set does not map bijectively mod p")

    teich_log = {t: e for e, t in enumerate(teich[1:])}
    return GaloisRing(p=p, r=r, char=p * p, order=order, modulus=modulus,
                      group=group, xi=xi, teichmuller=tuple(teich),
                      teich_log=teich_log, _teich_by_residue=residues)
