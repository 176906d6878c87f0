"""Packed-integer encodings for the additive groups used throughout.

Elements of F_{p^n} and of GR(p^2, r) are both stored as a single integer:
the coefficient vector (c_0, ..., c_{m-1}) packs to sum(c_i * base^i), with
base = p for fields and base = p^2 for rings.  Addition in either structure
is coefficient-wise modulo base, so one small descriptor covers both and the
counting kernels never need to know which structure they are working in.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .arith import is_prime


@lru_cache(maxsize=None)
def _powers(base: int, digits: int) -> np.ndarray:
    return base ** np.arange(digits, dtype=np.int64)


@dataclass(frozen=True)
class AdditiveGroup:
    """Additive group (Z_base)^digits with packed-integer element encodings."""

    kind: str  # "field" or "ring"
    p: int
    ext: int  # extension degree: n for fields, r for rings
    base: int  # p for fields, p^2 for rings
    digits: int
    order: int

    # -- scalar element arithmetic -------------------------------------
    def pack(self, coeffs) -> int:
        v = 0
        for c in reversed(list(coeffs)):
            v = v * self.base + c % self.base
        return v

    def unpack(self, a: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.digits):
            out.append(a % self.base)
            a //= self.base
        return tuple(out)

    def add(self, a: int, b: int) -> int:
        r, m = 0, 1
        for _ in range(self.digits):
            r += ((a + b) % self.base) * m
            a //= self.base
            b //= self.base
            m *= self.base
        return r

    def sub(self, a: int, b: int) -> int:
        r, m = 0, 1
        for _ in range(self.digits):
            r += ((a - b) % self.base) * m
            a //= self.base
            b //= self.base
            m *= self.base
        return r

    def neg(self, a: int) -> int:
        return self.sub(0, a)

    def elements(self) -> range:
        return range(self.order)

    # -- vectorized arithmetic on int64 arrays -------------------------
    def digit_matrix(self, arr: np.ndarray) -> np.ndarray:
        """Unpack encodings into a trailing digit axis."""
        pows = _powers(self.base, self.digits)
        return (np.asarray(arr, dtype=np.int64)[..., None] // pows) % self.base

    def pack_digits(self, digs: np.ndarray) -> np.ndarray:
        pows = _powers(self.base, self.digits)
        return (digs % self.base * pows).sum(axis=-1)

    def add_arrays(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self.pack_digits(self.digit_matrix(a) + self.digit_matrix(b))

    def sub_arrays(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self.pack_digits(self.digit_matrix(a) - self.digit_matrix(b))


def field_group(p: int, n: int) -> AdditiveGroup:
    return AdditiveGroup("field", p, n, p, n, p ** n)


def ring_group(p: int, r: int) -> AdditiveGroup:
    return AdditiveGroup("ring", p, r, p * p, r, (p * p) ** r)


def group_for(kind: str, p: int, order: int) -> AdditiveGroup:
    """Recover a group descriptor from its kind, prime and order.

    Used when loading family files, whose header stores only v: the
    extension degree is the exact logarithm of the order.
    """
    if not is_prime(p):
        raise ValueError(f"p = {p} is not a prime")
    base = p if kind == "field" else p * p
    digits = 0
    m = 1
    while m < order:
        m *= base
        digits += 1
    if m != order or digits == 0:
        raise ValueError(f"order {order} is not a power of {base}")
    return AdditiveGroup(kind, p, digits, base, digits, order)
