"""Packed-integer encodings for the additive groups used throughout.

Elements of F_{p^n} and of GR(p^2, r) are both stored as a single integer:
the coefficient vector (c_0, ..., c_{m-1}) packs to sum(c_i * base^i), with
base = p for fields and base = p^2 for rings.  Addition in either structure
is coefficient-wise modulo base, so one small descriptor covers both and the
counting kernels never need to know which structure they are working in.

On arrays, addition and subtraction use the carry/borrow form: a + b is the
integer sum minus base^(l+1) for every digit l with a_l + b_l >= base, and
a - b the integer difference plus base^(l+1) for every digit l with
a_l < b_l.  Digits are taken from each operand before broadcasting, so no
digit matrix of the broadcast shape is built.

Residues of arrays follow one rule: `mod` takes a mod m as a - m*(a // m),
and `floor_divmod` returns the quotient with it for digit loops to carry.
numpy divides an integer array by a scalar on a fast path that `%`,
np.remainder and np.divmod lack.  Per 16,384 elements (numpy 2.4, one
core):

    dtype    a % m    np.divmod    a // m    a - m*(a // m)
    uint32   41 µs    43 µs        3.5 µs    10 µs
    int64    66 µs    67 µs        15 µs     27 µs

Below about 700 entries `%` is one numpy call against three, so arrays
bounded by n, r or a search chunk keep `%`, as do Python ints.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .arith import check_prime


def point_dtype(v: int) -> np.dtype:
    """The dtype of an array of elements of a group of order v: the
    narrowest unsigned dtype that holds v-1, uint8 to uint32, else int64
    (numpy promotes uint64 with int64 to float64, and bincount refuses
    uint64)."""
    return np.min_scalar_type(v - 1) if v <= 1 << 32 else np.dtype(np.int64)


def check_rows(rows, v: int) -> np.ndarray:
    """Block rows as a read-only (n, k) array in point_dtype(v), a view when
    they already are in it, so the caller's array stays writable.

    Raises ValueError unless the values as given, before any cast could
    wrap one, form a 2-D integer array with every entry in [0, v) and every
    row strictly ascending, so a set.  Neighbours are compared, not
    subtracted, as a difference would wrap in an unsigned dtype.
    """
    rows = np.asarray(rows)
    if rows.ndim != 2 or rows.dtype.kind not in "iu":
        raise ValueError("blocks must form a 2-D integer array, one row per block")
    if rows.size and (rows.min() < 0 or int(rows.max()) >= v):
        raise ValueError("block entry out of range")
    if (rows[:, 1:] <= rows[:, :-1]).any():
        raise ValueError("every block must have k distinct entries in ascending order")
    rows = rows.astype(point_dtype(v), copy=False).view()
    rows.flags.writeable = False
    return rows


def floor_divmod(a, m: int, out=None):
    """(a // m, a mod m) for an integer array (or scalar) a and an integer
    m > 0, as np.divmod gives them, the residue taken as a - m*(a // m):
    exact under numpy's floor division, negative entries included.  `out`
    may be `a` itself, or narrower than a's dtype: the residue, in [0, m),
    is cast unchecked, so exactly wherever m fits out's dtype."""
    quot = a // m
    return quot, np.subtract(a, quot * m, out=out, casting="unsafe")


def mod(a, m: int, out=None):
    """a mod m, as np.remainder gives it, by floor_divmod's rule; the
    quotient is not kept, so its multiple is formed in place."""
    quot = a // m
    quot *= m
    return np.subtract(a, quot, out=out, casting="unsafe")


_DIGIT_CHUNK = 1 << 16  # entries per pass of digit_columns: int64 quotients take 0.5 MB


def digit_columns(x, base: int, digits: int, dtype=None) -> np.ndarray:
    """The (digits, x.size) digit columns of encodings: row l is digit l of
    each entry of x, flattened, in `dtype` (by default the narrowest that
    holds base - 1).  One floor_divmod per digit, the quotient carried and
    the residue written into its row, _DIGIT_CHUNK entries at a time."""
    flat = np.ravel(x)
    if dtype is None:
        dtype = np.min_scalar_type(base - 1)
    cols = np.empty((digits, flat.size), dtype=dtype)
    for lo in range(0, flat.size, _DIGIT_CHUNK):
        rest = flat[lo : lo + _DIGIT_CHUNK]
        for row in cols[:, lo : lo + _DIGIT_CHUNK]:
            rest = floor_divmod(rest, base, out=row)[0]
    return cols


@lru_cache(maxsize=None)
def _powers(base: int, digits: int) -> np.ndarray:
    return base ** np.arange(digits, dtype=np.int64)


@dataclass(frozen=True)
class AdditiveGroup:
    """Additive group (Z_base)^digits with packed-integer element encodings."""

    kind: str  # "field" or "ring"
    p: int
    base: int  # p for fields, p^2 for rings
    digits: int  # the extension degree: n for fields, r for rings
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

    # -- vectorized arithmetic on int64 arrays -------------------------
    def digit_matrix(self, arr: np.ndarray) -> np.ndarray:
        """Unpack encodings into a trailing digit axis."""
        rest = np.asarray(arr, dtype=np.int64)
        out = np.empty(rest.shape + (self.digits,), dtype=np.int64)
        for ell in range(self.digits):
            rest = floor_divmod(rest, self.base, out=out[..., ell])[0]
        return out

    def pack_digits(self, digs: np.ndarray) -> np.ndarray:
        pows = _powers(self.base, self.digits)
        return mod(digs, self.base) @ pows

    # -- digit columns: cols[..., l, s] is digit l of element s ----------
    def map_columns(self, matrix: np.ndarray, cols: np.ndarray, out=None) -> np.ndarray:
        """Digit columns of the images of `cols` under linear maps, mod base.

        matrix[..., l, :] holds the digits of the image of base^l, so digit j
        of an image is sum_l matrix[..., l, j] * cols[l] mod base: one
        broadcast multiply-add per digit l, over every map in the leading
        axes at once.  cols has shape (digits, w) and entries below base;
        the result has shape matrix.shape[:-2] + (digits, w) and cols'
        dtype, or is written into `out`.  A sum is at most
        digits*(base-1)^2 (below 2^52 under the field and ring budgets), so
        it accumulates in the narrowest unsigned dtype that holds that bound:
        uint8 for F_(2^n), uint16 for F_(23^4), uint64 for GR(8191^2, 1).
        """
        base, n = self.base, self.digits
        acc_dtype = np.min_scalar_type(n * (base - 1) ** 2)
        coeffs = np.asarray(matrix).astype(acc_dtype)[..., None]
        acc = coeffs[..., 0, :, :] * cols[0]
        for ell in range(1, n):
            acc += coeffs[..., ell, :, :] * cols[ell]
        if out is None:
            out = np.empty(acc.shape, dtype=cols.dtype)
        return mod(acc, base, out=out)

    def pack_columns(self, cols: np.ndarray) -> np.ndarray:
        """The encodings of digit columns (digits on axis -2), by Horner, in
        point_dtype(order): every partial value is an encoding too."""
        packed = cols[..., -1, :].astype(point_dtype(self.order))
        for ell in range(self.digits - 2, -1, -1):
            packed *= self.base
            packed += cols[..., ell, :]
        return packed

    def linear_image(self, matrix: np.ndarray, x) -> np.ndarray:
        """The images of an array of encodings under the linear maps of a
        stack of digit matrices (see map_columns), in point_dtype(order)
        and shape matrix.shape[:-2] + x.shape."""
        cols = digit_columns(x, self.base, self.digits)
        images = self.pack_columns(self.map_columns(matrix, cols))
        return images.reshape(np.shape(matrix)[:-2] + np.shape(x))

    def add_arrays(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """a + b, broadcast: the integer sum less base^(l+1) per carrying digit l."""
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        out = np.asarray(a + b)
        for pow_l in _powers(self.base, self.digits).tolist():
            b_l = mod(b // pow_l, self.base)
            if b_l.any():  # digit l carries only where b_l > 0
                np.subtract(out, pow_l * self.base, out=out,
                            where=mod(a // pow_l, self.base) >= self.base - b_l)
        return out[()]  # a scalar for 0-d operands

    def sub_arrays(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """a - b, broadcast: the integer difference plus base^(l+1) per borrowing digit l."""
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        out = np.asarray(a - b)
        for pow_l in _powers(self.base, self.digits).tolist():
            b_l = mod(b // pow_l, self.base)
            if b_l.any():  # digit l borrows only where b_l > 0
                np.add(out, pow_l * self.base, out=out, where=mod(a // pow_l, self.base) < b_l)
        return out[()]  # a scalar for 0-d operands

    def difference_counts(self, left, right) -> np.ndarray:
        """counts[d] = #{(u, w) in left x right : u - w = d}, pairs u = w left out."""
        d = self.sub_arrays(np.asarray(left)[:, None], np.asarray(right)[None, :])
        counts = np.bincount(d.ravel(), minlength=self.order)
        counts[0] = 0  # u - w = 0 exactly when u = w
        return counts


def field_group(p: int, n: int) -> AdditiveGroup:
    return AdditiveGroup("field", p, p, n, p ** n)


def ring_group(p: int, r: int) -> AdditiveGroup:
    return AdditiveGroup("ring", p, p * p, r, (p * p) ** r)


def group_for(kind: str, p: int, order: int) -> AdditiveGroup:
    """Recover a group descriptor from its kind, prime and order.

    Used when loading family files, whose header stores only v: the
    extension degree is the exact logarithm of the order.
    """
    check_prime(p)
    base = p if kind == "field" else p * p
    digits = 0
    m = 1
    while m < order:
        m *= base
        digits += 1
    if m != order or digits == 0:
        raise ValueError(f"order {order} is not a power of {base}")
    return AdditiveGroup(kind, p, base, digits, order)
