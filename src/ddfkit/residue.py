"""Cell histograms of the four coset constructions from tables of size t.

The blocks of wilson, wilson-half, gr-teichmuller and gr-squares at
t = p^r are cosets of a subgroup that the residue field F_t describes, so
the block holding x - d is one F_t expression in x's coordinates.  The
histogram of the cells N_d(i, j) = #{x in D_i : x - d in D_j} (see
designs.profile_via_differences) is then built without a family, a
point->block table or any array of t^2 entries: every table here has t
entries.  This module yields strips of rows, the blocks of x - d; the
kernel's cell_hist counts their cells, about _kernels._CHUNK at a time.

F_t is taken by logs to the generator g of build_field(p, r): `exp`,
its inverse `log`, and the Zech table Z[m] = log(1 + g^m), so that
log(g^a + g^b) = a + Z[b - a] is one lookup.  A log lies in [0, n),
n = t - 1, and the log of 0 is the sentinel 2n, which no sum of two logs
reaches.

Rings, GR(p^2, r) with Teichmüller set T and H = T* or one of its square
classes.  A unit u = tau*(1 + p*gamma), tau in T*, gamma in T, lies in
the block (1 + p*gamma)*H of tau's part; p*tau lies in p*(tau's part).
For s = xi^m != 1, s - 1 = xi^(e_m)*(1 + p*gamma_m), from one
GaloisRing.unit_decompose of the t - 2 elements s - 1 and of -1
(ring_tables, which certify's coset tallies read too).  For x
in row (alpha, H), x = s*(1 + p*alpha), or in row p*H, x = p*s:

  d = 1:  x - 1 = xi^(e_m)*(1 + p*beta), beta = gamma_m + alpha*s/(s - 1);
          at s = 1, x - 1 = p*alpha, in p*(alpha's part) or no block;
          in row p*H, x - 1 = -1 + p*s, whose beta is gamma_(-1) + s/xi^(e_(-1))
          (-s for odd p, where -1 lies in T);
  d = p:  x - p = s*(1 + p*(alpha - 1/s)), in x's own part;
          in row p*H, x - p = p*(s - 1), in p*(the part of xi^(e_m)) or,
          at s = 1, no block.

Every unit's orbit has the histogram of d = 1 and every nonzero d in pR
that of d = p, as every unit permutes the blocks.

Fields, F_(t^2) = F_t(theta) with theta primitive, found by an order test
on its powers theta^0 ... theta^(t+1) (see _line_classes).  Every x
outside F_t is b*(c + theta), b in F_t*, c in F_t, of class
(t + 1)*chi(b) + L(c) mod 2(t + 1), chi the quadratic-character bit and
L(c) = log_theta(c + theta), read off those powers; x in F_t* has class
(t + 1)*chi(x).  And x - 1 = b*((c - 1/b) + theta), so the class of
x - 1 is one Zech lookup and one lookup in L.  wilson's classes are
these mod t + 1.  The labels differ from build_field(p, 2r)'s by an
automorphism of Z_e, which leaves the histogram as it is.  Every unit
permutes the blocks, so d = 1 stands for all of F*.

find_cell finds the first cell of a ring construction that holds a
given N, for certify to re-count by ring products.  The tests compare
each histogram with _kernels.diff_cell_hist's on the constructed
families, per d (tests/route_sweep.py): the strips are all that differs.
The arrays here have at most t entries and are built once per
construction and d, so they keep `%` (one numpy call, against three for
groups.mod); a strip reduces no sum of logs, as the sums index doubled
tables.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd
from typing import NamedTuple

import numpy as np

from . import _kernels
from .arith import check_prime
from .errors import check_power_budget
from .fields import TABLE_CACHE_SIZE, build_field
from .galois_ring import GaloisRing, build_ring

# block elements t^2 of a construction, about b*k: each d takes one pass
# over them.  `ddf compare` at t = 8191, the largest prime under the cap,
# took 5.4 s and 35 MB of peak RSS on a 2-vCPU Xeon VM
TABLE_WORK_BUDGET = 1 << 26

CONSTRUCTIONS = ("wilson", "wilson-half", "gr-teichmuller", "gr-squares")


class Construction(NamedTuple):
    """One of CONSTRUCTIONS at t = p^r, with its family's parameters."""

    name: str
    p: int
    r: int
    t: int
    v: int
    b: int
    k: int
    lam: int


def construction(name: str, p: int, r: int) -> Construction:
    """The construction `name` at (p, r), refused as its builder refuses it.

    The checks, and their messages, are those of building the family
    (build_field(p, 2r) or build_ring(p, r), then the family), but for the
    table caps: one cap, TABLE_WORK_BUDGET on t^2, is checked first, from
    the exponent alone where 2r rules it out, so p^r is never formed then.
    """
    if name not in CONSTRUCTIONS:
        raise ValueError(f"unknown construction {name!r}; choose from {', '.join(CONSTRUCTIONS)}")
    check_prime(p)
    ring = name.startswith("gr-")
    if r < 1:
        raise ValueError("require p^r >= 3" if ring else "extension degree must be >= 1")
    check_power_budget("compare", TABLE_WORK_BUDGET, "block elements (t^2)", p, 2 * r)
    t = p ** r
    if ring and t < 3:
        raise ValueError("require p^r >= 3")
    if name == "wilson-half" and p == 2:
        raise ValueError(f"e={2 * (t + 1)} does not divide q-1={t * t - 1}")
    if name == "gr-squares" and p == 2:
        raise ValueError("square/non-square split requires odd p")
    if name == "gr-squares" and t < 5:
        raise ValueError("square split requires p^r >= 5")
    if t < (5 if name == "wilson-half" else 3):  # the family's f = (q-1)/e < 2
        raise ValueError("require f = (q-1)/e >= 2")
    parts = 2 if name.endswith("half") or name.endswith("squares") else 1
    k = (t - 1) // parts
    return Construction(name=name, p=p, r=r, t=t, v=t * t, b=parts * (t + 1), k=k, lam=k - 1)


# ---------------------------------------------------------------------------
# F_t by logs
# ---------------------------------------------------------------------------

class ResidueField(NamedTuple):
    """F_t by logs to the generator g of build_field(p, r).

    exp[j] = g^j packed, j in [0, n), n = t - 1; log[x] its inverse, with
    log[0] = 2n; zech[m] = log(1 + g^(m mod n)) for m in [0, 2n), doubled
    so an index a + b of two logs needs no reduction, 2n where 1 + g^m = 0;
    minus_one = log(-1).
    """

    p: int
    t: int
    n: int
    exp: np.ndarray
    log: np.ndarray
    zech: np.ndarray
    minus_one: int


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def residue_field(p: int, r: int) -> ResidueField:
    field = build_field(p, r)
    t, n = field.q, field.q - 1
    exp = field.exp.astype(np.int64)
    log = np.empty(t, dtype=np.int64)
    log[exp] = np.arange(n)
    log[0] = 2 * n
    one_more = exp + 1  # 1 + g^m adds 1 to digit 0, mod p
    one_more[exp % p == p - 1] -= p
    zech = np.tile(log[one_more], 2)
    for table in (exp, log, zech):
        table.flags.writeable = False  # the cached tables are shared
    return ResidueField(p=p, t=t, n=n, exp=exp, log=log, zech=zech,
                        minus_one=0 if p == 2 else n // 2)


def _reduce_table(values: np.ndarray, at_zero) -> np.ndarray:
    """A table over [0, 3n) for a table `values` over the logs [0, n): entry
    v is values[v mod n] below 2n, where a + zech[...] lands for a log a,
    and `at_zero` from 2n on, where it lands when the sum is 0."""
    n = values.size
    return np.concatenate((values, values, np.full(n, at_zero, dtype=np.int64)))


# ---------------------------------------------------------------------------
# rings
# ---------------------------------------------------------------------------

class RingTables(NamedTuple):
    """Per m in [0, n), for s = xi^m: e[m] and G[m] = log of gamma_m's
    residue with s - 1 = xi^(e_m)*(1 + p*gamma_m) (entry 0 unused); and
    e_neg, G_neg for -1 = xi^(e_neg)*(1 + p*gamma_neg)."""

    e: np.ndarray
    G: np.ndarray
    e_neg: int
    G_neg: int


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def ring_tables(ring: GaloisRing) -> RingTables:
    """The decompositions of xi^m - 1 and of -1 in `ring`, by logs in
    residue_field(p, r), from one GaloisRing.unit_decompose of the t - 1
    elements; the cell tables here and certify's coset tallies read them."""
    F = residue_field(ring.p, ring.r)
    if not np.array_equal(ring.residue(ring.teichmuller[1:]), F.exp):
        raise AssertionError("xi does not reduce to the generator of F_t")
    units = ring.group.sub_arrays(np.append(ring.teichmuller[2:], 0), 1)  # xi^m - 1, then -1
    a0, a1 = ring.unit_decompose(units)
    e, G = F.log[ring.residue(a0)], F.log[ring.residue(a1)]
    return RingTables(e=np.concatenate(([0], e[:-1])), G=np.concatenate(([0], G[:-1])),
                      e_neg=int(e[-1]), G_neg=int(G[-1]))


def _ring_part(c: Construction, F: ResidueField, d: int, h: int, col_of: np.ndarray):
    """Yield (first block, cols) strips of part h's rows at d = 1 or d = p,
    cols[i] the blocks of x - d for the x of row i; part h's block a is h*(t + 1) + a.

    Row a < t of a part is (1 + p*alpha)*H_h for alpha of index a in T
    order (0, 1, xi, ...), so log(alpha bar) = a - 1, the zero sentinel
    at a = 0; row t is p*H_h.  A unit's block, for beta of log l, is index
    col_of[l] = l + 1 in its part (0 for beta = 0); a block of pR is index
    t.
    """
    tabs = ring_tables(build_ring(c.p, c.r))
    t, n, b = c.t, F.n, c.b
    parts = b // (t + 1)
    zech, zero = F.zech, 2 * n
    m = np.arange(h, n, parts)  # H_h = {xi^m}
    em, Gm = tabs.e[m], tabs.G[m]
    part_of = em % parts * (t + 1)  # the part of xi^(e_m), as a block offset
    if d == 1:
        gz = Gm == zero
        base = np.where(gz, 0, Gm)
        offset = (m - em - base) % n
        y0 = (m - em) % n

        def general(la):
            cols = col_of[base + zech[la[:, None] + offset]]
            if gz.any():
                cols[:, gz] = col_of[la[:, None] + y0[gz]]
            cols += part_of
            if h == 0:  # s = 1: x - 1 = p*alpha
                cols[:, 0] = la % parts * (t + 1) + t
            return cols

        first = part_of + col_of[Gm]  # alpha = 0: beta = gamma_m
        y = (m - tabs.e_neg) % n
        if tabs.G_neg == zero:
            last = col_of[y]
        else:
            last = col_of[tabs.G_neg + zech[(y - tabs.G_neg) % n]]
        last += tabs.e_neg % parts * (t + 1)
        if h == 0:
            first[0] = b  # x - 1 = 0
    else:
        u = (F.minus_one - m) % n  # log(-1/s)

        def general(la):
            cols = col_of[la[:, None] + zech[u + (n - la)[:, None]]]
            cols += h * (t + 1)
            return cols

        first = h * (t + 1) + 1 + u  # alpha = 0: beta = -1/s
        last = part_of + t  # p*(s - 1)
        if h == 0:
            last[0] = b  # x - p = 0

    for lo, hi in _kernels.row_ranges(t + 1, b + 1):
        cols = np.empty((hi - lo, m.size), dtype=np.int64)
        top, bottom = max(lo, 1), min(hi, t)
        if top < bottom:
            cols[top - lo : bottom - lo] = general(np.arange(top - 1, bottom - 1))
        if lo == 0:
            cols[0] = first
        if hi == t + 1:
            cols[-1] = last
        yield h * (t + 1) + lo, cols


def _ring_strips(c: Construction, d: int):
    """Yield (first block, cols) strips of the cell table at d = 1 or d = p,
    part by part (see _ring_part)."""
    F = residue_field(c.p, c.r)
    col_of = _reduce_table(np.arange(1, F.n + 1), 0)  # beta's log -> index in T order
    for h in range(c.b // (c.t + 1)):
        yield from _ring_part(c, F, d, h, col_of)


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------

def _line_classes(F: ResidueField, e: int) -> np.ndarray:
    """L(c) mod e for e = t + 1 or 2(t + 1), as a table over log c in [0, n)
    with L(0) at index n: the class of c + theta, for theta a primitive
    element of F_t(theta) = F_(t^2).

    theta^2 = s1*theta + s0 for the first (s1, s0), by packed values, for
    which theta is primitive: its norm theta^(t+1) = -s0 must generate
    F_t* and theta^j lie outside F_t for 0 < j <= t, which also rules out a
    reducible polynomial.  s1 = 0 never passes, as theta^2 would lie in
    F_t; for odd p the discriminant s1^2 + 4*s0 of an irreducible one is a
    non-square, which drops the reducible ones before their powers.
    theta^j = b_j*(c_j + theta) for those j, so L(c_j) = j - (t+1)*chi(b_j),
    and the c_j must be every c once.
    """
    t, n, zero = F.t, F.n, 2 * F.n
    log, zech = F.log.tolist(), F.zech.tolist()
    four = log[4 % F.p]  # 4 lies in the prime field

    def mul(a, b):
        return zero if a == zero or b == zero else (a + b) % n

    def add(a, b):
        if a == zero:
            return b
        if b == zero:
            return a
        z = zech[(b - a) % n]
        return zero if z == zero else (a + z) % n

    for s1 in range(1, t):
        for s0 in range(1, t):
            l1, l0 = log[s1], log[s0]
            norm = mul(l0, F.minus_one)
            if gcd(norm, n) != 1:
                continue
            if F.p != 2 and add(2 * l1 % n, mul(four, l0)) % 2 == 0:  # a square, or 0 = 2n
                continue
            x0, x1, powers = 0, zero, []
            for _ in range(t):
                x0, x1 = mul(x1, l0), add(x0, mul(x1, l1))
                if x1 == zero:
                    break
                powers.append((x0, x1))
            else:
                if mul(x1, l0) == norm and add(x0, mul(x1, l1)) == zero:
                    return _classes_of_lines(powers, t, n, e)
    raise AssertionError(f"no primitive element of F_t(theta) found for t = {t}")


def _classes_of_lines(powers, t: int, n: int, e: int) -> np.ndarray:
    x0, x1 = np.array(powers, dtype=np.int64).T  # theta^j for j = 1..t
    c = np.where(x0 == 2 * n, n, (x0 - x1) % n)
    j = np.arange(1, t + 1)
    classes = np.full(t, -1, dtype=np.int64)
    classes[c] = (j + (t + 1) * (x1 & 1)) % e if e != t + 1 else j
    if (classes < 0).any():
        raise AssertionError("the powers of theta miss a line c + theta")
    return classes


def _field_strips(c: Construction):
    """Yield the strips of the cell table at d = 1, (rows, k) arrays.

    A row is a line c with a character bit (one row per line for wilson),
    its elements b*(c + theta) for the b of that bit; the last rows are
    the line c = 0 and F_t*.  Each strip first takes every b in F_t*,
    whose logs are the columns, then splits them by parity into rows.
    """
    F = residue_field(c.p, c.r)
    t, n, b = c.t, F.n, c.b
    bits = b // (t + 1)
    zech = F.zech
    lines = _line_classes(F, b)
    lb = np.arange(n)
    w = (F.minus_one - lb) % n  # log(-1/b)
    # the class of x - 1 = b*(c' + theta) from log c' + 3n*chi(b): L(c'),
    # plus t + 1 for the odd bit
    cls = _reduce_table(lines[:n], lines[n])
    bit = lb & 1 if bits == 2 else np.zeros(n, dtype=np.int64)
    if bits == 2:
        cls = np.concatenate((cls, (cls + t + 1) % b))
    # x = g^l in F_t*: x - 1 has log l + zech[w], in class (t + 1)*chi, or in
    # no block at x = 1
    unit_cls = _reduce_table((t + 1) * bit, b)
    special = np.stack((cls[w + 3 * n * bit], unit_cls[lb + zech[w]]))  # c = 0, F_t*

    for lo, hi in _kernels.row_ranges(n, bits * (b + 1)):
        lc = np.arange(lo, hi)
        idx = lc[:, None] + zech[w + (n - lc)[:, None]]  # log(c - 1/b)
        if bits == 2:
            idx += 3 * n * bit
        cols = cls[idx]
        if hi == n:
            cols = np.concatenate((cols, special))
        s = cols.shape[0]  # (s, n) over every b -> (bits*s, n/bits), one row per bit
        yield cols.reshape(s, n // bits, bits).swapaxes(1, 2).reshape(bits * s, n // bits)


# ---------------------------------------------------------------------------
# the histograms
# ---------------------------------------------------------------------------

def cell_hists(c: Construction) -> dict[int, np.ndarray]:
    """{d: hist} for each orbit representative d != 0 the construction
    uses: hist[N] counts the cells N_d(i, j) = N over the b^2 pairs (i, j),
    from tables of t entries."""
    if c.name.startswith("gr-"):
        return {d: _kernels.cell_hist((cols for _, cols in _ring_strips(c, d)), c.b, c.k)
                for d in (1, c.p)}
    return {1: _kernels.cell_hist(_field_strips(c), c.b, c.k)}


def weighted_cells(c: Construction) -> list[int]:
    """Exact counts, per N, of the cells (i, j, d) over every d, the
    (i, i, 0) cells left out: d = 0 adds b^2 - b cells N = 0, as the
    blocks are disjoint, and each representative counts for its orbit
    under the units, as designs.difference_orbits weights them."""
    total = [0] * (c.k + 1)
    total[0] = c.b * c.b - c.b
    sizes = {1: c.v - c.t, c.p: c.t - 1} if c.name.startswith("gr-") else {1: c.v - 1}
    for d, hist in cell_hists(c).items():
        for n_, count in enumerate(hist.tolist()):
            total[n_] += sizes[d] * count
    return total


def find_cell(c: Construction, value: int) -> tuple[int, int, int] | None:
    """The first cell (i, j, d), in row order for d = 1 and then d = p, of a
    ring construction with N_d(i, j) = value, i and j its family's block
    indices; strips are built until one holds it.  None if none does."""
    for d in (1, c.p):
        for top, cols in _ring_strips(c, d):
            cells = _kernels.strip_cells(cols, c.b).reshape(-1, c.b + 1)[:, :c.b]  # no spares
            at = np.argwhere(cells == value)  # in row order
            if at.size:
                return top + int(at[0, 0]), int(at[0, 1]), d
    return None
