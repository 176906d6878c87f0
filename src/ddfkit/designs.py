"""Development of difference families into 2-designs and exact profiles.

The development of a family with b base blocks over a group of order v is an
indexed collection of exactly v*b blocks (translates counted with
multiplicity), developed a chunk of base blocks at a time (Development);
has_duplicate_blocks reports whether any orbit collapsed into duplicates.
Block-intersection profiles come from two independent routes:

  * profile_direct: all unordered pairs of distinct block indices, from
    the point subsets the blocks share (the binomial moments
    M_j = sum_N C(N, j) m_N, inverted) when the design is sparse, else
    from Gram products of the 0/1 block incidence matrix; no group
    arithmetic either way (see _kernels.block_intersection_hist);
  * profile_via_differences: (D_i + a) & (D_j + c) has N_d(i, j) =
    |D_i & (D_j + d)| points for d = c - a, so each cell (i, j, d) stands
    for v ordered block pairs; the (i, i, 0) cells are excluded and ordered
    totals are halved at the end.  The b^2 cells at d and at -d, and at d
    and m*d for a unit m with m*D_i = D_pi(i), have the same histogram, so
    one d per orbit is tabulated, weighted by the orbit size: the orbits of
    negation and of the multipliers found on the base blocks, a subgroup
    <g^j0> of F_q* or the whole unit group of a ring (see
    difference_orbits).

Every difference-route profile is checked against the exact counting
identities of a developed family (see check_profile).

Profile multiplicities are exact Python integers; the kernels return int64
cell counts whose magnitude is bounded by b^2 * v, far inside int64 range.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field as dfield
from math import comb, gcd

import numpy as np

from . import _kernels
from .arith import divisors
from .errors import ProfileCheckError, check_budget
from .families import DifferenceFamily, read_rows, rows_text_chunks
from .fields import build_field
from .galois_ring import build_ring
from .groups import check_rows, digit_columns, mod, point_dtype

DEVELOP_ENTRY_BUDGET = 2 ** 24  # v*b*k entries of a developed block array
DIFF_ELEMENT_BUDGET = 2 ** 30  # orbit reps * b*k shifted elements; ~20 s at 18 ns each
# Block entries per slice of the orbit search's images: with their int64
# temporaries, about 2 MB.
_ORBIT_ENTRIES = 1 << 16
# Entries per slice of a Development: whole base blocks while their v*k
# translate entries fit, else a range of one block's translates.
_DEVELOP_CHUNK = 1 << 18


@dataclass(frozen=True)
class Design:
    """An indexed block collection on points {0, ..., v-1}, held whole.

    `blocks` is any (B, k) integer array-like with every row strictly
    ascending, kept as a read-only array in point_dtype(v) (see
    groups.check_rows, whose ValueError it raises).  A developed family
    stores D_i + t in row i*v + t.  Like a Development, it has a `shape`
    and iterates over its row slices, here the one block array, which is
    what the kernels, verify_2design, profile_direct and design_text_chunks
    read of either.
    """

    v: int
    blocks: np.ndarray = dfield(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "blocks", check_rows(self.blocks, self.v))

    @property
    def k(self) -> int:
        return int(self.blocks.shape[1])

    @property
    def block_count(self) -> int:
        return int(self.blocks.shape[0])

    @property
    def shape(self) -> tuple[int, int]:
        return self.blocks.shape

    def __iter__(self):
        yield self.blocks


class IntersectionProfile:
    """Exact map {intersection number N -> count of unordered block pairs}."""

    def __init__(self, counts):
        self.counts = {int(n): int(m) for n, m in counts.items() if m}

    def numbers(self) -> list[int]:
        return sorted(self.counts)

    def total(self) -> int:
        return sum(self.counts.values())

    def __eq__(self, other):
        if isinstance(other, IntersectionProfile):
            return self.counts == other.counts
        return NotImplemented

    def __repr__(self):
        inner = ", ".join(f"{n}: {self.counts[n]}" for n in self.numbers())
        return f"IntersectionProfile({{{inner}}})"

    def to_dict(self) -> dict[str, str]:
        """Ascending keys and multiplicities, both as decimal strings."""
        return {str(n): str(self.counts[n]) for n in self.numbers()}

    def to_json(self) -> str:
        """Compact JSON of to_dict()."""
        return json.dumps(self.to_dict(), separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "IntersectionProfile":
        raw = json.loads(text)
        return cls({int(n): int(m) for n, m in raw.items()})


class Development:
    """A family's v*b translates D_i + g, developed a slice at a time each
    time it is iterated, never held whole.

    Iterating yields (rows, k) arrays in point_dtype(v) whose concatenation
    is develop(fam).blocks: row i*v + g is D_i + g, sorted.  A slice holds
    at most _DEVELOP_CHUNK entries (or one translate of k): whole base
    blocks, or a range of one block's translates.  x + g adds digit by
    digit with no carry, so each base block gets one (base, k) table per
    digit l, row s holding ((x_l + s) mod base)*base^l, and D_i + g is the
    sum of row g_l of every table.  For the m low digits, the most whose
    base^m*k translate entries fit _DEVELOP_CHUNK, one broadcast outer sum
    of the tables gives the translates by every g < base^m; a slice adds
    the rows of the high digits to it.  Every partial sum is below v, so
    all of it stays in point_dtype(v).  `v`, `k`, `block_count` and
    `shape` are those of the whole array, known before any slice exists,
    so each kernel that reads the slices checks its budgets first.

    Raises BudgetError on construction, before anything is allocated, when
    v*b*k exceeds DEVELOP_ENTRY_BUDGET.
    """

    def __init__(self, fam: DifferenceFamily):
        check_budget("development", DEVELOP_ENTRY_BUDGET, "block entries (v*b*k)",
                     fam.v * fam.b * fam.k)
        self.fam = fam
        self.v, self.k = fam.v, fam.k
        self.block_count = fam.v * fam.b
        self.shape = (self.block_count, self.k)

    def __iter__(self):
        g = self.fam.group
        v, base, n = g.order, g.base, g.digits
        blocks = self.fam.block_array()
        b, k = blocks.shape
        dtype = point_dtype(v)
        m = 0
        while m < n and base ** (m + 1) * k <= _DEVELOP_CHUNK:
            m += 1
        low = base ** m
        # base blocks per slice, more than one only when m = n; translates
        # per slice when m < n, a multiple of base^m below base^(m+1)
        chunk = _DEVELOP_CHUNK // (v * k) if m == n else 1
        span = low * max(1, _DEVELOP_CHUNK // (low * k))
        # row l: digit l of each base block, in a dtype that holds the sum of two digits
        digit_dtype = np.min_scalar_type(2 * (base - 1))
        block_digits = digit_columns(blocks, base, n, digit_dtype).reshape(n, b, k)
        shifts = np.arange(base, dtype=digit_dtype)[:, None]
        for lo in range(0, b, chunk):
            digits = block_digits[:, lo : lo + chunk]
            # row g of sums[i] is D_(lo+i) + g for g < base^m: the outer sum
            # over l < m of the tables ((x_l + s) mod base)*base^l, s < base
            sums = None
            for ell in range(m):
                table = _digit_rows(digits[ell, :, None, :], shifts, base, ell, dtype)
                sums = table if sums is None else \
                    (table[:, :, None] + sums[:, None]).reshape(digits.shape[1], -1, k)
            if m == n:
                sums.sort(axis=-1)
                yield sums.reshape(-1, k)
                del sums  # while the next slice is built, only the caller may hold this one
                continue
            for t in range(0, v, span):
                high = np.arange(t, min(t + span, v), low)  # translates h*base^m
                rows = None
                for ell in range(m, n):
                    shift = mod(high // base ** ell, base).astype(digit_dtype)[:, None]
                    part = _digit_rows(digits[ell, 0], shift, base, ell, dtype)
                    rows = part if rows is None else np.add(rows, part, out=rows)
                if sums is not None:
                    rows = np.add(rows[:, None], sums[0])
                rows.sort(axis=-1)
                yield rows.reshape(-1, k)
                del rows  # while the next slice is built, only the caller may hold this one


def _digit_rows(x, shift, base, ell, dtype) -> np.ndarray:
    """((x + shift) mod base)*base^ell, broadcast, in `dtype`: x and shift
    are digits in a dtype that holds the sum of two."""
    sums = x + shift
    np.subtract(sums, base, out=sums, where=sums >= base)
    rows = sums.astype(dtype, copy=False)
    if ell:
        rows *= base ** ell
    return rows


def develop(fam: DifferenceFamily) -> Design:
    """All v*b translates D_i + g, ordered by base index then translate: the
    slices of Development(fam), copied into one (v*b, k) array in
    point_dtype(v).  The CLI never calls it; it reads the slices.

    Raises BudgetError before allocating when v*b*k exceeds DEVELOP_ENTRY_BUDGET.
    """
    development = Development(fam)
    out = np.empty(development.shape, dtype=point_dtype(fam.v))
    at = 0
    for rows in development:
        out[at : at + rows.shape[0]] = rows
        at += rows.shape[0]
    return Design(v=fam.v, blocks=out)


def has_duplicate_blocks(fam: DifferenceFamily) -> bool:
    """Whether two of the v*b translates of the base blocks are equal.

    D_i + g = D_j + h for (i, g) != (j, h) iff D_i - x = D_j - y for some
    distinct (i, x), (j, y) with x in D_i, y in D_j: a nontrivial
    stabiliser, or two base blocks that are translates.  So only the b*k
    translates through 0 are compared, with nothing developed.

    Raises BudgetError before they are built when their b*k^2 entries
    exceed DEVELOP_ENTRY_BUDGET.  They are held in point_dtype(v), formed
    _DEVELOP_CHUNK entries of base blocks at a time.
    """
    blocks = fam.block_array()
    b, k = blocks.shape
    check_budget("duplicate check", DEVELOP_ENTRY_BUDGET, "translate entries (b*k^2)", b * k * k)
    # row (i, x) is D_i - x, for x in D_i
    through_zero = np.empty((b, k, k), dtype=point_dtype(fam.v))
    chunk = max(1, _DEVELOP_CHUNK // (k * k))
    for lo in range(0, b, chunk):
        part = blocks[lo : lo + chunk]
        through_zero[lo : lo + chunk] = fam.group.sub_arrays(part[:, None, :], part[:, :, None])
    through_zero.sort(axis=2)
    return _has_repeated_rows(through_zero.reshape(b * k, k))


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """The rows of a C-contiguous (n, k) array as n byte strings, a view."""
    return rows.view(f"V{rows.itemsize * rows.shape[1]}").ravel()


def _sorted_row_keys(rows: np.ndarray) -> np.ndarray:
    """The rows of an (n, k) integer array as byte strings, sorted."""
    return np.sort(_row_keys(np.ascontiguousarray(rows)))


def _image_keys(group, matrix: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """The images of the rows of a (b, k) block array under the linear map
    of a digit matrix (AdditiveGroup.linear_image), each image row sorted,
    as sorted byte strings to compare with _sorted_row_keys(blocks).

    The images are written _ORBIT_ENTRIES entries at a time into one key
    array in the blocks' own dtype, as byte keys compare only at one
    width, and that array is sorted in place once.
    """
    image = np.empty(blocks.shape, dtype=blocks.dtype)
    rows = max(1, _ORBIT_ENTRIES // blocks.shape[1])
    for lo in range(0, blocks.shape[0], rows):
        part = image[lo : lo + rows]
        part[...] = group.linear_image(matrix, blocks[lo : lo + rows])
        part.sort(axis=1)
    keys = _row_keys(image)
    keys.sort()
    return keys


def _permuting(fam: DifferenceFamily, matrices):
    """Yield, matrix by matrix, whether the linear map of each digit matrix
    in `matrices` permutes the multiset of base blocks: the sorted image
    rows, compared as byte strings, are the rows.  The first block's image
    is looked up among the blocks' keys first; only a hit is tried on
    every block.
    """
    g, blocks = fam.group, fam.block_array()
    keys = _sorted_row_keys(blocks)
    for matrix in matrices:
        key = _image_keys(g, matrix, blocks[:1])
        at = int(np.searchsorted(keys, key)[0])
        yield at < keys.size and keys[at] == key[0] and \
            np.array_equal(_image_keys(g, matrix, blocks), keys)


def _has_repeated_rows(rows: np.ndarray) -> bool:
    """Whether two rows of an (n, k) integer array are equal."""
    keys = _sorted_row_keys(rows)
    return bool((keys[1:] == keys[:-1]).any())


def verify_2design(design, lam: int):
    """Exhaustively check that every point pair of a Design or a
    Development lies in exactly lam blocks.

    Returns (True, None) or (False, witness_pair).  Raises BudgetError
    before counting, or developing, past the budgets of
    _kernels.pair_coverage.  When B*C(k, 2) = lam*C(v, 2), a count mod
    2^8 (2^16 from lam = 2^8) settles a pass exactly (see the _kernels
    module doc); else the exact int32 count finds the first bad pair.
    """
    v, (B, k) = design.v, design.shape
    dtype = np.uint8 if 0 <= lam < 1 << 8 else np.uint16 if 0 <= lam < 1 << 16 else None
    if dtype is not None and B * comb(k, 2) == lam * comb(v, 2):
        res = _kernels.pair_coverage(design, v, dtype)
        res -= dtype(lam)  # in place, modulo M: no flag table
        if not res.any():
            return True, None
        del res  # not held beside the exact table
    off = _kernels.pair_coverage(design, v)
    off -= lam  # in place: no flag table beside the counts
    if not off.any():
        return True, None
    # the table is in row-major order, row u starting at u(2v-u-1)/2, so
    # its first nonzero entry is the first bad pair u < w
    at = int((off != 0).argmax())
    rows = np.arange(v, dtype=np.int64)
    starts = rows * (2 * v - rows - 1) // 2
    u = int(np.searchsorted(starts, at, side="right")) - 1
    return False, (u, at - int(starts[u]) + u + 1)


def profile_direct(design) -> IntersectionProfile:
    """Histogram over all C(B, 2) distinct-index block pairs of a Design or
    a Development, from the blocks alone (see
    _kernels.block_intersection_hist, whose Gram route raises BudgetError
    past its budgets before reading a slice)."""
    hist = _kernels.block_intersection_hist(design, design.v)
    return IntersectionProfile({n: int(m) for n, m in enumerate(hist)})


def _field_multiplier_step(fam: DifferenceFamily, field) -> int:
    """The least j0 > 0 for which g^j0 maps the multiset of base blocks onto
    itself (see _permuting), g^j applied as Field.unit_matrix(j).

    The j that do form a subgroup of Z_(q-1), so j0 is its least divisor
    that does, and j = q-1, the identity, always does.  Most candidates
    fail on the first block alone.
    """
    *candidates, identity = divisors(field.q - 1)
    found = _permuting(fam, field.unit_matrix(np.array(candidates, dtype=np.int64)))
    return next((j for j, permutes in zip(candidates, found) if permutes), identity)


def _units_permute_blocks(fam: DifferenceFamily) -> bool:
    """Whether every generator u of a ring's unit group maps the multiset of
    base blocks onto itself (see _permuting), u applied as
    GaloisRing.unit_matrix(u).  The generators are xi and the principal
    units 1 + p*x^i, i < r, since T*(1 + pR) is the unit group and
    (1 + p*a)(1 + p*c) = 1 + p*(a + c).

    The units of Z_4 are +-1, so negation alone already acts there.
    """
    g = fam.group
    if g.p ** g.digits < 3:
        return False
    ring = build_ring(g.p, g.digits)
    units = [ring.xi] + [1 + ring.p * g.base ** i for i in range(ring.r)]
    return all(_permuting(fam, ring.unit_matrix(np.array(units, dtype=np.int64))))


def difference_orbits(fam: DifferenceFamily) -> tuple[np.ndarray, np.ndarray]:
    """Orbits on the group elements d of negation and the multipliers found
    on the base blocks.

    N_(-d)(i, j) = N_d(j, i), so the cell table at -d is the transpose of
    the one at d; a unit m with m*D_i = D_pi(i) gives
    N_(m*d)(pi i, pi j) = N_d(i, j).  Either way the b^2 cells at d and at
    its image have the same histogram.

    In F_q the multipliers are <g^j0> (see _field_multiplier_step) and
    -1 = g^((q-1)/2) for odd p, so with them negation generates <g^m>,
    m = gcd(j0, (q-1)/2), or m = j0 when p = 2.  The orbits are {0} and
    the m cosets of <g^m>: d != 0 is labelled log d mod m.  m = 1 when
    every unit permutes the blocks, and m = (q-1)/2 when negation acts
    alone.  In GR(p^2, r) they are {0}, the units and pR minus 0 when the
    whole unit group permutes the blocks, else the negation pairs
    {d, -d}.  Returns (representatives, sizes): the least element of
    each orbit, ascending, and the orbit sizes, which sum to v.

    Raises BudgetError, before any array of v entries is built for the
    orbits, when orbits * b*k exceed DIFF_ELEMENT_BUDGET.
    """
    g = fam.group
    v, t = g.order, g.p ** g.digits
    if g.kind == "field":
        field = build_field(g.p, g.digits)
        j0 = _field_multiplier_step(fam, field)
        m = j0 if g.p == 2 else gcd(j0, (v - 1) // 2)
        count = 1 + m
    else:
        units = _units_permute_blocks(fam)
        # d = -d for d = 0 alone when p is odd, and for the 2^r elements
        # of 2*GR(4, r)
        count = 3 if units else (v + (1 if g.p % 2 else t)) // 2
    check_budget("difference route", DIFF_ELEMENT_BUDGET, "shifted elements (orbits * b * k)",
                 count * fam.b * fam.k)
    if g.kind == "field":
        # column c of exp, read as ((q-1)/m, m) rows, is the coset log d = c mod m
        reps = np.sort(field.exp.reshape(-1, m).min(axis=0))
        return np.concatenate(([0], reps)), \
            np.concatenate(([1], np.full(m, (v - 1) // m, dtype=np.int64)))
    if units:
        return np.array([0, 1, g.p], dtype=np.int64), \
            np.array([1, v - t, t - 1], dtype=np.int64)
    elems = np.arange(v, dtype=np.int64)
    neg = g.sub_arrays(0, elems)
    reps = np.flatnonzero(elems <= neg)
    return reps, np.where(neg[reps] == reps, 1, 2)


def check_profile(profile: IntersectionProfile, v: int, b: int, k: int, lam=None) -> None:
    """Check the exact counting identities of a developed family's profile.

    With B = v*b blocks, each point on rho = b*k of them:
    sum m_N = C(B, 2) and sum N*m_N = v*C(rho, 2) hold for every developed
    family; for a 2-(v, k, lam) design also sum C(N, 2)*m_N = C(v, 2)*C(lam, 2).
    The last two are the binomial moments M_1 and M_2 that the direct
    route's moment kernel counts from shared points and point pairs.
    Raises ProfileCheckError on the first identity that fails.
    """
    counts = profile.counts.items()
    checks = [("sum m_N", sum(m for _, m in counts), comb(v * b, 2)),
              ("sum N*m_N", sum(n * m for n, m in counts), v * comb(b * k, 2))]
    if lam is not None:
        checks.append(("sum C(N,2)*m_N", sum(comb(n, 2) * m for n, m in counts),
                       comb(v, 2) * comb(lam, 2)))
    for name, got, want in checks:
        if got != want:
            raise ProfileCheckError(f"{name} = {got}, expected {want} "
                                    f"for (v, b, k, lambda) = ({v}, {b}, {k}, {lam})")


def profile_via_differences(fam: DifferenceFamily) -> IntersectionProfile:
    """Cell tables over orbits of d; scales past the direct scan's budget.

    Raises BudgetError before the kernel when orbits * b*k exceed
    DIFF_ELEMENT_BUDGET; a family that only negation permutes has about
    v/2 orbits.
    """
    g = fam.group
    reps, sizes = difference_orbits(fam)
    hist = _kernels.diff_cell_hist(fam.block_array(), g.base, g.digits, g.order,
                                   reps, sizes)
    counts = {}
    for n, cells in enumerate(hist):
        cells = int(cells)
        if cells == 0:
            continue
        ordered = g.order * cells  # each cell stands for v ordered block pairs
        if ordered % 2:
            raise ProfileCheckError("ordered pair total must be even")
        counts[n] = ordered // 2
    profile = IntersectionProfile(counts)
    check_profile(profile, fam.v, fam.b, fam.k)
    return profile


# ---------------------------------------------------------------------------
# point-map isomorphism search (toy scale)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IsoResult:
    status: str  # "mapping" | "nonexistent" | "unknown"
    mapping: tuple | None = None
    nodes: int = 0


def iso_oracle(a: Design, b: Design, node_budget: int = 200_000) -> IsoResult:
    """Backtracking point-map search with block-compatibility pruning.

    A profile mismatch short-circuits to "nonexistent"; exhausting the node
    budget yields "unknown".  A returned mapping is verified to transport
    the block multiset of `a` exactly onto that of `b`.
    """
    if (a.v, a.block_count, a.k) != (b.v, b.block_count, b.k):
        raise ValueError("designs must share (v, b, k)")
    if profile_direct(a) != profile_direct(b):
        return IsoResult(status="nonexistent")

    v = a.v
    blocks_a = [frozenset(int(x) for x in row) for row in a.blocks]
    blocks_b = [frozenset(int(x) for x in row) for row in b.blocks]
    by_point_a = [[] for _ in range(v)]
    for idx, blk in enumerate(blocks_a):
        for x in blk:
            by_point_a[x].append(idx)
    multiset_b = Counter(blocks_b)

    mapping = [-1] * v
    used = [False] * v
    nodes = 0

    def compatible(x):
        # every block through x must still embed into some block of b
        for idx in by_point_a[x]:
            image = frozenset(mapping[u] for u in blocks_a[idx] if mapping[u] >= 0)
            if not any(image <= blk for blk in multiset_b):
                return False
        return True

    def extend(x):
        nonlocal nodes
        if x == v:
            return True
        for y in range(v):
            if used[y]:
                continue
            nodes += 1
            if nodes > node_budget:
                raise _BudgetStop
            mapping[x] = y
            used[y] = True
            if compatible(x) and extend(x + 1):
                return True
            mapping[x] = -1
            used[y] = False
        return False

    try:
        found = extend(0)
    except _BudgetStop:
        return IsoResult(status="unknown", nodes=nodes)
    if not found:
        return IsoResult(status="nonexistent", nodes=nodes)

    transported = Counter(frozenset(mapping[u] for u in blk) for blk in blocks_a)
    if transported != multiset_b:
        raise AssertionError("search returned a mapping that fails verification")
    return IsoResult(status="mapping", mapping=tuple(mapping), nodes=nodes)


class _BudgetStop(Exception):
    pass


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def design_text_chunks(design):
    """The file text of a Design or a Development in chunks (see
    families.rows_text_chunks)."""
    return rows_text_chunks(f"{design.v} {design.block_count} {design.k}", design)


def save_design(design: Design, path) -> None:
    with open(path, "w") as fh:
        fh.writelines(design_text_chunks(design))


def load_design(path) -> Design:
    with open(path) as fh:
        lines = fh.read().split("\n")
    header = lines[0].split()
    if len(header) != 3:
        raise ValueError("design header must be 'v b k'")
    v, count, k = (int(x) for x in header)
    return Design(v=v, blocks=read_rows(lines[1:], count, k))
