"""Development of difference families into 2-designs and exact profiles.

The development of a family with b base blocks over a group of order v is an
indexed collection of exactly v*b blocks (translates counted with
multiplicity); a flag reports whether any orbit collapsed into duplicates.
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
from .errors import BudgetError, ProfileCheckError
from .families import DifferenceFamily, read_rows, rows_text_chunks
from .fields import build_field
from .galois_ring import build_ring

DEVELOP_ENTRY_BUDGET = 2 ** 24  # v*b*k entries of a developed block array
DIFF_ELEMENT_BUDGET = 2 ** 30  # orbit reps * b*k shifted elements; ~20 s at 18 ns each
# Translate entries per chunk of base blocks in develop: one digit's sums
# and their mask stay near 0.5 MB; a block whose v*k is larger is a chunk
# of its own.
_DEVELOP_CHUNK = 1 << 18


@dataclass(frozen=True)
class Design:
    """An indexed block collection on points {0, ..., v-1}.

    A developed family stores D_i + t in row i*v + t.
    """

    v: int
    # (B, k), rows sorted; point_dtype(v) when developed or loaded, and the
    # kernels read any non-negative integer dtype but uint64
    blocks: np.ndarray = dfield(repr=False)
    has_duplicate_blocks: bool = False

    @property
    def k(self) -> int:
        return int(self.blocks.shape[1])

    @property
    def block_count(self) -> int:
        return int(self.blocks.shape[0])


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


def point_dtype(v: int) -> np.dtype:
    """The dtype of a design's block array on v points: the narrowest
    unsigned dtype that holds v-1, uint8 to uint32, else int64 (numpy
    promotes uint64 with int64 to float64, and bincount refuses uint64)."""
    return np.min_scalar_type(v - 1) if v <= 1 << 32 else np.dtype(np.int64)


def develop(fam: DifferenceFamily) -> Design:
    """All v*b translates D_i + g, ordered by base index then translate.

    The block array has point_dtype(v).  Digit l of x + g is x_l + g_l,
    less base when that reaches base; each chunk of base blocks holds one
    digit's (chunk, v, k) sums at a time, folded by Horner into its rows
    of the output, whose every partial value is below v.  The rows are
    sorted in place.

    Raises BudgetError before allocating when v*b*k exceeds DEVELOP_ENTRY_BUDGET.
    """
    entries = fam.v * fam.b * fam.k
    if entries > DEVELOP_ENTRY_BUDGET:
        raise BudgetError(f"development capped at {DEVELOP_ENTRY_BUDGET} block "
                          f"entries (v*b*k), got {entries}")
    g = fam.group
    v, base = g.order, g.base
    blocks = fam.block_array()
    b, k = blocks.shape
    out = np.empty((b, v, k), dtype=point_dtype(v))
    # digit l on axis 0, in a dtype that holds the sum of two digits
    digit_dtype = np.min_scalar_type(2 * (base - 1))
    block_digits = np.moveaxis(g.digit_matrix(blocks), -1, 0).astype(digit_dtype)
    translate_digits = g.digit_matrix(np.arange(v)).T.astype(digit_dtype)
    chunk = max(1, _DEVELOP_CHUNK // (v * k))
    for lo in range(0, b, chunk):
        rows = out[lo : lo + chunk]
        for ell in range(g.digits - 1, -1, -1):
            sums = block_digits[ell, lo : lo + chunk, None, :] + translate_digits[ell, :, None]
            np.subtract(sums, base, out=sums, where=sums >= base)
            if ell < g.digits - 1:
                rows *= base
                rows += sums
            else:
                rows[...] = sums
        rows.sort(axis=2)
    out = out.reshape(b * v, k)
    # D_i + g = D_j + h for (i, g) != (j, h) iff D_i - x = D_j - y for some
    # distinct (i, x), (j, y) with x in D_i, y in D_j: a nontrivial
    # stabiliser, or two base blocks that are translates.  Compare those b*k
    # translates through 0, which are rows i*v + (-x) of the development.
    through_zero = out[(np.arange(b)[:, None] * v + g.sub_arrays(0, blocks)).ravel()]
    return Design(v=v, blocks=out, has_duplicate_blocks=_has_repeated_rows(through_zero))


def _sorted_row_keys(rows: np.ndarray) -> np.ndarray:
    """The rows of an (n, k) integer array as byte strings, sorted."""
    return np.sort(np.ascontiguousarray(rows).view(f"V{rows.itemsize * rows.shape[1]}"),
                   axis=None)


def _image_keys(image: np.ndarray) -> np.ndarray:
    """The rows of an (n, k) image of blocks, each sorted, as sorted byte
    strings, to compare with _sorted_row_keys of the blocks."""
    return _sorted_row_keys(np.sort(image, axis=1))


def _has_repeated_rows(rows: np.ndarray) -> bool:
    """Whether two rows of an (n, k) integer array are equal."""
    keys = _sorted_row_keys(rows)
    return bool((keys[1:] == keys[:-1]).any())


def verify_2design(design: Design, lam: int):
    """Exhaustively check that every point pair lies in exactly lam blocks.

    Returns (True, None) or (False, witness_pair).  Raises BudgetError
    before counting past the budgets of _kernels.pair_coverage.
    """
    v = design.v
    bad = _kernels.pair_coverage(design.blocks, v) != lam
    if not bad.any():
        return True, None
    # the table is in row-major order, row u starting at u(2v-u-1)/2, so
    # its first bad flag, argmax's first True, is the first bad pair u < w
    at = int(bad.argmax())
    rows = np.arange(v, dtype=np.int64)
    starts = rows * (2 * v - rows - 1) // 2
    u = int(np.searchsorted(starts, at, side="right")) - 1
    return False, (u, at - int(starts[u]) + u + 1)


def profile_direct(design: Design) -> IntersectionProfile:
    """Histogram over all C(B, 2) distinct-index block pairs, from the
    blocks alone (see _kernels.block_intersection_hist, whose Gram route
    raises BudgetError past its budgets)."""
    hist = _kernels.block_intersection_hist(design.blocks, design.v)
    return IntersectionProfile({n: int(m) for n, m in enumerate(hist)})


def _scaled(field, x: np.ndarray, j: int) -> np.ndarray:
    """g^j * x for the field's primitive element g, elementwise: one gather
    exp[(log x + j) mod (q-1)], with 0 fixed."""
    return np.where(x == 0, 0, field.exp[(field.log[x] + j) % (field.q - 1)])


def _field_multiplier_step(fam: DifferenceFamily, field) -> int:
    """The least j0 > 0 for which g^j0 maps the multiset of base blocks onto
    itself: the sorted rows g^j0 * D_i, compared as byte strings, are the
    rows D_i.

    The j that do form a subgroup of Z_(q-1), so j0 is its least divisor
    that does, and j = q-1, the identity, always does.  Each candidate is
    tried on the first block alone, whose image is looked up among the
    blocks' byte keys; only a hit is tried on every block.
    """
    base = fam.block_array()
    keys = _sorted_row_keys(base)
    *candidates, identity = divisors(field.q - 1)
    for j in candidates:
        key = _image_keys(_scaled(field, base[:1], j))
        at = int(np.searchsorted(keys, key)[0])
        if at < keys.size and keys[at] == key[0] and \
                np.array_equal(_image_keys(_scaled(field, base, j)), keys):
            return j
    return identity


def _unit_images(group, x: np.ndarray):
    """Yield the images of the elements x under generators of the unit group
    of GR(p^2, r): xi and the principal units 1 + p*x^i, i < r, since
    T*(1 + pR) is the unit group and (1 + p*a)(1 + p*c) = 1 + p*(a + c).
    """
    ring = build_ring(group.p, group.ext)
    for unit in [ring.xi] + [1 + ring.p * group.base ** i for i in range(ring.r)]:
        yield ring.mul_arrays(unit, x)


def _units_permute_blocks(fam: DifferenceFamily) -> bool:
    """Whether every generator u of a ring's unit group maps the multiset of
    base blocks onto itself, compared as _field_multiplier_step does.

    The units of Z_4 are +-1, so negation alone already acts there.
    """
    g = fam.group
    if g.p ** g.ext < 3:
        return False
    base = fam.block_array()
    keys = _sorted_row_keys(base)
    return all(np.array_equal(_image_keys(image), keys) for image in _unit_images(g, base))


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
    v, t = g.order, g.p ** g.ext
    if g.kind == "field":
        field = build_field(g.p, g.ext)
        j0 = _field_multiplier_step(fam, field)
        m = j0 if g.p == 2 else gcd(j0, (v - 1) // 2)
        count = 1 + m
    else:
        units = _units_permute_blocks(fam)
        # d = -d for d = 0 alone when p is odd, and for the 2^r elements
        # of 2*GR(4, r)
        count = 3 if units else (v + (1 if g.p % 2 else t)) // 2
    elements = count * fam.b * fam.k
    if elements > DIFF_ELEMENT_BUDGET:
        raise BudgetError(f"difference route capped at {DIFF_ELEMENT_BUDGET} shifted "
                          f"elements (orbits * b * k), got {elements}")
    if g.kind == "field":
        if m == 1:
            return np.array([0, 1], dtype=np.int64), np.array([1, v - 1], dtype=np.int64)
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

def design_text_chunks(design: Design):
    """The design file's text in chunks (see families.rows_text_chunks)."""
    return rows_text_chunks(f"{design.v} {design.block_count} {design.k}", design.blocks)


def design_to_text(design: Design) -> str:
    return "".join(design_text_chunks(design))


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
    blocks = read_rows(lines[1:], count, k, v).astype(point_dtype(v))
    return Design(v=v, blocks=blocks, has_duplicate_blocks=_has_repeated_rows(blocks))


def save_profile(profile: IntersectionProfile, path) -> None:
    with open(path, "w") as fh:
        fh.write(profile.to_json() + "\n")
