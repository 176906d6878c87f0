"""Development of difference families into 2-designs and exact profiles.

The development of a family with b base blocks over a group of order v is an
indexed collection of exactly v*b blocks (translates counted with
multiplicity); a flag reports whether any orbit collapsed into duplicates.
Block-intersection profiles come from two independent routes:

  * profile_direct: all unordered pairs of distinct block indices, from
    Gram products of the 0/1 block incidence matrix; no group arithmetic;
  * profile_via_differences: (D_i + a) & (D_j + c) has N_d(i, j) =
    |D_i & (D_j + d)| points for d = c - a, so each cell (i, j, d) stands
    for v ordered block pairs; the (i, i, 0) cells are excluded and ordered
    totals are halved at the end.  The b^2 cells at d and at -d, and at d
    and m*d for a multiplier m with m*D_i = D_pi(i), have the same
    histogram, so one d per orbit of negation and the multipliers is
    tabulated, weighted by the orbit size (see difference_orbits).

Every difference-route profile is checked against the exact counting
identities of a developed family (see check_profile).

Profile multiplicities are exact Python integers; the kernels return int64
cell counts whose magnitude is bounded by b^2 * v, far inside int64 range.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field as dfield
from math import comb

import numpy as np

from . import _kernels
from .errors import BudgetError, ProfileCheckError
from .families import DifferenceFamily, read_rows, rows_to_text

PROFILE_DIRECT_BLOCK_BUDGET = 5000
VERIFY_POINT_BUDGET = 1500
DEVELOP_ENTRY_BUDGET = 2 ** 24  # v*b*k entries of a developed block array
DIFF_ELEMENT_BUDGET = 2 ** 30  # orbit reps * b*k shifted elements; ~20 s at 18 ns each


@dataclass(frozen=True)
class Design:
    """An indexed block collection on points {0, ..., v-1}.

    A developed family stores D_i + t in row i*v + t.
    """

    v: int
    k: int
    blocks: np.ndarray = dfield(repr=False)  # (B, k) int64, rows sorted
    has_duplicate_blocks: bool = False

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

    def to_json(self) -> str:
        """Compact JSON with ascending keys and decimal-string multiplicities."""
        ordered = {str(n): str(self.counts[n]) for n in self.numbers()}
        return json.dumps(ordered, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "IntersectionProfile":
        raw = json.loads(text)
        return cls({int(n): int(m) for n, m in raw.items()})


def develop(fam: DifferenceFamily) -> Design:
    """All v*b translates D_i + g, ordered by base index then translate.

    Raises BudgetError before allocating when v*b*k exceeds DEVELOP_ENTRY_BUDGET.
    """
    entries = fam.v * fam.b * fam.k
    if entries > DEVELOP_ENTRY_BUDGET:
        raise BudgetError(f"development capped at {DEVELOP_ENTRY_BUDGET} block "
                          f"entries (v*b*k), got {entries}")
    g = fam.group
    v = g.order
    base = fam.block_array()
    b, k = base.shape
    out = np.empty((v * b, k), dtype=np.int64)
    translates = np.arange(v, dtype=np.int64)
    for i in range(b):
        rows = g.add_arrays(base[i][None, :], translates[:, None])
        rows.sort(axis=1)
        out[i * v : (i + 1) * v] = rows
    # D_i + g = D_j + h for (i, g) != (j, h) iff D_i - x = D_j - y for some
    # distinct (i, x), (j, y) with x in D_i, y in D_j: a nontrivial
    # stabiliser, or two base blocks that are translates.  Compare those b*k
    # translates through 0, which are rows i*v + (-x) of the development.
    through_zero = out[(np.arange(b)[:, None] * v + g.sub_arrays(0, base)).ravel()]
    return Design(v=v, k=k, blocks=out, has_duplicate_blocks=_has_repeated_rows(through_zero))


def _has_repeated_rows(rows: np.ndarray) -> bool:
    """Whether two rows of an (n, k) int64 array are equal, sorted as byte strings."""
    keys = np.sort(np.ascontiguousarray(rows).view(f"V{8 * rows.shape[1]}"), axis=None)
    return bool((keys[1:] == keys[:-1]).any())


def verify_2design(design: Design, lam: int):
    """Exhaustively check that every point pair lies in exactly lam blocks.

    Returns (True, None) or (False, witness_pair).
    """
    v = design.v
    check_verify_budget(v)
    cnt = _kernels.pair_coverage(design.blocks, v).reshape(v, v)
    # the first bad pair u < w in row-major order
    bad = np.flatnonzero(np.triu(cnt != lam, 1))
    if bad.size == 0:
        return True, None
    return False, divmod(int(bad[0]), v)


def check_verify_budget(v: int) -> None:
    """Raise BudgetError when exhaustive pair counting on v points is over budget.

    Callers that still have to develop a family check v here first.
    """
    if v > VERIFY_POINT_BUDGET:
        raise BudgetError(
            f"exhaustive pair counting capped at v <= {VERIFY_POINT_BUDGET}")


def check_direct_budget(blocks: int) -> None:
    """Raise BudgetError when a direct profile of `blocks` blocks is over budget.

    Callers that still have to develop a family check v*b here first, so an
    oversized request fails before the block array is allocated.
    """
    if blocks > PROFILE_DIRECT_BLOCK_BUDGET:
        raise BudgetError(f"direct profile capped at {PROFILE_DIRECT_BLOCK_BUDGET} "
                          f"blocks, got {blocks}")


def profile_direct(design: Design) -> IntersectionProfile:
    """Pairwise scan over all C(B, 2) distinct-index block pairs."""
    check_direct_budget(design.block_count)
    hist = _kernels.block_intersection_hist(design.blocks)
    return IntersectionProfile({n: int(m) for n, m in enumerate(hist)})


def _invertible_mod(matrix: np.ndarray, p: int) -> bool:
    """Whether a square integer matrix is invertible modulo the prime p.

    Over Z_(p^2) too a matrix is invertible iff it is invertible mod p.
    """
    rows = [[int(x) % p for x in row] for row in matrix]
    n = len(rows)
    for c in range(n):
        pivot = next((r for r in range(c, n) if rows[r][c]), None)
        if pivot is None:
            return False
        rows[c], rows[pivot] = rows[pivot], rows[c]
        inv = pow(rows[c][c], -1, p)
        for r in range(c + 1, n):
            f = rows[r][c] * inv % p
            rows[r] = [(x - f * y) % p for x, y in zip(rows[r], rows[c])]
    return True


def _block_permutation(fam: DifferenceFamily, matrix, base: np.ndarray) -> np.ndarray:
    """The permutation pi with m*D_i = D_pi(i), for m given by its digit matrix.

    `base` is fam.block_array().  Raises ValueError unless the matrix is an
    additive automorphism that maps the block set onto itself.
    """
    g = fam.group
    mat = np.array(matrix, dtype=np.int64)
    if mat.shape != (g.digits, g.digits) or not _invertible_mod(mat, g.p):
        raise ValueError(f"family {fam.name!r}: multiplier is not an invertible "
                         f"{g.digits}x{g.digits} digit matrix mod {g.base}")
    owner = np.full(g.order, -1, dtype=np.int64)
    owner[base] = np.arange(fam.b)[:, None]
    # m is injective, so a k-row of images that all lie in block j is block j
    image = g.pack_digits(g.digit_matrix(base) @ mat)
    perm = owner[image[:, 0]]
    if (perm < 0).any() or (owner[image] != perm[:, None]).any() \
            or (np.bincount(perm, minlength=fam.b) != 1).any():
        raise ValueError(f"family {fam.name!r}: multiplier does not permute the base blocks")
    return perm


def difference_orbits(fam: DifferenceFamily) -> tuple[np.ndarray, np.ndarray]:
    """Orbits on the group elements d of negation and the multipliers.

    N_(-d)(i, j) = N_d(j, i), so the cell table at -d is the transpose of
    the one at d; a multiplier m gives N_(m*d)(pi i, pi j) = N_d(i, j).
    Either way the b^2 cells at d and at its image have the same histogram.
    Returns (representatives, sizes): the least element of each orbit,
    ascending, and the orbit sizes, which sum to v.  Each multiplier is
    first checked to permute the base blocks (ValueError otherwise).
    """
    g = fam.group
    elems = np.arange(g.order, dtype=np.int64)
    digits = g.digit_matrix(elems)
    moves = [g.pack_digits(-digits)]
    base = fam.block_array()
    for matrix in fam.multipliers:
        _block_permutation(fam, matrix, base)
        moves.append(g.pack_digits(digits @ np.asarray(matrix, dtype=np.int64)))
    # label[x] is always an element of x's orbit no larger than x.  Pulling
    # the least label along move^(2^s) makes label[x] the least over 2^(s+1)
    # steps of x's cycle; a step that changes nothing means every cycle of
    # that move already carries one label.  Once a round over all moves
    # changes nothing, labels are constant on orbits and equal the orbit
    # minimum.
    label = elems
    changed = True
    while changed:
        changed = False
        for move in moves:
            step = move
            while True:
                pulled = np.minimum(label, label[step])
                if np.array_equal(pulled, label):
                    break
                label, changed = pulled, True
                step = step[step]
    reps = np.flatnonzero(label == elems)
    return reps, np.bincount(label, minlength=g.order)[reps]


def check_profile(profile: IntersectionProfile, v: int, b: int, k: int, lam=None) -> None:
    """Check the exact counting identities of a developed family's profile.

    With B = v*b blocks, each point on rho = b*k of them:
    sum m_N = C(B, 2) and sum N*m_N = v*C(rho, 2) hold for every developed
    family; for a 2-(v, k, lam) design also sum C(N, 2)*m_N = C(v, 2)*C(lam, 2).
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
    DIFF_ELEMENT_BUDGET; a family without multipliers, such as a loaded
    file, has about v/2 orbits.
    """
    g = fam.group
    reps, sizes = difference_orbits(fam)
    elements = reps.size * fam.b * fam.k
    if elements > DIFF_ELEMENT_BUDGET:
        raise BudgetError(f"difference route capped at {DIFF_ELEMENT_BUDGET} shifted "
                          f"elements (orbits * b * k), got {elements}")
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

def design_to_text(design: Design) -> str:
    return rows_to_text(f"{design.v} {design.block_count} {design.k}", design.blocks)


def save_design(design: Design, path) -> None:
    with open(path, "w") as fh:
        fh.write(design_to_text(design))


def load_design(path) -> Design:
    with open(path) as fh:
        lines = fh.read().split("\n")
    v, count, k = (int(x) for x in lines[0].split())
    blocks = read_rows(lines[1:], count, k, v)
    return Design(v=v, k=k, blocks=blocks, has_duplicate_blocks=_has_repeated_rows(blocks))


def save_profile(profile: IntersectionProfile, path) -> None:
    with open(path, "w") as fh:
        fh.write(profile.to_json() + "\n")
