"""Disjoint difference family constructions and brute-force validation.

All constructions fix a documented base-block order so that developed
designs, profiles and exported files are deterministic:

  * cyclotomic families: cosets C_0, ..., C_{e-1} by index;
  * Teichmüller-coset families: (1+p*alpha)T* for alpha in Teichmüller-power
    order (0, 1, xi, xi^2, ...) followed by p*T*;
  * split families: square cosets in that alpha order, then p*T_S*, then the
    non-square cosets, then p*T_N*.

Blocks are stored as sorted encoding tuples; set semantics are enforced at
construction.

The cyclotomic and Teichmüller-coset constructions also record multipliers:
units m with m*D_i = D_pi(i) for a permutation pi of the base blocks.  Each
is stored as the digits x digits matrix of x -> m*x on digit vectors (row i
holds the digits of m times the i-th basis element x^i), which is linear
mod `base` in both fields and rings.  The difference route tabulates one
group element d per orbit of the group they generate, with negation (see
designs.difference_orbits).
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field as dfield

import numpy as np

from .errors import BudgetError
from .fields import FIELD_ORDER_BUDGET, Field
from .galois_ring import RING_ENCODING_BUDGET, GaloisRing
from .groups import AdditiveGroup

FENG_INDEX_SETS = (
    (0, 2, 4, 6, 8, 10, 12),
    (0, 1, 2, 3, 4, 5, 6),
    (0, 1, 3, 4, 5, 6, 9),
)


@dataclass(frozen=True)
class DifferenceFamily:
    """Base blocks over an additive group, with declared (v, k, lambda)."""

    group: AdditiveGroup
    blocks: tuple[tuple[int, ...], ...]
    v: int
    k: int
    lam: int
    disjoint: bool
    near_complete: bool
    name: str = ""
    multipliers: tuple = ()  # digit matrices of block-permuting unit multiplications
    array: InitVar[np.ndarray | None] = None  # the blocks as a (b, k) array, if built
    _array: np.ndarray = dfield(init=False, repr=False, compare=False)

    def __post_init__(self, array):
        if array is None:
            array = np.array(self.blocks, dtype=np.int64).reshape(len(self.blocks), self.k)
        array = array.view()
        array.flags.writeable = False
        object.__setattr__(self, "_array", array)

    @property
    def b(self) -> int:
        return len(self.blocks)

    def block_array(self) -> np.ndarray:
        """The blocks as a read-only (b, k) int64 array."""
        return self._array


@dataclass(frozen=True)
class ValidationReport:
    is_difference_family: bool
    observed_lambda: int | None  # None when the difference counts are not constant
    disjoint: bool
    near_complete: bool
    offending_element: int | None = None


def _structure_flags(blocks: np.ndarray, v: int):
    """(disjoint, near_complete) for a (b, k) array of blocks in a group of order v."""
    seen = np.bincount(blocks.ravel(), minlength=v)
    disjoint = bool(seen.max(initial=0) <= 1)
    near_complete = disjoint and seen[0] == 0 and blocks.size == v - 1
    return disjoint, bool(near_complete)


def _make_family(group, blocks, k, lam, name, multipliers=()):
    """Family from a (b, k) array of base blocks whose rows are ascending sets.

    The constructions sort their rows; strictly ascending rows are sets, so
    the check here stands in for a per-block set round trip.
    """
    blocks = np.asarray(blocks, dtype=np.int64)
    if blocks.ndim != 2 or blocks.shape[1] != k or (np.diff(blocks, axis=1) <= 0).any():
        raise AssertionError("constructed block is not an ascending set of k elements")
    disjoint, near_complete = _structure_flags(blocks, group.order)
    return DifferenceFamily(group=group, blocks=tuple(map(tuple, blocks.tolist())),
                            v=group.order, k=k, lam=lam, disjoint=disjoint,
                            near_complete=near_complete, name=name,
                            multipliers=multipliers, array=blocks)


def _multiplier(group, mul, m):
    """Digit matrix of x -> m*x: row i holds the digits of m * x^i."""
    return tuple(group.unpack(mul(m, group.base ** i)) for i in range(group.digits))


def _ring_multipliers(ring):
    """Digit matrices of xi and of the principal units 1 + p*x^i, i < r.

    xi fixes T* and swaps the square and non-square cosets.  Since p^2 = 0,
    (1 + p*x^i)(1 + p*alpha) = 1 + p*(alpha + x^i), so the principal units
    act on the coset label alpha by translation in the residue field.
    """
    units = [ring.xi] + [ring.add(1, ring.scalar_p(ring.group.base ** i))
                         for i in range(ring.r)]
    return tuple(_multiplier(ring.group, ring.mul, u) for u in units)


def _teichmuller_coset_rows(ring, parts) -> np.ndarray:
    """Per part: the cosets (1 + p*alpha)*part for alpha in T order, then p*part.

    Rows come back sorted.  Multiplication by a unit u is the linear map of
    its digit matrix, so each coset is one product digits(part) @ U mod p^2.
    Entries stay below p^2, so a product entry is at most r*(p^2-1)^2,
    below 2^52 for p^(2r) <= 2^26 and far inside int64.
    """
    g = ring.group
    teich = g.digit_matrix(np.array(ring.teichmuller, dtype=np.int64))
    # 1 + p*alpha: the digits of p*alpha are multiples of p, so adding 1 never carries
    principal = 1 + g.pack_digits(teich * ring.p)
    basis = g.base ** np.arange(g.digits, dtype=np.int64)
    units = g.digit_matrix(ring.mul_arrays(principal[:, None], basis))
    rows = []
    for part in parts:
        digits = g.digit_matrix(np.asarray(part, dtype=np.int64))
        rows.append(g.pack_digits(digits @ units))
        rows.append(g.pack_digits(digits * ring.p)[None])
    return np.sort(np.concatenate(rows), axis=1)


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------

def wilson_family(field: Field, e: int, name: str = "") -> DifferenceFamily:
    """Cyclotomic-coset family: the e cosets of the e-th powers in F_q^*.

    A near-complete (q, f, f-1) disjoint difference family for ef = q-1
    with e, f >= 2.
    """
    if e < 2:
        raise ValueError("require e >= 2")
    if (field.q - 1) % e != 0:
        raise ValueError(f"e={e} does not divide q-1={field.q - 1}")
    f = (field.q - 1) // e
    if f < 2:
        raise ValueError("require f = (q-1)/e >= 2")
    # the primitive element maps C_i onto C_(i+1)
    gen = _multiplier(field.group, field.mul, field.generator)
    return _make_family(field.group, field.class_array(e), f, f - 1,
                        name or f"cyclotomic-e{e}", (gen,))


def davis_family(ring: GaloisRing, name: str = "gr-teichmuller") -> DifferenceFamily:
    """Teichmüller-coset family in GR(p^2, r).

    Blocks (1+p*alpha)T* for alpha in T, plus p*T*: a near-complete
    (p^2r, p^r - 1, p^r - 2) disjoint difference family.
    """
    size = ring.teich_size
    if size < 3:
        raise ValueError("require p^r >= 3")
    blocks = _teichmuller_coset_rows(ring, (ring.teichmuller[1:],))
    return _make_family(ring.group, blocks, size - 1, size - 2, name,
                        _ring_multipliers(ring))


def squares_family(ring: GaloisRing, name: str = "gr-squares") -> DifferenceFamily:
    """Teichmüller-square-coset family in GR(p^2, r), for odd p with p^r >= 5.

    The 2(p^r + 1) cosets of the subgroup of Teichmüller squares: a
    near-complete (p^2r, (p^r-1)/2, (p^r-3)/2) disjoint difference family.
    """
    blocks = _teichmuller_coset_rows(ring, ring.square_split())
    return _make_family(ring.group, blocks, (ring.teich_size - 1) // 2,
                        (ring.teich_size - 3) // 2, name, _ring_multipliers(ring))


def furino_family(ring: GaloisRing, subgroup, name: str = "furino") -> DifferenceFamily:
    """Coset family of an arbitrary unit subgroup B with unit internal differences.

    Representatives are found by a deterministic sweep over element encodings
    in increasing order, marking covered elements; the resulting cosets
    partition the nonzero elements and form a (v, |B|, |B|-1) disjoint
    difference family.
    """
    sub = sorted(set(subgroup))
    if 1 not in sub:
        raise ValueError("subgroup must contain 1")
    for a in sub:
        for b in sub:
            if ring.mul(a, b) not in sub:
                raise ValueError("given set is not multiplicatively closed")
            if a != b and not ring.is_unit(ring.sub(a, b)):
                raise ValueError(
                    f"difference of subgroup elements {a} - {b} is not a unit")
    k = len(sub)
    covered = bytearray(ring.order)
    covered[0] = 1
    blocks = []
    for s in range(1, ring.order):
        if covered[s]:
            continue
        block = sorted(ring.mul(s, b) for b in sub)
        if len(block) != k:
            raise AssertionError("coset collapsed; unit-difference check was violated")
        for x in block:
            if covered[x]:
                raise AssertionError("coset sweep produced overlapping blocks")
            covered[x] = 1
        blocks.append(block)
    return _make_family(ring.group, blocks, k, k - 1, name)


def feng_families(field: Field) -> tuple[DifferenceFamily, ...]:
    """The three two-block partition families of F_{11^3}.

    Each family splits the 14 cyclotomic cosets of order 14 into two unions
    of seven (even indices vs odd; first seven vs last seven; the index set
    {0,1,3,4,5,6,9} vs its complement).  Negation maps each block onto the
    other, which forces lambda = 664 by counting; validity is checked by the
    test suite for the documented modulus choice.
    """
    if field.q != 1331:
        raise ValueError("the partition families are defined over F_{11^3}")
    classes = field.cyclotomic_classes(14)
    out = []
    for fam_idx, idx in enumerate(FENG_INDEX_SETS, start=1):
        first = sorted(x for i in idx for x in classes[i])
        second = sorted(x for i in range(14) if i not in idx for x in classes[i])
        out.append(_make_family(field.group, [first, second], 665, 664,
                                f"feng-{fam_idx}"))
    return tuple(out)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def validate_ddf(fam: DifferenceFamily) -> ValidationReport:
    """Brute-force check of the difference-family property.

    Counts every ordered within-block difference and checks the count map is
    constant on the nonzero elements; also recomputes disjointness and
    near-completeness from scratch.
    """
    g = fam.group
    counts = np.zeros(g.order, dtype=np.int64)
    seen = np.zeros(g.order, dtype=np.int64)
    for block in fam.blocks:
        counts += g.difference_counts(block, block)
        seen += np.bincount(block, minlength=g.order)

    nonzero = counts[1:]
    constant = bool(nonzero.size) and int(nonzero.min()) == int(nonzero.max())
    observed = int(nonzero[0]) if constant else None

    disjoint = bool(seen.max(initial=0) <= 1)
    near_complete = disjoint and seen[0] == 0 and int(seen.sum()) == g.order - 1

    offending = None
    if not disjoint:
        offending = int(np.nonzero(seen > 1)[0][0])
    elif not constant:
        mode = int(np.bincount(nonzero).argmax())
        offending = int(np.nonzero(nonzero != mode)[0][0]) + 1

    return ValidationReport(is_difference_family=constant,
                            observed_lambda=observed,
                            disjoint=disjoint,
                            near_complete=near_complete,
                            offending_element=offending)


# ---------------------------------------------------------------------------
# file format: header "v k lambda b", one base block per line
# ---------------------------------------------------------------------------

# entries per formatting pass in rows_to_text; bounds its byte buffers
_TEXT_CHUNK = 1 << 14


def rows_to_text(header: str, rows: np.ndarray) -> str:
    """The header line, then each row of a (b, k) array of non-negative
    integers as space-separated decimals, one row per line.

    Each pass takes a chunk of entries in the smallest unsigned dtype that
    holds them and builds fixed-width ASCII digit columns plus a separator
    column (a newline after every k-th entry), then drops the leading zeros
    of each entry by a mask.
    """
    k = rows.shape[1]
    flat = rows.ravel()
    top = int(flat.max(initial=0))
    width = len(str(top))
    out = [f"{header}\n"]
    for lo in range(0, flat.size, _TEXT_CHUNK):
        rem = flat[lo : lo + _TEXT_CHUNK].astype(np.min_scalar_type(top))
        digits = np.empty((width + 1, rem.size), dtype=np.uint8)
        keep = np.ones((width + 1, rem.size), dtype=bool)
        for j in range(width - 1, -1, -1):
            digits[j] = rem % 10
            if j:  # the last digit always stays, so 0 prints as "0"
                rem //= 10
                keep[j - 1] = rem > 0
        digits[:width] += ord("0")
        digits[width] = ord(" ")
        digits[width, (k - 1 - lo) % k :: k] = ord("\n")
        out.append(digits.T[keep.T].tobytes().decode("ascii"))
    return "".join(out)


def family_to_text(fam: DifferenceFamily) -> str:
    return rows_to_text(f"{fam.v} {fam.k} {fam.lam} {fam.b}", fam.block_array())


def save_family(fam: DifferenceFamily, path) -> None:
    with open(path, "w") as fh:
        fh.write(family_to_text(fam))


def load_family(path, group: AdditiveGroup, name: str = "") -> DifferenceFamily:
    """Read a family file and validate its declared invariants on load."""
    with open(path) as fh:
        tokens = fh.read().split("\n")
    header = tokens[0].split()
    if len(header) != 4:
        raise ValueError("family header must be 'v k lambda b'")
    v, k, lam, b = (int(x) for x in header)
    if group.order != v:
        raise ValueError(f"group order {group.order} does not match header v={v}")
    # the constructions' table budgets cap a loaded group too, before any
    # table of v entries is allocated
    budget = FIELD_ORDER_BUDGET if group.kind == "field" else RING_ENCODING_BUDGET
    if v > budget:
        raise BudgetError(f"{group.kind} order {v} exceeds the table budget {budget}")
    if b < 1 or k < 1:
        raise ValueError("a family needs b >= 1 base blocks of k >= 1 elements")
    rows = [line.split() for line in tokens[1:] if line.strip()]
    if len(rows) != b:
        raise ValueError(f"expected {b} base blocks, found {len(rows)}")
    blocks = []
    for row in rows:
        block = tuple(int(x) for x in row)
        if len(block) != k or len(set(block)) != k:
            raise ValueError("every base block must have k distinct elements")
        if any(x < 0 or x >= v for x in block):
            raise ValueError("block entry out of range")
        if list(block) != sorted(block):
            raise ValueError("block entries must be sorted")
        blocks.append(block)
    if lam * (v - 1) != b * k * (k - 1):
        raise ValueError("declared parameters violate lambda*(v-1) = b*k*(k-1)")
    array = np.array(blocks, dtype=np.int64).reshape(b, k)
    disjoint, near_complete = _structure_flags(array, v)
    return DifferenceFamily(group=group, blocks=tuple(blocks), v=v, k=k, lam=lam,
                            disjoint=disjoint, near_complete=near_complete,
                            name=name or "imported", array=array)
