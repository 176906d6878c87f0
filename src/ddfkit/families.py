"""Disjoint difference family constructions and brute-force validation.

All constructions fix a documented base-block order so that developed
designs, profiles and exported files are deterministic:

  * cyclotomic families: cosets C_0, ..., C_{e-1} by index;
  * Teichmüller-coset families: (1+p*alpha)T* for alpha in Teichmüller-power
    order (0, 1, xi, xi^2, ...) followed by p*T*;
  * split families: square cosets in that alpha order, then p*T_S*, then the
    non-square cosets, then p*T_N*.

A family stores its group, its blocks, its lambda and a name, nothing
else.  It keeps its blocks only as one read-only (b, k) array of
encodings in groups.point_dtype(v), the narrowest unsigned dtype that
holds them, checked on construction by groups.check_rows; v, k and b are
read off the group and the array, and disjointness and near-completeness
are reported by validate_ddf.

A family records no multipliers.  Every unit m maps each base block of the
cyclotomic, Teichmüller-coset, furino and feng-1 families onto a base
block (m*D_i = D_pi(i)), and g^7 does so for feng-2 and feng-3; the
difference route finds this from the blocks themselves, for constructed
and loaded families alike (see designs.difference_orbits).
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field as dfield
from itertools import chain

import numpy as np

from .fields import _EXP_CHUNK, Field, check_field_order
from .galois_ring import GaloisRing, check_ring_order
from .groups import AdditiveGroup, check_rows, digit_columns, floor_divmod, group_for, point_dtype

FENG_INDEX_SETS = (
    (0, 2, 4, 6, 8, 10, 12),
    (0, 1, 2, 3, 4, 5, 6),
    (0, 1, 3, 4, 5, 6, 9),
)


@dataclass(frozen=True, eq=False)
class DifferenceFamily:
    """Base blocks over an additive group, with a declared lambda.

    `blocks` is any (b, k) integer array-like of encodings with every row
    strictly ascending, kept only as block_array() in point_dtype(v) (see
    groups.check_rows, whose ValueError it raises); v is the group's order,
    and k and b are the array's shape.
    """

    group: AdditiveGroup
    blocks: InitVar[np.ndarray]
    lam: int
    name: str = ""
    _array: np.ndarray = dfield(init=False, repr=False)

    def __post_init__(self, blocks):
        object.__setattr__(self, "_array", check_rows(blocks, self.group.order))

    @property
    def v(self) -> int:
        return self.group.order

    @property
    def k(self) -> int:
        return self._array.shape[1]

    @property
    def b(self) -> int:
        return self._array.shape[0]

    def block_array(self) -> np.ndarray:
        """The blocks as a read-only (b, k) array in point_dtype(v)."""
        return self._array

    def __repr__(self):
        """The constructor call, with the blocks as nested lists of rows."""
        return (f"DifferenceFamily(group={self.group!r}, blocks={self._array.tolist()!r}, "
                f"lam={self.lam!r}, name={self.name!r})")

    def _repr_pretty_(self, printer, cycle):
        """Pretty printers (IPython's, hypothesis's) print the repr; their
        dataclass fallback would look up `blocks`, which is init-only."""
        printer.text(repr(self))


@dataclass(frozen=True)
class ValidationReport:
    is_difference_family: bool
    observed_lambda: int | None  # None when the difference counts are not constant
    disjoint: bool
    near_complete: bool
    offending_element: int | None = None


def _teichmuller_coset_rows(ring, parts) -> np.ndarray:
    """Per part: the cosets (1 + p*alpha)*part for alpha in T order, then p*part.

    Rows come back sorted, in one (b, k) array in point_dtype(v).
    Multiplication by a unit is the linear map of its digit matrix
    (GaloisRing.unit_matrix), and x -> p*x that of p*I, so the rows of one
    part are its digit columns (groups.digit_columns), unpacked once and
    mapped by the stack of those matrices (AdditiveGroup.map_columns) in
    chunks of about _EXP_CHUNK accumulator entries, packed straight into
    their rows.
    """
    g, size = ring.group, ring.teich_size
    times_p = ring.p * np.eye(g.digits, dtype=np.int64)
    # 1 + p*alpha: the digits of p*alpha are multiples of p, so adding 1 never carries
    principal = 1 + g.linear_image(times_p, ring.teichmuller)
    maps = np.concatenate((ring.unit_matrix(principal), times_p[None]))
    k = len(parts[0])
    rows = np.empty((len(parts) * (size + 1), k), dtype=point_dtype(g.order))
    chunk = max(1, _EXP_CHUNK // (g.digits * k))
    for i, part in enumerate(parts):
        top = i * (size + 1)
        cols = digit_columns(part, g.base, g.digits)
        for lo in range(0, size + 1, chunk):
            hi = min(lo + chunk, size + 1)
            rows[top + lo : top + hi] = g.pack_columns(g.map_columns(maps[lo:hi], cols))
    rows.sort(axis=1)
    return rows


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
    blocks = field.class_array(e)  # ValueError unless e divides q-1
    f = blocks.shape[1]
    if f < 2:
        raise ValueError("require f = (q-1)/e >= 2")
    return DifferenceFamily(group=field.group, blocks=blocks, lam=f - 1,
                            name=name or f"cyclotomic-e{e}")


def davis_family(ring: GaloisRing, name: str = "gr-teichmuller") -> DifferenceFamily:
    """Teichmüller-coset family in GR(p^2, r).

    Blocks (1+p*alpha)T* for alpha in T, plus p*T*: a near-complete
    (p^2r, p^r - 1, p^r - 2) disjoint difference family.
    """
    return DifferenceFamily(group=ring.group,
                            blocks=_teichmuller_coset_rows(ring, (ring.teichmuller[1:],)),
                            lam=ring.teich_size - 2, name=name)


def squares_family(ring: GaloisRing, name: str = "gr-squares") -> DifferenceFamily:
    """Teichmüller-square-coset family in GR(p^2, r), for odd p with p^r >= 5.

    The 2(p^r + 1) cosets of the subgroup of Teichmüller squares: a
    near-complete (p^2r, (p^r-1)/2, (p^r-3)/2) disjoint difference family.
    """
    return DifferenceFamily(group=ring.group,
                            blocks=_teichmuller_coset_rows(ring, ring.square_split()),
                            lam=(ring.teich_size - 3) // 2, name=name)


def furino_family(ring: GaloisRing, subgroup, name: str = "furino") -> DifferenceFamily:
    """Coset family of an arbitrary unit subgroup B with unit internal differences.

    Representatives are found by a deterministic sweep over element encodings
    in increasing order, marking covered elements; the resulting cosets
    partition the nonzero elements and form a (v, |B|, |B|-1) disjoint
    difference family.
    """
    sub = sorted({int(a) for a in subgroup})  # Python ints: GaloisRing.mul is scalar
    if 1 not in sub:
        raise ValueError("subgroup must contain 1")
    for a in sub:
        for b in sub:
            if ring.mul(a, b) not in sub:
                raise ValueError("given set is not multiplicatively closed")
            if a != b and not ring.is_unit(ring.group.sub(a, b)):
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
    return DifferenceFamily(group=ring.group, blocks=blocks, lam=k - 1, name=name)


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
    classes = field.class_array(14)
    out = []
    for fam_idx, idx in enumerate(FENG_INDEX_SETS, start=1):
        blocks = np.stack([np.sort(classes[list(idx)], axis=None),
                           np.sort(np.delete(classes, idx, axis=0), axis=None)])
        out.append(DifferenceFamily(group=field.group, blocks=blocks, lam=664,
                                    name=f"feng-{fam_idx}"))
    return tuple(out)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

# within-block differences per validate_ddf pass, over whole blocks or, when
# k^2 exceeds it, over a slice of one block's left operand
_VALIDATE_PASS = 1 << 22


def validate_ddf(fam: DifferenceFamily) -> ValidationReport:
    """Brute-force check of the difference-family property.

    Counts every ordered within-block difference and checks the count map is
    constant on the nonzero elements; also reports disjointness and
    near-completeness, which a family does not store.
    """
    g = fam.group
    blocks = fam.block_array()
    b, k = blocks.shape
    rows = max(1, _VALIDATE_PASS // max(k * k, 1))
    cols = max(1, _VALIDATE_PASS // max(k, 1))
    counts = np.zeros(g.order, dtype=np.int64)
    for r0 in range(0, b, rows):
        part = blocks[r0 : r0 + rows]
        for c0 in range(0, k, cols):
            d = g.sub_arrays(part[:, c0 : c0 + cols, None], part[:, None, :])
            counts += np.bincount(d.ravel(), minlength=g.order)
    seen = np.bincount(blocks.ravel(), minlength=g.order)
    disjoint = bool(seen.max(initial=0) <= 1)
    near_complete = bool(disjoint and seen[0] == 0 and blocks.size == g.order - 1)

    nonzero = counts[1:]
    constant = bool(nonzero.size) and int(nonzero.min()) == int(nonzero.max())

    offending = None
    if not disjoint:
        offending = int(np.nonzero(seen > 1)[0][0])
    elif not constant:
        mode = int(np.bincount(nonzero).argmax())
        offending = int(np.nonzero(nonzero != mode)[0][0]) + 1

    return ValidationReport(is_difference_family=constant,
                            observed_lambda=int(nonzero[0]) if constant else None,
                            disjoint=disjoint,
                            near_complete=near_complete,
                            offending_element=offending)


# ---------------------------------------------------------------------------
# file format: header "v k lambda b", one base block per line
# ---------------------------------------------------------------------------

# entries per formatting pass in rows_text_chunks; bounds its byte buffers
_TEXT_CHUNK = 1 << 14


def rows_text_chunks(header: str, slices, sep: str = " "):
    """The header line, then each row of the (n, k) arrays of non-negative
    integers in `slices`, in order, as decimals separated by `sep` (one
    ASCII character), one row per line: yielded as the header line and then
    one string per pass, so a writer holds one chunk of text at a time.  An
    array is passed as its own one slice; a designs.Design or
    designs.Development iterates over its slices.

    Each pass takes a chunk of entries in the smallest unsigned dtype that
    holds its slice and builds fixed-width ASCII digit columns plus a
    separator column (a newline after every k-th entry), then drops the
    leading zeros of each entry by a mask.  Each place takes one quotient
    (groups.floor_divmod), carried to the next place.
    """
    yield f"{header}\n"
    for part in slices:
        k = part.shape[1]
        flat = part.ravel()
        top = int(flat.max(initial=0))
        width = len(str(top))
        for lo in range(0, flat.size, _TEXT_CHUNK):
            rem = flat[lo : lo + _TEXT_CHUNK].astype(np.min_scalar_type(top), copy=False)
            digits = np.empty((width + 1, rem.size), dtype=np.uint8)
            keep = np.ones((width + 1, rem.size), dtype=bool)
            # places from the units up; the units digit always stays, so 0
            # prints as "0", and place j - 1 stays while a quotient is left
            for j in range(width - 1, 0, -1):
                rem = floor_divmod(rem, 10, out=digits[j])[0]
                keep[j - 1] = rem > 0
            digits[0] = rem  # below 10 after width - 1 places
            digits[:width] += ord("0")
            digits[width] = ord(sep)
            digits[width, (k - 1 - lo) % k :: k] = ord("\n")
            yield digits.T[keep.T].tobytes().decode("ascii")


def family_text_chunks(fam: DifferenceFamily):
    """The family file's text in chunks (see rows_text_chunks)."""
    return rows_text_chunks(f"{fam.v} {fam.k} {fam.lam} {fam.b}",
                            (fam.block_array(),))


def save_family(fam: DifferenceFamily, path) -> None:
    with open(path, "w") as fh:
        fh.writelines(family_text_chunks(fam))


def read_rows(lines, count: int, k: int) -> np.ndarray:
    """The non-blank lines as a (count, k) int64 array, for groups.check_rows
    to check; ValueError unless count, k >= 1 and there are count lines of k
    integer tokens each, every one within int64."""
    if count < 1 or k < 1:
        raise ValueError(f"expected at least one block line, each of k = {k} >= 1 entries")
    rows = [line.split() for line in lines if line.strip()]
    if len(rows) != count:
        raise ValueError(f"expected {count} blocks, found {len(rows)}")
    for i, row in enumerate(rows, 1):
        if len(row) != k:
            raise ValueError(f"block line {i} has {len(row)} entries, expected k = {k}")
    try:
        array = np.fromiter(map(int, chain.from_iterable(rows)), dtype=np.int64,
                            count=count * k).reshape(count, k)
    except OverflowError:
        raise ValueError("block entry out of range") from None
    return array


def load_family(path, kind: str, p: int) -> DifferenceFamily:
    """Read a family file over the group of the given kind and prime whose
    order is the header's v, and validate its declared invariants on load."""
    with open(path) as fh:
        lines = fh.read().split("\n")
    header = lines[0].split()
    if len(header) != 4:
        raise ValueError("family header must be 'v k lambda b'")
    group = group_for(kind, p, int(header[0]))
    v, k, lam, b = (int(x) for x in header)
    # the constructions' table budgets cap a loaded group too, before any
    # table of v entries is allocated
    (check_field_order if group.kind == "field" else check_ring_order)(p, group.digits)
    fam = DifferenceFamily(group=group, blocks=read_rows(lines[1:], b, k), lam=lam,
                           name="imported")
    if lam * (v - 1) != b * k * (k - 1):
        raise ValueError("declared parameters violate lambda*(v-1) = b*k*(k-1)")
    return fam
