"""Cyclotomic-number tables: exact counts, closed forms, and consistency checks.

The cyclotomic number (i, j)_e counts |(C_i + 1) & C_j| for the cyclotomic
cosets C_0..C_{e-1} of the e-th powers: the cells at d = -1 of the
difference route for the order-e coset family, counted exactly as one
strip of the kernel's cell layout (_kernels.strip_cells): row i is C_i,
and x in it lands in the class of x + 1, or in no class (e) at x = -1.
A table keeps its cells as one read-only (e, e) int64 array with a
read-only bool `known` mask.  Closed forms may leave cells unknown; those
are masked out (and stored as 0), never read as zeros, since conflating
them would corrupt the order-e/order-2e sum relation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import check_budget
from .families import rows_text_chunks
from .fields import Field, build_field
from .groups import mod

CYCLO_CELL_BUDGET = 2 ** 22  # e*e cells; admits every order-2(t+1) table to t = 1009
_STRIP_CELLS = 1 << 16  # cells per row strip of closed_form_holds


@dataclass(frozen=True, eq=False)
class CyclotomicTable:
    """The order-e table of F_q with coset size f = (q-1)/e.

    `cells` is any (e, e) integer array-like and `known` an (e, e) bool
    mask (default: every cell known, one True broadcast); unknown cells must
    hold 0.  Both are kept as read-only views.
    """

    e: int
    q: int
    f: int
    cells: np.ndarray
    known: np.ndarray | None = None

    def __post_init__(self):
        cells = np.asarray(self.cells, dtype=np.int64).reshape(self.e, self.e)
        known = np.broadcast_to(True, (self.e, self.e)) if self.known is None \
            else np.asarray(self.known, dtype=bool).reshape(self.e, self.e)
        if self.known is not None and np.any(cells, where=~known):
            raise ValueError("unknown cells must hold 0")
        for name, array in (("cells", cells), ("known", known)):
            array.flags.writeable = False  # a view, so the caller's array stays writable
            object.__setattr__(self, name, array)

    def entry(self, i: int, j: int):
        """Cell (i, j), indices mod e, as an int; None when unknown."""
        i, j = i % self.e, j % self.e
        return int(self.cells[i, j]) if self.known[i, j] else None

    def fully_known(self) -> bool:
        return bool(self.known.all())


def cyclotomic_table(field: Field, e: int) -> CyclotomicTable:
    """The exact order-e table of F_q, counted over every nonzero x at once.

    Raises ValueError unless e divides q - 1, then BudgetError before any
    allocation when e*e exceeds CYCLO_CELL_BUDGET.
    """
    f = field._coset_size(e)
    check_budget("cyclotomic table", CYCLO_CELL_BUDGET, "cells (e*e)", e * e)
    classes = field.class_array(e)
    cls = np.full(field.q, e, dtype=np.min_scalar_type(e))  # 0 stays in no class
    cls[classes] = np.arange(e)[:, None]
    # x + 1 adds 1 to digit 0 mod p (the identity packs to 1): x + 1, less
    # p where digit 0 is p - 1, in the classes' own dtype
    one_more = classes + 1
    np.subtract(one_more, field.p, out=one_more, where=mod(classes, field.p) == field.p - 1)
    cells = _kernels.strip_cells(cls[one_more], e)
    return CyclotomicTable(e=e, q=field.q, f=f, cells=cells.reshape(e, e + 1)[:, :e])


def order_two_numbers(q: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """((0,0), (0,1)), ((1,0), (1,1)) of the order-2 table of F_q, odd q, in closed form."""
    if q % 2 == 0:
        raise ValueError("order-2 cyclotomic numbers require odd q")
    if q % 4 == 1:
        return ((q - 5) // 4, (q - 1) // 4), ((q - 1) // 4, (q - 1) // 4)
    return ((q - 3) // 4, (q + 1) // 4), ((q - 3) // 4, (q - 3) // 4)


def _known_cells(t: int, m: int):
    """Rows and columns, as broadcasting (m, m, 3t + 1) index arrays, of the
    cells that the order-m(t + 1) closed form of F_(t^2) gives outright, and
    the (m, m) values at their corners, index 0 of the last axis.  With
    e = t + 1 these are the cells (a*e + i, b*e + j), a, b < m, at i = 0,
    j = 0 or i = j, each 0 but the corner (a*e, b*e).  For every other
    (i, j) the m*m cells (a*e + i, b*e + j) add up to 1."""
    span, shifts = np.arange(t + 1), (t + 1) * np.arange(m)
    i = np.concatenate((0 * span, span[1:], span[1:]))
    j = np.concatenate((span, 0 * span[1:], span[1:]))
    corners = [[t - 2]] if m == 1 else order_two_numbers(t)
    return shifts[:, None, None] + i, shifts[None, :, None] + j, corners


def closed_form_order_e(p: int, r: int) -> CyclotomicTable:
    """The full order-(p^r + 1) table for F_{p^2r}: (0,0) = p^r - 2; first
    row, first column and diagonal vanish elsewhere; every other entry is 1."""
    t = p ** r
    cells = np.ones((t + 1, t + 1), dtype=np.int64)
    rows, cols, corners = _known_cells(t, 1)
    cells[rows, cols] = 0
    cells[:: t + 1, :: t + 1] = corners  # (0,0)
    return CyclotomicTable(e=t + 1, q=t * t, f=t - 1, cells=cells)


def closed_form_order_2e(p: int, r: int) -> CyclotomicTable:
    """The order-2(p^r + 1) table for F_{p^2r}, with unknown cells.

    Rows and columns 0 and e, the diagonal and the shifted diagonal are 0
    but the cells (i*e, j*e), which read the order-2 numbers of F_{p^r}.
    Every other cell is in a quadruple {(i,j), (i,j+e), (i+e,j), (i+e,j+e)}
    holding one 1 and three 0s; which one is open, so they stay unknown.
    """
    if p == 2:
        raise ValueError("the order-2e table requires odd p")
    t = p ** r
    n = 2 * (t + 1)
    rows, cols, corners = _known_cells(t, 2)
    known = np.zeros((n, n), dtype=bool)
    known[rows, cols] = True
    cells = np.zeros((n, n), dtype=np.int64)  # written at the corners only
    cells[:: t + 1, :: t + 1] = corners  # (0,0), (0,e), (e,0), (e,e)
    return CyclotomicTable(e=n, q=t * t, f=(t - 1) // 2, cells=cells, known=known)


def closed_form_holds(table: CyclotomicTable, t: int) -> bool:
    """Whether a counted order-(t + 1) or order-2(t + 1) table of F_(t^2) is
    its closed form (_known_cells), with no closed-form table built: one
    gather of the known cells, then the sums of the other (i, j), 1 <= i,
    j < e, from an (m, e, m, e) view of the cells in strips of about 2^16.
    """
    e, m = t + 1, table.e // (t + 1)
    rows, cols, corners = _known_cells(t, m)
    given = table.cells[rows, cols]
    given[:, :, 0] -= corners
    quads = table.cells.reshape(m, e, m, e)  # cell (a*e + i, b*e + j) at [a, i, b, j]
    step = max(1, _STRIP_CELLS // e)  # rows per strip
    # the sums at i = j are known zeros: e - 2 ones per row are 1 at every other j
    return not given.any() and all(
        np.count_nonzero(quads[:, lo : lo + step, :, 1:].sum(axis=(0, 2)) == 1)
        == (min(lo + step, e) - lo) * (e - 2) for lo in range(1, e, step))


def unknown_quadruples(table: CyclotomicTable) -> list[tuple]:
    """Index quadruples {(i,j), (i,j+e), (i+e,j), (i+e,j+e)} left unknown,
    1 <= i, j < e, i != j; AssertionError if any of their cells is known."""
    e = table.e // 2
    mask = ~np.eye(e, dtype=bool)
    mask[0] = mask[:, 0] = False
    if (table.known.reshape(2, e, 2, e).any(axis=(0, 2)) & mask).any():
        raise AssertionError("quadruple cell unexpectedly known")
    rows, cols = np.nonzero(mask)
    return [((i, j), (i, j + e), (i + e, j), (i + e, j + e))
            for i, j in zip(rows.tolist(), cols.tolist())]


def dickson_counts(p: int, r: int) -> tuple[int, int, int, int]:
    """Consecutive square/non-square counts (QQ, QN, NN, NQ) in F_{p^r}.

    These are the cells (0,0), (0,1), (1,1) and (1,0) of the order-2
    cyclotomic table, counted and asserted against the order-2 numbers of
    F_{p^r} that order_two_numbers reads off in closed form.
    """
    if p == 2:
        raise ValueError("consecutive-residue counts require odd p")
    table = cyclotomic_table(build_field(p, r), 2)
    counted = tuple(map(tuple, table.cells.tolist()))
    expected = order_two_numbers(table.q)
    if counted != expected:
        raise AssertionError(f"order-2 numbers {counted} != closed form {expected}")
    (qq, qn), (nq, nn) = counted
    return qq, qn, nn, nq


def check_sum_relation(table_e: CyclotomicTable, table_2e: CyclotomicTable):
    """Verify (i,j)_e = sum of the four matching order-2e entries, for all cells.

    Returns (True, None) or (False, witness_cell).
    """
    if table_e.q != table_2e.q:
        raise ValueError("tables must come from the same field")
    e = table_e.e
    if table_2e.e != 2 * e:
        raise ValueError("second table must have twice the order of the first")
    if not (table_e.fully_known() and table_2e.fully_known()):
        raise ValueError("sum relation needs fully known tables")
    bad = np.flatnonzero(table_e.cells != table_2e.cells.reshape(2, e, 2, e).sum(axis=(0, 2)))
    if bad.size == 0:
        return True, None
    return False, divmod(int(bad[0]), e)


def table_to_csv(table: CyclotomicTable) -> str:
    """Header line "e,f,q", then the e rows of cells, "?" for an unknown cell."""
    header = f"{table.e},{table.f},{table.q}"
    if table.fully_known():
        return "".join(rows_text_chunks(header, (table.cells,), sep=","))
    rows = (",".join(np.where(known, cells.astype(str), "?").tolist())  # one row at a time
            for cells, known in zip(table.cells, table.known))
    return "\n".join([header, *rows]) + "\n"
