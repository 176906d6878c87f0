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


@dataclass(frozen=True, eq=False)
class CyclotomicTable:
    """The order-e table of F_q with coset size f = (q-1)/e.

    `cells` is any (e, e) integer array-like and `known` an (e, e) bool
    mask (default: every cell known); unknown cells must hold 0.  Both are
    kept as read-only views.
    """

    e: int
    q: int
    f: int
    cells: np.ndarray
    known: np.ndarray | None = None

    def __post_init__(self):
        cells = np.asarray(self.cells, dtype=np.int64).reshape(self.e, self.e)
        known = np.ones((self.e, self.e), dtype=bool) if self.known is None \
            else np.asarray(self.known, dtype=bool).reshape(self.e, self.e)
        if cells[~known].any():
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


def closed_form_order_e(p: int, r: int) -> CyclotomicTable:
    """The full order-(p^r + 1) table for F_{p^2r}.

    (0,0) = p^r - 2; first row, first column and diagonal vanish elsewhere;
    every remaining entry is 1.
    """
    t = p ** r
    e = t + 1
    cells = np.ones((e, e), dtype=np.int64)
    cells[0] = cells[:, 0] = 0
    np.fill_diagonal(cells, 0)
    cells[0, 0] = t - 2
    return CyclotomicTable(e=e, q=t * t, f=t - 1, cells=cells)


def closed_form_order_2e(p: int, r: int) -> CyclotomicTable:
    """The order-2(p^r + 1) table for F_{p^2r}, with unknown cells.

    The four cells with both indices in {0, e} read the order-2 numbers of
    F_{p^r}, (i, j) at (i*e, j*e).  Six zero patterns cover the remaining
    row-0/row-e/column-0/column-e/diagonal/shifted-diagonal cells.  Every
    other cell belongs to a quadruple {(i,j), (i,j+e), (i+e,j), (i+e,j+e)}
    that sums to 1 with exactly one entry equal to 1; which one is open, so
    those cells stay unknown.
    """
    if p == 2:
        raise ValueError("the order-2e table requires odd p")
    t = p ** r
    e = t + 1
    n = 2 * e
    known = np.zeros((n, n), dtype=bool)
    known[::e] = known[:, ::e] = True  # rows and columns 0 and e
    np.fill_diagonal(known, True)
    rows = np.arange(n)
    known[rows, (rows + e) % n] = True
    cells = np.zeros((n, n), dtype=np.int64)
    cells[::e, ::e] = order_two_numbers(t)  # cells (0,0), (0,e), (e,0), (e,e)
    return CyclotomicTable(e=n, q=t * t, f=(t - 1) // 2, cells=cells, known=known)


def quadruple_sums(values: np.ndarray) -> np.ndarray:
    """(e, e) sums a[i,j] + a[i,j+e] + a[i+e,j] + a[i+e,j+e] of a (2e, 2e) array."""
    e = values.shape[0] // 2
    return values[:e, :e] + values[:e, e:] + values[e:, :e] + values[e:, e:]


def quadruple_mask(known: np.ndarray) -> np.ndarray:
    """(e, e) mask of the (i, j) with 1 <= i, j < e and i != j.

    `known` is the (2e, 2e) known mask of an order-2e table.  Each masked
    (i, j) stands for the quadruple {(i,j), (i,j+e), (i+e,j), (i+e,j+e)},
    none of whose cells may be known (AssertionError otherwise).
    """
    e = known.shape[0] // 2
    mask = ~np.eye(e, dtype=bool)
    mask[0] = mask[:, 0] = False
    if quadruple_sums(known)[mask].any():
        raise AssertionError("quadruple cell unexpectedly known")
    return mask


def unknown_quadruples(table: CyclotomicTable) -> list[tuple]:
    """Index quadruples {(i,j), (i,j+e), (i+e,j), (i+e,j+e)} left unknown."""
    e = table.e // 2
    rows, cols = np.nonzero(quadruple_mask(table.known))
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
    bad = np.flatnonzero(table_e.cells != quadruple_sums(table_2e.cells))
    if bad.size == 0:
        return True, None
    return False, divmod(int(bad[0]), e)


def table_to_csv(table: CyclotomicTable) -> str:
    """Header line "e,f,q", then the e rows of cells, "?" for an unknown cell."""
    header = f"{table.e},{table.f},{table.q}"
    if table.fully_known():
        return "".join(rows_text_chunks(header, (table.cells,), sep=","))
    text = np.where(table.known, table.cells.astype(str), "?")
    return "\n".join([header] + [",".join(row) for row in text]) + "\n"
