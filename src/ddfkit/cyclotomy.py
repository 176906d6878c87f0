"""Cyclotomic-number tables: exact counts, closed forms, and consistency checks.

The cyclotomic number (i, j)_e counts |(C_i + 1) & C_j| for the cyclotomic
cosets C_0..C_{e-1} of the e-th powers: the cells at d = -1 of the
difference route for the order-e coset family, counted exactly as one
bincount of class(x) * e + class(x + 1).  A table keeps its cells as one
read-only (e, e) int64 array with a read-only bool `known` mask.  Closed
forms may leave cells unknown; those are masked out (and stored as 0),
never read as zeros, since conflating them would corrupt the
order-e/order-2e sum relation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BudgetError
from .families import rows_to_text
from .fields import Field, build_field

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

    Raises BudgetError before any allocation when e*e exceeds
    CYCLO_CELL_BUDGET, and ValueError unless e divides q - 1.
    """
    if e * e > CYCLO_CELL_BUDGET:
        raise BudgetError(f"cyclotomic table capped at {CYCLO_CELL_BUDGET} cells (e*e), "
                          f"got {e * e}")
    cls = field.class_index(e)
    x = np.arange(1, field.q, dtype=np.int64)
    y = field.group.add_arrays(x, 1)  # the multiplicative identity packs to 1
    keep = y != 0
    table = np.bincount(cls[x[keep]] * e + cls[y[keep]], minlength=e * e)
    return CyclotomicTable(e=e, q=field.q, f=(field.q - 1) // e, cells=table)


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

    The four cells with both indices in {0, e} follow the two congruence
    cases of p^r mod 4.  Six zero patterns cover the remaining row-0/row-e/
    column-0/column-e/diagonal/shifted-diagonal cells.  Every other cell
    belongs to a quadruple {(i,j), (i,j+e), (i+e,j), (i+e,j+e)} that sums
    to 1 with exactly one entry equal to 1; which one is open, so those
    cells stay unknown.
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
    if t % 4 == 1:  # cells (0,0), (0,e), (e,0), (e,e)
        cells[::e, ::e] = [[(t - 5) // 4, (t - 1) // 4], [(t - 1) // 4, (t - 1) // 4]]
    else:
        cells[::e, ::e] = [[(t - 3) // 4, (t + 1) // 4], [(t - 3) // 4, (t - 3) // 4]]
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
    cyclotomic table, asserted against the classical closed forms for both
    congruence classes of p^r mod 4.
    """
    if p == 2:
        raise ValueError("consecutive-residue counts require odd p")
    table = cyclotomic_table(build_field(p, r), 2)
    qq, qn, nq, nn = (int(x) for x in table.cells.flat)
    q = table.q
    if q % 4 == 1:
        expected = ((q - 5) // 4, (q - 1) // 4, (q - 1) // 4, (q - 1) // 4)
    else:
        expected = ((q - 3) // 4, (q + 1) // 4, (q - 3) // 4, (q - 3) // 4)
    if (qq, qn, nn, nq) != expected:
        raise AssertionError(
            f"consecutive-residue counts {(qq, qn, nn, nq)} != closed form {expected}")
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


def count_summary(table: CyclotomicTable) -> dict[int, int]:
    """Frequency map N -> number of cells equal to N, N ascending; requires a known table."""
    if not table.fully_known():
        raise ValueError("count summary requires a fully known table")
    counts = np.bincount(table.cells.ravel())
    present = np.flatnonzero(counts)
    freq = dict(zip(present.tolist(), counts[present].tolist()))
    if sum(freq.values()) != table.e ** 2:
        raise AssertionError("cell count does not match e^2")
    # tables of order p^r + 1 over F_{p^2r} carry known frequencies
    t = table.e - 1
    if t > 3 and t * t == table.q:
        if freq.get(0) != 3 * t or freq.get(1) != t * (t - 1) or freq.get(t - 2) != 1:
            raise AssertionError("order-(p^r+1) frequency identities failed")
    return freq


def table_to_csv(table: CyclotomicTable) -> str:
    """Header line "e,f,q", then the e rows of cells, "?" for an unknown cell."""
    header = f"{table.e},{table.f},{table.q}"
    if table.fully_known():
        return rows_to_text(header, table.cells, sep=",")
    text = np.where(table.known, table.cells.astype(str), "?")
    return "\n".join([header] + [",".join(row) for row in text]) + "\n"


def save_table(table: CyclotomicTable, path) -> None:
    with open(path, "w") as fh:
        fh.write(table_to_csv(table))
