"""Cyclotomic-number tables: exact counts, closed forms, and consistency checks.

The cyclotomic number (i, j)_e counts |(C_i + 1) & C_j| for the cyclotomic
cosets C_0..C_{e-1} of the e-th powers: the cells at d = -1 of the
difference route for the order-e coset family, counted exactly as one
bincount of class(x) * e + class(x + 1).  Closed-form tables may contain
unknown entries; those are first-class (None) values, never zeros, since
conflating them would corrupt the order-e/order-2e sum relation.  The
checks work on arrays: `table_arrays` gives the int64 cells with a mask of
the known ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import BudgetError
from .fields import Field, build_field

CYCLO_CELL_BUDGET = 2 ** 22  # e*e cells; admits every order-2(t+1) table to t = 1009


@dataclass(frozen=True)
class CyclotomicTable:
    e: int
    q: int
    f: int  # coset size (q-1)/e
    values: tuple  # e rows of e entries, each int or None for unknown

    def entry(self, i: int, j: int):
        return self.values[i % self.e][j % self.e]

    def fully_known(self) -> bool:
        return not any(None in row for row in self.values)


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
    return CyclotomicTable(e=e, q=field.q, f=(field.q - 1) // e,
                           values=tuple(map(tuple, table.reshape(e, e).tolist())))


def closed_form_order_e(p: int, r: int) -> CyclotomicTable:
    """The full order-(p^r + 1) table for F_{p^2r}.

    (0,0) = p^r - 2; first row, first column and diagonal vanish elsewhere;
    every remaining entry is 1.
    """
    t = p ** r
    e = t + 1
    values = [[1] * e for _ in range(e)]
    for i in range(e):
        values[0][i] = values[i][0] = values[i][i] = 0
    values[0][0] = t - 2
    return CyclotomicTable(e=e, q=t * t, f=t - 1,
                           values=tuple(tuple(row) for row in values))


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
    values: list[list] = [[None] * n for _ in range(n)]
    if t % 4 == 1:
        values[0][0] = (t - 5) // 4
        values[0][e] = values[e][0] = values[e][e] = (t - 1) // 4
    else:
        values[0][e] = (t + 1) // 4
        values[0][0] = values[e][0] = values[e][e] = (t - 3) // 4
    for i in range(n):
        if i in (0, e):
            continue
        values[0][i] = values[i][0] = 0
        values[i][e] = values[e][i] = 0
        values[i][i] = 0
        values[i][(i + e) % n] = 0
    return CyclotomicTable(e=n, q=t * t, f=(t - 1) // 2,
                           values=tuple(tuple(row) for row in values))


def table_arrays(table: CyclotomicTable) -> tuple[np.ndarray, np.ndarray]:
    """(values, known): the (e, e) int64 cells and the mask of known cells.

    Unknown cells read 0 in `values`; compare them only under `known`.
    """
    e = table.e
    try:  # one pass when every cell is known; it stops at the first None
        values = np.fromiter(chain.from_iterable(table.values), dtype=np.int64,
                             count=e * e)
        return values.reshape(e, e), np.ones((e, e), dtype=bool)
    except TypeError:
        pass
    cells = np.fromiter(chain.from_iterable(table.values), dtype=object,
                        count=e * e).reshape(e, e)
    known = cells != None  # noqa: E711 -- an elementwise test on arrays
    cells[~known] = 0
    return cells.astype(np.int64), known


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
    rows, cols = np.nonzero(quadruple_mask(table_arrays(table)[1]))
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
    (qq, qn), (nq, nn) = table.values
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
    values_e, known_e = table_arrays(table_e)
    values_2e, known_2e = table_arrays(table_2e)
    if not (known_e.all() and known_2e.all()):
        raise ValueError("sum relation needs fully known tables")
    bad = np.flatnonzero(values_e != quadruple_sums(values_2e))
    if bad.size == 0:
        return True, None
    return False, divmod(int(bad[0]), e)


def count_summary(table: CyclotomicTable) -> dict[int, int]:
    """Frequency map N -> number of cells equal to N, N ascending; requires a known table."""
    values, known = table_arrays(table)
    if not known.all():
        raise ValueError("count summary requires a fully known table")
    counts = np.bincount(values.ravel())
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
    lines = [f"{table.e},{table.f},{table.q}"]
    for row in table.values:
        lines.append(",".join("?" if x is None else str(x) for x in row))
    return "\n".join(lines) + "\n"


def save_table(table: CyclotomicTable, path) -> None:
    with open(path, "w") as fh:
        fh.write(table_to_csv(table))
