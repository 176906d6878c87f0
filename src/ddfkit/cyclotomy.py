"""Cyclotomic-number tables: exact counts, closed forms, and consistency checks.

The cyclotomic number (i, j)_e counts |(C_i + 1) & C_j| for the cyclotomic
cosets C_0..C_{e-1} of the e-th powers: the cells at d = -1 of the
difference route for the order-e coset family, counted exactly as one
bincount of class(x) * e + class(x + 1).  Closed-form tables may contain
unknown entries; those are first-class (None) values, never zeros, since
conflating them would corrupt the order-e/order-2e sum relation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import Field, build_field


@dataclass(frozen=True)
class CyclotomicTable:
    e: int
    q: int
    f: int  # coset size (q-1)/e
    values: tuple  # e rows of e entries, each int or None for unknown

    def entry(self, i: int, j: int):
        return self.values[i % self.e][j % self.e]

    def fully_known(self) -> bool:
        return all(x is not None for row in self.values for x in row)


def cyclotomic_table(field: Field, e: int) -> CyclotomicTable:
    """The exact order-e table of F_q, counted over every nonzero x at once.

    Raises ValueError unless e divides q - 1.
    """
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


def unknown_quadruples(table: CyclotomicTable) -> list[tuple]:
    """Index quadruples {(i,j), (i,j+e), (i+e,j), (i+e,j+e)} left unknown."""
    n = table.e
    e = n // 2
    quads = []
    for i in range(1, e):
        for j in range(1, e):
            if i == j:
                continue
            quads.append(((i, j), (i, j + e), (i + e, j), (i + e, j + e)))
    for quad in quads:
        if any(table.entry(i, j) is not None for i, j in quad):
            raise AssertionError("quadruple cell unexpectedly known")
    return quads


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
    if not (table_e.fully_known() and table_2e.fully_known()):
        raise ValueError("sum relation needs fully known tables")
    for i in range(e):
        for j in range(e):
            total = (table_2e.entry(i, j) + table_2e.entry(i, j + e)
                     + table_2e.entry(i + e, j) + table_2e.entry(i + e, j + e))
            if table_e.entry(i, j) != total:
                return False, (i, j)
    return True, None


def count_summary(table: CyclotomicTable) -> dict[int, int]:
    """Frequency map N -> number of cells equal to N; requires a known table."""
    if not table.fully_known():
        raise ValueError("count summary requires a fully known table")
    freq: dict[int, int] = {}
    for row in table.values:
        for x in row:
            freq[x] = freq.get(x, 0) + 1
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
