"""Cyclotomic-number tables: vectorised counts vs a scalar reference and
closed forms, Dickson counts."""

import numpy as np
import pytest

from ddfkit import (build_field, build_ring, check_sum_relation,
                    closed_form_order_2e, closed_form_order_e, count_summary,
                    cyclotomic_table, dickson_counts, unknown_quadruples)
from ddfkit.arith import factorize
from ddfkit.cyclotomy import CyclotomicTable, table_to_csv

# (p, r) pairs indexed by t = p^r; tables live in F_{t^2}
SUBFIELD_CASES = {3: (3, 1), 5: (5, 1), 7: (7, 1), 9: (3, 2), 13: (13, 1), 25: (5, 2)}


def _cyclotomic_reference(field, e, successors=None):
    """The scalar table: one field.add per nonzero x, counted into cell
    (class(x), class(x + 1)) when x + 1 != 0."""
    cls = field.class_index(e)
    if successors is None:
        successors = [(x, field.add(x, 1)) for x in range(1, field.q)]
    table = [[0] * e for _ in range(e)]
    for x, y in successors:
        if y != 0:
            table[cls[x]][cls[y]] += 1
    return tuple(tuple(row) for row in table)


def _rows(table):
    """The table as tuples of rows, None for an unknown cell."""
    return tuple(tuple(table.entry(i, j) for j in range(table.e)) for i in range(table.e))


def _closed_form_order_e_reference(p, r):
    """The order-(t+1) closed form built cell by cell as nested lists."""
    t = p ** r
    e = t + 1
    values = [[1] * e for _ in range(e)]
    for i in range(e):
        values[0][i] = values[i][0] = values[i][i] = 0
    values[0][0] = t - 2
    return tuple(tuple(row) for row in values)


def _closed_form_order_2e_reference(p, r):
    """The order-2(t+1) closed form built cell by cell, None when unknown."""
    t = p ** r
    e = t + 1
    n = 2 * e
    values = [[None] * n for _ in range(n)]
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
    return tuple(tuple(row) for row in values)


def _csv_reference(table):
    """CSV text joined cell by cell, "?" for an unknown cell."""
    lines = [f"{table.e},{table.f},{table.q}"]
    for row in _rows(table):
        lines.append(",".join("?" if x is None else str(x) for x in row))
    return "\n".join(lines) + "\n"


def _prime_powers(limit):
    for q in range(2, limit + 1):
        primes = factorize(q)
        if len(set(primes)) == 1:
            yield q, primes[0], len(primes)


def test_table_matches_scalar_reference_every_field_to_2000():
    # e = 1, the least e > 1, the largest e <= sqrt(q), and e = q - 1 where
    # its (q - 1)^2 cells stay small
    fields = 0
    for q, p, n in _prime_powers(2000):
        field = build_field(p, n)
        successors = [(x, field.add(x, 1)) for x in range(1, q)]
        divisors = [e for e in range(1, q) if (q - 1) % e == 0]
        orders = {1, divisors[min(1, len(divisors) - 1)],
                  max(e for e in divisors if e * e <= q)}
        if q <= 512:
            orders.add(q - 1)
        for e in sorted(orders):
            table = cyclotomic_table(field, e)
            assert (table.e, table.q, table.f) == (e, q, (q - 1) // e), (q, e)
            assert _rows(table) == _cyclotomic_reference(field, e, successors), (q, e)
        fields += 1
    assert fields == 333


def test_table_rejects_non_divisor():
    with pytest.raises(ValueError):
        cyclotomic_table(build_field(5, 2), 5)


def test_table_arrays_match_cells():
    known_table = cyclotomic_table(build_field(5, 2), 8)
    partial = closed_form_order_2e(5, 1)
    assert known_table.fully_known() and not partial.fully_known()
    for table in (known_table, partial):
        assert table.cells.dtype == np.int64 and table.known.dtype == bool
        assert table.cells.shape == table.known.shape == (table.e, table.e)
        for array in (table.cells, table.known):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0, 0] = 1
        for i in range(table.e):
            for j in range(table.e):
                cell = table.entry(i, j)
                assert table.known[i, j] == (cell is not None)
                assert table.cells[i, j] == (0 if cell is None else cell)
    # the caller's arrays stay writable; an unknown cell must hold 0
    cells, known = np.zeros((2, 2), dtype=np.int64), np.eye(2, dtype=bool)
    CyclotomicTable(e=2, q=5, f=2, cells=cells, known=known)
    cells[0, 1] = 1
    with pytest.raises(ValueError, match="unknown cells must hold 0"):
        CyclotomicTable(e=2, q=5, f=2, cells=cells, known=known)


def test_brute_force_f9_order4():
    table = cyclotomic_table(build_field(3, 2), 4)
    assert table.entry(0, 0) == 1  # p^r - 2 at p^r = 3
    for i in range(1, 4):
        assert table.entry(0, i) == table.entry(i, 0) == table.entry(i, i) == 0
    for i in range(1, 4):
        for j in range(1, 4):
            if i != j:
                assert table.entry(i, j) == 1


def test_brute_force_f13_order2():
    table = cyclotomic_table(build_field(13, 1), 2)
    assert table.entry(0, 0) == 2  # (13 - 5) / 4


def test_brute_force_f49_order8():
    table = cyclotomic_table(build_field(7, 2), 8)
    assert table.entry(0, 0) == 5  # p^r - 2 at p^r = 7


def test_closed_form_order_e_matches_brute_force():
    for t, (p, r) in SUBFIELD_CASES.items():
        closed = closed_form_order_e(p, r)
        field = build_field(p, 2 * r)
        brute = cyclotomic_table(field, t + 1)
        assert np.array_equal(closed.cells, brute.cells), f"t={t}"
        assert _rows(closed) == _cyclotomic_reference(field, t + 1), f"t={t}"
        assert closed.q == brute.q and closed.f == brute.f


def test_closed_form_order_2e_special_cells():
    table = closed_form_order_2e(5, 2)  # t = 25, residue 1 mod 4
    assert table.entry(0, 0) == 5
    assert table.entry(0, 26) == table.entry(26, 0) == table.entry(26, 26) == 6
    table = closed_form_order_2e(7, 1)  # t = 7, residue 3 mod 4
    assert table.entry(0, 8) == 2
    assert table.entry(0, 0) == table.entry(8, 0) == table.entry(8, 8) == 1


def test_closed_form_order_2e_matches_brute_force():
    for t in (5, 7, 9, 13, 25):
        p, r = SUBFIELD_CASES[t]
        closed = closed_form_order_2e(p, r)
        field = build_field(p, 2 * r)
        brute = cyclotomic_table(field, 2 * (t + 1))
        assert _rows(brute) == _cyclotomic_reference(field, 2 * (t + 1)), t
        for i in range(closed.e):
            for j in range(closed.e):
                known = closed.entry(i, j)
                if known is not None:
                    assert known == brute.entry(i, j), (t, i, j)
        # each unknown quadruple holds exactly one 1 and three 0s
        for quad in unknown_quadruples(closed):
            vals = sorted(brute.entry(i, j) for i, j in quad)
            assert vals == [0, 0, 0, 1], (t, quad)


def test_unknown_quadruples_match_loop_reference():
    for p, r in [(5, 1), (3, 2), (7, 1)]:
        closed = closed_form_order_2e(p, r)
        e = closed.e // 2
        assert unknown_quadruples(closed) == [
            ((i, j), (i, j + e), (i + e, j), (i + e, j + e))
            for i in range(1, e) for j in range(1, e) if i != j]
    known = closed.known.copy()
    known[2 + e, 1] = True  # one cell of the quadruple at (2, 1) becomes known
    known_cell = CyclotomicTable(e=closed.e, q=closed.q, f=closed.f,
                                 cells=closed.cells, known=known)
    with pytest.raises(AssertionError, match="quadruple cell unexpectedly known"):
        unknown_quadruples(known_cell)


def test_sum_relation():
    f9 = build_field(3, 2)
    ok, witness = check_sum_relation(cyclotomic_table(f9, 4), cyclotomic_table(f9, 8))
    assert ok and witness is None
    f625 = build_field(5, 4)
    ok, witness = check_sum_relation(cyclotomic_table(f625, 26),
                                     cyclotomic_table(f625, 52))
    assert ok and witness is None


def test_sum_relation_detects_corruption():
    f9 = build_field(3, 2)
    te = cyclotomic_table(f9, 4)
    t2e = cyclotomic_table(f9, 8)
    cells = t2e.cells.copy()
    cells[1, 2] += 1
    cells[3, 1] += 1  # a later cell in row-major order, an earlier one by columns
    corrupted = CyclotomicTable(e=t2e.e, q=t2e.q, f=t2e.f, cells=cells)
    ok, witness = check_sum_relation(te, corrupted)
    assert not ok
    assert witness == (1, 2)


def test_sum_relation_rejects_mismatched_tables():
    f9 = build_field(3, 2)
    f25 = build_field(5, 2)
    with pytest.raises(ValueError):
        check_sum_relation(cyclotomic_table(f9, 4), cyclotomic_table(f25, 8))
    with pytest.raises(ValueError):
        check_sum_relation(cyclotomic_table(f9, 2), cyclotomic_table(f9, 8))


def test_dickson_counts_examples():
    assert dickson_counts(13, 1) == (2, 3, 3, 3)
    assert dickson_counts(7, 1) == (1, 2, 1, 1)
    # exhaustive oracle at p^r = 5: squares {1, 4}; 1+1=2 non-square,
    # 4+1=0 dropped; 2+1=3 non-square, 3+1=4 square
    assert dickson_counts(5, 1) == (0, 1, 1, 1)


def test_dickson_counts_all_odd_prime_powers_to_121():
    cases = [(3, 1), (5, 1), (7, 1), (3, 2), (11, 1), (13, 1), (17, 1), (19, 1),
             (23, 1), (5, 2), (3, 3), (29, 1), (31, 1), (37, 1), (41, 1),
             (43, 1), (47, 1), (7, 2), (53, 1), (59, 1), (61, 1), (67, 1),
             (71, 1), (73, 1), (79, 1), (3, 4), (83, 1), (89, 1), (97, 1),
             (101, 1), (103, 1), (107, 1), (109, 1), (113, 1), (11, 2)]
    from ddfkit.arith import factorize
    odd_prime_powers = [q for q in range(3, 122, 2) if len(set(factorize(q))) == 1]
    assert sorted(p ** r for p, r in cases) == odd_prime_powers
    for p, r in cases:
        qq, qn, nn, nq = dickson_counts(p, r)  # asserts the closed form internally
        q = p ** r
        # every square s with s+1 != 0 lands in QQ or QN; -1 is a square
        # exactly when q = 1 (mod 4)
        assert qq + qn == (q - 1) // 2 - (1 if q % 4 == 1 else 0)
        assert nn + nq == (q - 1) // 2 - (1 if q % 4 == 3 else 0)


def test_dickson_rejects_even_characteristic():
    with pytest.raises(ValueError):
        dickson_counts(2, 3)


def test_count_summary_f625_order26():
    table = cyclotomic_table(build_field(5, 4), 26)
    freq = count_summary(table)
    assert freq[0] == 75 and freq[1] == 600 and freq[23] == 1
    assert sum(freq.values()) == 26 ** 2


def test_count_summary_f9_order4():
    freq = count_summary(cyclotomic_table(build_field(3, 2), 4))
    assert freq == {0: 9, 1: 7}  # key 1 absorbs the p^r - 2 = 1 cell


def test_count_summary_rejects_unknowns():
    with pytest.raises(ValueError):
        count_summary(closed_form_order_2e(5, 1))


def test_row_sum_rule():
    # sum_j (i,j)_e = f - 1 if -1 lies in C_i, else f; fields up to q = 2401
    for (p, n), e in [((3, 2), 4), ((5, 2), 6), ((7, 2), 16), ((13, 1), 4),
                      ((7, 2), 2), ((3, 4), 8), ((7, 4), 50), ((7, 4), 100)]:
        field = build_field(p, n)
        table = cyclotomic_table(field, e)
        classes = field.class_array(e).tolist()
        minus_one = field.neg(1)
        for i in range(e):
            row_sum = sum(table.entry(i, j) for j in range(e))
            expected = table.f - (1 if minus_one in set(classes[i]) else 0)
            assert row_sum == expected


def test_csv_export():
    table = cyclotomic_table(build_field(5, 1), 2)
    csv = table_to_csv(table)
    assert csv.splitlines()[0] == "2,2,5"
    partial = closed_form_order_2e(5, 1)
    assert "?" in table_to_csv(partial)
    # fully known tables (through the chunked formatter, whose 2^14-entry
    # chunks split a row at e = 130) and tables with unknown cells against
    # the cell-by-cell join
    tables = [cyclotomic_table(build_field(p, n), e)
              for p, n, e in [(5, 1, 1), (3, 2, 4), (7, 2, 16), (17, 2, 96), (3, 4, 80)]]
    tables += [cyclotomic_table(build_field(131, 1), 130), closed_form_order_e(13, 1)]
    tables += [closed_form_order_2e(p, r) for p, r in [(3, 1), (5, 1), (7, 1), (3, 2)]]
    for table in tables:
        assert table_to_csv(table) == _csv_reference(table), (table.q, table.e)


def test_closed_forms_match_cell_by_cell_references():
    for p, r in [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (3, 2), (11, 1), (13, 1),
                 (2, 4), (5, 2), (3, 4)]:
        t = p ** r
        closed = closed_form_order_e(p, r)
        assert (closed.e, closed.q, closed.f) == (t + 1, t * t, t - 1)
        assert _rows(closed) == _closed_form_order_e_reference(p, r), t
        if p == 2:
            continue
        closed = closed_form_order_2e(p, r)
        assert (closed.e, closed.q, closed.f) == (2 * (t + 1), t * t, (t - 1) // 2)
        assert _rows(closed) == _closed_form_order_2e_reference(p, r), t
