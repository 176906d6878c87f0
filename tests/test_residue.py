"""compare on tables of size t: the residue route against the difference route."""

import numpy as np
import pytest

from ddfkit import _kernels, certify, designs, families, fields, residue
from ddfkit.certify import compare_constructions, compare_designs
from ddfkit.cli import construction_family, main
from ddfkit.errors import BudgetError, ProfileCheckError

from route_sweep import mismatches, prime_powers


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("p, r", prime_powers(61))
def test_tables_of_size_t_equal_the_kernel_per_d(p, r):
    assert mismatches(p, r) == []


@pytest.mark.parametrize("p, r", [(p, r) for p, r in prime_powers(61) if p ** r >= 5])
def test_compare_equals_compare_designs_of_the_built_families(p, r):
    pairs = [("wilson", "gr-teichmuller")] + ([("wilson-half", "gr-squares")] if p > 2 else [])
    for a, b in pairs:
        new = compare_constructions(residue.construction(a, p, r), residue.construction(b, p, r))
        old = compare_designs(construction_family(a, p, r), construction_family(b, p, r))
        assert new == old, (a, b, p, r)


def test_compare_builds_no_family_no_square_field_and_runs_no_kernel(capsys, monkeypatch):
    expected = run(capsys, "compare", "--p", "7", "--r", "2")
    degrees = []
    real_build_field = fields.build_field.__wrapped__

    def build_field(p, n):
        degrees.append(n)
        return real_build_field(p, n)

    def must_not_run(*args, **kwargs):
        raise AssertionError("compare ran the difference route")

    fields.build_field.cache_clear()
    residue.residue_field.cache_clear()
    monkeypatch.setattr(residue, "build_field", build_field)
    monkeypatch.setattr(families.DifferenceFamily, "__post_init__", must_not_run)
    monkeypatch.setattr(_kernels, "diff_cell_hist", must_not_run)
    monkeypatch.setattr(designs, "difference_orbits", must_not_run)
    monkeypatch.setattr(fields, "FIELD_ORDER_BUDGET", 7 ** 2)  # F_(t^2) would be refused
    assert run(capsys, "compare", "--p", "7", "--r", "2") == expected
    assert degrees == [2]
    residue.residue_field.cache_clear()


@pytest.mark.parametrize("name", residue.CONSTRUCTIONS)
@pytest.mark.parametrize("p, r", [(2, 1), (2, 2), (3, 1), (4, 1), (1, 2), (5, 0), (3, -1),
                                  (5, 1), (2, 3)])
def test_constructions_are_refused_as_their_builders_refuse_them(name, p, r):
    try:
        construction_family(name, p, r)
    except ValueError as exc:
        with pytest.raises(ValueError) as caught:
            residue.construction(name, p, r)
        assert str(caught.value) == str(exc)
    else:
        c = residue.construction(name, p, r)
        fam = construction_family(name, p, r)
        assert (c.name, c.v, c.b, c.k, c.lam) == (fam.name, fam.v, fam.b, fam.k, fam.lam)


@pytest.mark.parametrize("argv, message", [
    (("--a", "wilson-half", "--p", "2", "--r", "2"), "error: e=10 does not divide q-1=15"),
    (("--p", "3", "--r", "1"), "error: require f = (q-1)/e >= 2"),
    (("--a", "wilson", "--b", "gr-squares", "--p", "3", "--r", "1"),
     "error: square split requires p^r >= 5"),
    (("--a", "wilson", "--b", "gr-teichmuller", "--p", "2", "--r", "1"),
     "error: require f = (q-1)/e >= 2"),
    (("--p", "9", "--r", "1"), "error: p = 9 is not a prime"),
    (("--p", "5", "--r", "0"), "error: extension degree must be >= 1"),
    (("--p", "8209", "--r", "1"),
     "budget exceeded: compare capped at 67108864 block elements (t^2), got 67387681"),
])
def test_compare_refusals_are_one_line(capsys, argv, message):
    code, out, err = run(capsys, "compare", *argv)
    assert (code, out, err) == (1 if message.startswith("budget") else 2, "", message + "\n")


def test_the_work_cap_is_on_t_squared():
    assert residue.construction("gr-squares", 8191, 1).v == 8191 ** 2  # within 2^26
    with pytest.raises(BudgetError, match="got 2\\^28$"):
        residue.construction("wilson", 2, 14)
    assert residue.construction("wilson", 2, 13).t == 8192


def test_a_wrong_zech_entry_fails_the_compare(capsys, monkeypatch):
    # the cell tables read one wrong entry, in both halves of the doubled
    # table; the lines c + theta keep the true table
    real, line_classes = residue.residue_field(5, 2), residue._line_classes
    zech = real.zech.copy()
    zech[[3, 3 + real.n]] = zech[4]
    monkeypatch.setattr(residue, "residue_field", lambda p, r: real._replace(zech=zech))
    monkeypatch.setattr(residue, "_line_classes", lambda F, e: line_classes(real, e))
    code, out, err = run(capsys, "compare", "--a", "wilson", "--b", "gr-teichmuller",
                         "--p", "5", "--r", "2")
    assert (code, out) == (1, "")
    assert err.startswith("profile self-check failed: ") and err.count("\n") == 1
    # the closed form catches it where the identities are not checked
    monkeypatch.setattr(certify, "check_profile", lambda *args: None)
    for name in ("wilson", "wilson-half"):
        with pytest.raises(ProfileCheckError, match=f"the {name} profile at t = 25 is not "
                                                    "its closed form"):
            certify.construction_profile(residue.construction(name, 5, 2))


def test_the_witness_is_recounted_by_ring_products(monkeypatch):
    blocks = []
    real = certify._ring_blocks

    def recording(ring, c, indices):
        out = real(ring, c, indices)
        blocks.append((c.name, tuple(indices), out))
        return out

    monkeypatch.setattr(certify, "_ring_blocks", recording)
    a, b = residue.construction("wilson-half", 5, 2), residue.construction("gr-squares", 5, 2)
    result = compare_constructions(a, b)
    assert (result.status, result.witness) == ("nonisomorphic", 2)
    [(name, (i, j), (block_i, block_j))] = blocks
    fam = construction_family("gr-squares", 5, 2)
    assert name == "gr-squares"
    assert np.array_equal(np.sort(block_i), fam.block_array()[i])
    assert np.array_equal(np.sort(block_j), fam.block_array()[j])


def test_a_wrong_witness_cell_fails_the_compare(capsys, monkeypatch):
    real = residue.find_cell

    def moved(c, value):  # the cell found for the witness 2 is one that holds a 1
        return real(c, 1 if value == 2 else value)

    monkeypatch.setattr(residue, "find_cell", moved)
    code, out, err = run(capsys, "compare", "--p", "5", "--r", "2")
    assert (code, out) == (1, "")
    assert err.startswith("profile self-check failed: the witness 2 of gr-squares is not "
                          "re-counted") and err.count("\n") == 1


def test_verdicts_are_one_rule():
    prof = designs.IntersectionProfile
    a, b = prof({0: 5, 1: 3}), prof({0: 4, 1: 3, 2: 1})
    assert certify.verdict(a, b) == certify.ComparisonResult("nonisomorphic", 2, a, b)
    c = prof({0: 4, 1: 4})
    assert certify.verdict(a, c).witness == 0
    assert certify.verdict(a, a).status == "inconclusive"
