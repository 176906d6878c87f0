"""CLI grammar, exit codes, and byte-deterministic output."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from ddfkit.cli import COMMANDS, STORE_TRUE, build_parser, main, read_argv


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compare_5_2_certificate(capsys):
    code, out, _ = run(capsys, "compare", "--p", "5", "--r", "2")
    assert code == 0
    cert = json.loads(out)
    assert cert["verdict"] == "nonisomorphic"
    assert cert["witness"] == 2
    assert sorted(int(k) for k in cert["profile_a"]) == [0, 1, 5, 6]
    assert sorted(int(k) for k in cert["profile_b"]) == [0, 1, 2, 5, 6]
    assert cert["gate"]["applies"] is True
    assert cert["parameters"]["lambda"] == 11


def test_profile_differences_exact_output(capsys):
    code, out, _ = run(capsys, "profile", "--p", "5", "--r", "2",
                       "--construction", "wilson-half", "--method", "differences")
    assert code == 0
    assert out == '{"0":"410328750","1":"117000000","5":"195000","6":"585000"}\n'


def test_profile_both_methods_agree(capsys):
    code, out, _ = run(capsys, "profile", "--p", "3", "--r", "1",
                       "--construction", "gr-squares", "--method", "both")
    assert code == 2  # p^r = 3 rejects the square split: usage error
    code, out, _ = run(capsys, "profile", "--p", "5", "--r", "1",
                       "--construction", "gr-squares", "--method", "both")
    assert code == 0
    assert out == '{"0":"37950","1":"6900"}\n'


def test_profile_direct_budget_exit(capsys):
    # wilson-half (3,3), t = 27: 40824 blocks of 13 need 3.04e11 Gram
    # multiply-adds, the first construction past the budget
    code, out, err = run(capsys, "profile", "--p", "3", "--r", "3",
                         "--construction", "wilson-half", "--method", "direct")
    assert (code, out) == (1, "")
    assert err == ("budget exceeded: direct profile capped at 274877906944 multiply-adds "
                   "(C(B+1, 2)*v/lanes), got 303745103550\n")


def test_gate_report(capsys):
    code, out, _ = run(capsys, "gate", "--p", "7", "--r", "1")
    assert code == 0
    report = json.loads(out)
    assert report["applies"] is False
    assert report["mod24"] == 6
    # the keys in GateReport's field order, two-space indent
    assert out == ('{\n  "p": 7,\n  "r": 1,\n  "p_odd": true,\n  "mod24": 6,\n'
                   '  "wieferich": false,\n  "applies": false,\n  "reasons": [\n'
                   '    "p^r - 1 = 6 (mod 24), not 0"\n  ]\n}\n')


def test_byte_determinism(capsys):
    args = ("compare", "--p", "5", "--r", "1")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    cert = json.loads(out1)
    # below the mod-24 gate the profiles coincide: both are {0, 1} with the
    # same multiplicities, so the verdict must stay one-sided
    assert cert["gate"]["applies"] is False
    assert cert["verdict"] == "inconclusive"
    assert cert["witness"] is None
    assert cert["profile_a"] == cert["profile_b"] == {"0": "37950", "1": "6900"}


def test_usage_errors(capsys):
    assert run(capsys, "frobnicate")[0] == 2
    assert run(capsys, "compare")[0] == 2  # missing --p/--r
    assert run(capsys, "construct", "--construction", "wilson")[0] == 2
    assert run(capsys, "profile", "--construction", "wilson")[0] == 2
    code, _, err = run(capsys, "construct", "--construction", "feng-1",
                       "--p", "7", "--r", "1")
    assert code == 2
    # parameter contradiction: 3 does not divide q - 1
    code, _, err = run(capsys, "cyclo", "--p", "5", "--r", "1", "--e", "3")
    assert code == 2


@pytest.mark.parametrize("command", ["develop", "profile", "verify"])
def test_construction_and_input_together_are_a_usage_error(capsys, tmp_path, command):
    # the file does not exist: the construction used to win without opening it
    out_file = tmp_path / "out.txt"
    argv = [command, "--construction", "wilson", "--p", "3", "--r", "1",
            "--input", str(tmp_path / "missing.txt")]
    if command != "verify":
        argv += ["--out", str(out_file)]
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", "error: --construction and --input are alternatives; "
                                       "give one\n")
    assert not out_file.exists()


def test_design_needs_its_input_file(capsys, tmp_path):
    code, out, err = run(capsys, "profile", "--design", "--construction", "wilson",
                         "--p", "3", "--r", "1", "--method", "direct")
    assert (code, out, err) == (2, "", "error: --design reads the design file named by "
                                       "--input\n")
    code, out, err = run(capsys, "profile", "--design", "--input", str(tmp_path / "d.txt"),
                         "--construction", "wilson", "--p", "3", "--r", "1",
                         "--method", "direct")
    assert (code, out, err) == (2, "", "error: --construction and --input are alternatives; "
                                       "give one\n")


@pytest.mark.parametrize("e", ["0", "-1"])
def test_cyclo_rejects_e_below_one(capsys, e):
    code, out, err = run(capsys, "cyclo", "--p", "5", "--r", "2", "--e", e)
    assert (code, out, err) == (2, "", f"error: e={e} does not divide q-1=24\n")


@pytest.mark.parametrize("r", ["0", "-1"])
def test_gate_rejects_degree_below_one(capsys, r):
    code, out, err = run(capsys, "gate", "--p", "5", "--r", r)
    assert (code, out, err) == (2, "", "error: extension degree must be >= 1\n")


@pytest.mark.parametrize("argv, message", [
    (("compare",), "compare capped at 67108864 block elements (t^2), got 3^20000000"),
    (("construct", "--construction", "gr-squares"),
     "ring encoding space 3^20000000 exceeds budget 67108864"),
])
def test_huge_degree_meets_the_budget_before_the_power(capsys, argv, message):
    # 3^(10^7) has 4.8 million digits: forming it took 13-17 s, and printing
    # it ended in Python's 4300-digit conversion limit
    start = time.perf_counter()
    code, out, err = run(capsys, *argv, "--p", "3", "--r", "10000000")
    assert time.perf_counter() - start < 1.0
    assert (code, out, err) == (1, "", f"budget exceeded: {message}\n")


def test_gate_at_a_huge_degree_reduces_mod_24(capsys):
    start = time.perf_counter()
    code, out, _ = run(capsys, "gate", "--p", "3", "--r", "10000000")
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert out == ('{\n  "p": 3,\n  "r": 10000000,\n  "p_odd": true,\n  "mod24": 8,\n'
                   '  "wieferich": false,\n  "applies": false,\n  "reasons": [\n'
                   '    "p^r - 1 = 8 (mod 24), not 0"\n  ]\n}\n')


def test_construct_develop_verify_roundtrip(capsys, tmp_path):
    fam_path = tmp_path / "fam.txt"
    code, _, _ = run(capsys, "construct", "--construction", "wilson",
                     "--p", "3", "--r", "1", "--out", str(fam_path))
    assert code == 0
    header = fam_path.read_text().splitlines()[0]
    assert header == "9 2 1 4"

    design_path = tmp_path / "design.txt"
    code, _, _ = run(capsys, "develop", "--input", str(fam_path),
                     "--kind", "field", "--p", "3", "--out", str(design_path))
    assert code == 0
    assert design_path.read_text().splitlines()[0] == "9 36 2"

    code, out, _ = run(capsys, "verify", "--input", str(fam_path),
                       "--kind", "field", "--p", "3")
    assert code == 0
    assert "difference family: True" in out

    code, out, _ = run(capsys, "verify", "--construction", "gr-squares",
                       "--p", "5", "--r", "1")
    assert code == 0


def test_profile_from_design_file(capsys, tmp_path):
    design_path = tmp_path / "design.txt"
    code, _, _ = run(capsys, "develop", "--construction", "gr-squares",
                     "--p", "5", "--r", "1", "--out", str(design_path))
    assert code == 0
    code, out, _ = run(capsys, "profile", "--input", str(design_path),
                       "--design", "--method", "direct")
    assert code == 0
    assert out == '{"0":"37950","1":"6900"}\n'
    code, _, _ = run(capsys, "profile", "--input", str(design_path),
                     "--design", "--method", "differences")
    assert code == 2


def test_verify_detects_invalid_family(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("5 2 1 2\n1 2\n3 4\n")  # parameters check out, counts do not
    code, out, _ = run(capsys, "verify", "--input", str(bad),
                       "--kind", "field", "--p", "5")
    assert code == 1
    assert "difference family: False" in out
    bad.write_text("5 2 1 2\n1 2\n2 3\n")  # 2 lies in both blocks
    code, out, _ = run(capsys, "verify", "--input", str(bad),
                       "--kind", "field", "--p", "5")
    assert code == 1
    assert out == ("family imported: v=5 k=2 lambda=1 b=2\n"
                   "  difference family: False (observed lambda: None)\n"
                   "  disjoint: False  near-complete: False\n"
                   "  witness element: 2\n"
                   "  2-design with lambda=1: False (witness pair (0, 1))\n")


def test_cyclo_csv_and_checks(capsys, tmp_path):
    out_path = tmp_path / "table.csv"
    code, _, err = run(capsys, "cyclo", "--p", "3", "--r", "2", "--e", "4",
                       "--check-closed-form", "--check-sum-relation",
                       "--out", str(out_path))
    assert code == 0
    assert "PASS" in err
    lines = out_path.read_text().splitlines()
    assert lines[0] == "4,2,9"
    assert lines[1] == "1,0,0,0"

    code, _, err = run(capsys, "cyclo", "--p", "5", "--r", "4", "--e", "52",
                       "--check-closed-form")
    assert code == 0
    assert "order-2(t+1) closed form: PASS" in err


def _corrupted(table, cells):
    """The table with each (i, j) in `cells` raised by one."""
    from ddfkit.cyclotomy import CyclotomicTable

    raised = table.cells.copy()
    for i, j in cells:
        raised[i, j] += 1
    return CyclotomicTable(e=table.e, q=table.q, f=table.f, cells=raised)


@pytest.mark.parametrize("e, cells", [
    (20, [(0, 10)]),  # order 2(t+1), t = 9: a known cell off by one
    (20, [(1, 2)]),  # the quadruple at (1, 2) sums to 2, known cells kept
    (10, [(3, 5)]),  # order t+1: one cell changed
])
def test_closed_form_check_fails_on_corrupted_tables(capsys, monkeypatch, e, cells):
    import ddfkit.cli

    real = ddfkit.cli.cyclotomic_table
    monkeypatch.setattr(ddfkit.cli, "cyclotomic_table",
                        lambda field, order: _corrupted(real(field, order), cells))
    code, _, err = run(capsys, "cyclo", "--p", "3", "--r", "4", "--e", str(e),
                       "--check-closed-form")
    assert code == 1
    assert err.endswith("closed form: FAIL\n") and err.count("\n") == 1


def test_cyclo_cell_budget_checked_before_allocation(capsys, monkeypatch):
    import ddfkit.cyclotomy
    import numpy as np

    class NoBincount:  # the numpy namespace of cyclotomy.py, minus np.bincount
        def __getattr__(self, name):
            return getattr(np, name)

        def bincount(self, *args, **kwargs):
            raise AssertionError("cyclotomic_table counted before the budget check")

    with monkeypatch.context() as patch:
        patch.setattr(ddfkit.cyclotomy, "np", NoBincount())
        code, out, err = run(capsys, "cyclo", "--p", "3", "--r", "8", "--e", "6560")
    assert code == 1
    assert out == ""
    assert err == "budget exceeded: cyclotomic table capped at 4194304 cells (e*e), " \
        "got 43033600\n"
    # the 2e table of the sum relation is checked too
    code, out, err = run(capsys, "cyclo", "--p", "3", "--r", "8", "--e", "1640",
                         "--check-sum-relation")
    assert code == 1
    assert out == ""
    assert err == "budget exceeded: cyclotomic table capped at 4194304 cells (e*e), " \
        "got 10758400\n"


def test_construct_feng(capsys, tmp_path):
    fam_path = tmp_path / "feng.txt"
    code, _, _ = run(capsys, "construct", "--construction", "feng-2",
                     "--out", str(fam_path))
    assert code == 0
    assert fam_path.read_text().splitlines()[0] == "1331 665 664 2"


def test_direct_budget_checked_before_the_gram_tiles(capsys, monkeypatch):
    # wilson-half (7,2) develops into 240100 blocks of 24, within
    # DEVELOP_ENTRY_BUDGET, whose Gram products are over budget: both
    # methods exit before the incidence matrix is built
    import ddfkit._kernels

    def incidence_must_not_run(*args):
        raise AssertionError("the incidence matrix was built before the budget check")

    monkeypatch.setattr(ddfkit._kernels, "_incidence", incidence_must_not_run)
    for method in ("direct", "both"):
        code, out, err = run(capsys, "profile", "--p", "7", "--r", "2",
                             "--construction", "wilson-half", "--method", method)
        assert (code, out) == (1, "")
        assert err == ("budget exceeded: direct profile capped at 274877906944 "
                       "multiply-adds (C(B+1, 2)*v/lanes), got 34603362122525\n")


def test_direct_profile_of_a_family_is_self_checked(capsys, monkeypatch):
    # a direct histogram off by one block pair breaks sum m_N = C(v*b, 2)
    import ddfkit._kernels

    histogram = ddfkit._kernels.block_intersection_hist

    def off_by_one(*args):
        hist = histogram(*args).copy()
        hist[0] += 1
        return hist

    monkeypatch.setattr(ddfkit._kernels, "block_intersection_hist", off_by_one)
    code, out, err = run(capsys, "profile", "--p", "5", "--r", "1",
                         "--construction", "gr-squares", "--method", "direct")
    assert (code, out) == (1, "")
    assert err == ("profile self-check failed: sum m_N = 44851, expected 44850 "
                   "for (v, b, k, lambda) = (25, 12, 2, None)\n")


def test_verify_budget_checked_before_the_coverage_table(capsys, monkeypatch, tmp_path):
    # F_(2^11)* as one base block, a difference family with lambda = 2046:
    # its development, 2048 blocks of 2047, is within DEVELOP_ENTRY_BUDGET,
    # but its 2048 * C(2047, 2) pair indices are over COVER_INDEX_BUDGET
    import ddfkit._kernels
    import numpy as np

    class NoZeros:  # the numpy namespace of _kernels.py, minus np.zeros
        def __getattr__(self, name):
            return getattr(np, name)

        def zeros(self, *args, **kwargs):
            raise AssertionError("pair_coverage allocated before the budget check")

    fam_path = tmp_path / "units.txt"
    fam_path.write_text("2048 2047 2046 1\n" + " ".join(map(str, range(1, 2048))) + "\n")
    monkeypatch.setattr(ddfkit._kernels, "np", NoZeros())
    argv = ("verify", "--input", str(fam_path), "--kind", "field", "--p", "2")
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ("family imported: v=2048 k=2047 lambda=2046 b=1\n"
                   "  difference family: True (observed lambda: 2046)\n"
                   "  disjoint: True  near-complete: True\n")
    assert err == ("budget exceeded: exhaustive pair counting capped at 1073741824 pair "
                   "indices (B*C(k, 2)), got 4288677888\n")
    assert run(capsys, *argv, "--skip-design") == (0, out, "")


def test_design_file_over_the_gram_tile_budget(capsys, monkeypatch, tmp_path):
    # 300 blocks of 64 points on v = 16385 <= B*k, so the points are read as
    # they are: 2^22 + 256 cells per tile, though the 3.7e8 multiply-adds
    # are within budget.  It exits 1 before the incidence matrix is built
    import ddfkit._kernels
    import numpy as np

    def incidence_must_not_run(*args):
        raise AssertionError("the incidence matrix was built before the budget check")

    rng = np.random.default_rng(16385)
    rows = np.sort([rng.choice(16385, size=64, replace=False) for _ in range(300)], axis=1)
    design = tmp_path / "design.txt"
    design.write_text("16385 300 64\n" + "".join(" ".join(map(str, row)) + "\n"
                                                for row in rows.tolist()))
    monkeypatch.setattr(ddfkit._kernels, "_incidence", incidence_must_not_run)
    code, out, err = run(capsys, "profile", "--input", str(design), "--design",
                         "--method", "direct")
    assert (code, out) == (1, "")
    assert err == ("budget exceeded: direct profile capped at 4194304 cells per Gram tile "
                   "(min(B, 256)*v), got 4194560\n")


def test_develop_budget_checked_before_allocation(capsys, monkeypatch):
    import ddfkit.designs
    import numpy as np

    class NoEmpty:  # the numpy namespace of designs.py, minus np.empty
        def __getattr__(self, name):
            return getattr(np, name)

        def empty(self, *args, **kwargs):
            raise AssertionError("develop allocated before the budget check")

    monkeypatch.setattr(ddfkit.designs, "np", NoEmpty())
    code, out, err = run(capsys, "develop", "--construction", "wilson-half",
                         "--p", "1009", "--r", "1")
    assert code == 1
    assert out == ""
    assert err.startswith("budget exceeded: development capped at 16777216 block entries")
    assert err.count("\n") == 1 and "Traceback" not in err


def _sheared(src, dst, p):
    """Copy a family file over F_(p^n), n >= 2, through the additive
    automorphism that adds coefficient 0 to coefficient 1, re-sorting rows."""
    def shear(x):
        c0, c1 = x % p, x // p % p
        return x + ((c0 + c1) % p - c1) * p

    header, *rows = src.read_text().splitlines()
    rows = [sorted(shear(int(x)) for x in row.split()) for row in rows]
    dst.write_text("".join(f"{line}\n" for line in
                           [header] + [" ".join(map(str, row)) for row in rows]))


def test_difference_budget_checked_before_kernel(capsys, monkeypatch, tmp_path):
    # no unit outside F_3* = {+-1} permutes the blocks of a sheared
    # wilson-half (3,2) family, so negation alone leaves (81 + 1)/2 orbit
    # representatives of b*k = 20*4 block elements, where the
    # construction's unit orbits are 2
    import ddfkit.designs

    def kernel_must_not_run(*args):
        raise AssertionError("diff_cell_hist ran before the budget check")

    built, fam_path = tmp_path / "built.txt", tmp_path / "fam.txt"
    assert run(capsys, "construct", "--construction", "wilson-half", "--p", "3",
               "--r", "2", "--out", str(built))[0] == 0
    _sheared(built, fam_path, 3)
    loaded = ["profile", "--input", str(fam_path), "--kind", "field", "--p", "3"]
    code, expected, _ = run(capsys, *loaded)
    assert code == 0
    monkeypatch.setattr(ddfkit.designs, "DIFF_ELEMENT_BUDGET", 41 * 80)
    assert run(capsys, *loaded) == (0, expected, "")
    monkeypatch.setattr(ddfkit.designs, "DIFF_ELEMENT_BUDGET", 41 * 80 - 1)
    assert run(capsys, "profile", "--construction", "wilson-half",
               "--p", "3", "--r", "2") == (0, expected, "")
    assert run(capsys, "profile", "--input", str(built), "--kind", "field",
               "--p", "3") == (0, expected, "")
    monkeypatch.setattr(ddfkit.designs._kernels, "diff_cell_hist", kernel_must_not_run)
    code, out, err = run(capsys, *loaded)
    assert code == 1
    assert out == ""
    assert err == ("budget exceeded: difference route capped at 3279 shifted elements "
                   "(orbits * b * k), got 3280\n")


def test_tiny_loaded_families_keep_their_profiles(capsys, tmp_path):
    # Z_4, too small for GR(4, 1) to be built, whose units +-1 negation
    # covers; and one block of F_2, whose only unit is 1
    z4, f2 = tmp_path / "z4.txt", tmp_path / "f2.txt"
    z4.write_text("4 1 0 3\n1\n2\n3\n")
    f2.write_text("2 1 0 1\n1\n")
    assert run(capsys, "profile", "--input", str(z4), "--kind", "ring", "--p", "2") == \
        (0, '{"0":"54","1":"12"}\n', "")
    assert run(capsys, "profile", "--input", str(f2), "--kind", "field", "--p", "2") == \
        (0, '{"0":"1"}\n', "")


def _child_env():
    """The environment for a child interpreter that imports ddfkit from this
    checkout, installed or not."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))


def test_huge_prime_is_rejected_at_once():
    # a prime far above 2^32: trial division would never finish
    huge = "1000000000000000003"
    for argv in (["construct", "--construction", "wilson", "--p", huge, "--r", "1"],
                 ["gate", "--p", huge, "--r", "1"]):
        proc = subprocess.run([sys.executable, "-m", "ddfkit.cli", *argv],
                              capture_output=True, text=True, timeout=60, env=_child_env())
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr


def test_empty_family_file_is_a_usage_error(capsys, tmp_path):
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    code, _, err = run(capsys, "profile", "--input", str(empty),
                       "--kind", "field", "--p", "5")
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1


def test_design_rows_must_be_distinct_and_sorted(capsys, tmp_path):
    for rows in ("0 0 1\n1 2 3\n", "0 2 1\n1 2 3\n"):
        bad = tmp_path / "design.txt"
        bad.write_text("4 2 3\n" + rows)
        code, out, err = run(capsys, "profile", "--input", str(bad),
                             "--design", "--method", "direct")
        assert code == 2, rows
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("header", ["", "9 2", "9 2 2 1"])
def test_design_file_header_is_a_usage_error(capsys, tmp_path, header):
    bad = tmp_path / "design.txt"
    bad.write_text(f"{header}\n0 1\n0 2\n" if header else "")
    code, out, err = run(capsys, "profile", "--input", str(bad), "--design",
                         "--method", "direct")
    assert (code, out, err) == (2, "", "error: design header must be 'v b k'\n")


@pytest.mark.parametrize("method", ["both", "differences"])
def test_design_method_is_checked_before_the_file_is_read(capsys, tmp_path, method):
    # the file does not exist: reading it first would end in an i/o error
    code, out, err = run(capsys, "profile", "--input", str(tmp_path / "missing.txt"),
                         "--design", "--method", method)
    assert (code, out, err) == (2, "", "error: a design file only supports --method direct\n")


def test_design_file_with_huge_point_labels(capsys, tmp_path):
    # v = 2^40 in the header: only the points that occur are tabulated
    path = tmp_path / "design.txt"
    big = 2 ** 40 - 1
    path.write_text(f"{2 ** 40} 3 2\n0 {big}\n1 {big}\n0 1\n")
    code, out, err = run(capsys, "profile", "--input", str(path),
                         "--design", "--method", "direct")
    assert (code, out, err) == (0, '{"1":"3"}\n', "")


def test_design_profile_never_imports_numpy_ma(tmp_path):
    # np.unique(axis=0) imports numpy.ma on its first call in a process
    design, profile = tmp_path / "design.txt", tmp_path / "profile.json"
    assert main(["develop", "--construction", "gr-squares", "--p", "5", "--r", "1",
                 "--out", str(design)]) == 0
    child = ("import sys\n"
             "from ddfkit.cli import main\n"
             "code = main(['profile', '--input', sys.argv[1], '--design',\n"
             "             '--method', 'direct', '--out', sys.argv[2]])\n"
             "print(code, 'numpy.ma' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", child, str(design), str(profile)],
                          capture_output=True, text=True, timeout=60, env=_child_env())
    assert (proc.stdout, proc.stderr) == ("0 False\n", "")
    assert profile.read_text().startswith("{")


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/statm")
def test_verify_of_one_large_block_runs_in_bounded_memory(tmp_path):
    # one block of all v - 1 nonzero elements of Z_10007: a (v, v-1, v-2)
    # family whose k^2 = 10^8 differences (800 MB as int64) exceed the
    # 512 MiB of address space the child may add after importing ddfkit
    v = 10007
    path = tmp_path / "family.txt"
    path.write_text(f"{v} {v - 1} {v - 2} 1\n" + " ".join(map(str, range(1, v))) + "\n")
    child = ("import os, resource, sys\n"
             "from ddfkit.cli import main\n"
             "mapped = int(open('/proc/self/statm').read().split()[0]) * os.sysconf('SC_PAGE_SIZE')\n"
             "resource.setrlimit(resource.RLIMIT_AS, (mapped + 2 ** 29, resource.RLIM_INFINITY))\n"
             "sys.exit(main(sys.argv[1:]))\n")
    proc = subprocess.run([sys.executable, "-c", child, "verify", "--input", str(path),
                           "--kind", "field", "--p", str(v), "--skip-design"],
                          capture_output=True, text=True, timeout=60, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert "difference family: True (observed lambda: 10005)" in proc.stdout
    assert "disjoint: True  near-complete: True" in proc.stdout
    assert proc.stderr == ""


# ---------------------------------------------------------------------------
# malformed family and design files
# ---------------------------------------------------------------------------

def test_loaded_family_order_is_checked_before_tables(capsys, monkeypatch, tmp_path):
    import ddfkit.families

    def bincount_must_not_run(*args, **kwargs):
        raise AssertionError("a table was built before the budget check")

    monkeypatch.setattr(ddfkit.families.np, "bincount", bincount_must_not_run)
    path = tmp_path / "family.txt"
    path.write_text(f"{5 ** 12} 1 0 1\n3\n")  # k = 1, lambda = 0 fits any v
    code, out, err = run(capsys, "profile", "--input", str(path),
                         "--kind", "field", "--p", "5")
    assert (code, out) == (1, "")
    assert err == "budget exceeded: field order 244140625 exceeds table budget 1048576\n"


def test_loaded_family_rejects_bad_p_and_empty_families(capsys, tmp_path):
    path = tmp_path / "family.txt"
    path.write_text("5 2 1 2\n1 4\n2 3\n")
    for p in ("1", "0", "-5", "4"):  # p = 0 and 1 used to loop forever
        code, out, err = run(capsys, "profile", "--input", str(path),
                             "--kind", "field", "--p", p)
        assert (code, out) == (2, ""), p
        assert err == f"error: p = {p} is not a prime\n"
    path.write_text("5 2 0 0\n")
    code, _, err = run(capsys, "profile", "--input", str(path), "--kind", "field",
                       "--p", "5")
    # the same line as a design file with no block line
    assert (code, err) == (2, "error: expected at least one block line, "
                              "each of k = 2 >= 1 entries\n")
    path.write_text("9 2 1 4\n1 8\n4 5\n2 7\n3 6\n")  # GR(9), loaded as a field
    code, out, err = run(capsys, "profile", "--input", str(path), "--kind", "field",
                         "--p", "5")
    assert (code, out, err) == (2, "", "error: order 9 is not a power of 5\n")
    path.write_text("x 2 1 2\n1 4\n2 3\n")
    code, out, err = run(capsys, "profile", "--input", str(path), "--kind", "field",
                         "--p", "5")
    assert (code, out) == (2, "")
    assert err == "error: invalid literal for int() with base 10: 'x'\n"


def test_non_prime_p_reads_the_same_through_every_command(capsys, tmp_path):
    path = tmp_path / "family.txt"
    path.write_text("5 2 1 2\n1 4\n2 3\n")
    for argv in (("compare", "--p", "4", "--r", "1"), ("gate", "--p", "4", "--r", "1"),
                 ("profile", "--input", str(path), "--kind", "field", "--p", "4")):
        assert run(capsys, *argv) == (2, "", "error: p = 4 is not a prime\n"), argv


@pytest.mark.parametrize("kind, p, v, build, message", [
    ("field", "5", 5 ** 12, ("cyclo", "--p", "5", "--r", "12", "--e", "2"),
     "field order 244140625 exceeds table budget 1048576"),
    ("field", "2", 2 ** 21, ("cyclo", "--p", "2", "--r", "21", "--e", "3"),
     "field order 2^21 exceeds table budget 1048576"),
    ("ring", "5", 25 ** 6, ("construct", "--construction", "gr-squares", "--p", "5", "--r", "6"),
     "ring encoding space 244140625 exceeds budget 67108864"),
    ("ring", "2", 4 ** 14, ("construct", "--construction", "gr-squares", "--p", "2", "--r", "14"),
     "ring encoding space 2^28 exceeds budget 67108864"),
])
def test_loaded_family_and_builder_share_each_table_cap(capsys, tmp_path, kind, p, v, build,
                                                        message):
    # the order check, then the exponent shortcut that never forms the order
    path = tmp_path / "family.txt"
    path.write_text(f"{v} 1 0 1\n3\n")  # k = 1, lambda = 0 fits any v
    expected = (1, "", f"budget exceeded: {message}\n")
    assert run(capsys, "profile", "--input", str(path), "--kind", kind, "--p", p) == expected
    assert run(capsys, *build) == expected


def test_compare_leaves_the_shape_check_to_compare_designs(capsys):
    code, out, err = run(capsys, "compare", "--a", "wilson", "--b", "gr-squares",
                         "--p", "5", "--r", "1")
    assert (code, out, err) == (2, "", "error: families must share (v, b, k)\n")


def test_a_block_line_of_the_wrong_width_is_named(capsys, tmp_path):
    path = tmp_path / "rows.txt"
    path.write_text("9 2 1 4\n1 8\n4 5 6\n2 7\n3 6\n")
    assert run(capsys, "profile", "--input", str(path), "--kind", "field", "--p", "3") == \
        (2, "", "error: block line 2 has 3 entries, expected k = 2\n")
    design = ("profile", "--input", str(path), "--design", "--method", "direct")
    path.write_text("3 3 2\n0 1\n\n0 1 2\n1 2\n")  # blank lines are not block lines
    assert run(capsys, *design) == (2, "", "error: block line 2 has 3 entries, expected k = 2\n")
    # no block line, or k < 1, keeps its own message
    for text, k in (("3 0 2\n", 2), ("3 1 0\n1\n", 0)):
        path.write_text(text)
        assert run(capsys, *design) == (2, "", "error: expected at least one block line, "
                                               f"each of k = {k} >= 1 entries\n"), text


_SIZES = st.one_of(st.sampled_from([0, 1, 2, 3, 4, 5, 7, 9, 25, 27, 5 ** 8, 3 ** 11,
                                    5 ** 12, 3 ** 25]),
                   st.integers(-50, 50), st.integers(2 ** 62, 2 ** 70),
                   st.sampled_from([5 ** 30, 9 ** 40, -(2 ** 64)]))
_TOKENS = st.one_of(st.integers(-3, 30), _SIZES.map(str).map(int),
                    st.sampled_from(["x", "1.5", "-", "0x1f", "1e3", "nan", "½"]))


def _line(tokens):
    return " ".join(str(t) for t in tokens)


@st.composite
def file_texts(draw, header_len):
    header = draw(st.lists(st.one_of(_SIZES, _TOKENS), min_size=0, max_size=header_len + 1))
    if len(header) >= header_len and draw(st.booleans()):
        # a plausible header keeps the row checks reachable
        header = [draw(st.sampled_from([5, 7, 9, 25, 27, 5 ** 8, 5 ** 12]))] + \
            [draw(st.integers(-1, 4)) for _ in range(header_len - 1)]
    rows = draw(st.lists(st.lists(_TOKENS, min_size=0, max_size=5), max_size=5))
    return "\n".join([_line(header)] + [_line(row) for row in rows]) + \
        draw(st.sampled_from(["", "\n", "\n\n"]))


def _run_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@settings(max_examples=150, deadline=None)
@given(file_texts(4), st.sampled_from([("field", "5"), ("field", "3"), ("ring", "5"),
                                       ("field", "7"), ("ring", "3")]),
       st.sampled_from([["profile"], ["profile", "--method", "both"], ["develop"],
                        ["verify"], ["verify", "--skip-design"]]))
def test_fuzzed_family_files_end_in_an_exit_code(text, source, command):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "family.txt")
        with open(path, "w") as fh:
            fh.write(text)
        argv = [*command, "--input", path, "--kind", source[0], "--p", source[1]]
        if command[0] == "develop":
            argv += ["--out", os.path.join(tmp, "design.txt")]
        code, err = _run_quietly(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err


@settings(max_examples=150, deadline=None)
@given(file_texts(3))
@example(f"{2 ** 70} 1 2\n0 {2 ** 65}\n")  # an entry beyond int64
def test_fuzzed_design_files_end_in_an_exit_code(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "design.txt")
        with open(path, "w") as fh:
            fh.write(text)
        code, err = _run_quietly(["profile", "--input", path, "--design",
                                  "--method", "direct"])
    assert code in (0, 1, 2)
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# reading argv: the command table's fast reader against argparse
# ---------------------------------------------------------------------------

# `ddf -h`, `ddf --version` and `ddf <command> -h` at COLUMNS=80, as argparse
# printed them before the command table; the same on Python 3.10 to 3.12,
# while 3.13's argparse wraps the usage of `construct -h` differently
with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_help.json")) as fh:
    _HELP = json.load(fh)
# tokens that only argparse may read: help, version, `--`, `--opt=VALUE`, an
# abbreviation, values argparse reads as options or int() refuses, and a
# subcommand name where a value belongs
_HOSTILE = ("-h", "--help", "--version", "--", "--p=5", "--constr",
            "-1", "0x10", "1_0", " 7", "", "-", "compare")
_OPTIONS = [opt for command in COMMANDS.values() for opt in command.options]
_FLAGS = sorted({opt.flag for opt in _OPTIONS})


@pytest.mark.skipif(sys.version_info >= (3, 13), reason="help pinned from Python 3.10-3.12")
@pytest.mark.parametrize("argv", list(_HELP))
def test_help_bytes_are_pinned(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    assert run(capsys, *argv.split()) == (0, _HELP[argv], "")


def _values(opt, hostile):
    plain = st.sampled_from(opt.choices or (("5", "2", "1", "7") if opt.type is int
                                            else ("design.txt", "5")))
    return st.one_of(plain, st.sampled_from(_HOSTILE)) if hostile else plain


@st.composite
def _argvs(draw):
    """A command with its options in any order, half of them well formed;
    the rest mix in other commands' options, repeats, missing values and
    hostile tokens."""
    hostile = draw(st.booleans())
    names = [*COMMANDS, "frobnicate", *_HOSTILE] if hostile else list(COMMANDS)
    name = draw(st.sampled_from(names))
    own = list(COMMANDS[name].options) if name in COMMANDS else []
    chosen = [opt for opt in own if opt.required and (not hostile or draw(st.integers(0, 9)))]
    optional = [opt for opt in own if opt not in chosen]
    if hostile:
        chosen += draw(st.lists(st.sampled_from(own or _OPTIONS), max_size=4))
        chosen += draw(st.lists(st.sampled_from(_OPTIONS), max_size=1))
    elif optional:
        chosen += draw(st.lists(st.sampled_from(optional), max_size=4, unique=True))
    argv = [name]
    for opt in draw(st.permutations(chosen)):
        argv.append(opt.flag)
        if opt.type is not STORE_TRUE and (not hostile or draw(st.integers(0, 9))):
            argv.append(draw(_values(opt, hostile)))
    for _ in range(draw(st.integers(0, 2)) if hostile else 0):
        argv.insert(draw(st.integers(0, len(argv))),
                    draw(st.sampled_from([*_HOSTILE, *_FLAGS])))
    return argv


def _argparse_namespace(argv):
    """argparse's namespace for `argv`, or None where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return build_parser().parse_args(argv)
        except SystemExit:
            return None


@settings(max_examples=400, deadline=None)
@given(_argvs())
@example(["compare", "--p", "5", "--r", "2"])
@example(["profile", "--construction", "gr-squares", "--p", "13", "--r", "1",
          "--method", "both"])
@example(["cyclo", "--p", "17", "--r", "4", "--e", "580", "--check-closed-form"])
@example(["cyclo", "--p", "5", "--r", "2", "--e", "-1"])
@example(["gate", "--p", "7", "--r", "1", "--p", "5"])
@example(["profile", "--input", "", "--design"])
@example(["verify", "--input", "compare", "--skip-design", "--p", " 7", "--r", "1_0"])
@example([])
def test_reader_agrees_with_argparse(argv):
    fast, reference = read_argv(argv), _argparse_namespace(argv)
    if reference is None:
        assert fast is None
    elif fast is not None:
        assert vars(fast) == vars(reference)


@pytest.mark.parametrize("argv", [
    # the README's examples and the benchmark's command shapes
    "compare --p 5 --r 2",
    "profile --p 5 --r 2 --construction wilson-half --method differences",
    "construct --construction wilson --p 3 --r 1 --out fam.txt",
    "develop --input fam.txt --kind field --p 3 --out design.txt",
    "verify --construction gr-squares --p 5 --r 1",
    "cyclo --p 5 --r 4 --e 52 --check-closed-form",
    "gate --p 7 --r 1",
    "profile --input fam.txt --kind field --p 7",
    "profile --construction feng-1 --method both",
])
def test_reader_reads_the_documented_commands(argv):
    fast = read_argv(argv.split())
    assert fast is not None
    assert vars(fast) == vars(_argparse_namespace(argv.split()))


@pytest.mark.parametrize("argv", [
    "", "-h", "--version", "gate -h", "gate --p=7 --r 1", "gate --p 7 --r 1 --p 5",
    "cyclo --p 5 --r 2 --e -1", "gate --p 7", "compare --constr wilson", "gate -- --p 7",
])
def test_reader_declines_what_only_argparse_reads(argv):
    assert read_argv(argv.split()) is None


def test_import_freezes_its_objects():
    # in a fresh interpreter, the objects the imports built are moved out of
    # the collector's generations, so a collection during a command skips them
    proc = subprocess.run([sys.executable, "-c",
                           "import gc, ddfkit.cli; print(gc.get_freeze_count() > 0)"],
                          capture_output=True, text=True, timeout=60, env=_child_env())
    assert (proc.returncode, proc.stdout) == (0, "True\n")


@pytest.mark.parametrize("given, expected", [(None, "1"), ("2", "2")])
def test_import_pins_openblas_to_one_thread_unless_asked(given, expected):
    # in a fresh interpreter, before numpy loads: unset, the variable
    # becomes "1"; a caller's own setting stays
    env = _child_env()
    env.pop("OPENBLAS_NUM_THREADS", None)
    if given is not None:
        env["OPENBLAS_NUM_THREADS"] = given
    child = "import os, ddfkit; print(os.environ['OPENBLAS_NUM_THREADS'])"
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True,
                          timeout=60, env=env)
    assert (proc.returncode, proc.stdout) == (0, f"{expected}\n")


def test_well_formed_argv_never_imports_argparse():
    # in a fresh interpreter: argparse, and the gettext it imports, stay out
    # of a well-formed run, and a malformed argv still gets argparse's text
    child = ("import contextlib, io, sys\n"
             "from ddfkit.cli import main\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             "    code = main(['gate', '--p', '7', '--r', '1'])\n"
             "print(code, 'argparse' in sys.modules, 'gettext' in sys.modules)\n"
             "sys.exit(main(['gate', '--p', 'x', '--r', '1']))\n")
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True,
                          timeout=60, env=dict(_child_env(), COLUMNS="80"))
    assert (proc.returncode, proc.stdout) == (2, "0 False False\n")
    assert proc.stderr == ("usage: ddf gate [-h] --p P --r R [--out OUT]\n"
                           "ddf gate: error: argument --p: invalid int value: 'x'\n")
