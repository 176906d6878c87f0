"""CLI grammar, exit codes, and byte-deterministic output."""

import json
import subprocess
import sys

import pytest

from ddfkit.cli import main


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
    code, _, err = run(capsys, "profile", "--p", "5", "--r", "2",
                       "--construction", "wilson-half", "--method", "direct")
    assert code == 1
    assert "budget" in err.lower()


def test_gate_report(capsys):
    code, out, _ = run(capsys, "gate", "--p", "7", "--r", "1")
    assert code == 0
    report = json.loads(out)
    assert report["applies"] is False
    assert report["mod24"] == 6


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


def test_construct_feng(capsys, tmp_path):
    fam_path = tmp_path / "feng.txt"
    code, _, _ = run(capsys, "construct", "--construction", "feng-2",
                     "--out", str(fam_path))
    assert code == 0
    assert fam_path.read_text().splitlines()[0] == "1331 665 664 2"


def test_threads_flag_and_env(capsys, monkeypatch):
    code, out1, _ = run(capsys, "profile", "--p", "5", "--r", "1",
                        "--construction", "gr-teichmuller", "--threads", "2")
    assert code == 0
    monkeypatch.setenv("DDF_THREADS", "3")
    code, out2, _ = run(capsys, "profile", "--p", "5", "--r", "1",
                        "--construction", "gr-teichmuller")
    assert code == 0
    assert out1 == out2


def test_direct_budget_checked_before_develop(capsys, monkeypatch):
    import ddfkit.cli

    def develop_must_not_run(fam):
        raise AssertionError("develop ran before the budget check")

    monkeypatch.setattr(ddfkit.cli, "develop", develop_must_not_run)
    for method in ("direct", "both"):
        code, out, err = run(capsys, "profile", "--p", "7", "--r", "2",
                             "--construction", "wilson-half", "--method", method)
        assert code == 1
        assert out == ""
        assert err == "budget exceeded: direct profile capped at 5000 blocks, got 240100\n"


def test_verify_budget_checked_before_develop(capsys, monkeypatch):
    import ddfkit.cli

    def develop_must_not_run(fam):
        raise AssertionError("develop ran before the budget check")

    monkeypatch.setattr(ddfkit.cli, "develop", develop_must_not_run)
    code, out, err = run(capsys, "verify", "--construction", "wilson-half",
                         "--p", "7", "--r", "2")
    assert code == 1
    assert out == ("family wilson-half: v=2401 k=24 lambda=23 b=100\n"
                   "  difference family: True (observed lambda: 23)\n"
                   "  disjoint: True  near-complete: True\n")
    assert err == "budget exceeded: exhaustive pair counting capped at v <= 1500\n"
    code, out, _ = run(capsys, "verify", "--construction", "wilson-half",
                       "--p", "7", "--r", "2", "--skip-design")
    assert code == 0
    assert out.count("\n") == 3


def test_huge_prime_is_rejected_at_once():
    # a prime far above 2^32: trial division would never finish
    huge = "1000000000000000003"
    for argv in (["construct", "--construction", "wilson", "--p", huge, "--r", "1"],
                 ["gate", "--p", huge, "--r", "1"]):
        proc = subprocess.run([sys.executable, "-m", "ddfkit.cli", *argv],
                              capture_output=True, text=True, timeout=60)
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
