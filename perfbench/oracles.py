"""Exact oracles for every case's output, and their self-test on planted errors.

Each check takes the case parameters, the exit status and the captured
stdout/stderr, and raises OracleError naming the first mismatch.  On top of
the semantic check, every stdout must hash to the SHA-256 recorded at the
commit that added this benchmark (`expected_stdout.json`), since the CLI's
stdout is meant to stay byte-identical.
"""

from __future__ import annotations

import hashlib
import json
from math import comb

import numpy as np


class OracleError(Exception):
    pass


def _require(cond, message):
    if not cond:
        raise OracleError(message)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def check_identities(counts: dict, v: int, b: int, k: int, lam: int, label="profile"):
    """The three counting identities of a developed 2-(v, k, lam) design.

    B = v*b blocks, each point in rho = b*k of them:
    sum m_N = C(B,2), sum N*m_N = v*C(rho,2), sum C(N,2)*m_N = C(v,2)*C(lam,2).
    """
    blocks, rho = v * b, b * k
    _require(sum(counts.values()) == comb(blocks, 2),
             f"{label}: sum of multiplicities is not C(B,2)")
    _require(sum(n * m for n, m in counts.items()) == v * comb(rho, 2),
             f"{label}: sum of N*m_N is not v*C(rho,2)")
    _require(sum(comb(n, 2) * m for n, m in counts.items()) == comb(v, 2) * comb(lam, 2),
             f"{label}: sum of C(N,2)*m_N is not C(v,2)*C(lambda,2)")


def _profile_counts(obj, label) -> dict:
    _require(isinstance(obj, dict), f"{label}: not a JSON object")
    counts = {int(n): int(m) for n, m in obj.items()}
    _require(list(counts) == sorted(counts), f"{label}: keys not ascending")
    return counts


def _closed_form(p, r) -> dict:
    from ddfkit.certify import wilson_half_profile_closed_form
    return dict(wilson_half_profile_closed_form(p, r).counts)


def check_compare(params, status, stdout, stderr):
    _require(status == 0, f"exit status {status}")
    cert = json.loads(stdout)
    par = cert["parameters"]
    _require((par["v"], par["b"], par["k"], par["lambda"])
             == (params["v"], params["b"], params["k"], params["lam"]),
             "certificate parameters differ from (v, b, k, lambda)")
    _require(cert["verdict"] == "nonisomorphic", f"verdict {cert['verdict']!r}")
    _require(cert["gate"]["applies"] is True, "gate does not apply")
    profile_a = _profile_counts(cert["profile_a"], "profile_a")
    profile_b = _profile_counts(cert["profile_b"], "profile_b")
    _require(profile_a == _closed_form(params["p"], params["r"]),
             "profile_a differs from the wilson-half closed form")
    for label, counts in (("profile_a", profile_a), ("profile_b", profile_b)):
        check_identities(counts, params["v"], params["b"], params["k"], params["lam"], label)


def check_profile(params, status, stdout, stderr):
    _require(status == 0, f"exit status {status}")
    counts = _profile_counts(json.loads(stdout), "profile")
    check_identities(counts, params["v"], params["b"], params["k"], params["lam"])
    if params.get("closed_form"):
        _require(counts == _closed_form(params["p"], params["r"]),
                 "profile differs from the wilson-half closed form")


def check_construct(params, status, stdout, stderr):
    """Header 'v k lambda b', then b sorted k-blocks partitioning {1..v-1}."""
    _require(status == 0, f"exit status {status}")
    v, b, k = params["v"], params["b"], params["k"]
    lines = stdout.split("\n")
    _require(lines[0] == f"{v} {k} {params['lam']} {b}", f"header {lines[0]!r}")
    _require(lines[-1] == "" and len(lines) == b + 2, "expected b block lines")
    rows = lines[1:-1]
    _require(all(len(row.split()) == k for row in rows), "a block does not have k entries")
    arr = np.array(" ".join(rows).split(), dtype=np.int64).reshape(b, k)
    _require(bool(np.all(np.diff(arr, axis=1) > 0)), "a block is not strictly ascending")
    _require(np.array_equal(np.sort(arr, axis=None), np.arange(1, v)),
             "blocks do not partition {1..v-1}")


def check_verify(params, status, stdout, stderr):
    _require(status == 0, f"exit status {status}")
    lam = params["lam"]
    _require(stdout.count("True") == 4 and "False" not in stdout,
             "not every check printed True")
    _require(f"v={params['v']} k={params['k']} lambda={lam} b={params['b']}" in stdout,
             "family header differs")
    _require(f"(observed lambda: {lam})" in stdout, "observed lambda differs")
    _require(f"2-design with lambda={lam}: True" in stdout, "2-design check not True")


def check_cyclo(params, status, stdout, stderr):
    """PASS on stderr; an e x e table of cyclotomic numbers summing to q - 2."""
    _require(status == 0, f"exit status {status}")
    _require("PASS" in stderr and "FAIL" not in stderr, "closed-form check did not PASS")
    q, e, f = params["q"], params["e"], params["f"]
    lines = stdout.split("\n")
    _require(lines[0] == f"{e},{f},{q}", f"header {lines[0]!r}")
    _require(lines[-1] == "" and len(lines) == e + 2, "expected e table rows")
    rows = [row.split(",") for row in lines[1:-1]]
    _require(all(len(row) == e for row in rows), "a table row does not have e entries")
    _require(sum(int(x) for row in rows for x in row) == q - 2,
             "table entries do not sum to q - 2")


def check_tally(params, status, stdout, stderr):
    _require(status == 0, f"exit status {status}")
    obj = json.loads(stdout)
    _require(obj["sn_coset_counts"]["matches"] is True, "coset tallies do not match")
    _require(obj["bound_report"]["verdict"] is True, "bound report verdict is false")


CHECKS = {
    "compare": check_compare,
    "profile": check_profile,
    "construct": check_construct,
    "verify": check_verify,
    "cyclo": check_cyclo,
    "tally": check_tally,
}


def check(case, status, stdout, stderr, expected_sha):
    """None if the output is correct, else a one-line description of the fault."""
    try:
        CHECKS[case.oracle](case.params, status, stdout, stderr)
        _require(expected_sha is not None, "no recorded stdout hash")
        _require(sha256(stdout) == expected_sha, "stdout hash differs from the recorded one")
    except (OracleError, ValueError, KeyError, TypeError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


# ---------------------------------------------------------------------------
# self-test: each planted error must be caught
# ---------------------------------------------------------------------------

def self_test(compare_case, compare_text, compare_sha, construct_params, construct_text):
    """Return the planted errors the oracles missed (empty when all are caught).

    `compare_text` is a genuine `ddf compare` output with recorded hash
    `compare_sha`; `construct_text` a genuine `ddf construct` output.
    """
    def caught(fn):
        try:
            fn()
        except (OracleError, ValueError, KeyError):
            return True
        return False

    def compare_with(edit):
        cert = json.loads(compare_text)
        edit(cert)
        return lambda: check_compare(compare_case.params, 0, json.dumps(cert), "")

    def off_by_one(cert):
        key = next(iter(cert["profile_b"]))
        cert["profile_b"][key] = str(int(cert["profile_b"][key]) + 1)

    def shifted_key(cert):
        prof = cert["profile_b"]
        top = max(prof, key=int)
        prof[str(int(top) + 1)] = prof.pop(top)

    def duplicated_block():
        lines = construct_text.split("\n")
        lines[-2] = lines[1]
        check_construct(construct_params, 0, "\n".join(lines), "")

    changed = compare_text.replace("  ", " \t", 1)  # still valid JSON
    missed = []
    if caught(lambda: check_compare(compare_case.params, 0, compare_text, "")):
        missed.append("genuine compare output was rejected")
    if caught(lambda: check_construct(construct_params, 0, construct_text, "")):
        missed.append("genuine construct output was rejected")
    if check(compare_case, 0, compare_text, "", compare_sha) is not None:
        missed.append("genuine compare output does not match its recorded hash")
    for name, fn in (("multiplicity off by one", compare_with(off_by_one)),
                     ("shifted key", compare_with(shifted_key)),
                     ("duplicated block", duplicated_block)):
        if not caught(fn):
            missed.append(name)
    if check(compare_case, 0, changed, "", compare_sha) is None:
        missed.append("one changed stdout byte")
    return missed
