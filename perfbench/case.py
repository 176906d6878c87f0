"""Run one benchmark case in a fresh interpreter and print one JSON result line.

    python3 perfbench/case.py '{"case": "compare-5-2", "t0": <perf_counter>, ...}'

Request keys: `case` (an id from cases.py) or `prepare`; `t0`, the parent's
time.perf_counter() just before spawning this process (the clock is
system-wide), so setup_s runs from process start to the end of importing
ddfkit; `family_file`; `spans`, a path to write the traced run's spans to;
`record`, to skip the stdout-hash comparison while recording hashes.

`prepare` writes the seeded relabelled family file and runs the oracle
self-test; it is not timed.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

# Everything up to here, and only this, is setup.
import ddfkit  # noqa: E402
import ddfkit.cli  # noqa: E402

SETUP_END = time.perf_counter()

import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402

import numpy as np  # noqa: E402

import cases  # noqa: E402
import oracles  # noqa: E402
import tracing  # noqa: E402

EXPECTED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected_stdout.json")
_ROWS = np.random.default_rng(0).integers(0, 5329, size=(64, 36))


def calibrate():
    """Seconds of two fixed loops that use no ddfkit code: (numpy, python).

    The numpy loop has the shape of the difference-histogram kernel at t=73
    (outer differences of 36-element rows, bincounts of length 5329); the
    python loop is list arithmetic and dict stores, like the table builds.
    A change to the program cannot move them; only the speed of the vCPU can.
    """
    start = time.perf_counter()
    for i in range(1000):
        a, b = _ROWS[i % 64], _ROWS[(7 * i + 3) % 64]
        per_d = np.bincount((a[:, None] - b[None, :]).ravel() % 5329, minlength=5329)
        np.bincount(per_d, minlength=37)
    mid = time.perf_counter()
    cur, table = [1, 0, 0, 0], {}
    for t in range(12000):
        res = [0] * 7
        for i, x in enumerate(cur):
            for j, y in enumerate((0, 1, 0, 0)):
                res[i + j] = (res[i + j] + x * y) % 23
        cur = [(res[j] + 3 * res[j + 4] if j < 3 else res[j]) % 23 for j in range(4)]
        table[t] = cur[0]
    return mid - start, time.perf_counter() - mid


def tally():
    """The library case: square/non-square coset tallies and bounds in GR(23^2, 2)."""
    ring = ddfkit.build_ring(23, 2)
    return ddfkit.sn_coset_counts(ring), ddfkit.bound_report(ring)


def tally_text(counts, bounds):
    """The library case's stdout, written by the benchmark outside the timed op."""
    out = {"sn_coset_counts": dataclasses.asdict(counts),
           "bound_report": dataclasses.asdict(bounds)}
    return json.dumps(out, sort_keys=True) + "\n"


def run_op(argv):
    """Run `ddf argv` with stdout/stderr captured; (status, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = ddfkit.cli.main(list(argv))
    return status, out.getvalue(), err.getvalue()


def write_family(seed, path):
    """wilson-half (7,2) relabelled by a seeded invertible 4x4 matrix mod 7.

    A linear bijection of F_7^4 is an additive automorphism, so the file is
    again a difference family with the same profile, but without the
    multiplicative structure of the original cosets.
    """
    rng = random.Random(seed)
    while True:
        mat = [[rng.randrange(7) for _ in range(4)] for _ in range(4)]
        if round(np.linalg.det(mat)) % 7:  # |det| < 7^4 * 4!, exact in floats
            break
    fam = ddfkit.wilson_family(ddfkit.build_field(7, 4), 100)
    pows = 7 ** np.arange(4, dtype=np.int64)
    digits = (fam.block_array()[..., None] // pows) % 7
    relabelled = ((digits @ np.array(mat, dtype=np.int64).T) % 7) @ pows
    relabelled.sort(axis=1)
    lines = [f"{fam.v} {fam.k} {fam.lam} {fam.b}"]
    lines += [" ".join(str(int(x)) for x in row) for row in relabelled]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_expected():
    with open(EXPECTED) as fh:
        return json.load(fh)


def prepare(req):
    write_family(req["seed"], req["family_file"])
    compare_case = cases.by_id("compare-5-2")
    _, compare_text, _ = run_op(compare_case.argv)
    construct = ("construct", "--construction", "gr-squares", "--p", "5", "--r", "1")
    _, construct_text, _ = run_op(construct)
    missed = oracles.self_test(compare_case, compare_text,
                               load_expected().get(compare_case.id),
                               cases.half_params(5, 1), construct_text)
    return {"missed": missed, "backend": ddfkit._kernels.backend(),
            "numpy": np.__version__}


def run_case(req):
    case = cases.by_id(req["case"])
    argv = [a.replace(cases.FAMILY_FILE, req.get("family_file") or "") for a in case.argv]
    recorder = tracing.Recorder() if req.get("spans") else None
    if recorder:
        recorder.install()
    root = recorder.span(tracing.ROOT_SPAN) if recorder else contextlib.nullcontext()
    problem = None
    status = stdout = stderr = ""
    calib = calibrate()
    start = time.perf_counter()
    try:
        with root:
            if argv:
                status, stdout, stderr = run_op(argv)
            else:
                reports = tally()
    except Exception as exc:  # a crash in the program is a named case failure
        problem = f"exception: {type(exc).__name__}: {exc}"
    op_s = time.perf_counter() - start
    calib_np_s, calib_py_s = (x + y for x, y in zip(calib, calibrate()))
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if recorder:
        recorder.recording = False
        recorder.write(req["spans"])
    if not argv and problem is None:
        status, stdout = 0, tally_text(*reports)
    sha = oracles.sha256(stdout)
    if problem is None:
        expected = sha if req.get("record") else load_expected().get(case.id)
        problem = oracles.check(case, status, stdout, stderr, expected)
    return {"op_s": op_s, "calib_np_s": calib_np_s, "calib_py_s": calib_py_s,
            "maxrss_kb": maxrss_kb, "sha256": sha, "problem": problem}


def main():
    if not os.path.abspath(ddfkit.__file__).startswith(SRC + os.sep):
        sys.stderr.write(f"ddfkit imported from {ddfkit.__file__}, not from {SRC}\n")
        return 3
    req = json.loads(sys.argv[1])
    result = prepare(req) if req.get("prepare") else run_case(req)
    result["setup_s"] = SETUP_END - req["t0"]
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
