"""Single-thread benchmark of the `ddf` CLI: fixed passes of fresh-interpreter cases.

    python3 perfbench/run.py --workload compare-ladder --seed 1 --seconds 30 --trace 0

A run makes a fixed number of passes over its workload's cases (from
--seconds and a nominal pass time, never from a clock), in an order the seed
permutes.  Each case runs alone in its own interpreter with DDF_THREADS=1, so
caches start cold as in a real `ddf` invocation, and its output is checked
by an exact oracle.  The last stdout line is the result JSON; the line before
it records the environment and every case run.

--trace 0 reports the end-to-end metrics; --trace 1 alternates traced and
untraced passes and reports the per-layer metrics (see README.md).
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time

from cases import (CALIBRATION_NUMPY_S, CALIBRATION_PYTHON_S, PASS_S,
                   WORKLOADS, by_id)
from tracing import read_spans, summarize

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
CASE_TIMEOUT_S = 60.0
RUN_DEADLINE_S = 170.0

CHILD_ENV = dict(os.environ, DDF_THREADS="1", OMP_NUM_THREADS="1",
                 OPENBLAS_NUM_THREADS="1")

# name -> unit, in the order BENCHMARK.json lists them
PER_LAYER = {
    "kernels.diff_hist_s": "s", "kernels.diff_hist_pairs": "count",
    "kernels.diff_hist_terms": "count", "kernels.diff_hist_ns_per_term": "ns",
    "kernels.intersect_s": "s", "kernels.intersect_pairs": "count",
    "kernels.intersect_ns_per_pair": "ns",
    "kernels.cover_s": "s", "kernels.cover_pairs": "count",
    "designs.develop_s": "s", "designs.develop_blocks": "count",
    "designs.develop_mb": "MB", "designs.direct_s": "s", "designs.diff_s": "s",
    "designs.verify_s": "s",
    "fields.build_s": "s", "fields.elements": "count", "fields.ns_per_element": "ns",
    "galois_ring.build_s": "s",
    "families.construct_s": "s", "families.block_elements": "count",
    "families.ns_per_block_element": "ns", "families.to_text_s": "s",
    "families.load_s": "s", "families.validate_s": "s",
    "cyclotomy.table_s": "s", "cyclotomy.closed_form_s": "s", "cyclotomy.cells": "count",
    "cyclotomy.to_csv_s": "s",
    "certify.compare_s": "s", "certify.gate_s": "s", "certify.certificate_s": "s",
    "certify.tally_s": "s",
    "cli.closed_form_check_s": "s", "cli.self_s": "s",
    "trace.overhead_s": "s", "trace.coverage": "ratio",
}

# ratio metric -> (self-time metric, count metric); reported in ns per unit
PER_UNIT = {
    "kernels.diff_hist_ns_per_term": ("kernels.diff_hist_s", "kernels.diff_hist_terms"),
    "kernels.intersect_ns_per_pair": ("kernels.intersect_s", "kernels.intersect_pairs"),
    "fields.ns_per_element": ("fields.build_s", "fields.elements"),
    "families.ns_per_block_element": ("families.construct_s", "families.block_elements"),
}


def run_child(request, timeout):
    """Run case.py on `request`; (result, None) or (None, named failure)."""
    request["t0"] = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "case.py"),
                               json.dumps(request)],
                              capture_output=True, text=True, timeout=timeout,
                              env=CHILD_ENV, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return None, f"timeout after {timeout:.0f} s"
    if proc.returncode != 0:
        tail = (proc.stderr.strip().splitlines() or [""])[-1]
        return None, f"exit {proc.returncode}: {tail}"
    try:
        return json.loads(proc.stdout.splitlines()[-1]), None
    except (IndexError, ValueError):
        return None, "no result line"


def commit():
    """The checkout's commit from .git, without running git; 'unknown' if absent."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_sha256():
    """SHA-256 over the program's Python sources: names the code measured without git."""
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "**", "*.py"), recursive=True)):
        digest.update(os.path.relpath(path, ROOT).encode() + b"\0")
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def slowdown(record, numpy_share):
    """How many times slower than the reference speed the case's vCPU ran.

    The vCPUs of a shared VM can change speed by up to 2x, in phases of
    seconds to minutes, and numpy kernels and Python-level code slow down
    by different factors.  The two calibration loops around each operation
    measure both factors; weighting them by the case's numpy share gives the
    slowdown of the operation, and dividing by it cancels the drift.
    """
    return (numpy_share * record["calib_np_s"] / CALIBRATION_NUMPY_S
            + (1 - numpy_share) * record["calib_py_s"] / CALIBRATION_PYTHON_S)


def op_seconds(record):
    """The case's operation time at the reference speed."""
    return record["op_s"] / slowdown(record, by_id(record["case"]).numpy_share)


def end_to_end(records, passes):
    walls, rss = [], []
    for i in range(passes):
        mine = [r for r in records if r["pass"] == i]
        walls.append(sum(op_seconds(r) for r in mine if "op_s" in r))
        rss.append(max(r.get("maxrss_kb", 0) for r in mine) / 1024)
    # interpreter start and import are Python-level work
    setups = [r["setup_s"] / slowdown(r, 0.0) for r in records if "op_s" in r]
    passed = sum(r["problem"] is None for r in records)
    return {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setups) if setups else 0.0, "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
        "pass_ratio": (passed / len(records), "ratio"),
    }


def per_layer(records, passes, run_dir):
    traced_walls, untraced_walls, per_pass = [], [], []
    for i in range(passes):
        mine = [r for r in records if r["pass"] == i]
        wall = sum(op_seconds(r) for r in mine if "op_s" in r)
        if not mine[0]["traced"]:
            untraced_walls.append(wall)
            continue
        traced_walls.append(wall)
        totals, op_s, covered_s = {}, 0.0, 0.0
        for r in mine:
            path = os.path.join(run_dir, r["spans"])
            if not os.path.exists(path):
                continue
            case_totals, case_op, case_covered = summarize(read_spans(path))
            for name, value in case_totals.items():
                if name.endswith("_s"):
                    value /= slowdown(r, by_id(r["case"]).numpy_share)
                totals[name] = totals.get(name, 0) + value
            op_s += case_op
            covered_s += case_covered
        for name, (secs, count) in PER_UNIT.items():
            if totals.get(count):
                totals[name] = totals.get(secs, 0.0) / totals[count] * 1e9
        totals["trace.coverage"] = covered_s / op_s if op_s else 0.0
        per_pass.append(totals)
    # Every metric is reported; a layer with no span on this workload (or a
    # function the program no longer has) reads 0.
    metrics = {name: (statistics.median(t.get(name, 0) for t in per_pass), unit)
               for name, unit in PER_LAYER.items()}
    metrics["trace.overhead_s"] = (
        statistics.median(traced_walls) - statistics.median(untraced_walls), "s")
    return metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "ddfkit", "__init__.py")):
        sys.stderr.write(f"no ddfkit sources under {ROOT}/src; nothing to benchmark\n")
        return 2
    # One vCPU for the whole run: the vCPUs change speed independently, and
    # each case's calibration must see the same one as its operation.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    deadline = time.perf_counter() + RUN_DEADLINE_S
    run_dir = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    family_file = os.path.join(run_dir, "family.txt")

    prep, problem = run_child({"prepare": True, "seed": args.seed,
                               "family_file": family_file}, CASE_TIMEOUT_S)
    if problem or prep["missed"]:
        sys.stderr.write(f"preparation failed: {problem or prep['missed']}\n")
        return 1

    cases = WORKLOADS[args.workload]
    passes = max(2, round(args.seconds / PASS_S[args.workload]))
    rng = random.Random(args.seed)
    records = []
    for i in range(passes):
        traced = bool(args.trace) and i % 2 == 0
        for case in rng.sample(cases, len(cases)):
            record = {"pass": i, "case": case.id, "traced": traced}
            request = {"case": case.id, "family_file": family_file}
            if traced:
                record["spans"] = f"pass{i}-{case.id}.jsonl"
                request["spans"] = os.path.join(run_dir, record["spans"])
            timeout = min(CASE_TIMEOUT_S, deadline - time.perf_counter())
            if timeout < 1:
                result, problem = None, "not run: run deadline reached"
            else:
                result, problem = run_child(request, timeout)
            record.update(result or {})
            record["problem"] = problem or record.get("problem")
            if record["problem"]:
                sys.stderr.write(f"FAIL pass {i} {case.id}: {record['problem']}\n")
            records.append(record)

    failed = sum(r["problem"] is not None for r in records)
    metrics = per_layer(records, passes, run_dir) if args.trace else end_to_end(records, passes)
    info = {
        "workload": args.workload, "seed": args.seed, "passes": passes,
        "trace": args.trace,
        "env": {"nproc": os.cpu_count(), "cpu": cpu_model(),
                "python": platform.python_version(), "numpy": prep["numpy"],
                "backend": prep["backend"], "DDF_THREADS": CHILD_ENV["DDF_THREADS"],
                "commit": commit(), "src_sha256": src_sha256()},
        "runs": records,
    }
    print(json.dumps(info))
    print(json.dumps({
        "correct": failed == 0, "attempted": len(records), "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
