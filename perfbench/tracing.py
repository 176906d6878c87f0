"""Per-layer spans for the traced run, recorded from outside the program.

`Recorder.install()` wraps each public function in LAYERS and rebinds every
name in the `ddfkit.*` module namespaces that is bound to it, so calls made
through `from .x import f` names are timed too.  A span is (id, name, parent,
start, end) plus exact work counts the benchmark computes from the call's
arguments.  Spans stay in memory and are written as JSON lines at exit.
A function missing from the program is skipped; its metrics read 0.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from math import comb


def _blocks_shape(args, kwargs):
    blocks = args[0] if args else kwargs["blocks"]
    return blocks.shape


def _diff_counts(args, kwargs, result, missed):
    b, k = _blocks_shape(args, kwargs)
    return {"kernels.diff_hist_pairs": b * b, "kernels.diff_hist_terms": b * b * k * k}


def _intersect_counts(args, kwargs, result, missed):
    blocks, _ = _blocks_shape(args, kwargs)
    return {"kernels.intersect_pairs": comb(blocks, 2)}


def _cover_counts(args, kwargs, result, missed):
    blocks, k = _blocks_shape(args, kwargs)
    return {"kernels.cover_pairs": blocks * comb(k, 2)}


def _develop_counts(args, kwargs, result, missed):
    fam = args[0] if args else kwargs["fam"]
    blocks = fam.v * fam.b
    return {"designs.develop_blocks": blocks,
            "designs.develop_mb": blocks * fam.k * 8 / 1e6}  # int64 block array


def _field_counts(args, kwargs, result, missed):
    p, n = args[:2]
    return {"fields.elements": p ** n if missed else 0}


def _family_counts(args, kwargs, result, missed):
    fams = result if isinstance(result, tuple) else (result,)
    return {"families.block_elements": sum(f.b * f.k for f in fams)}


def _cells(args, kwargs, result, missed):
    e = args[1] if len(args) > 1 else kwargs["e"]
    return {"cyclotomy.cells": e * e}


# (module, public function, layer, work counter)
LAYERS = (
    ("_kernels", "diff_pair_hist", "kernels.diff_hist", _diff_counts),
    ("_kernels", "block_intersection_hist", "kernels.intersect", _intersect_counts),
    ("_kernels", "pair_coverage", "kernels.cover", _cover_counts),
    ("designs", "develop", "designs.develop", _develop_counts),
    ("designs", "profile_direct", "designs.direct", None),
    ("designs", "profile_via_differences", "designs.diff", None),
    ("designs", "verify_2design", "designs.verify", None),
    ("fields", "build_field", "fields.build", _field_counts),
    ("galois_ring", "build_ring", "galois_ring.build", None),
    ("families", "wilson_family", "families.construct", _family_counts),
    ("families", "davis_family", "families.construct", _family_counts),
    ("families", "squares_family", "families.construct", _family_counts),
    ("families", "feng_families", "families.construct", _family_counts),
    ("families", "family_to_text", "families.to_text", None),
    ("families", "load_family", "families.load", None),
    ("families", "validate_ddf", "families.validate", None),
    ("cyclotomy", "cyclotomic_table", "cyclotomy.table", _cells),
    ("cyclotomy", "closed_form_order_e", "cyclotomy.closed_form", None),
    ("cyclotomy", "closed_form_order_2e", "cyclotomy.closed_form", None),
    ("cyclotomy", "unknown_quadruples", "cyclotomy.closed_form", None),
    ("cyclotomy", "table_to_csv", "cyclotomy.to_csv", None),
    ("certify", "compare_designs", "certify.compare", None),
    ("certify", "gate", "certify.gate", None),
    ("certify", "certificate", "certify.certificate", None),
    ("certify", "sn_coset_counts", "certify.tally", None),
    ("certify", "bound_report", "certify.tally", None),
    # The cyclo case's cell-by-cell comparison with the closed form runs in
    # the CLI itself; timing it keeps that work out of cli.self_s.
    ("cli", "_closed_form_check", "cli.closed_form_check", None),
    ("cli", "main", "cli", None),
)

ROOT_SPAN = "case"  # the whole timed operation of one case


class Recorder:
    def __init__(self):
        self.spans = []
        self._stack = []
        self.recording = True

    @contextlib.contextmanager
    def span(self, name):
        span = {"id": len(self.spans), "name": name,
                "parent": self._stack[-1] if self._stack else None}
        self.spans.append(span)
        self._stack.append(span["id"])
        span["start"] = time.perf_counter()
        try:
            yield span
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, layer, counter):
        cached = hasattr(fn, "cache_info")  # functools.lru_cache

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            misses = fn.cache_info().misses if cached else 0
            with self.span(layer) as span:
                result = fn(*args, **kwargs)
            if counter is not None:
                missed = not cached or fn.cache_info().misses > misses
                try:
                    span.update(counter(args, kwargs, result, missed))
                except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                    pass  # a changed signature loses the count, not the run
            return result
        return wrapper

    def install(self):
        """Rebind every ddfkit.* name bound to a LAYERS function to its wrapper."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "ddfkit" or name.startswith("ddfkit."))]
        for mod_name, fn_name, layer, counter in LAYERS:
            target = getattr(sys.modules.get(f"ddfkit.{mod_name}"), fn_name, None)
            if target is None:
                continue
            wrapper = self._wrap(target, layer, counter)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is target:
                        setattr(mod, attr, wrapper)

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def read_spans(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def summarize(spans):
    """Self seconds and counts per layer, plus op and covered seconds.

    Self time is a span's duration minus the durations of its direct
    children.  `covered_s` is the part of the root span spent inside layer
    spans below the CLI's own code.
    """
    dur = {s["id"]: s["end"] - s["start"] for s in spans}
    child = {s["id"]: 0.0 for s in spans}
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += dur[s["id"]]
    totals = {}
    op_s = covered_s = 0.0
    for s in spans:
        self_s = dur[s["id"]] - child[s["id"]]
        if s["name"] == ROOT_SPAN:
            op_s += dur[s["id"]]
            covered_s += dur[s["id"]] - self_s
            continue
        if s["name"] == "cli":
            covered_s -= self_s
        key = "cli.self_s" if s["name"] == "cli" else f"{s['name']}_s"
        totals[key] = totals.get(key, 0.0) + self_s
        for name, value in s.items():
            if name not in ("id", "name", "parent", "start", "end"):
                totals[name] = totals.get(name, 0) + value
    return totals, op_s, covered_s
