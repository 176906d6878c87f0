"""The benchmark's workloads: fixed lists of cases, each one `ddf` invocation.

A case is either a `ddf` command line, run through `ddfkit.cli.main`, or the
one library case (`tally`).  `params` holds the exact parameters the oracle
checks the output against; the benchmark derives them, never the program.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# Replaced by the path of the seeded, relabelled family file at run time.
FAMILY_FILE = "{family_file}"


@dataclass(frozen=True)
class Case:
    id: str  # stable name; keys the recorded stdout hash
    argv: tuple  # arguments to ddfkit.cli.main; () for the library case
    oracle: str  # the check in oracles.py that applies
    params: dict = field(default_factory=dict)
    # Share of the operation spent in the numpy kernels, from a traced run at
    # the commit that added this benchmark; it weights the two calibration
    # loops, see run.slowdown.
    numpy_share: float = 0.0


def half_params(p: int, r: int) -> dict:
    """(v, b, k, lambda) of the near-complete (t^2, (t-1)/2, (t-3)/2) families."""
    t = p ** r
    return {"p": p, "r": r, "v": t * t, "b": 2 * (t + 1), "k": (t - 1) // 2,
            "lam": (t - 3) // 2}


def _compare(p, r, numpy_share):
    return Case(f"compare-{p}-{r}", ("compare", "--p", str(p), "--r", str(r)),
                "compare", half_params(p, r), numpy_share)


def _construct(name, p, r):
    return Case(f"construct-{name}-{p}-{r}",
                ("construct", "--construction", name, "--p", str(p), "--r", str(r)),
                "construct", half_params(p, r))


WORKLOADS = {
    # The gate-applicable ladder behind the paper's certificates;
    # almost all of its time is the difference-histogram kernel.
    "compare-ladder": (
        _compare(5, 2, 0.92),
        _compare(7, 2, 0.96),
        _compare(73, 1, 0.99),
    ),
    # Python-level field tables and coset building at the top of the ladder;
    # the kernels do not run.
    "construct-large": (
        _construct("wilson-half", 17, 2),
        _construct("wilson-half", 23, 2),
        _construct("gr-squares", 17, 2),
        _construct("gr-squares", 23, 2),
    ),
    # The independent routes and brute-force checks, from many small blocks
    # to two huge ones; none of these families carries multiplier structure.
    "cross-check": (
        Case("profile-both-gr-squares-13-1",
             ("profile", "--construction", "gr-squares", "--p", "13", "--r", "1",
              "--method", "both"),
             "profile", half_params(13, 1), 0.96),
        Case("profile-both-feng-1",
             ("profile", "--construction", "feng-1", "--method", "both"),
             "profile", {"v": 1331, "b": 2, "k": 665, "lam": 664}, 0.70),
        Case("verify-gr-squares-37-1",
             ("verify", "--construction", "gr-squares", "--p", "37", "--r", "1"),
             "verify", half_params(37, 1), 0.63),
        Case("profile-imported-wilson-half-7-2",
             ("profile", "--input", FAMILY_FILE, "--kind", "field", "--p", "7"),
             "profile", dict(half_params(7, 2), closed_form=True), 0.99),
        Case("cyclo-17-4-580",
             ("cyclo", "--p", "17", "--r", "4", "--e", "580", "--check-closed-form"),
             "cyclo", {"q": 17 ** 4, "e": 580, "f": (17 ** 4 - 1) // 580}),
        Case("tally-gr-23-2", (), "tally", {"p": 23, "r": 2}),
    ),
}

# Median seconds of each calibration loop of case.calibrate, summed over its
# two calls around an operation, on a 2-vCPU Xeon VM.  They only set the
# unit: times are reported at this reference speed (see run.slowdown).
CALIBRATION_NUMPY_S = 0.09
CALIBRATION_PYTHON_S = 0.125

# Seconds of --seconds per pass.  They turn --seconds into a fixed pass
# count (5, 6 and 5 passes at 35), so the work done never depends on machine
# speed.  A pass takes about 7 s on a 2-vCPU Xeon VM, counting each case's
# interpreter start, import and calibration; construct-large, whose
# Python-level cases drift most, gets one pass more.
PASS_S = {"compare-ladder": 6.5, "construct-large": 6.0, "cross-check": 7.0}


def by_id(case_id: str) -> Case:
    for cases in WORKLOADS.values():
        for case in cases:
            if case.id == case_id:
                return case
    raise KeyError(case_id)
