"""Command-line front end with deterministic, machine-readable output.

Construction names:
  wilson          cyclotomic cosets of order p^r + 1 in F_{p^2r}
  wilson-half     cyclotomic cosets of order 2(p^r + 1) in F_{p^2r}
  gr-teichmuller  Teichmüller cosets in GR(p^2, r)
  gr-squares      Teichmüller-square cosets in GR(p^2, r)
  feng-1/2/3      the two-block partition families of F_{11^3}

Exit codes: 0 = success / verdict produced, 1 = validation failure, budget
exceeded or a failed profile self-check, 2 = usage error or malformed input.
"""

from __future__ import annotations

import gc
import json
import sys
from dataclasses import asdict
from types import SimpleNamespace
from typing import Callable, NamedTuple

from . import __version__
from .cyclotomy import check_sum_relation, closed_form_holds, cyclotomic_table, table_to_csv
from .certify import certificate, compare_constructions, compare_designs, gate
from .designs import (Development, check_profile, design_text_chunks, load_design,
                      profile_direct, profile_via_differences, verify_2design)
from .errors import BudgetError, ProfileCheckError
from .families import (family_text_chunks, feng_families, load_family,
                       davis_family, squares_family, validate_ddf,
                       wilson_family)
from .fields import build_field
from .galois_ring import build_ring
from .residue import CONSTRUCTIONS as COSET_CONSTRUCTIONS, construction

# the imports' objects are permanent: keep collections during a command off them
gc.freeze()

CONSTRUCTIONS = ("wilson", "wilson-half", "gr-teichmuller", "gr-squares",
                 "feng-1", "feng-2", "feng-3")


def construction_family(name: str, p: int | None, r: int | None):
    if name not in CONSTRUCTIONS:
        raise ValueError(f"unknown construction {name!r}; choose from {', '.join(CONSTRUCTIONS)}")
    if name.startswith("feng-"):
        if (p is not None and p != 11) or (r is not None and r != 3):
            raise ValueError("the partition families live in F_{11^3}; use --p 11 --r 3 or omit")
        return feng_families(build_field(11, 3))[int(name[-1]) - 1]
    if p is None or r is None:
        raise ValueError(f"construction {name!r} requires --p and --r")
    if name == "wilson":
        fam = wilson_family(build_field(p, 2 * r), p ** r + 1, name=name)
    elif name == "wilson-half":
        fam = wilson_family(build_field(p, 2 * r), 2 * (p ** r + 1), name=name)
    elif name == "gr-teichmuller":
        fam = davis_family(build_ring(p, r))
    else:
        fam = squares_family(build_ring(p, r))
    return fam


def _family_from_args(args):
    if args.construction and args.input is not None:
        raise ValueError("--construction and --input are alternatives; give one")
    if args.construction:
        return construction_family(args.construction, args.p, args.r)
    if not args.input:
        raise ValueError("need either --construction or --input")
    if not args.kind or args.p is None:
        raise ValueError("loading a family file requires --kind and --p")
    return load_family(args.input, args.kind, args.p)


def _write_out(chunks, out: str | None) -> None:
    """Write the strings of `chunks` in order to the file `out`, or to stdout."""
    if out:
        with open(out, "w") as fh:
            fh.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def cmd_construct(args) -> int:
    fam = construction_family(args.construction, args.p, args.r)
    _write_out(family_text_chunks(fam), args.out)
    return 0


def cmd_develop(args) -> int:
    fam = _family_from_args(args)
    _write_out(design_text_chunks(Development(fam)), args.out)
    return 0


def cmd_profile(args) -> int:
    if args.design and not args.input:
        raise ValueError("--design reads the design file named by --input")
    method = args.method or ("direct" if args.design else "differences")
    if args.design and not args.construction:  # else _family_from_args refuses the pair
        if method != "direct":
            raise ValueError("a design file only supports --method direct")
        prof = profile_direct(load_design(args.input))
        _write_out([prof.to_json() + "\n"], args.out)
        return 0
    fam = _family_from_args(args)
    if method == "direct":
        prof = profile_direct(Development(fam))
        check_profile(prof, fam.v, fam.b, fam.k)
    elif method == "differences":
        prof = profile_via_differences(fam)
    else:  # both, with agreement check
        direct = profile_direct(Development(fam))
        diff = profile_via_differences(fam)
        if direct != diff:
            sys.stderr.write("profile methods disagree:\n"
                             f"  direct:      {direct.to_json()}\n"
                             f"  differences: {diff.to_json()}\n")
            return 1
        prof = diff
    _write_out([prof.to_json() + "\n"], args.out)
    return 0


def cmd_cyclo(args) -> int:
    field = build_field(args.p, args.r)
    table = cyclotomic_table(field, args.e)
    status = _closed_form_check(args, table) if args.check_closed_form else 0
    if args.check_sum_relation:
        if (field.q - 1) % (2 * args.e):
            raise ValueError("sum-relation check needs 2e | q-1")
        ok, cell = check_sum_relation(table, cyclotomic_table(field, 2 * args.e))
        sys.stderr.write(f"sum relation e={args.e} vs {2 * args.e}: "
                         f"{'PASS' if ok else f'FAIL at {cell}'}\n")
        status = max(status, 0 if ok else 1)
    _write_out([table_to_csv(table)], args.out)
    return status


def _closed_form_check(args, table) -> int:
    # recover (base prime, half degree) so q = t^2 with t = base^half
    if args.r % 2:
        raise ValueError("closed forms apply to square-order fields only")
    t = args.p ** (args.r // 2)
    if args.e not in (t + 1, 2 * (t + 1)):
        raise ValueError("closed forms exist for e = t+1 or e = 2(t+1) with t = sqrt(q)")
    ok = closed_form_holds(table, t)
    sys.stderr.write(f"order-{'(t+1)' if args.e == t + 1 else '2(t+1)'} closed form: "
                     f"{'PASS' if ok else 'FAIL'}\n")
    return 0 if ok else 1


def cmd_gate(args) -> int:
    _write_out([json.dumps(asdict(gate(args.p, args.r)), indent=2) + "\n"], args.out)
    return 0


def cmd_compare(args) -> int:
    p, r = args.p, args.r
    if args.a.startswith("feng-") and args.b.startswith("feng-"):  # both live in F_(11^3)
        p, r = 11 if p is None else p, 3 if r is None else r
    if p is None or r is None:
        raise ValueError("compare requires --p and --r")
    if args.a in COSET_CONSTRUCTIONS and args.b in COSET_CONSTRUCTIONS:
        a = construction(args.a, p, r)
        b = construction(args.b, p, r)
        result = compare_constructions(a, b)
    else:
        a = construction_family(args.a, p, r)
        b = construction_family(args.b, p, r)
        result = compare_designs(a, b)
    cert = certificate(p, r, a, b, result, gate(p, r), __version__)
    _write_out([json.dumps(cert, indent=2) + "\n"], args.out)
    return 0


def cmd_verify(args) -> int:
    fam = _family_from_args(args)
    report = validate_ddf(fam)
    ok = report.is_difference_family and report.observed_lambda == fam.lam
    sys.stdout.write(
        f"family {fam.name or '<unnamed>'}: v={fam.v} k={fam.k} lambda={fam.lam} b={fam.b}\n"
        f"  difference family: {report.is_difference_family}"
        f" (observed lambda: {report.observed_lambda})\n"
        f"  disjoint: {report.disjoint}  near-complete: {report.near_complete}\n")
    if report.offending_element is not None:
        sys.stdout.write(f"  witness element: {report.offending_element}\n")
    if not args.skip_design:
        passed, witness = verify_2design(Development(fam), fam.lam)
        sys.stdout.write(f"  2-design with lambda={fam.lam}: {passed}"
                         + (f" (witness pair {witness})" if witness else "") + "\n")
        ok = ok and passed
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# the command table: the fast argv reader and the argparse tree both read it
# ---------------------------------------------------------------------------

STORE_TRUE = "store_true"


class Option(NamedTuple):
    """One `--flag` of a subcommand; `type` converts its value as argparse's
    `type=` does, or is STORE_TRUE for a flag that takes no value."""
    flag: str
    type: Callable | str = str
    choices: tuple | None = None
    default: object = None
    required: bool = False
    help: str | None = None


class Command(NamedTuple):
    func: Callable
    help: str
    options: tuple


_P, _R, _OUT = Option("--p", int), Option("--r", int), Option("--out")
_SOURCE = (Option("--construction", choices=CONSTRUCTIONS), _P, _R,
           Option("--input", help="family file (header 'v k lambda b')"),
           Option("--kind", choices=("field", "ring"),
                  help="group kind of an --input family file"))

COMMANDS = {
    "construct": Command(cmd_construct, "build a family and write its file", (
        Option("--construction", choices=CONSTRUCTIONS, required=True), _P, _R, _OUT)),
    "develop": Command(cmd_develop, "develop a family into a design file", (*_SOURCE, _OUT)),
    "profile": Command(cmd_profile, "intersection profile as JSON", (
        *_SOURCE,
        Option("--design", STORE_TRUE, help="treat --input as a design file"),
        Option("--method", choices=("direct", "differences", "both")),
        _OUT)),
    "cyclo": Command(cmd_cyclo, "cyclotomic-number table as CSV", (
        Option("--p", int, required=True),
        Option("--r", int, required=True,
               help="field extension degree; the table lives in F_{p^r}"),
        Option("--e", int, required=True),
        Option("--check-closed-form", STORE_TRUE),
        Option("--check-sum-relation", STORE_TRUE),
        _OUT)),
    "gate": Command(cmd_gate, "applicability gate report", (
        Option("--p", int, required=True), Option("--r", int, required=True), _OUT)),
    "compare": Command(cmd_compare, "nonisomorphism certificate for two constructions", (
        _P, _R,
        Option("--a", default="wilson-half", choices=CONSTRUCTIONS),
        Option("--b", default="gr-squares", choices=CONSTRUCTIONS),
        _OUT)),
    "verify": Command(cmd_verify, "validate a family and its developed design", (
        *_SOURCE,
        Option("--skip-design", STORE_TRUE, help="skip the exhaustive 2-design pair count"))),
}


def read_argv(argv) -> SimpleNamespace | None:
    """The namespace argparse would return for `argv`, if `argv` has the form
    `COMMAND (--opt VALUE | --flag)*`: each option named exactly and at most
    once, no value starting with '-', each value converted by its type and
    in its choices, every required option present.  None for anything else
    (help, --version, `--opt=VALUE`, abbreviations, errors), which argparse
    then reads."""
    if not argv or argv[0] not in COMMANDS:
        return None
    command = COMMANDS[argv[0]]
    by_flag = {opt.flag: opt for opt in command.options}
    given = {}
    tokens = iter(argv[1:])
    for flag in tokens:
        opt = by_flag.get(flag)
        if opt is None or flag in given:
            return None
        if opt.type is STORE_TRUE:
            given[flag] = True
            continue
        value = next(tokens, "-")  # a missing value is declined like an option
        if value.startswith("-"):
            return None
        try:
            value = opt.type(value)
        except (TypeError, ValueError):
            return None
        if opt.choices is not None and value not in opt.choices:
            return None
        given[flag] = value
    if any(opt.required and opt.flag not in given for opt in command.options):
        return None
    return SimpleNamespace(
        command=argv[0], func=command.func,
        **{opt.flag[2:].replace("-", "_"):  # argparse's dest for the flag
           given.get(opt.flag, False if opt.type is STORE_TRUE else opt.default)
           for opt in command.options})


def build_parser():
    """The argparse tree of COMMANDS: the source of help, --version and every
    usage message, and the reader of any argv that `read_argv` declines."""
    import argparse  # its first use costs ~3 ms, which a well-formed argv skips

    ap = argparse.ArgumentParser(
        prog="ddf",
        description="Difference families, 2-designs, intersection profiles and "
                    "nonisomorphism certificates in finite fields and Galois rings.")
    ap.add_argument("--version", action="version", version=f"ddf {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        sp = sub.add_parser(name, help=command.help)
        for opt in command.options:
            if opt.type is STORE_TRUE:
                sp.add_argument(opt.flag, action=STORE_TRUE, help=opt.help)
            else:
                sp.add_argument(opt.flag, type=opt.type, choices=opt.choices,
                                default=opt.default, required=opt.required, help=opt.help)
        sp.set_defaults(func=command.func)
    return ap


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = read_argv(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:  # argparse uses 2 for usage errors
            return int(exc.code or 0)
    try:
        return args.func(args)
    except BudgetError as exc:
        sys.stderr.write(f"budget exceeded: {exc}\n")
        return 1
    except ProfileCheckError as exc:
        sys.stderr.write(f"profile self-check failed: {exc}\n")
        return 1
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
