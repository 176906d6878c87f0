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

import argparse
import json
import sys
from dataclasses import asdict

from . import __version__
from .cyclotomy import (check_sum_relation, closed_form_order_2e,
                        closed_form_order_e, cyclotomic_table, quadruple_mask,
                        quadruple_sums, table_to_csv)
from .certify import certificate, compare_designs, gate
from .designs import (develop, design_text_chunks, load_design, profile_direct,
                      profile_via_differences, verify_2design)
from .errors import BudgetError, ProfileCheckError
from .families import (family_to_text, feng_families, load_family,
                       davis_family, squares_family, validate_ddf,
                       wilson_family)
from .fields import build_field
from .galois_ring import build_ring

CONSTRUCTIONS = ("wilson", "wilson-half", "gr-teichmuller", "gr-squares",
                 "feng-1", "feng-2", "feng-3")


class UsageError(ValueError):
    pass


def construction_family(name: str, p: int | None, r: int | None):
    if name not in CONSTRUCTIONS:
        raise UsageError(f"unknown construction {name!r}; choose from {', '.join(CONSTRUCTIONS)}")
    if name.startswith("feng-"):
        if (p is not None and p != 11) or (r is not None and r != 3):
            raise UsageError("the partition families live in F_{11^3}; use --p 11 --r 3 or omit")
        return feng_families(build_field(11, 3))[int(name[-1]) - 1]
    if p is None or r is None:
        raise UsageError(f"construction {name!r} requires --p and --r")
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
    if args.construction:
        return construction_family(args.construction, args.p, args.r)
    if not args.input:
        raise UsageError("need either --construction or --input")
    if not args.kind or args.p is None:
        raise UsageError("loading a family file requires --kind and --p")
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
    _write_out([family_to_text(fam)], args.out)
    return 0


def cmd_develop(args) -> int:
    fam = _family_from_args(args)
    _write_out(design_text_chunks(develop(fam)), args.out)
    return 0


def cmd_profile(args) -> int:
    if args.input and args.design:
        if args.method != "direct":
            raise UsageError("a design file only supports --method direct")
        prof = profile_direct(load_design(args.input))
        _write_out([prof.to_json() + "\n"], args.out)
        return 0
    fam = _family_from_args(args)
    if args.method == "direct":
        prof = profile_direct(develop(fam))
    elif args.method == "differences":
        prof = profile_via_differences(fam)
    else:  # both, with agreement check
        direct = profile_direct(develop(fam))
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
    if args.e < 1 or (field.q - 1) % args.e:
        raise UsageError(f"e={args.e} does not divide q-1={field.q - 1}")
    table = cyclotomic_table(field, args.e)
    status = 0
    if args.check_closed_form:
        status = max(status, _closed_form_check(args, table))
    if args.check_sum_relation:
        if (field.q - 1) % (2 * args.e):
            raise UsageError("sum-relation check needs 2e | q-1")
        ok, cell = check_sum_relation(table, cyclotomic_table(field, 2 * args.e))
        sys.stderr.write(f"sum relation e={args.e} vs {2 * args.e}: "
                         f"{'PASS' if ok else f'FAIL at {cell}'}\n")
        status = max(status, 0 if ok else 1)
    _write_out([table_to_csv(table)], args.out)
    return status


def _closed_form_check(args, table) -> int:
    # recover (base prime, half degree) so q = t^2 with t = base^half
    if args.r % 2:
        raise UsageError("closed forms apply to square-order fields only")
    half = args.r // 2
    t = args.p ** half
    if args.e == t + 1:
        closed = closed_form_order_e(args.p, half)
        ok = bool((closed.cells == table.cells).all())
        sys.stderr.write(f"order-(t+1) closed form: {'PASS' if ok else 'FAIL'}\n")
        return 0 if ok else 1
    if args.e == 2 * (t + 1):
        closed = closed_form_order_2e(args.p, half)
        known = closed.known
        ok = bool((table.cells[known] == closed.cells[known]).all()
                  and (quadruple_sums(table.cells)[quadruple_mask(known)] == 1).all())
        sys.stderr.write(f"order-2(t+1) closed form: {'PASS' if ok else 'FAIL'}\n")
        return 0 if ok else 1
    raise UsageError("closed forms exist for e = t+1 or e = 2(t+1) with t = sqrt(q)")


def cmd_gate(args) -> int:
    _write_out([json.dumps(asdict(gate(args.p, args.r)), indent=2) + "\n"], args.out)
    return 0


def cmd_compare(args) -> int:
    if args.p is None or args.r is None:
        raise UsageError("compare requires --p and --r")
    fam_a = construction_family(args.a, args.p, args.r)
    fam_b = construction_family(args.b, args.p, args.r)
    if (fam_a.v, fam_a.b, fam_a.k) != (fam_b.v, fam_b.b, fam_b.k):
        raise UsageError("the chosen constructions have different (v, b, k)")
    result = compare_designs(fam_a, fam_b)
    cert = certificate(args.p, args.r, fam_a, fam_b, result,
                       gate(args.p, args.r), __version__)
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
        design = develop(fam)
        passed, witness = verify_2design(design, fam.lam)
        sys.stdout.write(f"  2-design with lambda={fam.lam}: {passed}"
                         + (f" (witness pair {witness})" if witness else "") + "\n")
        ok = ok and passed
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_source_args(sp, with_design=False):
    sp.add_argument("--construction", choices=CONSTRUCTIONS)
    sp.add_argument("--p", type=int)
    sp.add_argument("--r", type=int)
    sp.add_argument("--input", help="family file (header 'v k lambda b')")
    sp.add_argument("--kind", choices=("field", "ring"),
                    help="group kind of an --input family file")
    if with_design:
        sp.add_argument("--design", action="store_true",
                        help="treat --input as a design file")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ddf",
        description="Difference families, 2-designs, intersection profiles and "
                    "nonisomorphism certificates in finite fields and Galois rings.")
    ap.add_argument("--version", action="version", version=f"ddf {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("construct", help="build a family and write its file")
    sp.add_argument("--construction", choices=CONSTRUCTIONS, required=True)
    sp.add_argument("--p", type=int)
    sp.add_argument("--r", type=int)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_construct)

    sp = sub.add_parser("develop", help="develop a family into a design file")
    _add_source_args(sp)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_develop)

    sp = sub.add_parser("profile", help="intersection profile as JSON")
    _add_source_args(sp, with_design=True)
    sp.add_argument("--method", choices=("direct", "differences", "both"),
                    default="differences")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_profile)

    sp = sub.add_parser("cyclo", help="cyclotomic-number table as CSV")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--r", type=int, required=True,
                    help="field extension degree; the table lives in F_{p^r}")
    sp.add_argument("--e", type=int, required=True)
    sp.add_argument("--check-closed-form", action="store_true")
    sp.add_argument("--check-sum-relation", action="store_true")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_cyclo)

    sp = sub.add_parser("gate", help="applicability gate report")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_gate)

    sp = sub.add_parser("compare", help="nonisomorphism certificate for two constructions")
    sp.add_argument("--p", type=int)
    sp.add_argument("--r", type=int)
    sp.add_argument("--a", default="wilson-half", choices=CONSTRUCTIONS)
    sp.add_argument("--b", default="gr-squares", choices=CONSTRUCTIONS)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_compare)

    sp = sub.add_parser("verify", help="validate a family and its developed design")
    _add_source_args(sp)
    sp.add_argument("--skip-design", action="store_true",
                    help="skip the exhaustive 2-design pair count")
    sp.set_defaults(func=cmd_verify)

    return ap


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
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
    except (UsageError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
