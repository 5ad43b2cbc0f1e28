"""Command line interface.

Subcommands:

  compute           enumerate a value semigroup, slice the body, compare it
                    with the expected simplex and write both files
  certify           vertex-criterion certification plus the empirical
                    generation degree
  verify-flag       run the exact flag verifier and print its report
  ec-single-point   sweep random divisor classes on an elliptic curve over
                    F_p, searching single-point representatives
  export-toric      write the normal fan rays of the computed body
  demo              one table row per shipped case study

A case's dimension n, index r, degree d, chart_var and parameter_var
are read off its flag; a --fixture may carry them only with those values.

Exit codes: 0 success / equality, 1 usage error, 2 certification or
verification failure, 3 computational failure.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path
from typing import Sequence

from .convex import (RationalPolytope, normal_fan_rays, polytope_equal,
                     polytope_to_json)
from .elliptic import EllipticCurveFp, divisor_class_sum, random_divisor, \
    single_point_member
from .okounkov import (OkounkovSemigroup, body_estimate, generation_degree,
                       semigroup, semigroup_to_json, vertex_criterion)
from .series import PrecisionError
from .varieties import (CASE_NAMES, CaseStudy, case_study_from_json,
                        make_case, verify_flag)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FAILED = 2
EXIT_ERROR = 3


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on bad arguments; the contract here is 1."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="okbody", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_case_options(p: argparse.ArgumentParser, computes: bool = True,
                         writes: bool = True):
        group = p.add_mutually_exclusive_group()
        group.add_argument("--case", choices=CASE_NAMES, default="p2",
                           help="shipped case study (default p2, when no "
                                "--fixture is given)")
        group.add_argument("--fixture", type=Path,
                           help="JSON file describing a custom case study")
        p.add_argument("--c", type=int,
                       help="scale of the very ample class (default 1, or "
                            "the fixture's own c)")
        if computes:
            p.add_argument("--max-level", type=int, default=4,
                           help="enumerate levels 1..M (default 4)")
            p.add_argument("--verbose", action="store_true")
        if writes:
            p.add_argument("--out", type=Path, default=Path("out"),
                           help="output directory (default ./out)")

    p_compute = sub.add_parser("compute", help="semigroup, body and the "
                               "comparison with the expected simplex")
    add_case_options(p_compute)

    p_certify = sub.add_parser("certify", help="vertex-criterion "
                               "certification and generation degree")
    add_case_options(p_certify, writes=False)

    p_verify = sub.add_parser("verify-flag", help="exact flag verification")
    add_case_options(p_verify, computes=False, writes=False)

    p_ec = sub.add_parser("ec-single-point",
                          help="single-point representatives of divisor "
                               "classes on an elliptic curve over F_p")
    p_ec.add_argument("--p", type=int, default=101, help="field prime")
    p_ec.add_argument("--a", type=int, default=0, help="Weierstrass a")
    p_ec.add_argument("--b", type=int, default=1, help="Weierstrass b")
    p_ec.add_argument("--d", type=int, default=3, help="divisor degree")
    p_ec.add_argument("--samples", type=int, default=200)
    p_ec.add_argument("--seed", type=int, default=0)
    p_ec.add_argument("--verbose", action="store_true")

    p_toric = sub.add_parser("export-toric", help="normal fan rays of the "
                             "computed body")
    add_case_options(p_toric)

    p_demo = sub.add_parser("demo", help="reproduction table over all "
                            "shipped case studies")
    p_demo.add_argument("--c", type=int, default=1)
    p_demo.add_argument("--max-level", type=int, default=4)

    return parser


def _check_sizes(args) -> None:
    if args.c is not None and args.c < 1:
        raise _UsageError("--c must be a positive integer")
    if getattr(args, "max_level", 1) < 1:
        raise _UsageError("--max-level must be at least 1")


def _load_case(args) -> CaseStudy:
    _check_sizes(args)
    if args.fixture is not None:
        try:
            text = args.fixture.read_text(encoding="utf-8")
            case = case_study_from_json(text)
        except (OSError, ValueError, KeyError, TypeError,
                ZeroDivisionError) as exc:
            raise _UsageError(f"cannot load fixture: {exc}") from exc
        if args.c is not None and args.c != case.c:
            raise _UsageError(f"the fixture carries c = {case.c}; "
                              f"--c {args.c} differs")
        return case
    return make_case(args.case, 1 if args.c is None else args.c)


class _UsageError(Exception):
    pass


class _VerificationRefused(Exception):
    def __init__(self, report):
        super().__init__("flag verification failed")
        self.report = report


def _checked(case: CaseStudy, verbose: bool) -> CaseStudy:
    report = verify_flag(case)
    if verbose or not report.passed:
        print(report)
    if not report.passed:
        raise _VerificationRefused(report)
    return case


def _stem(sg: OkounkovSemigroup) -> str:
    return f"{sg.case.name}_c{sg.case.c}_M{sg.max_level}_{sg.kind}"


def _write(path: Path, text: str, verbose: bool) -> None:
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise _UsageError(f"cannot write {path}: {exc}") from exc
    if verbose:
        print(f"wrote {path}")


def _format_vertices(polytope: RationalPolytope) -> str:
    return " ".join("(" + ",".join(str(c) for c in v) + ")"
                    for v in polytope.vertices)


def cmd_compute(args) -> int:
    case = _checked(_load_case(args), args.verbose)
    expected = case.expected_body()
    sg = semigroup(case, "complete", args.max_level)
    body = body_estimate(sg)
    _write(args.out / f"{_stem(sg)}_semigroup.json", semigroup_to_json(sg),
           args.verbose)
    _write(args.out / f"{_stem(sg)}_body.json", polytope_to_json(body),
           args.verbose)
    equal = polytope_equal(body, expected)
    status = "equals" if equal else "DIFFERS FROM"
    print(f"{case.name} ({sg.kind}, M={args.max_level}): body "
          f"{_format_vertices(body)} {status} expected simplex "
          f"{_format_vertices(expected)}")
    return EXIT_OK if equal else EXIT_FAILED


def cmd_certify(args) -> int:
    case = _checked(_load_case(args), args.verbose)
    expected = case.expected_body()
    sg = semigroup(case, "complete", args.max_level)
    level_one = sg.level(1)
    certified = vertex_criterion(expected, level_one)
    degree = generation_degree(sg, kmax=args.max_level)
    if certified:
        print(f"{case.name} ({sg.kind}): CERTIFIED finitely generated "
              f"(vertex criterion); level-1 value set {sorted(level_one)}")
    else:
        print(f"{case.name} ({sg.kind}): NOT certified; level-1 value set "
              f"{sorted(level_one)} misses a vertex of "
              f"{_format_vertices(expected)}")
    print(f"{case.name} ({sg.kind}): empirical generation degree k = "
          f"{degree if degree is not None else 'not found'} "
          f"on levels 1..{args.max_level}")
    return EXIT_OK if certified else EXIT_FAILED


def cmd_verify_flag(args) -> int:
    report = verify_flag(_load_case(args))
    print(report)
    return EXIT_OK if report.passed else EXIT_FAILED


def cmd_ec_single_point(args) -> int:
    if args.d < 1 or args.samples < 1:
        raise _UsageError("--d and --samples must be positive")
    try:
        curve = EllipticCurveFp(args.p, args.a, args.b)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    rng = random.Random(args.seed)
    found = 0
    missing = 0
    for index in range(args.samples):
        divisor = random_divisor(curve, args.d, rng)
        witness = single_point_member(curve, divisor)
        if witness is None:
            missing += 1
            if args.verbose:
                print(f"sample {index}: class {divisor_class_sum(curve, divisor)} "
                      f"has no F_{args.p}-witness")
        else:
            found += 1
            assert curve.mul(args.d, witness) == divisor_class_sum(curve, divisor)
            if args.verbose:
                print(f"sample {index}: witness {witness}")
    print(f"curve y^2 = x^3 + {args.a}x + {args.b} over F_{args.p}: "
          f"{curve.order()} points")
    print(f"degree {args.d}: {found}/{args.samples} sampled classes have a "
          f"single-point representative over F_{args.p}; {missing} do not "
          f"(division can fail over a finite field)")
    return EXIT_OK


def cmd_export_toric(args) -> int:
    case = _checked(_load_case(args), args.verbose)
    sg = semigroup(case, "complete", args.max_level)
    body = body_estimate(sg)
    rays = normal_fan_rays(body)
    payload = {"dim": body.dim, "rays": [list(r) for r in rays]}
    _write(args.out / f"{_stem(sg)}_fan.json",
           json.dumps(payload, indent=2) + "\n", args.verbose)
    print(f"{case.name} ({sg.kind}): normal fan rays "
          + " ".join("(" + ",".join(map(str, r)) + ")" for r in rays))
    return EXIT_OK


def cmd_demo(args) -> int:
    _check_sizes(args)
    rows = [("case", "n", "r", "c", "d", "expected vertices",
             "computed vertices", "certified", "gen degree")]
    ok = True
    for name in CASE_NAMES:
        case = make_case(name, args.c)
        report = verify_flag(case)
        sg = semigroup(case, "complete", args.max_level)
        body = body_estimate(sg)
        expected = case.expected_body()
        equal = polytope_equal(body, expected)
        certified = vertex_criterion(expected, sg.level(1))
        degree = generation_degree(sg, kmax=args.max_level)
        ok = ok and equal and certified and report.passed
        rows.append((case.name, *map(str, (case.n, case.r, case.c, case.d)),
                     _format_vertices(expected), _format_vertices(body),
                     "yes" if certified else "NO",
                     "-" if degree is None else str(degree)))
    widths = [max(map(len, column)) for column in zip(*rows)]
    rows.insert(1, tuple("-" * w for w in widths))
    for row in rows:
        print("  ".join(cell.ljust(w)
                        for cell, w in zip(row, widths)).rstrip())
    return EXIT_OK if ok else EXIT_FAILED


_HANDLERS = {
    "compute": cmd_compute,
    "certify": cmd_certify,
    "verify-flag": cmd_verify_flag,
    "ec-single-point": cmd_ec_single_point,
    "export-toric": cmd_export_toric,
    "demo": cmd_demo,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = _HANDLERS[args.command]
    try:
        return handler(args)
    except _UsageError as exc:
        print(f"okbody: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _VerificationRefused:
        print("okbody: refusing to continue on a flag that fails "
              "verification", file=sys.stderr)
        return EXIT_FAILED
    except (PrecisionError, RuntimeError) as exc:
        print(f"okbody: computational failure: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
