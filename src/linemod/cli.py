"""Command-line interface.

Every command emits one JSON report to stdout (or ``--out``).  Exit status
is 0 when the command's certificates pass, 1 on a certified failure, and 2
on usage or parse errors.  Reports are byte identical for identical
invocations and seeds.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from pathlib import Path

from . import __version__
from .dsl import format_poly, format_steps, format_word, parse_algebra, parse_expression, print_algebra
from .errors import DSLSyntaxError, LinemodError, RouteDisagreementError
from .geometry import Line, classify_line_family_color
from .hilbert import hilbert_algebra, oracle_degree_within_cap, oracle_graded_dims
from .liealg import (
    Functional,
    SubalgebraSpec,
    classify_2dim_subalgebras,
    closed_form_admissible,
    properness_admissible,
)
from .modules import InducedModuleSpec, LineModuleSpec, certify_line_module, induced_module_dims
from .presets import PRESENTATION_NAMES, preset
from .reports import build_report, render
from .rewrite import complete, normal_form
from .suites import run_suite

_TABLES = {"sl2": "sl2_table", "sl11": "sl11_table", "slc": "slc_table"}

# enveloping presentation in which induced-module filtrations are realized;
# the super case uses the relaxed algebra without the square-zero relations,
# which is where the homogenized module lives
_INDUCE_ENV = {"sl2": "sl2_U", "sl11": "sl11_Uhat", "slc": "slc_U"}


def _int_at_least(minimum: int, kind: str):
    """An argparse type for integers >= ``minimum``, described as ``kind``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = minimum - 1
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be {kind}, got {text!r}")
        return value
    return parse


_positive_int = _int_at_least(1, "a positive integer")
_non_negative_int = _int_at_least(0, "a non-negative integer")
# below the degree of the enveloping relations (2 for every table) the
# filtered route cannot see 1 enter the ideal, so it cannot decide
_properness_degree = _int_at_least(2, "an integer >= 2, the degree of the enveloping relations")
# a degree-one line-module check holds for every cyclic module on two
# independent forms, so a suite bound below 2 certifies nothing
_suite_degree = _int_at_least(2, "an integer >= 2, the first degree a line-module check can fail")


def _load_presentation(spec: str):
    if spec.endswith(".alg") or "/" in spec:
        return parse_algebra(Path(spec).read_text())
    return preset(spec)


def _resolve_order(presentation, order_spec):
    """Optional generator precedence from a comma-separated name list,
    highest precedence first."""
    if not order_spec:
        return None
    names = [n.strip() for n in order_spec.split(",")]
    if sorted(names) != sorted(presentation.generator_names()):
        raise LinemodError(
            f"--order must list every generator exactly once, got {order_spec!r}")
    precedence = tuple(presentation.gen_index(n) for n in names)
    from .ncalg import TermOrder

    return TermOrder.from_precedence(presentation.z_degrees, precedence)


def _emit(args, report: dict, exit_code: int) -> int:
    text = render(report, pretty=args.pretty)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return exit_code


def _common_flags(sub):
    sub.add_argument("--json", action="store_true", help="compact JSON output (default)")
    sub.add_argument("--pretty", action="store_true", help="indented JSON output")
    sub.add_argument("--out", metavar="FILE", help="write the report to FILE")
    sub.add_argument("--seed", type=int, default=0, help="random seed for sampled checks")


def _parse_fraction(text: str) -> Fraction:
    """One rational given to ``--phi``."""
    text = text.strip()
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise LinemodError(f"--phi expects two comma-separated rationals, got {text!r}") from None


def _parse_forms(text: str, presentation, flag: str, what: str) -> tuple:
    """The coefficient vectors of two comma-separated degree-one expressions
    given to ``flag``; ``what`` names them in the error for any other."""
    parts = text.split(",")
    if len(parts) != 2:
        raise LinemodError(f"{flag} expects two comma-separated expressions")
    n = len(presentation.generators)
    return tuple(parse_expression(part.strip(), presentation).linear_coefficients(n, what)
                 for part in parts)


def _require_oracle_within(args):
    if args.oracle_degree > args.max_degree:
        raise LinemodError(
            f"--oracle-degree {args.oracle_degree} is above --max-degree {args.max_degree}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="linemod",
        description="exact bounded-degree certificates for line modules over "
                    "homogenized enveloping algebras",
    )
    parser.add_argument("--version", action="version", version=f"linemod {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("complete", help="complete a presentation into a rewriting system")
    p.add_argument("--algebra", required=True, help="preset name or .alg file")
    p.add_argument("--max-degree", type=int, default=6)
    p.add_argument("--order", help="generator precedence, e.g. 'e,f,h,t' (highest first)")
    _common_flags(p)

    p = commands.add_parser("nf", help="normal form of an expression")
    p.add_argument("--algebra", required=True)
    p.add_argument("--expr", required=True)
    p.add_argument("--max-degree", type=int, default=6)
    p.add_argument("--order", help="generator precedence, highest first")
    _common_flags(p)

    p = commands.add_parser("trace", help="replayable rewrite trace of an expression")
    p.add_argument("--algebra", required=True)
    p.add_argument("--expr", required=True)
    p.add_argument("--max-degree", type=int, default=6)
    p.add_argument("--order", help="generator precedence, highest first")
    _common_flags(p)

    p = commands.add_parser("hilbert", help="graded dimensions by both routes")
    p.add_argument("--algebra", required=True)
    p.add_argument("--max-degree", type=int, default=6)
    p.add_argument("--oracle-degree", type=_non_negative_int,
                   help="at most --max-degree; default: the largest degree <= 4 "
                        "whose monomials fit the oracle cap")
    _common_flags(p)

    p = commands.add_parser("certify-line", help="certify a cyclic quotient as a line module")
    p.add_argument("--algebra", required=True)
    p.add_argument("--gen", action="append", required=True,
                   help="degree-one generator expression (give twice)")
    p.add_argument("--max-degree", type=int, default=6)
    _common_flags(p)

    p = commands.add_parser("classify-sub", help="classify two-dimensional subalgebras")
    p.add_argument("--preset", required=True, choices=sorted(_TABLES))
    p.add_argument("--samples", type=_positive_int, default=10000)
    _common_flags(p)

    p = commands.add_parser("admissible", help="decide admissibility of a functional")
    p.add_argument("--preset", required=True, choices=sorted(_TABLES))
    p.add_argument("--sub", required=True, help="two comma-separated degree-one expressions")
    p.add_argument("--phi", required=True, help="two comma-separated rationals")
    p.add_argument("--max-degree", type=_properness_degree, default=4)
    _common_flags(p)

    p = commands.add_parser("induce", help="filtration dimensions of an induced module")
    p.add_argument("--preset", required=True, choices=sorted(_TABLES))
    p.add_argument("--sub", required=True)
    p.add_argument("--phi", required=True)
    p.add_argument("--max-degree", type=_non_negative_int, default=6)
    _common_flags(p)

    p = commands.add_parser("classify-line", help="classify a line against the color families")
    p.add_argument("--preset", required=True, choices=["slc"])
    p.add_argument("--line", required=True, help="two comma-separated degree-one expressions")
    _common_flags(p)

    p = commands.add_parser("verify-paper", help="run a verification suite")
    p.add_argument("--suite", required=True, choices=["sl2", "sl11", "slc", "sl21", "all"])
    p.add_argument("--samples", type=_positive_int, default=10000)
    p.add_argument("--max-degree", type=_suite_degree, default=6)
    p.add_argument("--oracle-degree", type=_non_negative_int,
                   help="at most --max-degree; default: min(4, --max-degree)")
    _common_flags(p)

    p = commands.add_parser("emit-presets", help="write the built-in presentations as .alg files")
    p.add_argument("--dir", required=True)
    _common_flags(p)

    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except DSLSyntaxError as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return 2
    except RouteDisagreementError as exc:
        sys.stderr.write(f"internal inconsistency: {exc}\n")
        return 1
    except LinemodError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def _dispatch(args) -> int:
    if args.command == "complete":
        pres = _load_presentation(args.algebra)
        system = complete(pres, order=_resolve_order(pres, args.order),
                          max_degree=args.max_degree)
        names = pres.generator_names()
        order = system.order
        rules = [
            {"lhs": format_word(r.lhs, names), "rhs": format_poly(r.rhs, names, order)}
            for r in system.rules
        ]
        report = build_report(
            "complete",
            {"algebra": pres.name, "max_degree": args.max_degree,
             "order": args.order},
            {
                "rules": rules,
                "rule_count": len(rules),
                "confluent_up_to": system.confluent_up_to,
                "discarded_above_bound": system.discarded_above_bound,
            },
            True, __version__, args.seed,
        )
        return _emit(args, report, 0)

    if args.command in ("nf", "trace"):
        pres = _load_presentation(args.algebra)
        system = complete(pres, order=_resolve_order(pres, args.order),
                          max_degree=args.max_degree)
        names = pres.generator_names()
        poly = parse_expression(args.expr, pres)
        if args.command == "nf":
            result = normal_form(poly, system)
            report = build_report(
                "nf",
                {"algebra": pres.name, "expr": args.expr, "order": args.order},
                {"normal_form": format_poly(result, names, system.order),
                 "is_zero": result.is_zero()},
                True, __version__, args.seed,
            )
            return _emit(args, report, 0)
        steps = []
        result = normal_form(poly, system, steps)
        report = build_report(
            "trace",
            {"algebra": pres.name, "expr": args.expr, "order": args.order},
            {
                "steps": format_steps(steps, names),
                "normal_form": format_poly(result, names, system.order),
            },
            True, __version__, args.seed,
        )
        return _emit(args, report, 0)

    if args.command == "hilbert":
        pres = _load_presentation(args.algebra)
        oracle_degree = args.oracle_degree
        if oracle_degree is None:
            oracle_degree = oracle_degree_within_cap(pres, min(4, args.max_degree))
        else:
            _require_oracle_within(args)
        rewrite_dims = hilbert_algebra(pres, args.max_degree)
        oracle_dims = oracle_graded_dims(pres, oracle_degree)
        agree = list(rewrite_dims)[: oracle_degree + 1] == list(oracle_dims)
        report = build_report(
            "hilbert",
            {"algebra": pres.name, "max_degree": args.max_degree,
             "oracle_degree": oracle_degree},
            {"rewrite_route": list(rewrite_dims), "oracle_route": list(oracle_dims),
             "routes_agree": agree},
            agree, __version__, args.seed,
        )
        return _emit(args, report, 0 if agree else 1)

    if args.command == "certify-line":
        if len(args.gen) != 2:
            raise LinemodError("--gen must be given exactly twice")
        pres = _load_presentation(args.algebra)
        system = complete(pres, max_degree=args.max_degree)
        gens = tuple(parse_expression(g, pres) for g in args.gen)
        try:
            spec = LineModuleSpec(system, gens)
        except LinemodError as exc:
            raise LinemodError(f"--gen: {exc}") from exc
        cert = certify_line_module(spec, args.max_degree)
        report = build_report(
            "certify-line",
            {"algebra": pres.name, "generators": args.gen,
             "max_degree": args.max_degree},
            {"dims": cert.found, "expected": cert.expected, "is_line_module": cert.passed},
            cert.passed, __version__, args.seed,
        )
        return _emit(args, report, 0 if cert.passed else 1)

    if args.command == "classify-sub":
        table = preset(_TABLES[args.preset])
        rep = classify_2dim_subalgebras(table, samples=args.samples, seed=args.seed)
        passed = rep.sufficiency_pass and rep.completeness_pass
        report = build_report(
            "classify-sub",
            {"preset": args.preset, "samples": args.samples},
            {
                "family": rep.family,
                "members": rep.members,
                "closed_sample_count": rep.closed_sample_count,
                "counterexamples": rep.counterexamples,
                "sufficiency_pass": rep.sufficiency_pass,
                "completeness_pass": rep.completeness_pass,
            },
            passed, __version__, args.seed,
        )
        return _emit(args, report, 0 if passed else 1)

    if args.command in ("admissible", "induce"):
        table = preset(_TABLES[args.preset])
        S = SubalgebraSpec(*_parse_forms(args.sub, table.enveloping, "--sub",
                                         "subalgebra basis entries"))
        phi_parts = args.phi.split(",")
        if len(phi_parts) != 2:
            raise LinemodError("--phi expects two comma-separated rationals")
        phi = Functional(_parse_fraction(phi_parts[0]), _parse_fraction(phi_parts[1]))
        if args.command == "admissible":
            closed, reason = closed_form_admissible(S, phi, table)
            proper = properness_admissible(S, phi, table, args.max_degree)
            agree = closed == proper
            if not agree:
                raise RouteDisagreementError(
                    f"closed form says {closed}, properness says {proper}")
            report = build_report(
                "admissible",
                {"preset": args.preset, "sub": args.sub, "phi": args.phi,
                 "max_degree": args.max_degree},
                {"admissible": closed, "closed_form": closed,
                 "bounded_degree_properness": proper,
                 "violated_condition": reason or None},
                True, __version__, args.seed,
            )
            return _emit(args, report, 0)
        spec = InducedModuleSpec(preset(_INDUCE_ENV[args.preset]), table, S, phi)
        dims = induced_module_dims(spec, args.max_degree)
        report = build_report(
            "induce",
            {"preset": args.preset, "sub": args.sub, "phi": args.phi,
             "max_degree": args.max_degree},
            {"filtration_dims": list(dims)},
            True, __version__, args.seed,
        )
        return _emit(args, report, 0)

    if args.command == "classify-line":
        line = Line(_parse_forms(args.line, preset("slc_H"), "--line", "line forms"))
        tags = classify_line_family_color(line)
        report = build_report(
            "classify-line",
            {"preset": args.preset, "line": args.line},
            {"families": tags if tags else ["none"],
             "plucker": list(line.plucker())},
            True, __version__, args.seed,
        )
        return _emit(args, report, 0)

    if args.command == "verify-paper":
        if args.oracle_degree is None:
            args.oracle_degree = min(4, args.max_degree)
        _require_oracle_within(args)
        result = run_suite(args.suite, samples=args.samples, seed=args.seed,
                           max_degree=args.max_degree,
                           oracle_degree=args.oracle_degree)
        report = build_report(
            "verify-paper",
            {"suite": args.suite, "samples": args.samples,
             "max_degree": args.max_degree, "oracle_degree": args.oracle_degree},
            result,
            result["pass"], __version__, args.seed,
        )
        return _emit(args, report, 0 if result["pass"] else 1)

    if args.command == "emit-presets":
        target = Path(args.dir)
        target.mkdir(parents=True, exist_ok=True)
        written = []
        for name in PRESENTATION_NAMES:
            path = target / f"{name.lower()}.alg"
            path.write_text(print_algebra(preset(name)))
            written.append(str(path))
        report = build_report(
            "emit-presets", {"dir": args.dir}, {"written": written},
            True, __version__, args.seed,
        )
        return _emit(args, report, 0)

    raise LinemodError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
