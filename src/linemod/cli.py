"""Command-line interface.

Every command is one function in ``_COMMANDS`` that returns its inputs,
results and pass flag; ``main`` alone turns them into the one JSON report
on stdout (or ``--out``) and the exit status: 0 when the command's
certificates pass, 1 on a certified failure or a route disagreement, and
2 on usage, parse or file errors.  Reports are byte identical for
identical invocations and seeds.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from pathlib import Path

from . import __version__, dsl, geometry, hilbert, liealg, modules, suites
from .errors import DSLSyntaxError, LinemodError, RouteDisagreementError
from .ncalg import TermOrder
from .presets import PRESENTATION_NAMES, SL21_BOUNDS, preset
from .reports import build_report, render
from .rewrite import complete, normal_form

_TABLES = {"sl2": "sl2_table", "sl11": "sl11_table", "slc": "slc_table"}

# enveloping presentation in which induced-module filtrations are realized;
# the super case uses the relaxed algebra without the square-zero relations,
# which is where the homogenized module lives
_INDUCE_ENV = {"sl2": "sl2_U", "sl11": "sl11_Uhat", "slc": "slc_U"}

# the default --max-degree of every command that takes one, except `admissible`
_MAX_DEGREE = 6

# the default oracle degree of `hilbert` and `verify-paper`, lowered to the
# degree bound (and, for `hilbert`, to the oracle cap)
_ORACLE_DEGREE = 4


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


def _load_presentation(args):
    """The presentation ``--algebra`` names: a .alg file, or a preset that
    is a presentation (not a bracket table or a quadric).  ``--max-degree``
    must reach the degree of its relations, where completion starts."""
    spec = args.algebra
    if spec.endswith(".alg") or "/" in spec:
        pres = dsl.parse_algebra(Path(spec).read_text())
    elif spec not in PRESENTATION_NAMES:
        raise LinemodError(f"--algebra: {spec!r} is neither a .alg file nor a preset "
                           f"presentation; presentations: {', '.join(PRESENTATION_NAMES)}")
    else:
        pres = preset(spec)
    degree = pres.relation_degree()
    if args.max_degree < degree:
        raise LinemodError(f"--max-degree {args.max_degree} is below the degree {degree} "
                           f"of the relations of {pres.name!r}")
    return pres


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
    return TermOrder.from_precedence(presentation.z_degrees, precedence)


def _common_flags(sub):
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
    return tuple(dsl.parse_expression(part.strip(), presentation).linear_coefficients(n, what)
                 for part in parts)


def _require_oracle_within(args):
    if args.oracle_degree > args.max_degree:
        raise LinemodError(
            f"--oracle-degree {args.oracle_degree} is above --max-degree {args.max_degree}")


# ----------------------------------------------------------------------
# commands: each returns (inputs, results, passed) for ``main`` to report
# ----------------------------------------------------------------------


def _load_and_complete(args):
    pres = _load_presentation(args)
    system = complete(pres, order=_resolve_order(pres, args.order), max_degree=args.max_degree)
    return pres, system, pres.generator_names()


def _complete(args):
    pres, system, names = _load_and_complete(args)
    rules = [
        {"lhs": dsl.format_word(r.lhs, names), "rhs": dsl.format_poly(r.rhs, names, system.order)}
        for r in system.rules
    ]
    return (
        {"algebra": pres.name, "max_degree": args.max_degree, "order": args.order},
        {
            "rules": rules,
            "rule_count": len(rules),
            "confluent_up_to": system.confluent_up_to,
            "discarded_above_bound": system.discarded_above_bound,
        },
        True,
    )


def _normal_form(args):
    """``nf``, or ``trace`` with the rewrites of the same pass."""
    pres, system, names = _load_and_complete(args)
    steps = [] if args.command == "trace" else None
    result = normal_form(dsl.parse_expression(args.expr, pres), system, steps)
    inputs = {"algebra": pres.name, "expr": args.expr, "order": args.order}
    text = dsl.format_poly(result, names, system.order)
    if steps is None:
        return inputs, {"normal_form": text, "is_zero": result.is_zero()}, True
    return inputs, {"steps": dsl.format_steps(steps, names), "normal_form": text}, True


def _hilbert(args):
    pres = _load_presentation(args)
    hilbert.require_graded(pres)   # before completing, which may fail otherwise
    oracle_degree = args.oracle_degree
    if oracle_degree is None:
        oracle_degree = hilbert.oracle_degree_within_cap(
            pres, min(_ORACLE_DEGREE, args.max_degree))
    else:
        _require_oracle_within(args)
    system = complete(pres, max_degree=args.max_degree)
    rewrite_dims, oracle_dims, agree = hilbert.hilbert_two_routes(
        system, args.max_degree, oracle_degree)
    return (
        {"algebra": pres.name, "max_degree": args.max_degree, "oracle_degree": oracle_degree},
        {"rewrite_route": rewrite_dims, "oracle_route": oracle_dims, "routes_agree": agree},
        agree,
    )


def _certify_line(args):
    if len(args.gen) != 2:
        raise LinemodError("--gen must be given exactly twice")
    pres = _load_presentation(args)
    hilbert.require_graded(pres)   # before completing, which may fail otherwise
    system = complete(pres, max_degree=args.max_degree)
    gens = tuple(dsl.parse_expression(g, pres) for g in args.gen)
    try:
        spec = modules.LineModuleSpec(system, gens)
    except LinemodError as exc:
        raise LinemodError(f"--gen: {exc}") from exc
    cert = modules.certify_line_module(spec, args.max_degree)
    return (
        {"algebra": pres.name, "generators": args.gen, "max_degree": args.max_degree},
        {"dims": cert.found, "expected": cert.expected, "is_line_module": cert.passed},
        cert.passed,
    )


def _classify_sub(args):
    rep = liealg.classify_2dim_subalgebras(preset(_TABLES[args.preset]),
                                           samples=args.samples, seed=args.seed)
    return (
        {"preset": args.preset, "samples": args.samples},
        {
            "family": rep.family,
            "members": rep.members,
            "closed_sample_count": rep.closed_sample_count,
            "counterexamples": rep.counterexamples,
            "sufficiency_pass": rep.sufficiency_pass,
            "completeness_pass": rep.completeness_pass,
        },
        rep.sufficiency_pass and rep.completeness_pass,
    )


def _pair(args):
    """The bracket table, ``--sub`` and ``--phi`` of ``admissible`` and
    ``induce``, and the inputs both report."""
    table = preset(_TABLES[args.preset])
    S = liealg.SubalgebraSpec(*_parse_forms(args.sub, table.enveloping, "--sub",
                                            "subalgebra basis entries"))
    phi_parts = args.phi.split(",")
    if len(phi_parts) != 2:
        raise LinemodError("--phi expects two comma-separated rationals")
    phi = liealg.Functional(*(_parse_fraction(part) for part in phi_parts))
    inputs = {"preset": args.preset, "sub": args.sub, "phi": args.phi,
              "max_degree": args.max_degree}
    return table, S, phi, inputs


def _admissible(args):
    table, S, phi, inputs = _pair(args)
    # both routes agree, or admissible_functional raises
    admissible = liealg.admissible_functional(S, phi, table, args.max_degree)
    reason = liealg.violated_condition(S, phi, table)
    return inputs, {"admissible": admissible, "closed_form": admissible,
                    "bounded_degree_properness": admissible,
                    "violated_condition": reason or None}, True


def _induce(args):
    table, S, phi, inputs = _pair(args)
    spec = modules.InducedModuleSpec(preset(_INDUCE_ENV[args.preset]), table, S, phi)
    return inputs, {"filtration_dims": modules.induced_module_dims(spec, args.max_degree)}, True


def _classify_line(args):
    line = geometry.Line(_parse_forms(args.line, preset("slc_H"), "--line", "line forms"))
    tags = geometry.classify_line_family_color(line)
    return ({"preset": args.preset, "line": args.line},
            {"families": tags if tags else ["none"], "plucker": list(line.plucker())},
            True)


def _verify_paper(args):
    if args.suite == "sl21" and (args.max_degree, args.oracle_degree) != (None, None):
        raise LinemodError(
            "--suite sl21 runs at fixed bounds (completion to degree {}, oracle to "
            "degree {}) and takes no --max-degree or --oracle-degree".format(*SL21_BOUNDS))
    if args.max_degree is None:
        args.max_degree = _MAX_DEGREE
    if args.oracle_degree is None:
        args.oracle_degree = min(_ORACLE_DEGREE, args.max_degree)
    _require_oracle_within(args)
    result = suites.run_suite(args.suite, samples=args.samples, seed=args.seed,
                              max_degree=args.max_degree, oracle_degree=args.oracle_degree)
    return ({"suite": args.suite, "samples": args.samples,
             "max_degree": args.max_degree, "oracle_degree": args.oracle_degree},
            result, result["pass"])


def _emit_presets(args):
    target = Path(args.dir)
    target.mkdir(parents=True, exist_ok=True)
    written = []
    for name in PRESENTATION_NAMES:
        path = target / f"{name.lower()}.alg"
        path.write_text(dsl.print_algebra(preset(name)))
        written.append(str(path))
    return {"dir": args.dir}, {"written": written}, True


_COMMANDS = {
    "complete": _complete,
    "nf": _normal_form,
    "trace": _normal_form,
    "hilbert": _hilbert,
    "certify-line": _certify_line,
    "classify-sub": _classify_sub,
    "admissible": _admissible,
    "induce": _induce,
    "classify-line": _classify_line,
    "verify-paper": _verify_paper,
    "emit-presets": _emit_presets,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="linemod",
        description="exact bounded-degree certificates for line modules over "
                    "homogenized enveloping algebras",
    )
    parser.add_argument("--version", action="version", version=f"linemod {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    for name, text in (("complete", "complete a presentation into a rewriting system"),
                       ("nf", "normal form of an expression"),
                       ("trace", "replayable rewrite trace of an expression")):
        p = commands.add_parser(name, help=text)
        p.add_argument("--algebra", required=True, help="preset name or .alg file")
        if name != "complete":
            p.add_argument("--expr", required=True)
        p.add_argument("--max-degree", type=int, default=_MAX_DEGREE)
        p.add_argument("--order", help="generator precedence, e.g. 'e,f,h,t' (highest first)")
        _common_flags(p)

    p = commands.add_parser("hilbert", help="graded dimensions by both routes")
    p.add_argument("--algebra", required=True)
    p.add_argument("--max-degree", type=int, default=_MAX_DEGREE)
    p.add_argument("--oracle-degree", type=_non_negative_int,
                   help=f"at most --max-degree; default: the largest degree d <= {_ORACLE_DEGREE} "
                        "such that the monomials of every degree up to d fit the oracle cap")
    _common_flags(p)

    p = commands.add_parser("certify-line", help="certify a cyclic quotient as a line module")
    p.add_argument("--algebra", required=True)
    p.add_argument("--gen", action="append", required=True,
                   help="degree-one generator expression (give twice)")
    p.add_argument("--max-degree", type=int, default=_MAX_DEGREE)
    _common_flags(p)

    p = commands.add_parser("classify-sub", help="classify two-dimensional subalgebras")
    p.add_argument("--preset", required=True, choices=sorted(_TABLES))
    p.add_argument("--samples", type=_positive_int, default=10000)
    _common_flags(p)

    for name, text, degree, default in (
            ("admissible", "decide admissibility of a functional", _properness_degree, 4),
            ("induce", "filtration dimensions of an induced module", _non_negative_int,
             _MAX_DEGREE)):
        p = commands.add_parser(name, help=text)
        p.add_argument("--preset", required=True, choices=sorted(_TABLES))
        p.add_argument("--sub", required=True, help="two comma-separated degree-one expressions")
        p.add_argument("--phi", required=True, help="two comma-separated rationals")
        p.add_argument("--max-degree", type=degree, default=default)
        _common_flags(p)

    p = commands.add_parser("classify-line", help="classify a line against the color families")
    p.add_argument("--preset", required=True, choices=["slc"])
    p.add_argument("--line", required=True, help="two comma-separated degree-one expressions")
    _common_flags(p)

    p = commands.add_parser("verify-paper", help="run a verification suite")
    p.add_argument("--suite", required=True, choices=["sl2", "sl11", "slc", "sl21", "all"])
    p.add_argument("--samples", type=_positive_int, default=10000)
    p.add_argument("--max-degree", type=_suite_degree,
                   help="default {}; bounds the sl2, sl11 and slc suites, also under "
                        "--suite all, where sl21 keeps its fixed bounds {} and {}; "
                        "--suite sl21 rejects it".format(_MAX_DEGREE, *SL21_BOUNDS))
    p.add_argument("--oracle-degree", type=_non_negative_int,
                   help=f"at most --max-degree; default: min({_ORACLE_DEGREE}, --max-degree); "
                        "--suite sl21 rejects it")
    _common_flags(p)

    p = commands.add_parser("emit-presets", help="write the built-in presentations as .alg files")
    p.add_argument("--dir", required=True)
    _common_flags(p)

    args = parser.parse_args(argv)
    try:
        inputs, results, passed = _COMMANDS[args.command](args)
        report = build_report(args.command, inputs, results, passed, __version__, args.seed)
        text = render(report, pretty=args.pretty)
        if args.out:
            Path(args.out).write_text(text)
        else:
            sys.stdout.write(text)
    except DSLSyntaxError as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return 2
    except RouteDisagreementError as exc:
        sys.stderr.write(f"internal inconsistency: {exc}\n")
        return 1
    except (LinemodError, OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
