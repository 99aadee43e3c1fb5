"""Verification suites for the four algebra families.

Each suite runs the bounded-degree certificates for one family: Hilbert
functions by two routes, subalgebra classification audits, admissibility
equivalences, line-module certificates, homogenized induced modules, and
the geometric cross checks.  Checks are pure and deterministic given
(seed, samples); each returns a dict with a name, a pass flag, and the
witnessing data.  Each ``run_*`` returns its list of checks, and
``run_suite`` alone wraps checks into a suite report.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from random import Random

from .dsl import format_poly, format_steps, format_word
from .errors import AdmissibilityError, RankDeficientError, RouteDisagreementError
from .geometry import (
    COLOR_LINE_FAMILIES,
    Line,
    classify_line_family_color,
    line_on_quadric,
    lines_meet,
    pencil_membership,
    quadric_from_coeffs,
)
from .hilbert import filtered_cyclic_dims, hilbert_two_routes, line_module_dims
from .liealg import (
    Functional,
    SubalgebraSpec,
    admissible_functional,
    canonical_form,
    classify_2dim_subalgebras,
    closed_form_on_pair,
    color_minor_identity,
    family_members,
    random_fraction,
    random_mix,
    sl11_basis,
    table_consistent_with_presentation,
)
from .modules import (
    InducedModuleSpec,
    LineModuleSpec,
    build_L_h_phi,
    certify_homogenization_iso,
    certify_line_module,
    induced_module_dims,
    is_Z2_graded_line_module,
    pair_from_line,
    torsion_free_on,
)
from .ncalg import NcPoly, up_to_scale
from .presets import (
    SL2_BOREL_S,
    SL2_LAMBDAS,
    SL11_AB_SAMPLES,
    SL11_ADMISSIBLE,
    SL11_GRADED_PHI,
    SL11_QUADRIC_LINE_PARAMS,
    SL21_BOUNDS,
    preset,
    sl2_pencil_quadric,
    sl11_middle_quadric,
)
from .rewrite import complete, normal_form, replay_trace


@lru_cache(maxsize=8)
def _system(name: str, bound: int):
    return complete(preset(name), max_degree=bound)


def _check(name: str, passed: bool, **data) -> dict:
    out = {"name": name, "pass": bool(passed)}
    out.update(data)
    return out


def _all_pass(entries) -> bool:
    """Whether every reported entry (case, fixture or check) passes."""
    return all(e["pass"] for e in entries)


def _classification_check(name: str, rep, passed: bool, **extra) -> dict:
    """A check on a subalgebra classification report, with its fields."""
    return _check(name, passed, family=rep.family, members=rep.members, samples=rep.samples,
                  closed_sample_count=rep.closed_sample_count,
                  counterexamples=rep.counterexamples, **extra)


def _admissibility_trials(queries, table) -> tuple:
    """Decide each (S, phi) query by both admissibility routes.

    Returns (trials, admissible count, disagreement messages): a
    RouteDisagreementError is recorded as a failed trial, not raised, so one
    disagreement fails its check instead of aborting the whole run.
    """
    trials = admissible = 0
    disagreements = []
    for S, phi in queries:
        trials += 1
        try:
            if admissible_functional(S, phi, table):
                admissible += 1
        except RouteDisagreementError as exc:
            disagreements.append(str(exc))
    return trials, admissible, disagreements


def _route_agreement_check(queries, table) -> dict:
    trials, admissible, disagreements = _admissibility_trials(queries, table)
    data = {"trials": trials, "admissible": admissible, "disagreements": len(disagreements)}
    if disagreements:
        data["witness"] = disagreements[0]
    return _check("functional_admissibility_routes_agree", not disagreements, **data)


def _binomial3(d: int) -> int:
    return (d + 1) * (d + 2) * (d + 3) // 6


def _two_route_check(name: str, preset_name: str, expected: list, max_degree: int,
                     oracle_degree: int) -> dict:
    rewrite_dims, oracle_dims, agree = hilbert_two_routes(
        _system(preset_name, max(8, max_degree)), max(8, max_degree), oracle_degree)
    return _check(
        name,
        agree and rewrite_dims[: len(expected)] == expected,
        algebra=preset_name,
        rewrite_route=rewrite_dims,
        oracle_route=oracle_dims,
        routes_agree=agree,
        expected=expected,
    )


# ----------------------------------------------------------------------
# sl2
# ----------------------------------------------------------------------


def run_sl2(samples: int, seed: int, max_degree: int, oracle_degree: int) -> list:
    checks = []
    system = _system("sl2_A", max(8, max_degree))
    checks.append(_two_route_check(
        "hilbert_two_routes_sl2_A", "sl2_A",
        [_binomial3(d) for d in range(9)], max_degree, oracle_degree))

    # line modules from borel pairs: V(E, H - lambda t)
    fixtures = []
    for lam in SL2_LAMBDAS:
        fixtures.append(("upper", NcPoly.gen(0), NcPoly.gen(2), lam))
    fixtures.append(("lower", NcPoly.gen(1), NcPoly.linear((0, 0, -1)), Fraction(3)))
    for s in SL2_BOREL_S:
        E = NcPoly.linear((1, -s * s, s))
        H = NcPoly.linear((0, -2 * s, 1))
        fixtures.append((f"s={s}", E, H, Fraction(2)))
    results = []
    reports = {}   # the upper fixture at lambda 2 and s=0 are one module
    for tag, E, H, lam in fixtures:
        gens = (E, H - NcPoly.monomial((3,), lam))
        if gens not in reports:
            reports[gens] = certify_line_module(LineModuleSpec(system, gens), max_degree)
        cert = reports[gens]
        results.append({"borel": tag, "lambda": lam, "dims": cert.found, "pass": cert.passed})
    checks.append(_check("line_modules_from_borel_pairs", _all_pass(results),
                         expected=line_module_dims(max_degree), fixtures=results))

    # pencil membership: V(e, h - lambda t) and V(f, h - lambda t) lie on the
    # member det + lambda^2 t^2 of the determinant pencil, and on no other
    det, t_squared = sl2_pencil_quadric(0), quadric_from_coeffs({(3, 3): 1})
    pencil = []
    for lam in SL2_LAMBDAS:
        for first, form in (("e", (1, 0, 0, 0)), ("f", (0, 1, 0, 0))):
            line = Line((form, (0, 0, 1, -lam)))
            ok = (line_on_quadric(line, sl2_pencil_quadric(lam))
                  and pencil_membership(line, det, t_squared) == [lam * lam])
            pencil.append({"borel": first, "lambda": lam, "pass": ok})
    checks.append(_check("borel_lines_on_determinant_pencil", _all_pass(pencil),
                         cases=pencil))

    rep = classify_2dim_subalgebras(preset("sl2_table"), samples=samples, seed=seed)
    checks.append(_classification_check(
        "two_dim_subalgebras_are_borel", rep, rep.sufficiency_pass and rep.completeness_pass))

    rng = Random(seed + 101)
    table = preset("sl2_table")
    checks.append(_route_agreement_check(
        ((member["spec"], Functional(random_fraction(rng), random_fraction(rng)))
         for member in family_members(table) for _ in range(25)),
        table,
    ))
    return checks


# ----------------------------------------------------------------------
# sl11
# ----------------------------------------------------------------------


def _sl11_pair(alpha, beta, lam, gamma):
    return SubalgebraSpec(*sl11_basis(alpha, beta)), Functional(Fraction(lam), Fraction(gamma))


def run_sl11(samples: int, seed: int, max_degree: int, oracle_degree: int) -> list:
    checks = []
    table = preset("sl11_table")
    hhat = _system("sl11_Hhat", max(8, max_degree))

    checks.append(_two_route_check(
        "hilbert_two_routes_Hhat", "sl11_Hhat",
        [_binomial3(d) for d in range(9)], max_degree, oracle_degree))
    checks.append(_two_route_check(
        "hilbert_two_routes_H", "sl11_H",
        [1] + [4 * d for d in range(1, 9)], max_degree, oracle_degree))

    # filtered PBW count of the relaxed enveloping algebra
    uhat_dims = filtered_cyclic_dims(preset("sl11_Uhat"), (), 5)
    pbw_ok = uhat_dims == [_binomial3(i) for i in range(6)]
    checks.append(_check("pbw_dimension_count_Uhat", pbw_ok, dims=uhat_dims))

    # line modules for arbitrary functionals on classified subalgebras
    rng = Random(seed + 7)
    fixtures = []
    pairs = [(1, 0, random_fraction(rng), Fraction(0)), (0, 1, random_fraction(rng), Fraction(0))]
    while len(pairs) < 20:
        alpha, beta = random_fraction(rng), random_fraction(rng)
        if not alpha and not beta:
            continue
        pairs.append((alpha, beta, random_fraction(rng), random_fraction(rng)))
    base_line = Line(((0, 0, 1, 0), (0, 0, 0, 1)))
    meets, avoids = [], []
    for alpha, beta, lam, gamma in pairs:
        S, phi = _sl11_pair(alpha, beta, lam, gamma)
        M = build_L_h_phi(S, phi, hhat, table)
        cert = certify_line_module(M, max_degree)
        line = M.line()
        meets.append(lines_meet(line, base_line))
        avoids.append(not line.in_plane((0, 0, 0, 1)))
        fixtures.append({
            "alpha": alpha, "beta": beta, "lambda": lam, "gamma": gamma,
            "dims": cert.found, "pass": cert.passed,
        })
    checks.append(_check("line_modules_from_pairs", _all_pass(fixtures),
                         expected=line_module_dims(max_degree), fixtures=fixtures))
    checks.append(_check("pair_lines_meet_base_line_and_avoid_t_plane",
                         all(meets) and all(avoids),
                         meets_base_line=all(meets), avoid_t_plane=all(avoids)))

    # span(e, f) is no line module; the shape check below reads the same report
    ef_report = certify_line_module(LineModuleSpec(hhat, (NcPoly.gen(0), NcPoly.gen(1))), 4)
    ef_rejected = not ef_report.passed
    checks.append(_check("negative_control_span_e_f", ef_rejected, dims=ef_report.found))

    rep = classify_2dim_subalgebras(table, samples=samples, seed=seed)
    graded_ok = all(m["graded"] for m in rep.members)
    checks.append(_classification_check(
        "subalgebra_classification_and_grading", rep,
        rep.sufficiency_pass and rep.completeness_pass and graded_ok,
        all_members_graded=graded_ok))

    rng = Random(seed + 11)
    checks.append(_route_agreement_check(
        (_sl11_pair(alpha, beta, random_fraction(rng), random_fraction(rng))
         for alpha, beta in SL11_AB_SAMPLES for _ in range(100)),
        table,
    ))

    # graded functionals give graded line modules
    graded_fixtures = []
    for alpha, beta, lam in SL11_GRADED_PHI:
        S, phi = _sl11_pair(alpha, beta, lam, 0)
        M = build_L_h_phi(S, phi, hhat, table)
        ok = is_Z2_graded_line_module(M) and certify_line_module(M, max_degree).passed
        graded_fixtures.append({"alpha": alpha, "beta": beta, "lambda": lam, "pass": ok})
    checks.append(_check("graded_functionals_give_graded_line_modules",
                         _all_pass(graded_fixtures), fixtures=graded_fixtures))

    # the three graded rank-2 shapes of the degree-one component and the
    # behavior singled out by each
    labels = preset("sl11_Hhat").group_labels()
    even = sum(1 for lab in labels if lab == (0,))
    odd = sum(1 for lab in labels if lab == (1,))
    shapes = sorted(
        (de, do) for de in range(min(even, 2) + 1) for do in range(min(odd, 2) + 1)
        if de + do == 2
    )
    shapes_ok = shapes == [(0, 2), (1, 1), (2, 0)]
    span_ht = LineModuleSpec(hhat, (NcPoly.gen(2), NcPoly.gen(3)))
    ht_report = certify_line_module(span_ht, max_degree)
    ht_torsion = not torsion_free_on(span_ht, "t", max_degree)
    mixed_shapes = (
        LineModuleSpec(hhat, (NcPoly.linear((0, 0, d1, -d2)), NcPoly.linear((alpha, beta))))
        for d1, d2, alpha, beta in ((1, 0, 1, 1), (1, 2, 1, 0), (1, -1, 2, -3)))
    mixed_ok = all(is_Z2_graded_line_module(M) and certify_line_module(M, max_degree).passed
                   and torsion_free_on(M, "t", max_degree) for M in mixed_shapes)
    degenerate = LineModuleSpec(hhat, (NcPoly.gen(3), NcPoly.linear((1, 1))))
    degenerate_torsion = not torsion_free_on(degenerate, "t", max_degree)
    checks.append(_check(
        "graded_rank2_shapes_and_their_modules",
        shapes_ok and ef_rejected and ht_report.passed and ht_torsion
        and mixed_ok and degenerate_torsion,
        shapes=[list(s) for s in shapes],
        span_e_f_rejected=ef_rejected,
        span_h_t_is_line_module=ht_report.passed,
        span_h_t_has_t_torsion=ht_torsion,
        mixed_shapes_pass=mixed_ok,
        zero_even_part_has_t_torsion=degenerate_torsion,
    ))

    # homogenized induced modules for admissible pairs
    iso_fixtures = []
    for alpha, beta, lam, gamma in SL11_ADMISSIBLE:
        S, phi = _sl11_pair(alpha, beta, lam, gamma)
        M = build_L_h_phi(S, phi, hhat, table)
        I = InducedModuleSpec(preset("sl11_Uhat"), table, S, phi)
        report = certify_homogenization_iso(I, M, 5)
        tfree = torsion_free_on(M, "t", 5)
        iso_fixtures.append({
            "alpha": alpha, "beta": beta, "lambda": lam, "gamma": gamma,
            "induced_dims": report.found,
            "line_module_dims": report.expected,
            "annihilator_containment": report.details["annihilator_containment"],
            "t_torsion_free": tfree,
            "pass": report.passed and tfree,
        })
    # a line module whose functional admits no one-dimensional module
    gap_S, gap_phi = _sl11_pair(1, 1, 1, 0)
    gap_line = certify_line_module(
        build_L_h_phi(gap_S, gap_phi, hhat, table), max_degree).passed
    try:
        induced_module_dims(InducedModuleSpec(preset("sl11_Uhat"), table, gap_S, gap_phi), 4)
        gap_reason = None
    except AdmissibilityError as exc:
        gap_reason = str(exc)
    checks.append(_check(
        "homogenized_induced_modules_match_line_modules",
        _all_pass(iso_fixtures) and gap_line and gap_reason is not None,
        fixtures=iso_fixtures,
        line_module_without_induced_counterpart={
            "alpha": 1, "beta": 1, "lambda": 1, "gamma": 0,
            "line_module_pass": gap_line,
            "no_one_dimensional_module": gap_reason,
        },
    ))

    # round trip between pairs and lines
    rng = Random(seed + 13)
    trips = []
    for _ in range(1000):
        alpha, beta = random_fraction(rng), random_fraction(rng)
        if not alpha and not beta:
            alpha = Fraction(1)
        lam, gamma = random_fraction(rng), random_fraction(rng)
        mixed = Line(random_mix(rng, (0, 0, 1, -lam), (alpha, beta, 0, -gamma)))
        S, phi = pair_from_line(mixed, table)
        trips.append(build_L_h_phi(S, phi, hhat, table).line() == mixed)
    checks.append(_check("pair_line_round_trip", all(trips), round_trips=len(trips)))

    # instance checks for the quadric family of line-module lines
    quad = sl11_middle_quadric()
    quad_cases = []
    for s in SL11_QUADRIC_LINE_PARAMS:
        M = LineModuleSpec(hhat, (NcPoly.linear((1, 0, -s)), NcPoly.linear((0, -2 * s, 0, 1))))
        on_q = line_on_quadric(M.line(), quad)
        cert = certify_line_module(M, max_degree)
        quad_cases.append({"s": s, "on_quadric": on_q, "dims": cert.found,
                           "pass": on_q and cert.passed})
    checks.append(_check("quadric_family_lines_are_line_modules", _all_pass(quad_cases),
                         cases=quad_cases))
    return checks


# ----------------------------------------------------------------------
# slc
# ----------------------------------------------------------------------


_COLOR_FAMILY_OF = {
    # 0-based index i of the basis vector inside the subalgebra -> family
    (2, 1): ("1(a)", "4(a)"), (2, -1): ("1(b)", "4(b)"),
    (1, 1): ("2(a)", "5(a)"), (1, -1): ("2(b)", "5(b)"),
    (0, 1): ("3(a)", "6(a)"), (0, -1): ("3(b)", "6(b)"),
}


def run_slc(samples: int, seed: int, max_degree: int, oracle_degree: int) -> list:
    checks = []
    table = preset("slc_table")
    H = _system("slc_H", max(8, max_degree))

    checks.append(_two_route_check(
        "hilbert_two_routes_H", "slc_H",
        [_binomial3(d) for d in range(9)], max_degree, oracle_degree))
    u_dims = filtered_cyclic_dims(preset("slc_U"), (), 5)
    pbw_ok = u_dims == [_binomial3(i) for i in range(6)]
    checks.append(_check("pbw_dimension_count_U", pbw_ok, dims=u_dims))

    rep = classify_2dim_subalgebras(table, samples=samples, seed=seed)
    none_graded = all(m["graded"] is False for m in rep.members)
    six = len(rep.members) == 6
    minors = color_minor_identity()
    checks.append(_classification_check(
        "six_subalgebras_none_graded", rep,
        rep.sufficiency_pass and rep.completeness_pass and none_graded and six and minors,
        rank_identity=minors))

    # exactly two one-parameter families of admissible functionals, on a
    # half-integer grid, plus route agreement on random functionals
    grid = [Fraction(k, 2) for k in range(-10, 11)]
    grid_data = []
    for member in family_members(table):
        mu = member["params"]["mu"]
        S = member["spec"]
        # a member's basis is its canonical basis, so phi = (x, y) on it is
        # already the canonical pair's value part
        params, _ = canonical_form(S, table)
        admissible_points = {(x, y) for x in grid for y in grid
                             if closed_form_on_pair(table.kind, (params, (x, y)))[0]}
        expected_points = {(x, y) for x in grid for y in grid
                           if y == 0 or x == Fraction(mu, 2)}
        grid_data.append({
            "i": member["params"]["i"], "mu": mu,
            "admissible_count": len(admissible_points),
            "expected_count": len(expected_points),
            "pass": admissible_points == expected_points,
        })
    rng = Random(seed + 17)
    trials, _, disagreements = _admissibility_trials(
        ((m["spec"], Functional(random_fraction(rng), random_fraction(rng)))
         for m in family_members(table) for _ in range(100)), table)
    extra = {}
    if disagreements:
        extra = {"route_disagreements": len(disagreements), "witness": disagreements[0]}
    checks.append(_check("two_admissible_families_on_grid",
                         _all_pass(grid_data) and not disagreements,
                         grid=grid_data, random_route_agreement_trials=trials, **extra))

    # homogenized induced modules and their line families
    iso_fixtures = []
    for member in family_members(table):
        i0 = member["params"]["i"] - 1
        mu = member["params"]["mu"]
        S = member["spec"]
        family_a, family_b = _COLOR_FAMILY_OF[(i0, mu)]
        cases = [("vanishing-on-odd-vector", Functional(c, 0), family_a)
                 for c in (Fraction(0), Fraction(1), Fraction(-2))]
        cases += [("half-mu", Functional(Fraction(mu, 2), c), family_b)
                  for c in (Fraction(0), Fraction(3), Fraction(-1, 2))]
        for tag, phi, family in cases:
            M = build_L_h_phi(S, phi, H, table)
            I = InducedModuleSpec(preset("slc_U"), table, S, phi)
            report = certify_homogenization_iso(I, M, 5)
            tags = classify_line_family_color(M.line())
            a4_free = torsion_free_on(M, "a4", 5)
            torsion_map = {
                name: torsion_free_on(M, name, 4)
                for name in ("a1", "a2", "a3")
            }
            iso_fixtures.append({
                "i": member["params"]["i"], "mu": mu, "family_case": tag,
                "phi": [phi.on_v1, phi.on_v2],
                "induced_dims": report.found,
                "line_module_dims": report.expected,
                "annihilator_containment": report.details["annihilator_containment"],
                "line_families": tags,
                "expected_family": family,
                "a4_torsion_free": a4_free,
                "torsion_free_map": torsion_map,
                "pass": report.passed and family in tags and a4_free,
            })
    checks.append(_check("homogenized_induced_modules_and_line_families",
                         _all_pass(iso_fixtures), fixtures=iso_fixtures))

    # sampled membership instances for the thirteen line families
    rng = Random(seed + 19)
    family_cases = []
    draws = [family for family in COLOR_LINE_FAMILIES for _ in range(3)]
    for tag, plane, point in draws + [("7", (0, 0, 0, 1), None)] * 5:
        tags = classify_line_family_color(_random_line_in_plane_through_point(rng, plane, point))
        family_cases.append({"family": tag, "tags": tags, "pass": tag in tags})
    checks.append(_check("line_family_membership_instances", _all_pass(family_cases),
                         cases=family_cases))
    return checks


def _random_line_in_plane_through_point(rng: Random, plane, point) -> Line:
    """A random line inside V(plane), through the given point when one is
    required; the second form is sampled until independent."""
    while True:
        coeffs = [Fraction(rng.randint(-9, 9)) for _ in range(4)]
        if point is not None:
            pivot = next(i for i, p in enumerate(point) if p)
            coeffs[pivot] -= sum(c * p for c, p in zip(coeffs, point)) / point[pivot]
        try:
            return Line((plane, tuple(coeffs)))
        except RankDeficientError:
            continue


# ----------------------------------------------------------------------
# sl21
# ----------------------------------------------------------------------


def run_sl21() -> list:
    checks = []
    max_degree, oracle_degree = SL21_BOUNDS
    system = _system("sl21_Hhat", max_degree)
    pres = preset("sl21_Hhat")
    names = pres.generator_names()
    order = pres.default_order()

    quoted = [
        NcPoly({(2, 4): Fraction(1), (4, 2): Fraction(-1)}),
        NcPoly({(4, 6): Fraction(1), (6, 4): Fraction(1)}),
        NcPoly({(2, 6): Fraction(1), (6, 2): Fraction(-1), (4, 8): Fraction(-1)}),
    ]

    quoted_found = [any(up_to_scale(q, r) for r in pres.relations) for q in quoted]
    count_ok = len(pres.relations) == 36
    table_ok = table_consistent_with_presentation(preset("sl21_table"), system, strict_pairs=True)
    checks.append(_check(
        "presentation_audit", count_ok and all(quoted_found) and table_ok,
        relation_count=len(pres.relations),
        quoted_relations_present=quoted_found,
        bracket_table_consistent=table_ok,
    ))

    y1sq_t = NcPoly.monomial((4, 4, 8))
    steps = []
    nf_zero = normal_form(y1sq_t, system, steps).is_zero()
    # the printed trace, replayed rule by rule, also reaches zero
    replayed = replay_trace(y1sq_t, steps, system).is_zero()
    trace_data = format_steps(steps, names)
    y1sq = normal_form(NcPoly.monomial((4, 4)), system)
    t_nf = normal_form(NcPoly.gen(8), system)
    factors_nonzero = (not y1sq.is_zero()) and (not t_nf.is_zero())
    derived = [
        {
            "rule": format_word(rec.lhs, names),
            "from_overlap": format_word(rec.overlap_word, names),
        }
        for rec in system.trace
        if rec.overlap_word is not None
    ]
    checks.append(_check(
        "zero_divisor_certificate",
        nf_zero and replayed and factors_nonzero and len(steps) > 0,
        normal_form_of_y1_y1_t_is_zero=nf_zero,
        y1_squared_normal_form=format_poly(y1sq, names, order),
        t_normal_form=format_poly(t_nf, names, order),
        derivation_trace=trace_data,
        derived_rules=derived,
    ))

    rewrite_dims, oracle_dims, agree = hilbert_two_routes(system, oracle_degree, oracle_degree)
    checks.append(_check(
        "hilbert_two_routes_low_degree", agree,
        rewrite_route=rewrite_dims, oracle_route=oracle_dims,
    ))
    return checks


SUITES = {
    "sl2": run_sl2,
    "sl11": run_sl11,
    "slc": run_slc,
    "sl21": run_sl21,
}


def run_suite(name: str, samples: int, seed: int, max_degree: int, oracle_degree: int) -> dict:
    """Run one named suite, or all of them in order; the sl21 suite runs
    at ``SL21_BOUNDS`` and reads none of the other arguments."""
    if name == "all":
        suites = [run_suite(n, samples, seed, max_degree, oracle_degree) for n in SUITES]
        return {"suite": "all", "suites": suites, "pass": _all_pass(suites)}
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from sl2, sl11, slc, sl21, all")
    checks = (run_sl21() if name == "sl21"
              else SUITES[name](samples, seed, max_degree, oracle_degree))
    return {"suite": name, "checks": checks, "pass": _all_pass(checks)}
