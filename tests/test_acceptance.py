"""Acceptance suite: one test per criterion, exact arithmetic, zero
tolerance.  Each test prints a single PASS/FAIL line (run with -s to see
the lines for passing tests)."""

from fractions import Fraction
from random import Random

from linemod.geometry import Line, classify_line_family_color, line_on_quadric, lines_meet
from linemod.hilbert import (
    cyclic_module_model,
    hilbert_algebra,
    line_module_dims,
    oracle_graded_dims,
)
from linemod.liealg import (
    Functional,
    SubalgebraSpec,
    admissible_functional,
    classify_2dim_subalgebras,
    closed_form_admissible,
    family_members,
)
from linemod.modules import (
    InducedModuleSpec,
    LineModuleSpec,
    build_L_h_phi,
    certify_homogenization_iso,
    certify_line_module,
    is_Z2_graded_line_module,
    torsion_free_on,
)
from linemod.ncalg import NcPoly
from linemod.presets import (
    SL2_LAMBDAS,
    SL11_ADMISSIBLE,
    SL11_GRADED_PHI,
    SL11_QUADRIC_LINE_PARAMS,
    preset,
    sl2_pencil_quadric,
    sl11_middle_quadric,
)
from linemod.rewrite import derivation_trace, normal_form

SEED = 2016
AUDIT_SAMPLES = 10_000


def report(number, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE CRITERION {number}: {status} ({detail})")
    return passed


def binom3(d):
    return (d + 1) * (d + 2) * (d + 3) // 6


def small_fraction(rng):
    return Fraction(rng.randint(-20, 20), rng.randint(1, 20))


def sl11_pair(alpha, beta, lam, gamma):
    return (
        SubalgebraSpec((0, 0, 1), (alpha, beta, 0)),
        Functional(Fraction(lam), Fraction(gamma)),
    )


def test_criterion_1_two_route_hilbert_agreement(hhat_system, h_system, color_system, a_system):
    ok = True
    for system, pres_name, expected in (
        (hhat_system, "sl11_Hhat", [binom3(d) for d in range(9)]),
        (h_system, "sl11_H", [1] + [4 * d for d in range(1, 9)]),
        (color_system, "slc_H", [binom3(d) for d in range(9)]),
        (a_system, "sl2_A", None),
    ):
        rewrite = list(hilbert_algebra(system, 8))
        oracle = list(oracle_graded_dims(preset(pres_name), 4))
        ok = ok and rewrite[:5] == oracle
        if expected is not None:
            ok = ok and rewrite == expected
    assert report(1, ok, "rewrite and oracle routes agree; expected profiles match")


def test_criterion_2_line_module_certificates(hhat_system, a_system):
    rng = Random(SEED)
    expected = line_module_dims(6)
    ok = True
    table = preset("sl11_table")
    for index in range(20):
        alpha, beta = small_fraction(rng), small_fraction(rng)
        if not alpha and not beta:
            alpha = Fraction(1)
        S, phi = sl11_pair(alpha, beta, small_fraction(rng), small_fraction(rng))
        M = build_L_h_phi(S, phi, hhat_system, table)
        dims = cyclic_module_model(hhat_system, M.generators, 6).dims(6)
        ok = ok and dims == expected
    for lam in SL2_LAMBDAS:
        gens = (
            NcPoly.gen(0),
            NcPoly({(2,): Fraction(1), (3,): -Fraction(lam)}),
        )
        dims = cyclic_module_model(a_system, gens, 6).dims(6)
        ok = ok and dims == expected
    negative = cyclic_module_model(hhat_system, (NcPoly.gen(0), NcPoly.gen(1)), 4).dims(4)
    ok = ok and any(negative[d] != d + 1 for d in range(5))
    assert report(2, ok, "20 super pairs and 10 sl2 parameters give dims d+1; span(e,f) fails")


def test_criterion_3_subalgebra_classification():
    sl11 = classify_2dim_subalgebras(preset("sl11_table"), samples=AUDIT_SAMPLES, seed=SEED)
    slc = classify_2dim_subalgebras(preset("slc_table"), samples=AUDIT_SAMPLES, seed=SEED)
    ok = sl11.sufficiency_pass and sl11.completeness_pass
    ok = ok and slc.sufficiency_pass and slc.completeness_pass
    ok = ok and all(m["graded"] for m in sl11.members)
    ok = ok and len(slc.members) == 6 and all(m["graded"] is False for m in slc.members)
    detail = (
        f"audits clean on {AUDIT_SAMPLES} samples each "
        f"(closed hits: sl11 {sl11.closed_sample_count}, slc {slc.closed_sample_count})"
    )
    assert report(3, ok, detail)


def test_criterion_4_admissibility_equivalence():
    rng = Random(SEED + 1)
    sl11 = preset("sl11_table")
    slc = preset("slc_table")
    trials = 0
    # admissible_functional raises RouteDisagreementError on any mismatch
    for member in family_members(sl11):
        for _ in range(100):
            admissible_functional(
                member["spec"], Functional(small_fraction(rng), small_fraction(rng)), sl11)
            trials += 1
    for member in family_members(slc):
        for _ in range(100):
            admissible_functional(
                member["spec"], Functional(small_fraction(rng), small_fraction(rng)), slc)
            trials += 1
    grid = [Fraction(k, 2) for k in range(-10, 11)]
    grid_ok = True
    for member in family_members(slc):
        mu = member["params"]["mu"]
        found = {
            (x, y)
            for x in grid for y in grid
            if closed_form_admissible(member["spec"], Functional(x, y), slc)[0]
        }
        expected = {(x, y) for x in grid for y in grid if y == 0 or x == Fraction(mu, 2)}
        grid_ok = grid_ok and found == expected
    ok = grid_ok
    assert report(4, ok, f"{trials} random functionals, zero route disagreements; "
                         f"21x21 grid matches the two families exactly")


def test_criterion_5_homogenization_isomorphisms(hhat_system, color_system):
    sl11 = preset("sl11_table")
    slc = preset("slc_table")
    ok = True
    count = 0
    for alpha, beta, lam, gamma in SL11_ADMISSIBLE:
        S, phi = sl11_pair(alpha, beta, lam, gamma)
        M = build_L_h_phi(S, phi, hhat_system, sl11)
        I = InducedModuleSpec(preset("sl11_Uhat"), sl11, S, phi)
        rep = certify_homogenization_iso(I, M, 5)
        ok = ok and rep.passed and rep.details["annihilator_containment"]
        count += 1
    for member in family_members(slc):
        mu = member["params"]["mu"]
        cases = [Functional(c, 0) for c in (Fraction(0), Fraction(1), Fraction(-2))]
        cases += [Functional(Fraction(mu, 2), c) for c in (Fraction(0), Fraction(3), Fraction(-1, 2))]
        for phi in cases:
            M = build_L_h_phi(member["spec"], phi, color_system, slc)
            I = InducedModuleSpec(preset("slc_U"), slc, member["spec"], phi)
            rep = certify_homogenization_iso(I, M, 5)
            ok = ok and rep.passed and rep.details["annihilator_containment"]
            count += 1
    assert report(5, ok, f"{count} admissible fixtures: induced dims equal line dims, "
                         f"annihilators contain the generators")


def test_criterion_6_geometry_cross_checks(hhat_system, color_system):
    # (a) borel lines lie on the matching member of the determinant pencil
    pencil_ok = all(
        line_on_quadric(Line(((1, 0, 0, 0), (0, 0, 1, -Fraction(lam)))),
                        sl2_pencil_quadric(lam))
        for lam in SL2_LAMBDAS
    )
    # (b) pair lines meet V(h, t) and avoid V(t)
    rng = Random(SEED + 2)
    base = Line(((0, 0, 1, 0), (0, 0, 0, 1)))
    incidence_ok = True
    for _ in range(50):
        alpha, beta = small_fraction(rng), small_fraction(rng)
        if not alpha and not beta:
            alpha = Fraction(1)
        line = Line(((0, 0, 1, -small_fraction(rng)), (alpha, beta, 0, -small_fraction(rng))))
        incidence_ok = incidence_ok and lines_meet(line, base)
        incidence_ok = incidence_ok and not line.in_plane((0, 0, 0, 1))
    # (c) admissible lines V(h - lambda t, alpha e + beta f - gamma t) with
    # gamma^2 = alpha beta lambda lie on V(ht - 2ef) only when alpha beta = 0
    # and lambda = 0; otherwise a named point of the line is off the quadric.
    # The ruling lines V(e - s h, t - 2 s f) do lie on it and miss V(h, t).
    # Admissibility is the Plucker condition p01^2 + p02 p13 = 0: for
    # alpha != 0 the line is spanned by (beta, -alpha, 0, 0) and
    # (gamma, 0, alpha lambda, alpha), where that form is
    # alpha^2 (gamma^2 - alpha beta lambda); alpha = 0 is symmetric.
    # Equivalently, admissible lines are the pair lines tangent to V(ht - 4ef).
    quad = sl11_middle_quadric()
    sl11 = preset("sl11_table")
    geometry_failures = []
    off_quadric = 0
    for a, b, lam, g in SL11_ADMISSIBLE:
        a, b, lam, g = Fraction(a), Fraction(b), Fraction(lam), Fraction(g)
        params = f"({a}, {b}, {lam}, {g})"
        line = Line(((0, 0, 1, -lam), (a, b, 0, -g)))
        on_quadric = line_on_quadric(line, quad)
        witness = (b, -a, 0, 0) if a * b else (0, 0, lam, 1)
        on_line, value = line.contains_point(witness), quad.evaluate(witness)
        witnessed = not on_quadric and on_line and value != 0
        off_quadric += witnessed
        if on_quadric != (a * b == 0 and lam == 0) or not (on_quadric or witnessed):
            geometry_failures.append(f"{params} middle quadric: on_quadric {on_quadric}, "
                                     f"witness on line {on_line}, witness value {value}")
        for gamma in (g, g + 1):
            params = f"({a}, {b}, {lam}, {gamma})"
            p01, p02, _, _, p13, p23 = Line(((0, 0, 1, -lam), (a, b, 0, -gamma))).plucker()
            tangency = p01 * p01 + p02 * p13
            S, phi = sl11_pair(a, b, lam, gamma)
            admissible = closed_form_admissible(S, phi, sl11)[0]
            if p23 != 0 or (tangency == 0) != admissible or admissible != (gamma == g):
                geometry_failures.append(f"{params} plucker: p23 {p23}, p01^2 + p02 p13 "
                                         f"{tangency}, closed form admissible {admissible}")
    for s in SL11_QUADRIC_LINE_PARAMS:
        ruling = Line(((1, 0, -s, 0), (0, -2 * s, 0, 1)))
        on_quadric, meets = line_on_quadric(ruling, quad), lines_meet(ruling, base)
        if not on_quadric or meets:
            geometry_failures.append(f"ruling s={s}: on_quadric {on_quadric}, "
                                     f"meets V(h, t) {meets}")
    admissible_geometry = not geometry_failures
    # (d) every induced-module line classifies into the named family
    slc = preset("slc_table")
    family_of = {
        (2, 1): ("1(a)", "4(a)"), (2, -1): ("1(b)", "4(b)"),
        (1, 1): ("2(a)", "5(a)"), (1, -1): ("2(b)", "5(b)"),
        (0, 1): ("3(a)", "6(a)"), (0, -1): ("3(b)", "6(b)"),
    }
    classify_ok = True
    for member in family_members(slc):
        i0 = member["params"]["i"] - 1
        mu = member["params"]["mu"]
        fam_a, fam_b = family_of[(i0, mu)]
        for phi, fam in (
            (Functional(Fraction(1), 0), fam_a),
            (Functional(Fraction(mu, 2), Fraction(3)), fam_b),
        ):
            M = build_L_h_phi(member["spec"], phi, color_system, slc)
            classify_ok = classify_ok and fam in classify_line_family_color(M.line())
    ok = pencil_ok and incidence_ok and admissible_geometry and classify_ok
    detail = (
        f"pencil membership {pencil_ok}; meets-and-avoids {incidence_ok}; "
        f"admissible line geometry {admissible_geometry} ({off_quadric} of "
        f"{len(SL11_ADMISSIBLE)} off the middle quadric by witness"
        + "".join(f"; {failure}" for failure in geometry_failures)
        + f"); induced lines classified {classify_ok}"
    )
    assert report(6, ok, detail)


def test_criterion_7_non_domain_certificate(sl21_system):
    pres = preset("sl21_Hhat")
    y1y1t = NcPoly.monomial((4, 4, 8))
    nf_zero = normal_form(y1y1t, sl21_system).is_zero()
    steps = derivation_trace(y1y1t, sl21_system)
    y1sq = normal_form(NcPoly.monomial((4, 4)), sl21_system)
    t = normal_form(NcPoly.gen(8), sl21_system)
    quoted = [
        NcPoly({(2, 4): Fraction(1), (4, 2): Fraction(-1)}),
        NcPoly({(4, 6): Fraction(1), (6, 4): Fraction(1)}),
        NcPoly({(2, 6): Fraction(1), (6, 2): Fraction(-1), (4, 8): Fraction(-1)}),
    ]

    def up_to_scale(a, b):
        if a.support() != b.support():
            return False
        w = next(iter(a.support()))
        return b == a.scale(b.coeff(w) / a.coeff(w))

    quoted_ok = all(any(up_to_scale(q, r) for r in pres.relations) for q in quoted)
    ok = (
        nf_zero and len(steps) >= 1
        and not y1sq.is_zero() and not t.is_zero()
        and len(pres.relations) == 36 and quoted_ok
    )
    assert report(7, ok, f"y1*y1*t reduces to zero in {len(steps)} traced steps while "
                         f"y1*y1 and t survive; 36 relations with the three quoted present")


def test_criterion_8_graded_pairs_both_directions(hhat_system):
    table = preset("sl11_table")
    ok = True
    for alpha, beta, lam in SL11_GRADED_PHI:
        S, phi = sl11_pair(alpha, beta, lam, 0)
        M = build_L_h_phi(S, phi, hhat_system, table)
        ok = ok and is_Z2_graded_line_module(M)
        ok = ok and certify_line_module(M, 6).passed
    labels = preset("sl11_Hhat").group_labels()
    even = sum(1 for lab in labels if lab == (0,))
    odd = sum(1 for lab in labels if lab == (1,))
    shapes = sorted(
        (de, do)
        for de in range(min(even, 2) + 1)
        for do in range(min(odd, 2) + 1)
        if de + do == 2
    )
    ok = ok and shapes == [(0, 2), (1, 1), (2, 0)]
    span_ef = LineModuleSpec(hhat_system, (NcPoly.gen(0), NcPoly.gen(1)))
    ok = ok and not certify_line_module(span_ef, 4).passed
    span_ht = LineModuleSpec(hhat_system, (NcPoly.gen(2), NcPoly.gen(3)))
    ok = ok and not torsion_free_on(span_ht, "t", 6)
    assert report(8, ok, "graded functionals give graded line modules; the three graded "
                         "shapes appear with span(e,f) and span(h,t) rejected")
