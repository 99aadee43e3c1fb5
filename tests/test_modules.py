from fractions import Fraction
from random import Random

import pytest

import linemod.modules as modules
from linemod.errors import AdmissibilityError, RankDeficientError, SubalgebraFormError
from linemod.geometry import Line, classify_line_family_color
from linemod.liealg import Functional, SubalgebraSpec, family_members
from linemod.modules import (
    InducedModuleSpec,
    LineModuleSpec,
    annihilator_contains_generators,
    build_L_h_phi,
    certify_homogenization_iso,
    certify_line_module,
    induced_module_dims,
    is_Z2_graded_line_module,
    pair_from_line,
    torsion_free_on,
)
from linemod.ncalg import NcPoly
from linemod.presets import SL11_ADMISSIBLE, preset


def deg1(coeffs):
    return NcPoly({(i,): Fraction(c) for i, c in enumerate(coeffs) if c})


def pair(alpha, beta, lam, gamma):
    return (
        SubalgebraSpec((0, 0, 1), (alpha, beta, 0)),
        Functional(Fraction(lam), Fraction(gamma)),
    )


def test_build_examples(hhat_system):
    table = preset("sl11_table")
    S, phi = pair(1, 1, 1, 5)
    M = build_L_h_phi(S, phi, hhat_system, table)
    assert M.generators[0] == deg1((0, 0, 1, -1))
    assert M.generators[1] == deg1((1, 1, 0, -5))
    S, phi = pair(2, -3, 0, 0)
    M = build_L_h_phi(S, phi, hhat_system, table)
    assert M.generators == (deg1((0, 0, 1, 0)), deg1((2, -3, 0, 0)))
    # span(e + f + h, h) is span(h, e + f); phi(h) = 2, phi(e + f) = 3
    M = build_L_h_phi(SubalgebraSpec((1, 1, 1), (0, 0, 1)), Functional(5, 2),
                      hhat_system, table)
    assert M.generators == (deg1((0, 0, 1, -2)), deg1((1, 1, 0, -3)))
    # h = v1 / 3 and the odd complement v1 / 3 + v2 = e + 2f
    M = build_L_h_phi(SubalgebraSpec((0, 0, 3), (1, 2, -1)), Functional(6, 1),
                      hhat_system, table)
    assert M.generators == (deg1((0, 0, 1, -2)), deg1((1, 2, 0, -3)))
    # h = v2 / 4 and the odd complement v1 - v2 / 4 = 2e - 3f
    M = build_L_h_phi(SubalgebraSpec((2, -3, 1), (0, 0, 4)), Functional(1, 8),
                      hhat_system, table)
    assert M.generators == (deg1((0, 0, 1, -2)), deg1((2, -3, 0, 1)))


def test_build_color_members(color_system):
    table = preset("slc_table")
    half = Fraction(1, 2)
    # (i, mu) -> a_i - 3 a4 and a_j + mu a_k + a4 / 2, over (a1, a2, a3, a4)
    expected = {
        (1, 1): ((1, 0, 0, -3), (0, 1, 1, half)),
        (1, -1): ((1, 0, 0, -3), (0, 1, -1, half)),
        (2, 1): ((0, 1, 0, -3), (1, 0, 1, half)),
        (2, -1): ((0, 1, 0, -3), (1, 0, -1, half)),
        (3, 1): ((0, 0, 1, -3), (1, 1, 0, half)),
        (3, -1): ((0, 0, 1, -3), (1, -1, 0, half)),
    }
    for member in family_members(table):
        key = (member["params"]["i"], member["params"]["mu"])
        gens = tuple(deg1(g) for g in expected[key])
        v1, v2 = member["spec"].v1, member["spec"].v2
        M = build_L_h_phi(member["spec"], Functional(3, -half), color_system, table)
        assert M.generators == gens
        # the same pair on the basis (v1 + 2 v2, v1 - v2)
        S = SubalgebraSpec(tuple(a + 2 * b for a, b in zip(v1, v2)),
                           tuple(a - b for a, b in zip(v1, v2)))
        M = build_L_h_phi(S, Functional(3 - 2 * half, 3 + half), color_system, table)
        assert M.generators == gens


def test_build_rejects_lie_tables(hhat_system):
    with pytest.raises(ValueError):
        build_L_h_phi(SubalgebraSpec((1, 0, 0), (0, 0, 1)), Functional(0, 0),
                      hhat_system, preset("sl2_table"))


def test_build_rejects_unclassified_subspace(hhat_system):
    table = preset("sl11_table")
    with pytest.raises(SubalgebraFormError):
        build_L_h_phi(SubalgebraSpec((1, 0, 0), (0, 1, 0)), Functional(0, 0),
                      hhat_system, table)


def test_spec_validation(hhat_system):
    with pytest.raises(RankDeficientError):
        LineModuleSpec(hhat_system, (deg1((1, 1, 0, 0)), deg1((2, 2, 0, 0))))


def test_certify_line_module(hhat_system):
    table = preset("sl11_table")
    S, phi = pair(1, 1, 4, 2)
    report = certify_line_module(build_L_h_phi(S, phi, hhat_system, table), 6)
    assert report.passed
    assert report.found == [1, 2, 3, 4, 5, 6, 7]


def test_certify_negative_control(hhat_system):
    M = LineModuleSpec(hhat_system, (NcPoly.gen(0), NcPoly.gen(1)))
    report = certify_line_module(M, 4)
    assert not report.passed
    assert report.found != report.expected


def test_graded_line_modules(hhat_system):
    M = LineModuleSpec(hhat_system, (deg1((0, 0, 1, -2)), deg1((1, 1, 0, 0))))
    assert is_Z2_graded_line_module(M)
    M = LineModuleSpec(hhat_system, (deg1((0, 0, 1, -1)), deg1((1, 1, 0, -5))))
    assert not is_Z2_graded_line_module(M)
    M = LineModuleSpec(hhat_system, (deg1((0, 0, 1, 0)), deg1((0, 0, 0, 1))))
    assert is_Z2_graded_line_module(M)


def test_torsion_checks(hhat_system):
    table = preset("sl11_table")
    S, phi = pair(1, 1, 4, 2)
    assert torsion_free_on(build_L_h_phi(S, phi, hhat_system, table), "t", 5)
    span_ht = LineModuleSpec(hhat_system, (NcPoly.gen(2), NcPoly.gen(3)))
    assert not torsion_free_on(span_ht, "t", 5)
    contains_t = LineModuleSpec(hhat_system, (NcPoly.gen(3), deg1((1, 1, 0, 0))))
    assert not torsion_free_on(contains_t, "t", 5)


def test_checks_read_a_model_built_to_a_larger_bound(color_system, monkeypatch):
    gens = (deg1((1, 0, 0, -1)), deg1((0, 1, 1, 0)))
    M = LineModuleSpec(color_system, gens)
    model = M.model(5)
    assert M.model(3) is model
    for d in (3, 4, 5):
        fresh = LineModuleSpec(color_system, gens)
        assert certify_line_module(M, d) == certify_line_module(fresh, d)
        for name in ("a1", "a2", "a3", "a4"):
            assert torsion_free_on(M, name, d) == torsion_free_on(fresh, name, d)
    assert M.model(5) is model

    builds = []
    build = modules.cyclic_module_model

    def counted(system, generators, max_degree):
        builds.append(max_degree)
        return build(system, generators, max_degree)

    monkeypatch.setattr(modules, "cyclic_module_model", counted)
    N = LineModuleSpec(color_system, gens)
    certify_line_module(N, 5)
    torsion_free_on(N, "a4", 4)
    torsion_free_on(N, "a4", 5)
    assert builds == [5]
    certify_line_module(N, 6)
    assert builds == [5, 6]


def test_induced_dims_examples():
    table = preset("sl11_table")
    S, phi = pair(1, 1, 4, 2)
    I = InducedModuleSpec(preset("sl11_Uhat"), table, S, phi)
    assert list(induced_module_dims(I, 4)) == [1, 2, 3, 4, 5]


def test_induced_dims_rejects_inadmissible():
    table = preset("sl11_table")
    S, phi = pair(1, 1, 1, 0)
    I = InducedModuleSpec(preset("sl11_Uhat"), table, S, phi)
    with pytest.raises(AdmissibilityError):
        induced_module_dims(I, 4)


def test_induced_dims_color():
    table = preset("slc_table")
    S = SubalgebraSpec((0, 0, 1), (1, 1, 0))
    I = InducedModuleSpec(preset("slc_U"), table, S, Functional(Fraction(1, 2), 7))
    assert list(induced_module_dims(I, 3)) == [1, 2, 3, 4]


def test_homogenization_iso_super(hhat_system):
    table = preset("sl11_table")
    for alpha, beta, lam, gamma in SL11_ADMISSIBLE[:4]:
        S, phi = pair(alpha, beta, lam, gamma)
        M = build_L_h_phi(S, phi, hhat_system, table)
        I = InducedModuleSpec(preset("sl11_Uhat"), table, S, phi)
        report = certify_homogenization_iso(I, M, 5)
        assert report.passed
        assert report.details["annihilator_containment"]


def test_homogenization_iso_color(color_system):
    table = preset("slc_table")
    S = SubalgebraSpec((0, 0, 1), (1, 1, 0))
    phi = Functional(Fraction(1, 2), Fraction(3))
    M = build_L_h_phi(S, phi, color_system, table)
    I = InducedModuleSpec(preset("slc_U"), table, S, phi)
    report = certify_homogenization_iso(I, M, 5)
    assert report.passed
    tags = classify_line_family_color(M.line())
    assert "4(a)" in tags
    assert torsion_free_on(M, "a4", 5)


def test_color_family_a_line(color_system):
    table = preset("slc_table")
    S = SubalgebraSpec((0, 0, 1), (1, 1, 0))
    M = build_L_h_phi(S, Functional(Fraction(7), 0), color_system, table)
    tags = classify_line_family_color(M.line())
    assert "1(a)" in tags


def test_annihilator_containment(hhat_system):
    table = preset("sl11_table")
    S, phi = pair(2, 3, 6, 6)
    M = build_L_h_phi(S, phi, hhat_system, table)
    I = InducedModuleSpec(preset("sl11_Uhat"), table, S, phi)
    assert annihilator_contains_generators(I, M)


def test_pair_line_round_trip(hhat_system):
    table = preset("sl11_table")
    rng = Random(17)
    for _ in range(50):
        alpha = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
        beta = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
        if not alpha and not beta:
            alpha = Fraction(1)
        lam = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
        gamma = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
        S, phi = pair(alpha, beta, lam, gamma)
        M = build_L_h_phi(S, phi, hhat_system, table)
        S2, phi2 = pair_from_line(M.line(), table)
        M2 = build_L_h_phi(S2, phi2, hhat_system, table)
        assert M2.line() == M.line()
        # the representative with leading odd coefficient 1
        scale = alpha if alpha else beta
        assert (S2, phi2) == pair(alpha / scale, beta / scale, lam, gamma / scale)


def test_pair_from_line_rejects_t_plane():
    table = preset("sl11_table")
    with pytest.raises(SubalgebraFormError):
        pair_from_line(Line(((0, 0, 0, 1), (1, 1, 0, 0))), table)


def test_pair_from_line_rejects_line_missing_h_t():
    # V(e, f) does not meet V(h, t)
    with pytest.raises(SubalgebraFormError):
        pair_from_line(Line(((1, 0, 0, 0), (0, 1, 0, 0))), preset("sl11_table"))
