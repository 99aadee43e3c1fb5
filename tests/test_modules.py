from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

import linemod.modules as modules
import linemod.suites as suites
from linemod.errors import AdmissibilityError, RankDeficientError, SubalgebraFormError
from linemod.geometry import Line, classify_line_family_color
from linemod.liealg import (
    Functional,
    SubalgebraSpec,
    canonical_form,
    canonical_pair,
    family_members,
    phi_at,
)
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
from linemod.presets import SL2_BOREL_S, SL2_LAMBDAS, SL11_ADMISSIBLE, preset


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
    # the generators are v - phi(v) t for v = v1, v2; the line is that of the
    # canonical basis (h, alpha e + beta f)
    # span(e + f + h, h) is span(h, e + f); phi(h) = 2, phi(e + f) = 3
    M = build_L_h_phi(SubalgebraSpec((1, 1, 1), (0, 0, 1)), Functional(5, 2),
                      hhat_system, table)
    assert M.generators == (deg1((1, 1, 1, -5)), deg1((0, 0, 1, -2)))
    assert M.line() == Line(((0, 0, 1, -2), (1, 1, 0, -3)))
    # h = v1 / 3 and the odd complement v1 / 3 + v2 = e + 2f
    M = build_L_h_phi(SubalgebraSpec((0, 0, 3), (1, 2, -1)), Functional(6, 1),
                      hhat_system, table)
    assert M.generators == (deg1((0, 0, 3, -6)), deg1((1, 2, -1, -1)))
    assert M.line() == Line(((0, 0, 1, -2), (1, 2, 0, -3)))
    # h = v2 / 4 and the odd complement v1 - v2 / 4 = 2e - 3f
    M = build_L_h_phi(SubalgebraSpec((2, -3, 1), (0, 0, 4)), Functional(1, 8),
                      hhat_system, table)
    assert M.generators == (deg1((2, -3, 1, -1)), deg1((0, 0, 4, -8)))
    assert M.line() == Line(((0, 0, 1, -2), (2, -3, 0, 1)))


def test_build_color_members(color_system):
    table = preset("slc_table")
    half = Fraction(1, 2)
    # (i, mu) -> a_i - 3 a4 and a_j + mu a_k + a4 / 2, over (a1, a2, a3, a4):
    # a member's basis is its canonical basis (a_i, a_j + mu a_k)
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
        # the same pair on the basis (v1 + 2 v2, v1 - v2): the generators
        # v1 + 2 v2 - 2 a4 and v1 - v2 - 7/2 a4 cut out the same line
        w1 = tuple(a + 2 * b for a, b in zip(v1, v2))
        w2 = tuple(a - b for a, b in zip(v1, v2))
        M = build_L_h_phi(SubalgebraSpec(w1, w2), Functional(3 - 2 * half, 3 + half),
                          color_system, table)
        assert M.generators == (deg1(w1 + (-2,)), deg1(w2 + (-3 - half,)))
        assert M.line() == Line(expected[key])


_values = st.fractions(min_value=-6, max_value=6, max_denominator=6)


@st.composite
def _rebased(draw, S, phi):
    """The pair (S, phi) on a random basis (a v1 + b v2, c v1 + d v2) / den
    of S, with phi's values carried by the same mix.  The new plane takes
    the rows over the common denominator den, or the Fraction vectors they
    stand for; the rows are integers when S is given by integer vectors."""
    a, b, c, d = draw(st.tuples(*[st.integers(-3, 3)] * 4).filter(
        lambda m: m[0] * m[3] != m[1] * m[2]))
    den = draw(st.integers(1, 6))
    u, v = S.basis
    rows = (tuple(a * x + b * y for x, y in zip(u, v)),
            tuple(c * x + d * y for x, y in zip(u, v)))
    values = Functional(Fraction(a * phi.on_v1 + b * phi.on_v2, den),
                        Fraction(c * phi.on_v1 + d * phi.on_v2, den))
    if draw(st.booleans()):
        return SubalgebraSpec(*rows, den), values
    return SubalgebraSpec(*(tuple(Fraction(x, den) for x in r) for r in rows)), values


@settings(max_examples=100, deadline=None)
@given(data=st.data(), values=st.tuples(_values, _values))
def test_color_pair_does_not_depend_on_the_basis(color_system, data, values):
    table = preset("slc_table")
    S, phi = data.draw(st.sampled_from(family_members(table)))["spec"], Functional(*values)
    S2, phi2 = data.draw(_rebased(S, phi))
    assert canonical_pair(S2, phi2, table) == canonical_pair(S, phi, table)
    assert (build_L_h_phi(S2, phi2, color_system, table).line()
            == build_L_h_phi(S, phi, color_system, table).line())


@settings(max_examples=100, deadline=None)
@given(data=st.data(), odd=st.tuples(st.integers(-6, 6), st.integers(-6, 6)).filter(any),
       values=st.tuples(_values, _values))
def test_sl11_pair_does_not_depend_on_the_basis(hhat_system, data, odd, values):
    # the canonical odd vector is read off the basis, so it may be rescaled:
    # lambda is the same and (alpha : beta : gamma) the same point
    table = preset("sl11_table")
    S, phi = pair(*odd, *values)
    S2, phi2 = data.draw(_rebased(S, phi))
    (alpha, beta), (lam, gamma) = canonical_pair(S2, phi2, table)
    assert lam == phi.on_v1
    point, point2 = (*odd, phi.on_v2), (alpha, beta, gamma)
    assert any(point2) and all(point[m] * point2[n] == point[n] * point2[m]
                               for m in range(3) for n in range(3))
    assert (build_L_h_phi(S2, phi2, hhat_system, table).line()
            == build_L_h_phi(S, phi, hhat_system, table).line())


def _canonical_reference(S, phi, system, table) -> LineModuleSpec:
    """The line module of (S, phi) built over the canonical basis of
    ``canonical_form``, with phi's values carried there by ``phi_at``."""
    _, basis = canonical_form(S, table)
    t = NcPoly.gen(3)
    return LineModuleSpec(system, tuple(NcPoly.linear(u) - t.scale(phi_at(S, phi, u))
                                        for u in basis))


@st.composite
def _family_pairs(draw):
    """(table name, S, phi, reference module generators) for a pair of the
    sl(1|1) family, a color member or an sl2 member; for sl2, phi vanishes
    on [S, S], which the member's first basis vector E spans, and the
    reference is (E, H - lambda t) over the member's basis."""
    values = draw(st.tuples(_values, _values))
    name = draw(st.sampled_from(("sl11_table", "slc_table", "sl2_table")))
    if name == "sl11_table":
        odd = draw(st.tuples(st.integers(-6, 6), st.integers(-6, 6)).filter(any))
        S, phi = pair(*odd, *values)
        return name, S, phi, None
    S = draw(st.sampled_from(family_members(preset(name))))["spec"]
    if name == "slc_table":
        return name, S, Functional(*values), None
    E, H = S.v1, S.v2
    return name, S, Functional(0, values[1]), (deg1(E), deg1(H + (-values[1],)))


@settings(max_examples=100, deadline=None)
@given(data=st.data(), drawn=_family_pairs())
def test_build_matches_the_canonical_reference_on_any_basis(hhat_system, color_system,
                                                            a_system, data, drawn):
    name, S, phi, sl2_gens = drawn
    system = {"sl11_table": hhat_system, "slc_table": color_system,
              "sl2_table": a_system}[name]
    table = preset(name)
    reference = (LineModuleSpec(system, sl2_gens) if sl2_gens
                 else _canonical_reference(S, phi, system, table))
    S2, phi2 = data.draw(_rebased(S, phi))
    M = build_L_h_phi(S2, phi2, system, table)
    assert M.line() == reference.line()
    assert certify_line_module(M, 4).found == certify_line_module(reference, 4).found


def test_sl2_borel_pairs_build_the_hand_written_generators(a_system):
    # the sl2 suite's Borel pairs (S, (0, lambda)) give V(E, H - lambda t),
    # the generators the suite once wrote by hand
    table = preset("sl2_table")
    hand = [(NcPoly.gen(0), NcPoly.gen(2), lam) for lam in SL2_LAMBDAS]
    hand.append((NcPoly.gen(1), NcPoly.linear((0, 0, -1)), Fraction(3)))
    hand += [(NcPoly.linear((1, -s * s, s)), NcPoly.linear((0, -2 * s, 1)), Fraction(2))
             for s in SL2_BOREL_S]
    pairs = suites._sl2_borel_pairs()
    assert [lam for _, _, lam in pairs] == [lam for _, _, lam in hand]
    for (_, S, lam), (E, H, _) in zip(pairs, hand, strict=True):
        M = build_L_h_phi(S, Functional(0, lam), a_system, table)
        assert M.generators == (E, H - NcPoly.monomial((3,), lam))


def test_build_rejects_unclassified_subspace(hhat_system, a_system):
    # span(e, f) is not closed: [e, f] = h in sl(1|1) and in sl2
    with pytest.raises(SubalgebraFormError):
        build_L_h_phi(SubalgebraSpec((1, 0, 0), (0, 1, 0)), Functional(0, 0),
                      hhat_system, preset("sl11_table"))
    with pytest.raises(SubalgebraFormError):
        build_L_h_phi(SubalgebraSpec((1, 0, 0), (0, 1, 0)), Functional(0, 0),
                      a_system, preset("sl2_table"))


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
