from fractions import Fraction
from math import lcm
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from linemod.errors import LinemodError, RankDeficientError, SubalgebraFormError
from linemod import liealg
from linemod.liealg import (
    Functional,
    SubalgebraSpec,
    admissible_functional,
    bracket,
    canonical_form,
    canonical_pair,
    classify_2dim_subalgebras,
    closed_form_admissible,
    closed_form_on_pair,
    color_form,
    color_minor_identity,
    family_members,
    is_graded_subspace,
    is_subalgebra,
    properness_admissible,
    random_fraction,
    random_mix,
    sl11_form,
    table_consistent_with_presentation,
)
from linemod.hilbert import filtered_cyclic_dims
from linemod.linalg import SparseEchelon, dense_nullspace
from linemod.ncalg import Generator, NcPoly
from linemod.presets import preset
from linemod.rewrite import Presentation, complete

SL2 = preset("sl2_table")
SL11 = preset("sl11_table")
SLC = preset("slc_table")
SL21 = preset("sl21_table")


def test_bracket_examples():
    assert bracket((1, 0, 0), (0, 1, 0), SL11) == (0, 0, 1)
    assert bracket((0, 0, 1), (1, 0, 0), SLC) == (0, 1, 0)
    assert bracket((1, 2, 3), (0, 0, 0), SL2) == (0, 0, 0)


def test_bracket_bilinear():
    rng = Random(3)
    for table in (SL2, SL11, SLC):
        x = tuple(Fraction(rng.randint(-5, 5)) for _ in range(3))
        y = tuple(Fraction(rng.randint(-5, 5)) for _ in range(3))
        z = tuple(Fraction(rng.randint(-5, 5)) for _ in range(3))
        xy = bracket(x, tuple(a + b for a, b in zip(y, z)), table)
        split = tuple(a + b for a, b in zip(bracket(x, y, table), bracket(x, z, table)))
        assert xy == split


def test_subalgebra_examples():
    assert is_subalgebra(SubalgebraSpec((0, 0, 1), (2, 3, 0)), SL11)
    assert not is_subalgebra(SubalgebraSpec((1, 0, 0), (0, 1, 0)), SL11)
    assert is_subalgebra(SubalgebraSpec((0, 0, 1), (1, 1, 0)), SLC)
    assert not is_subalgebra(SubalgebraSpec((0, 1, 0), (0, 0, 1)), SLC)
    assert is_subalgebra(SubalgebraSpec((1, 0, 0), (0, 0, 1)), SL2)


def test_subalgebra_rank_error():
    with pytest.raises(RankDeficientError):
        is_subalgebra(SubalgebraSpec((1, 1, 0), (2, 2, 0)), SL11)


def test_subalgebra_basis_invariance():
    rng = Random(11)
    S = SubalgebraSpec((0, 0, 1), (2, -5, 0))
    for _ in range(25):
        while True:
            a, b, c, d = (rng.randint(-4, 4) for _ in range(4))
            if a * d - b * c != 0:
                break
        mixed = SubalgebraSpec(
            tuple(a * x + b * y for x, y in zip(S.v1, S.v2)),
            tuple(c * x + d * y for x, y in zip(S.v1, S.v2)),
        )
        assert is_subalgebra(mixed, SL11)
        (alpha, beta), _ = sl11_form(mixed)
        assert (alpha * -5) == (beta * 2)  # same projective point


def test_graded_subspace():
    assert is_graded_subspace(SubalgebraSpec((0, 0, 1), (1, 7, 0)), SL11.labels)
    assert not is_graded_subspace(SubalgebraSpec((0, 0, 1), (1, 1, 0)), SLC.labels)
    assert is_graded_subspace(SubalgebraSpec((1, 0, 0), (0, 1, 0)), SL11.labels)


def test_canonical_forms():
    assert sl11_form(SubalgebraSpec((1, 1, 2), (0, 0, 1))) == ((1, 1), ((0, 0, 1), (1, 1, 0)))
    assert color_form(SubalgebraSpec((1, -1, 0), (0, 0, 1))) == (
        (2, 0, 1, -1), ((0, 0, 1), (1, -1, 0)))
    with pytest.raises(SubalgebraFormError):
        sl11_form(SubalgebraSpec((1, 0, 0), (0, 1, 0)))
    with pytest.raises(SubalgebraFormError):
        color_form(SubalgebraSpec((1, 0, 0), (0, 1, 0)))
    # with phi's values on the canonical basis: span(e + f + h, h) is
    # span(h, e + f) for sl11 and span(a3, a1 + a2) for the color algebra
    S = SubalgebraSpec((1, 1, 1), (0, 0, 1))
    assert canonical_pair(S, Functional(5, 2), SL11) == ((1, 1), (2, 3))
    assert canonical_pair(S, Functional(Fraction(15, 2), Fraction(1, 2)), SLC) == (
        (2, 0, 1, 1), (Fraction(1, 2), 7))
    with pytest.raises(ValueError):
        canonical_pair(SubalgebraSpec((1, 0, 0), (0, 0, 1)), Functional(0, 0), SL2)


def test_admissibility_closed_form_examples():
    S = SubalgebraSpec((0, 0, 1), (1, 1, 0))
    assert closed_form_admissible(S, Functional(4, 2), SL11)[0]
    ok, reason = closed_form_admissible(S, Functional(1, 0), SL11)
    assert not ok and reason
    Sc = SubalgebraSpec((0, 0, 1), (1, 1, 0))
    assert closed_form_admissible(Sc, Functional(Fraction(1, 2), 7), SLC)[0]
    assert closed_form_admissible(Sc, Functional(5, 0), SLC)[0]
    assert not closed_form_admissible(Sc, Functional(0, 1), SLC)[0]


def test_admissibility_routes_agree_random():
    rng = Random(23)
    tables_and_specs = [
        (SL11, SubalgebraSpec((0, 0, 1), (1, 1, 0))),
        (SL11, SubalgebraSpec((0, 0, 1), (1, 0, 0))),
        (SLC, SubalgebraSpec((0, 0, 1), (1, -1, 0))),
        (SL2, SubalgebraSpec((1, 0, 0), (0, 0, 1))),
    ]
    for table, S in tables_and_specs:
        for _ in range(30):
            phi = Functional(
                Fraction(rng.randint(-10, 10), rng.randint(1, 10)),
                Fraction(rng.randint(-10, 10), rng.randint(1, 10)),
            )
            # raises RouteDisagreementError on any mismatch
            admissible_functional(S, phi, table)


def _on_and_off_the_admissible_set(T, member, rng):
    """phi's values on a family member's own basis (v1, v2), drawn on the
    admissible set, and the same values with one shifted off it."""
    def frac():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 4))

    params = member["params"]
    if T.kind == "lie":
        # phi vanishes on [S, S], spanned by [v1, v2] = x v1 + y v2
        S = member["spec"]
        x, y = S.solve(bracket(S.v1, S.v2, T))
        r = frac() or 1
        phi = (r * y, -r * x)
        return phi, ((phi[0] + 1, phi[1]) if x else (phi[0], phi[1] + 1))
    if T.kind == "super":
        # gamma^2 = alpha beta lambda, so gamma = 0 when alpha beta = 0
        ab = params["alpha"] * params["beta"]
        if not ab:
            lam = frac()
            return (lam, 0), (lam, 1)
        gamma = frac()
        return (gamma * gamma / ab, gamma), (gamma * gamma / ab + 1, gamma)
    # phi(a_i) = mu/2 or phi(a_j + mu a_k) = 0
    half, r = Fraction(params["mu"], 2), frac()
    if rng.random() < 0.5:
        r = r or 1
        return (half, r), (half + 1, r)
    r = r if r != half else half + 1
    return (r, 0), (r, 1)


@pytest.mark.parametrize("T", [SL2, SL11, SLC], ids=lambda T: T.kind)
def test_admissible_functionals_sampled_on_purpose(T):
    # random functionals rarely land on the admissible set (3 of the sl2
    # suite's 125 trials do), so each family member gets points drawn on it
    # and points shifted off it, over a random integer mix of its basis
    rng = Random(14)
    for member in family_members(T):
        S = member["spec"]
        for _ in range(5):
            phi, off = _on_and_off_the_admissible_set(T, member, rng)
            while True:
                a, b, c, d = (rng.randint(-3, 3) for _ in range(4))
                if a * d != b * c:
                    break
            mixed = SubalgebraSpec(tuple(a * x + b * y for x, y in zip(S.v1, S.v2)),
                                   tuple(c * x + d * y for x, y in zip(S.v1, S.v2)))
            for values, expected in ((phi, True), (off, False)):
                carried = Functional(a * values[0] + b * values[1], c * values[0] + d * values[1])
                assert admissible_functional(mixed, carried, T) is expected, (member, values)


def test_properness_detects_collapse():
    S = SubalgebraSpec((0, 0, 1), (1, 1, 0))
    assert properness_admissible(S, Functional(4, 2), SL11)
    assert not properness_admissible(S, Functional(1, 0), SL11)


def test_sl2_functional_vanishes_on_derived():
    borel = SubalgebraSpec((1, 0, 0), (0, 0, 1))  # span(e, h); [h, e] = 2e
    assert closed_form_admissible(borel, Functional(0, 7), SL2)[0]
    assert not closed_form_admissible(borel, Functional(1, 0), SL2)[0]


def test_classification_reports():
    rep = classify_2dim_subalgebras(SL11, samples=400, seed=2)
    assert rep.sufficiency_pass and rep.completeness_pass
    assert all(m["graded"] for m in rep.members)
    rep = classify_2dim_subalgebras(SLC, samples=400, seed=2)
    assert rep.sufficiency_pass and rep.completeness_pass
    assert len(rep.members) == 6
    assert all(m["graded"] is False for m in rep.members)
    rep = classify_2dim_subalgebras(SL2, samples=400, seed=2)
    assert rep.sufficiency_pass and rep.completeness_pass


def test_color_minor_identity():
    assert color_minor_identity()


def test_color_ideal_completion():
    # Q[alpha, beta] / (2 alpha beta, alpha^2 + beta^2 - 1) as a commutator
    # presentation: its completion is the Groebner basis of the ideal
    alpha, beta = NcPoly.gen(0), NcPoly.gen(1)
    pres = Presentation("ideal", (Generator(0, "alpha"), Generator(1, "beta")), (
        beta * alpha - alpha * beta,
        NcPoly({(0, 1): 2}),
        NcPoly({(0, 0): 1, (1, 1): 1, (): -1}),
    ))
    system = complete(pres, max_degree=4)
    assert not system.discarded_above_bound
    assert {r.lhs: r.rhs for r in system.rules} == {
        (0, 1): NcPoly(),
        (1, 0): NcPoly(),
        (0, 0): NcPoly({(): 1, (1, 1): -1}),
        (1, 1, 1): NcPoly({(1,): 1}),
    }


def test_tables_consistent():
    for T in (SL2, SL11, SLC):
        assert table_consistent_with_presentation(T, complete(T.enveloping, max_degree=4))


# ----------------------------------------------------------------------
# the integer Plücker closure test against the Fraction echelon reference
# ----------------------------------------------------------------------


def _sparse(vector) -> dict:
    return {j: v for j, v in enumerate(vector) if v}


def _echelon(rows) -> SparseEchelon:
    ech = SparseEchelon()
    for r in rows:
        ech.add(_sparse(r))
    return ech


def _reference_rank(S):
    return _echelon([S.v1, S.v2]).rank


def _reference_bracket(x, y, T):
    """The bracket read straight off the nested structure-constant table,
    skipping its zero entries."""
    out = [Fraction(0)] * T.dimension
    for i, row in enumerate(T.table):
        for j, entry in enumerate(row):
            for k, c in enumerate(entry):
                if c:
                    out[k] += x[i] * y[j] * Fraction(c)
    return tuple(out)


def _reference_is_subalgebra(S, T):
    """Closure by Fraction echelons: rank, then membership of the four
    brackets."""
    if _reference_rank(S) != 2:
        raise RankDeficientError("subspace basis is rank deficient")
    base = [S.v1, S.v2]
    ech = _echelon(base)
    return all(ech.contains(_sparse(_reference_bracket(x, y, T))) for x in base for y in base)


def _reference_coords(vector, rows):
    """Coefficients of ``vector`` over ``rows``: row i carries a marker at
    column n + i, after the n real columns, that records its index."""
    n = len(vector)
    ech = SparseEchelon()
    for i, r in enumerate(rows):
        ech.add({**_sparse(r), n + i: 1})
    red = ech.reduce(_sparse(vector))
    assert all(c >= n for c in red)
    coeffs = [Fraction(0)] * len(rows)
    for c, v in red.items():
        coeffs[c - n] = -v
    return coeffs


def _reference_is_graded(S, labels):
    total = 0
    for lab in sorted(set(labels)):
        rows = [(S.v1[i], S.v2[i]) for i in range(len(labels)) if labels[i] != lab]
        total += 2 - _echelon(rows).rank
    return total == 2


# zero-heavy so that closed planes and rank-deficient bases come up often
_entries = st.one_of(st.just(Fraction(0)),
                     st.fractions(min_value=-6, max_value=6, max_denominator=6))
_scales = st.fractions(min_value=-5, max_value=5, max_denominator=5).filter(bool)


@st.composite
def _planes(draw, T):
    """Two vectors spanning a random plane of T's algebra, or a degenerate
    pair: an echelon chart (any pair of pivot columns) or, for the
    three-dimensional tables, a classified member, under a random integer
    2x2 mix (singular ones included) and rational rescaling."""
    n = T.dimension
    members = family_members(T) if n == 3 else []
    if members and draw(st.booleans()):
        spec = draw(st.sampled_from(members))["spec"]
        r1, r2 = spec.v1, spec.v2
    else:
        p, q = sorted(draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                                    unique=True)))
        r1 = [Fraction(0)] * n
        r2 = [Fraction(0)] * n
        r1[p] = r2[q] = Fraction(1)
        for c in range(p + 1, n):
            if c != q:
                r1[c] = draw(_entries)
        for c in range(q + 1, n):
            r2[c] = draw(_entries)
    a, b, c, d = (draw(st.integers(-3, 3)) for _ in range(4))
    s, t = draw(_scales), draw(_scales)
    return (tuple(s * (a * x + b * y) for x, y in zip(r1, r2)),
            tuple(t * (c * x + d * y) for x, y in zip(r1, r2)))


@pytest.mark.parametrize("T", [SL2, SL11, SLC, SL21], ids=lambda T: T.name)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_integer_closure_matches_fraction_echelons(T, data):
    v1, v2 = data.draw(_planes(T))
    S = SubalgebraSpec(v1, v2)
    for x in (S.v1, S.v2):
        for y in (S.v1, S.v2):
            assert bracket(x, y, T) == _reference_bracket(x, y, T)
    assert S.rank() == _reference_rank(S)
    try:
        expected = _reference_is_subalgebra(S, T)
    except RankDeficientError:
        with pytest.raises(RankDeficientError):
            is_subalgebra(S, T)
        return
    assert is_subalgebra(S, T) == expected
    if T.labels:
        assert is_graded_subspace(S, T.labels) == _reference_is_graded(S, T.labels)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), phi=st.tuples(_entries, _entries))
def test_lie_closed_form_matches_fraction_coordinates(data, phi):
    v1, v2 = data.draw(_planes(SL2))
    S = SubalgebraSpec(v1, v2)
    phi = Functional(*phi)
    if _reference_rank(S) != 2 or not _reference_is_subalgebra(S, SL2):
        with pytest.raises((RankDeficientError, SubalgebraFormError)):
            closed_form_admissible(S, phi, SL2)
        return
    coeffs = _reference_coords(_reference_bracket(S.v1, S.v2, SL2), [S.v1, S.v2])
    value = coeffs[0] * phi.on_v1 + coeffs[1] * phi.on_v2
    ok, reason = closed_form_admissible(S, phi, SL2)
    assert ok == (value == 0)
    if not ok:
        assert reason == f"phi does not vanish on the derived subalgebra: phi([v1,v2]) = {value}"


def test_integer_closure_rescales_and_rank():
    # denominators and common factors are cleared without changing the plane
    S = SubalgebraSpec((Fraction(2, 3), Fraction(4, 3), 0), (0, 0, Fraction(-5, 7)))
    assert S.rank() == 2
    assert SubalgebraSpec((1, 2, 0), (Fraction(-1, 2), -1, 0)).rank() == 1
    assert SubalgebraSpec((0, 0, 0), (0, 0, 0)).rank() == 0
    # span(e + 2f, h) is not closed in sl2; span(e, h) scaled is
    assert not is_subalgebra(S, SL2)
    assert is_subalgebra(SubalgebraSpec((Fraction(3, 4), 0, 0), (0, 0, Fraction(-2, 9))), SL2)


def test_closed_form_on_pair():
    assert closed_form_on_pair("super", ((1, 1), (Fraction(4), Fraction(2)))) == (True, "")
    assert closed_form_on_pair("color", ((2, 0, 1, -1), (Fraction(-1, 2), 3))) == (True, "")
    ok, reason = closed_form_on_pair("color", ((2, 0, 1, 1), (Fraction(0), Fraction(1))))
    assert not ok and reason == ("phi(a_j + mu a_k) = 1 is nonzero and phi(a_i) = 0 "
                                 "differs from mu/2 = 1/2")
    with pytest.raises(ValueError):
        closed_form_on_pair("lie", ((), ()))
    # a classified member's basis is its canonical basis: the slc grid reads
    # phi's values on it as the canonical pair's values
    for T in (SL11, SLC):
        for member in family_members(T):
            phi = Functional(Fraction(3, 2), -7)
            assert canonical_pair(member["spec"], phi, T)[1] == phi.values()


# ----------------------------------------------------------------------
# integer sampling against the Fraction arithmetic it replaced
# ----------------------------------------------------------------------


def reference_mix(rng, u, v):
    """The basis mix in Fraction arithmetic, entry by entry."""
    while True:
        a, b, c, d = (rng.randint(-3, 3) for _ in range(4))
        if a * d - b * c != 0:
            break
    return (tuple(a * x + b * y for x, y in zip(u, v)),
            tuple(c * x + d * y for x, y in zip(u, v)))


def reference_random_rank2(rng):
    roll = rng.random()
    if roll < 0.80:
        rows = [(1, 0, random_fraction(rng)), (0, 1, random_fraction(rng))]
    elif roll < 0.97:
        rows = [(1, random_fraction(rng), 0), (0, 0, 1)]
    else:
        rows = [(0, 1, 0), (0, 0, 1)]
    return reference_mix(rng, *rows)


def test_integer_sampling_matches_fraction_reference():
    # same values from the same draws, so every seeded audit is unchanged
    new, old = Random(11), Random(11)
    for _ in range(3000):
        S = liealg._random_rank2(new)
        assert (S.v1, S.v2) == reference_random_rank2(old)
        assert all(type(c) is Fraction for c in S.v1 + S.v2)
    assert new.getstate() == old.getstate()
    rows = Random(12)
    for _ in range(500):
        u = (0, 0, 1, -random_fraction(rows))
        v = (random_fraction(rows), random_fraction(rows), 0, -random_fraction(rows))
        seed = rows.random()
        mixed = random_mix(Random(seed), u, v)
        assert mixed == reference_mix(Random(seed), u, v)
        assert all(type(c) is Fraction for c in mixed[0] + mixed[1])


# ----------------------------------------------------------------------
# canonical forms against the null-space reference they replaced
# ----------------------------------------------------------------------


def _reference_combo(S, coeffs):
    x, y = coeffs
    return tuple(x * a + y * b for a, b in zip(S.v1, S.v2))


def _reference_sl11_form(S, T):
    """span(h, alpha e + beta f) by Fraction null spaces."""
    S.require_rank2()
    null = dense_nullspace([(S.v1[0], S.v2[0]), (S.v1[1], S.v2[1])], 2)
    if len(null) != 1:
        raise SubalgebraFormError("subspace does not contain the even basis vector")
    x, y = null[0]
    u1 = _reference_combo(S, (x, y))
    if not u1[2]:
        raise SubalgebraFormError("subspace does not contain the even basis vector")
    c0 = (x / u1[2], y / u1[2])
    w, wc = (S.v1, (Fraction(1), Fraction(0)))
    if y == 0:
        w, wc = (S.v2, (Fraction(0), Fraction(1)))
    c1 = (wc[0] - w[2] * c0[0], wc[1] - w[2] * c0[1])
    u2 = _reference_combo(S, c1)
    alpha, beta = u2[0], u2[1]
    if u2[2] or (not alpha and not beta):
        raise SubalgebraFormError("could not split off an odd complement")
    return (alpha, beta), (c0, c1)


def _reference_color_form(S, T):
    """span(a_i, a_j + mu a_k) by Fraction null spaces."""
    S.require_rank2()
    for i in range(3):
        unit = tuple(1 if m == i else 0 for m in range(3))
        if not S.contains(unit):
            continue
        j, k = [m for m in range(3) if m != i]
        null = dense_nullspace([(S.v1[i], S.v2[i])], 2)
        if len(null) != 1:
            raise SubalgebraFormError("no one-dimensional complement to a_i")
        u2 = _reference_combo(S, null[0])
        if not u2[j]:
            raise SubalgebraFormError("complement is a multiple of a single basis vector")
        mu = u2[k] / u2[j]
        if mu not in (1, -1):
            raise SubalgebraFormError(f"complement slope {mu} is not +-1")
        c1 = (null[0][0] / u2[j], null[0][1] / u2[j])
        return (i, j, k, mu), (S.solve(unit), c1)
    raise SubalgebraFormError("subspace contains no grading basis vector")


def _outcome(form, S, T):
    try:
        return form(S, T)
    except LinemodError as exc:
        return type(exc), str(exc)


def _reference_outcome(reference, S, T):
    """The reference's outcome, with each row (x, y) of its change of basis
    mapped to the vector x v1 + y v2."""
    outcome = _outcome(reference, S, T)
    if isinstance(outcome[0], type):
        return outcome
    params, C = outcome
    return params, tuple(_reference_combo(S, row) for row in C)


@pytest.mark.parametrize("T, reference", [(SL11, _reference_sl11_form),
                                          (SLC, _reference_color_form)],
                         ids=lambda x: getattr(x, "name", ""))
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_canonical_forms_match_nullspace_reference(T, reference, data):
    # a random basis of a family member, or any plane (the shape may fail)
    if data.draw(st.booleans()):
        spec = data.draw(st.sampled_from(family_members(T)))["spec"]
        S = SubalgebraSpec(*random_mix(Random(data.draw(st.integers(0, 2**32))),
                                       spec.v1, spec.v2))
    else:
        S = SubalgebraSpec(*data.draw(_planes(T)))
    assert _outcome(canonical_form, S, T) == _reference_outcome(reference, S, T)


# ----------------------------------------------------------------------
# the integer pair layer against Fraction references
# ----------------------------------------------------------------------


def _reference_phi_at(S, phi, w):
    """phi's value on the vector w of S, from Fraction coordinates over
    (v1, v2)."""
    x, y = _reference_coords(w, [S.v1, S.v2])
    return x * phi.on_v1 + y * phi.on_v2


def _reference_closed_form(S, phi, T):
    """The closed condition and its reason, computed on the Fraction
    vectors v1, v2 as the statement reads it."""
    v1, v2 = S.v1, S.v2
    if T.kind == "lie":
        value = _reference_phi_at(S, phi, _reference_bracket(v1, v2, T))
        if value == 0:
            return True, ""
        return False, f"phi does not vanish on the derived subalgebra: phi([v1,v2]) = {value}"
    if T.kind == "super":
        w = v1 if v1[0] or v1[1] else v2
        alpha, beta = w[0], w[1]
        lam, gamma = (_reference_phi_at(S, phi, (0, 0, 1)),
                      _reference_phi_at(S, phi, (alpha, beta, 0)))
        if gamma * gamma == alpha * beta * lam:
            return True, ""
        return False, (f"phi(alpha*e+beta*f)^2 = {gamma * gamma} differs from "
                       f"alpha*beta*phi(h) = {alpha * beta * lam}")
    for i in range(3):
        e_i = tuple(Fraction(int(m == i)) for m in range(3))
        if _echelon([v1, v2, e_i]).rank == 2:
            break
    j, k = [m for m in range(3) if m != i]
    w = tuple(v1[i] * b - v2[i] * a for a, b in zip(v1, v2))   # the vector of S off a_i
    mu = w[k] / w[j]
    val_i = _reference_phi_at(S, phi, e_i)
    val_w = _reference_phi_at(S, phi, tuple(Fraction(int(m == j)) + mu * (m == k)
                                            for m in range(3)))
    if val_w == 0 or 2 * val_i == mu:
        return True, ""
    return False, (f"phi(a_j + mu a_k) = {val_w} is nonzero and phi(a_i) = {val_i} "
                   f"differs from mu/2 = {mu / 2}")


def _reference_shift_generators(S, phi, unit):
    return tuple(NcPoly.linear(vec) - unit.scale(value)
                 for vec, value in zip((S.v1, S.v2), phi.values()))


_phi_values = st.one_of(st.just(Fraction(0)),
                        st.fractions(min_value=-6, max_value=6, max_denominator=6))


@st.composite
def _member_pairs(draw, T):
    """A family member of T on a new basis, with a functional.  The basis is
    a ``random_mix`` of the member's vectors, or the integer rows s (a u +
    b v), t (c u + d v) over a denominator den > 1, where u, v are integer
    multiples of the member's vectors, the mix is invertible and s, t <= -2
    make the rows non-primitive with negative content.  phi is drawn on the
    member's basis, admissible on purpose half the time, and carried to the
    new basis."""
    member = draw(st.sampled_from(family_members(T)))["spec"]
    u, v = member.v1, member.v2
    x, y = draw(_phi_values), draw(_phi_values)
    if draw(st.booleans()):
        if T.kind == "lie":
            x = Fraction(0)   # the first vector spans the derived subalgebra
        elif T.kind == "super":
            ab = v[0] * v[1]   # the member is span(h, alpha e + beta f)
            if ab:
                x = y * y / ab
            else:
                y = Fraction(0)
        elif draw(st.booleans()):
            y = Fraction(0)
        else:
            x = (sum(v) - 1) / 2   # mu / 2 for span(a_i, a_j + mu a_k)
    if draw(st.booleans()):
        S = SubalgebraSpec(*random_mix(Random(draw(st.integers(0, 2 ** 16))), u, v))
    else:
        a, b, c, d = draw(st.tuples(*[st.integers(-3, 3)] * 4).filter(
            lambda m: m[0] * m[3] != m[1] * m[2]))
        s, t = draw(st.integers(-4, -2)), draw(st.integers(-4, -2))
        m = lcm(*(z.denominator for z in u + v))
        U, V = [int(z * m) for z in u], [int(z * m) for z in v]
        S = SubalgebraSpec(tuple(s * (a * p + b * q) for p, q in zip(U, V)),
                           tuple(t * (c * p + d * q) for p, q in zip(U, V)),
                           draw(st.integers(2, 6)))
    base = Functional(x, y)
    return S, Functional(*(_reference_phi_at(member, base, w) for w in (S.v1, S.v2)))


@pytest.mark.parametrize("T", [SL2, SL11, SLC], ids=lambda T: T.name)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_integer_pair_layer_matches_fraction_references(T, data):
    S, phi = data.draw(_member_pairs(T))
    expected = _reference_closed_form(S, phi, T)
    assert closed_form_admissible(S, phi, T) == expected
    t = NcPoly.gen(T.dimension)
    for unit in (NcPoly.one(), t):
        gens = liealg.shift_generators(S, phi, unit)
        reference = _reference_shift_generators(S, phi, unit)
        # the same terms in the same order, every coefficient a Fraction
        assert [list(g.items()) for g in gens] == [list(r.items()) for r in reference]
        assert all(type(c) is Fraction for g in gens for _, c in g.items())
    filtered = filtered_cyclic_dims(T.enveloping,
                                    _reference_shift_generators(S, phi, NcPoly.one()), 4)
    assert properness_admissible(S, phi, T, 4) == (filtered[0] == 1) == expected[0]
