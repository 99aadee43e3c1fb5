from fractions import Fraction
from random import Random

import pytest

from linemod.errors import RankDeficientError, SubalgebraFormError
from linemod.liealg import (
    Functional,
    SubalgebraSpec,
    admissible_functional,
    bracket,
    canonical_pair,
    classify_2dim_subalgebras,
    closed_form_admissible,
    color_form,
    color_minor_identity,
    is_graded_subspace,
    is_subalgebra,
    properness_admissible,
    sl11_form,
    table_consistent_with_presentation,
)
from linemod.presets import preset

SL2 = preset("sl2_table")
SL11 = preset("sl11_table")
SLC = preset("slc_table")


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
        (alpha, beta), _ = sl11_form(mixed, SL11)
        assert (alpha * -5) == (beta * 2)  # same projective point


def test_graded_subspace():
    assert is_graded_subspace(SubalgebraSpec((0, 0, 1), (1, 7, 0)), SL11.labels)
    assert not is_graded_subspace(SubalgebraSpec((0, 0, 1), (1, 1, 0)), SLC.labels)
    assert is_graded_subspace(SubalgebraSpec((1, 0, 0), (0, 1, 0)), SL11.labels)


def test_canonical_forms():
    (alpha, beta), C = sl11_form(SubalgebraSpec((1, 1, 2), (0, 0, 1)), SL11)
    assert (alpha, beta) == (1, 1)
    (i, j, k, mu), _ = color_form(SubalgebraSpec((1, -1, 0), (0, 0, 1)), SLC)
    assert (i, j, k, mu) == (2, 0, 1, -1)
    with pytest.raises(SubalgebraFormError):
        sl11_form(SubalgebraSpec((1, 0, 0), (0, 1, 0)), SL11)
    with pytest.raises(SubalgebraFormError):
        color_form(SubalgebraSpec((1, 0, 0), (0, 1, 0)), SLC)
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


def test_tables_consistent():
    assert table_consistent_with_presentation(SL2)
    assert table_consistent_with_presentation(SL11)
    assert table_consistent_with_presentation(SLC)
