from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from linemod.errors import LinemodError, UngradedAlphabetError
from linemod.ncalg import EMPTY_WORD, Generator, NcPoly, TermOrder, group_degree

ORDER = TermOrder.from_precedence((1, 1, 1, 1))

coeffs = st.fractions(
    min_value=-5, max_value=5, max_denominator=6
).filter(lambda c: c != 0)
words = st.lists(st.integers(min_value=0, max_value=3), max_size=4).map(tuple)
polys = st.dictionaries(words, coeffs, max_size=4).map(NcPoly)


@given(polys, polys, polys)
def test_ring_axioms(p, q, r):
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert (p + q) * r == p * r + q * r
    assert p + q == q + p
    assert p - p == NcPoly.zero()


@given(polys)
def test_unit_laws(p):
    one = NcPoly.one()
    assert one * p == p
    assert p * one == p


def test_free_products():
    e, f = NcPoly.gen(0), NcPoly.gen(1)
    assert e * f == NcPoly.monomial((0, 1))
    assert (e + f) * (e + f) == NcPoly(
        {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 1}
    )


@given(words, words)
def test_order_total_and_antisymmetric(u, v):
    c = ORDER.compare(u, v)
    assert c == -ORDER.compare(v, u)
    if u == v:
        assert c == 0


@given(words, words, words, words)
def test_order_multiplicative(u, v, a, b):
    if ORDER.compare(u, v) < 0:
        assert ORDER.compare(a + u + b, a + v + b) < 0


def test_order_examples():
    # degree first, then letterwise precedence (index 0 is highest)
    assert ORDER.compare((2,), (0, 1)) < 0
    assert ORDER.compare((0, 1), (1, 0)) > 0
    assert ORDER.compare((0, 1), (0, 1)) == 0


def test_leading_word():
    p = NcPoly({(0, 1): 1, (1, 0): 1, (2, 3): -1})
    assert ORDER.leading_word(p) == (0, 1)


LABELS_Z2 = ((1,), (1,), (0,), (0,))
LABELS_G = ((1, 0), (0, 1), (1, 1), (0, 0))


def test_group_degree_examples():
    assert group_degree((0, 1), LABELS_Z2) == (0,)
    assert group_degree(EMPTY_WORD, LABELS_Z2) == (0,)
    assert group_degree((0, 1), LABELS_G) == (1, 1)


@given(words, words)
def test_group_degree_homomorphism(u, v):
    total = group_degree(u + v, LABELS_G)
    left = group_degree(u, LABELS_G)
    right = group_degree(v, LABELS_G)
    assert total == tuple((a + b) % 2 for a, b in zip(left, right))


def test_group_degree_unlabeled_error():
    with pytest.raises(UngradedAlphabetError):
        group_degree((0,), (None, (1,)))


def test_generator_validation():
    with pytest.raises(ValueError):
        Generator(0, "e", 0)


def test_homogeneity_flags():
    degrees = (1, 1, 1, 1)
    assert NcPoly({(0, 1): 1, (2, 3): 1}).is_z_homogeneous(degrees)
    assert not NcPoly({(0,): 1, (2, 3): 1}).is_z_homogeneous(degrees)
    assert NcPoly({(0,): 1, (2, 3): 1}).max_z_degree(degrees) == 2


@given(st.lists(coeffs | st.just(Fraction(0)), min_size=1, max_size=5))
def test_linear_forms_round_trip(vec):
    form = NcPoly.linear(vec)
    assert form.support() == {(i,) for i, c in enumerate(vec) if c}
    assert form.linear_coefficients(len(vec), "forms") == tuple(vec)
    assert NcPoly.linear(form.linear_coefficients(len(vec), "forms")) == form


@pytest.mark.parametrize("poly", [NcPoly.one(), NcPoly({(0, 1): 1, (2,): 3})])
def test_linear_coefficients_reject_other_degrees(poly):
    with pytest.raises(LinemodError) as exc:
        poly.linear_coefficients(4, "line forms")
    assert str(exc.value) == "line forms must be degree-one expressions"


def test_scalar_arithmetic():
    p = NcPoly({(0,): Fraction(1, 2)})
    assert 2 * p == NcPoly.gen(0)
    assert p * 0 == NcPoly.zero()
