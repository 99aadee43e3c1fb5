import math
from fractions import Fraction
from itertools import product
from random import Random

import pytest
from hypothesis import assume, given, settings, strategies as st

from linemod.errors import RankDeficientError
from linemod.geometry import (
    Line,
    Quadric,
    classify_line_family_color,
    line_on_quadric,
    lines_meet,
    pencil_membership,
    quadric_from_coeffs,
)
from linemod.linalg import SparseEchelon, dense_nullspace, normalize_integer_vector, reduced_echelon
from linemod.presets import sl2_pencil_quadric, sl11_middle_quadric

BASE = Line(((0, 0, 1, 0), (0, 0, 0, 1)))  # V(h, t)


def test_line_validation():
    with pytest.raises(RankDeficientError):
        Line(((1, 2, 0, 0), (2, 4, 0, 0)))


def test_line_equality_and_invariance():
    rng = Random(1)
    line = Line(((0, 0, 1, -2), (1, 3, 0, -1)))
    for _ in range(20):
        while True:
            a, b, c, d = (rng.randint(-4, 4) for _ in range(4))
            if a * d - b * c != 0:
                break
        u, v = line.forms
        mixed = Line((
            tuple(a * x + b * y for x, y in zip(u, v)),
            tuple(c * x + d * y for x, y in zip(u, v)),
        ))
        assert mixed == line
        assert mixed.plucker() == line.plucker()


def test_lines_meet_examples():
    assert lines_meet(Line(((0, 0, 1, -1), (1, 1, 0, 0))), BASE)
    assert not lines_meet(Line(((1, 0, 0, 0), (0, 1, 0, 0))), BASE)
    assert lines_meet(BASE, BASE)


def test_lines_meet_random_family():
    rng = Random(4)
    for _ in range(50):
        lam = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        gamma = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        alpha = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        beta = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        if not alpha and not beta:
            alpha = Fraction(1)
        line = Line(((0, 0, 1, -lam), (alpha, beta, 0, -gamma)))
        assert lines_meet(line, BASE)
        assert not line.in_plane((0, 0, 0, 1))


def test_meet_is_symmetric():
    L1 = Line(((1, 0, 0, 0), (0, 0, 1, -1)))
    L2 = Line(((0, 1, 0, 0), (0, 0, 1, 5)))
    assert lines_meet(L1, L2) == lines_meet(L2, L1)


def test_quadric_validation():
    with pytest.raises(ValueError):
        Quadric(((0,) * 4,) * 4)
    with pytest.raises(ValueError):
        Quadric(tuple(tuple(1 if (i, j) == (0, 1) else 0 for j in range(4)) for i in range(4)))


def test_borel_lines_on_pencil():
    for lam in (0, 1, -2, Fraction(1, 2)):
        line = Line(((1, 0, 0, 0), (0, 0, 1, -lam)))
        assert line_on_quadric(line, sl2_pencil_quadric(lam))
        # and on no other rational member of the pencil (generic lambda)
        if lam:
            assert not line_on_quadric(line, sl2_pencil_quadric(lam + 1))


def test_pencil_membership_solver():
    base = quadric_from_coeffs({(0, 1): -1, (2, 2): -1})  # det part
    direction = quadric_from_coeffs({(3, 3): 1})          # t^2 part
    line = Line(((1, 0, 0, 0), (0, 0, 1, -3)))
    # det + c t^2 vanishes on the line exactly for c = 9 = lambda^2
    assert pencil_membership(line, base, direction) == [Fraction(9)]


def test_middle_quadric_ruling():
    quad = sl11_middle_quadric()
    for s in (1, -2, Fraction(2, 3)):
        line = Line(((1, 0, -s, 0), (0, -2 * s, 0, 1)))
        assert line_on_quadric(line, quad)
    off = Line(((1, 0, 0, 0), (0, 1, 0, 0)))
    assert not line_on_quadric(off, quad)


def test_line_on_quadric_form_invariance():
    rng = Random(8)
    quad = sl11_middle_quadric()
    line = Line(((1, 0, -1, 0), (0, -2, 0, 1)))
    for _ in range(20):
        while True:
            a, b, c, d = (rng.randint(-4, 4) for _ in range(4))
            if a * d - b * c != 0:
                break
        u, v = line.forms
        mixed = Line((
            tuple(a * x + b * y for x, y in zip(u, v)),
            tuple(c * x + d * y for x, y in zip(u, v)),
        ))
        assert line_on_quadric(mixed, quad)


def test_classifier_examples():
    assert classify_line_family_color(Line(((1, 1, 0, 0), (0, 0, 1, -5)))) == ["1(a)"]
    tags = classify_line_family_color(Line(((0, 0, 0, 1), (1, 0, 0, 0))))
    assert "7" in tags
    assert classify_line_family_color(Line(((1, 0, 0, 0), (0, 1, 0, 0)))) == []


def test_classifier_multiple_tags():
    # a line can match several families when planes coincide on its span
    tags = classify_line_family_color(Line(((0, 0, 0, 1), (1, 0, 0, 0))))
    assert tags == sorted(tags)
    assert len(tags) >= 2


def test_points_on_line():
    line = Line(((0, 0, 1, -1), (1, 1, 0, 0)))
    p, q = line.points()
    for form in line.forms:
        assert sum(Fraction(a) * b for a, b in zip(form, p)) == 0
        assert sum(Fraction(a) * b for a, b in zip(form, q)) == 0


# ----------------------------------------------------------------------
# lines read from dual Plücker coordinates against Fraction echelons
# ----------------------------------------------------------------------


def _sparse(vector) -> dict:
    return {j: v for j, v in enumerate(vector) if v}


def _echelon(rows) -> SparseEchelon:
    ech = SparseEchelon()
    for r in rows:
        ech.add(_sparse(r))
    return ech


class ReferenceLine:
    """A line kept as its two forms and decided by Fraction echelons: rank
    and containment by row reduction, equality by the reduced echelon
    basis, points by the null space of the forms."""

    def __init__(self, forms):
        u, v = (tuple(Fraction(c) for c in f) for f in forms)
        if len(u) != 4 or len(v) != 4:
            raise ValueError("forms must have four coordinates")
        if _echelon([u, v]).rank != 2:
            raise RankDeficientError("the two forms are linearly dependent")
        self.forms = (u, v)

    def canonical(self):
        return tuple(normalize_integer_vector(row) for row in reduced_echelon(self.forms, 4))

    def __eq__(self, other):
        return self.canonical() == other.canonical()

    def points(self):
        return tuple(normalize_integer_vector(p) for p in dense_nullspace(self.forms, 4))

    def contains_point(self, point):
        return all(sum(a * b for a, b in zip(f, point)) == 0 for f in self.forms)

    def in_plane(self, plane_form):
        return _echelon(self.forms).contains(_sparse(plane_form))

    def plucker(self):
        p, q = self.points()
        return normalize_integer_vector(
            [p[i] * q[j] - p[j] * q[i] for i in range(4) for j in range(i + 1, 4)])


def reference_lines_meet(L1, L2):
    return _echelon(L1.forms + L2.forms).rank <= 3


def reference_line_on_quadric(L, Q):
    p, q = L.points()
    return Q.evaluate(p) == 0 and Q.evaluate(q) == 0 and Q.polarize(p, q) == 0


def reference_pencil_membership(L, base, direction):
    """Intersect the solution sets of the three restriction conditions one
    condition at a time."""
    p, q = L.points()
    conditions = [
        (base.evaluate(p), direction.evaluate(p)),
        (base.evaluate(q), direction.evaluate(q)),
        (base.polarize(p, q), direction.polarize(p, q)),
    ]
    solutions = None
    for b, d in conditions:
        if d == 0:
            if b != 0:
                solutions = set()
                break
            continue
        c = Fraction(-b, 1) / d
        solutions = {c} if solutions is None else solutions & {c}
    out = sorted(solutions) if solutions else ([] if solutions is not None else ["any"])
    if reference_line_on_quadric(L, direction):
        out = out + ["infinity"]
    return out


# zero-heavy, so that zero leading columns and coordinate planes come up
_RATIONALS = sorted({Fraction(n, d) for n in range(-6, 7) for d in range(1, 7)})
_coeffs = st.one_of(st.just(Fraction(0)), st.sampled_from(_RATIONALS))
_scales = st.sampled_from([x for x in _RATIONALS if x])
_vectors = st.tuples(_coeffs, _coeffs, _coeffs, _coeffs)
_INVERTIBLE_MIXES = st.sampled_from([m for m in product(range(-3, 4), repeat=4)
                                     if m[0] * m[3] != m[1] * m[2]])


def _combine(x, y, u, v):
    return tuple(x * a + y * b for a, b in zip(u, v))


@st.composite
def _form_pairs(draw):
    """Two forms: an echelon chart on any pair of pivot columns with
    zero-heavy free entries, under a random integer 2x2 mix (singular mixes
    give dependent forms) and a rational rescaling of each form."""
    p, q = sorted(draw(st.lists(st.integers(0, 3), min_size=2, max_size=2, unique=True)))
    r1, r2 = [Fraction(0)] * 4, [Fraction(0)] * 4
    r1[p] = r2[q] = Fraction(1)
    for c in range(p + 1, 4):
        if c != q:
            r1[c] = draw(_coeffs)
    for c in range(q + 1, 4):
        r2[c] = draw(_coeffs)
    a, b, c, d = (draw(st.integers(-3, 3)) for _ in range(4))
    return (tuple(draw(_scales) * x for x in _combine(a, b, r1, r2)),
            tuple(draw(_scales) * x for x in _combine(c, d, r1, r2)))


@st.composite
def _in_span(draw, forms):
    """A nonzero combination of the two forms."""
    x, y = draw(_scales), draw(_coeffs)
    return _combine(x, y, *forms)


@st.composite
def _quadrics(draw, forms):
    """A random symmetric matrix, or the product of a form through the line
    with any other form (a quadric containing the line), plus a random
    multiple of another random symmetric matrix; zero matrices are
    rejected."""
    def symmetric():
        M = [[Fraction(0)] * 4 for _ in range(4)]
        for i in range(4):
            for j in range(i, 4):
                M[i][j] = M[j][i] = draw(_coeffs)
        return M
    if draw(st.booleans()):
        f, w = draw(_in_span(forms)), draw(_vectors.filter(any))
        M = [[(f[i] * w[j] + f[j] * w[i]) / 2 for j in range(4)] for i in range(4)]
    else:
        M = symmetric()
    if draw(st.booleans()):
        c, N = draw(_coeffs), symmetric()
        M = [[M[i][j] + c * N[i][j] for j in range(4)] for i in range(4)]
    assume(any(x for row in M for x in row))
    return Quadric(tuple(map(tuple, M)))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_line_matches_fraction_echelon_reference(data):
    forms = data.draw(_form_pairs())
    try:
        ref = ReferenceLine(forms)
    except RankDeficientError:
        with pytest.raises(RankDeficientError):
            Line(forms)
        return
    line = Line(forms)
    assert line.forms == ref.forms
    assert line.plucker() == ref.plucker()
    points = line.points()
    assert points == ref.points()
    assert all(ref.contains_point(p) for p in points)
    assert _echelon(points).rank == 2

    # the same line under an invertible mix, a line inside a plane through
    # it (so the two meet), or an unrelated line
    kind = data.draw(st.sampled_from(["same", "meets", "other"]))
    if kind == "same":
        a, b, c, d = data.draw(_INVERTIBLE_MIXES)
        other = (_combine(a, b, *forms), _combine(c, d, *forms))
    elif kind == "meets":
        other = (data.draw(_in_span(forms)), data.draw(_vectors))
    else:
        other = data.draw(_form_pairs())
    try:
        ref2 = ReferenceLine(other)
    except RankDeficientError:
        with pytest.raises(RankDeficientError):
            Line(other)
    else:
        line2 = Line(other)
        assert (line == line2) == (ref == ref2)
        if ref == ref2:
            assert hash(line) == hash(line2)
        assert lines_meet(line, line2) == reference_lines_meet(ref, ref2)
        assert lines_meet(line2, line) == reference_lines_meet(ref2, ref)

    plane = data.draw(st.one_of(_in_span(forms), _vectors))
    assert line.in_plane(plane) == ref.in_plane(plane)

    quad = data.draw(_quadrics(forms))
    assert line_on_quadric(line, quad) == reference_line_on_quadric(ref, quad)
    # a base on the line shifted along the direction has the root -k
    direction = data.draw(_quadrics(forms))
    base = data.draw(_quadrics(forms))
    if data.draw(st.booleans()):
        k = data.draw(_coeffs)
        M = [[Fraction(x, base.den) + k * Fraction(y, direction.den) for x, y in zip(r, s)]
             for r, s in zip(base.ints, direction.ints)]
        assume(any(map(any, M)))
        base = Quadric(tuple(map(tuple, M)))
    assert (pencil_membership(line, base, direction)
            == reference_pencil_membership(ref, base, direction))


def _reference_polarize(M, p, q):
    return sum(M[i][j] * Fraction(p[i]) * Fraction(q[j]) for i in range(4) for j in range(4))


_points = st.one_of(st.tuples(*[st.integers(-9, 9)] * 4), _vectors)


@settings(max_examples=100, deadline=None)
@given(coeffs=st.dictionaries(st.sampled_from([(i, j) for i in range(4) for j in range(i, 4)]),
                              _coeffs, min_size=1),
       p=_points, q=_points)
def test_integer_quadric_matches_a_fraction_matrix(coeffs, p, q):
    # the matrix of a coefficient dict as the statement reads it: the
    # off-diagonal coefficients split in Fraction halves
    M = [[Fraction(0)] * 4 for _ in range(4)]
    for (i, j), c in coeffs.items():
        M[i][j] += c if i == j else c / 2
        M[j][i] += 0 if i == j else c / 2
    assume(any(map(any, M)))
    for Q in (quadric_from_coeffs(coeffs), Quadric(M), Quadric([[4 * x for x in r] for r in M], 4)):
        # one integer matrix over the least positive denominator
        assert Q.den > 0 and math.gcd(Q.den, *(x for r in Q.ints for x in r)) == 1
        assert [[Fraction(x, Q.den) for x in r] for r in Q.ints] == M
        assert Q.evaluate(p) == _reference_polarize(M, p, p)
        assert Q.polarize(p, q) == _reference_polarize(M, p, q) == Q.polarize(q, p)
        assert type(Q.polarize(p, q)) is Fraction
