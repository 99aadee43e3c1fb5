"""Lines and quadrics in P^3 over the rationals.

Lines are stored dually, as the pencil of two independent linear forms in
the coordinate functions.  The forms span a plane of k^4, and everything
about the line is read from that plane's integer Plücker coordinates
``q_ij`` (its dual Plücker coordinates): equality from the primitive
``q``, containment in a plane from the three-term minors, incidence from
the Klein pairing, and the point span and point Plücker coordinates from
the Hodge dual of ``q``.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import RankDeficientError
from .linalg import IntegerPlane, fraction_vector, normalize_integer_vector


class Line:
    """The line V(u, v) cut out by two independent degree-one forms.

    Lines are immutable and compare and hash by the line, not the forms.
    The forms, as tuples of Fractions, are the basis of the line's plane."""

    __slots__ = ("_plane",)

    def __init__(self, forms):
        u, v = (fraction_vector(f) for f in forms)
        if len(u) != 4 or len(v) != 4:
            raise ValueError("forms must have four coordinates")
        plane = IntegerPlane(u, v)
        if plane.rank() != 2:
            raise RankDeficientError("the two forms are linearly dependent")
        object.__setattr__(self, "_plane", plane)

    def __setattr__(self, name, value):
        raise AttributeError(f"Line.{name} cannot be assigned")

    @property
    def forms(self) -> tuple:
        return self._plane.basis

    def canonical(self) -> tuple:
        """The primitive dual Plücker vector (q01, q02, q03, q12, q13, q23)
        with positive leading entry; equal lines have equal vectors."""
        return normalize_integer_vector(tuple(self._plane.plucker.values()))

    def __eq__(self, other):
        return isinstance(other, Line) and self.canonical() == other.canonical()

    def __hash__(self):
        return hash(self.canonical())

    def _point_plucker(self) -> dict:
        """Point Plücker coordinates p_ij, the Hodge dual of q."""
        q = self._plane.plucker
        return {(0, 1): q[2, 3], (0, 2): -q[1, 3], (0, 3): q[1, 2],
                (1, 2): q[0, 3], (1, 3): -q[0, 2], (2, 3): q[0, 1]}

    def points(self) -> tuple:
        """Two projective points spanning the line, integer normalized:
        the null vectors of the forms at the free columns f < g of their
        reduced echelon form, which are rows g and f of the point Plücker
        matrix (row r is the point of the line that is zero at r)."""
        p = self._point_plucker()
        f, g = (c for c in range(4) if c not in self._plane.pivot())
        rows = ([p[r, c] if r < c else -p.get((c, r), 0) for c in range(4)] for r in (g, f))
        return tuple(map(normalize_integer_vector, rows))

    def contains_point(self, point) -> bool:
        return all(sum(a * b for a, b in zip(f, point)) == 0 for f in self.forms)

    def in_plane(self, plane_form) -> bool:
        """Whether the line lies inside the plane cut out by the form."""
        return self._plane.contains(plane_form)

    def plucker(self) -> tuple:
        """Point Plucker coordinates p01, p02, p03, p12, p13, p23."""
        return normalize_integer_vector(tuple(self._point_plucker().values()))


def lines_meet(L1: Line, L2: Line) -> bool:
    """Two lines meet iff their four forms fail to span all of k^4, that is
    iff the Klein pairing of their dual Plücker vectors, det(u1, v1, u2, v2),
    vanishes."""
    a, b = L1._plane.plucker, L2._plane.plucker
    return (a[0, 1] * b[2, 3] - a[0, 2] * b[1, 3] + a[0, 3] * b[1, 2]
            + a[1, 2] * b[0, 3] - a[1, 3] * b[0, 2] + a[2, 3] * b[0, 1]) == 0


class Quadric:
    """A quadric surface, as a nonzero symmetric 4x4 rational matrix."""

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        M = tuple(map(fraction_vector, matrix))
        if len(M) != 4 or any(len(r) != 4 for r in M):
            raise ValueError("quadric matrix must be 4x4")
        if all(c == 0 for row in M for c in row):
            raise ValueError("quadric matrix must be nonzero")
        for i in range(4):
            for j in range(4):
                if M[i][j] != M[j][i]:
                    raise ValueError("quadric matrix must be symmetric")
        self.matrix = M

    def evaluate(self, point) -> Fraction:
        return self.polarize(point, point)

    def polarize(self, p, q) -> Fraction:
        p, q, M = fraction_vector(p), fraction_vector(q), self.matrix
        return sum(M[i][j] * p[i] * q[j] for i in range(4) for j in range(4) if M[i][j])


def quadric_from_coeffs(coeffs: dict) -> Quadric:
    """Build a quadric from monomial coefficients {(i, j): c} with i <= j."""
    M = [[Fraction(0)] * 4 for _ in range(4)]
    for (i, j), c in coeffs.items():
        c = Fraction(c)
        if i == j:
            M[i][i] += c
        else:
            M[i][j] += c / 2
            M[j][i] += c / 2
    return Quadric(tuple(tuple(row) for row in M))


def _restriction(Q: Quadric, p, q) -> tuple:
    """The quadratic form of Q on the span of p and q: Q(p), Q(q), Q(p, q)."""
    return Q.evaluate(p), Q.evaluate(q), Q.polarize(p, q)


def line_on_quadric(L: Line, Q: Quadric) -> bool:
    """Whether the line lies on the quadric: the restriction of the
    quadratic form to the point span vanishes identically."""
    return not any(_restriction(Q, *L.points()))


def pencil_membership(L: Line, base: Quadric, direction: Quadric):
    """Solve for c with L on V(base + c * direction); returns the list of
    rational solutions c, plus 'infinity' if L lies on the direction quadric.

    The three restriction coefficients ``b + c d`` are linear in c: each
    vanishes for every c (b = d = 0), for none (d = 0 != b), or at -b/d.
    """
    p, q = L.points()
    pairs = list(zip(_restriction(base, p, q), _restriction(direction, p, q)))
    if any(d == 0 != b for b, d in pairs):
        out = []
    else:
        roots = {-b / d for b, d in pairs if d}
        out = sorted(roots) if len(roots) == 1 else ([] if roots else ["any"])
    if not any(d for _, d in pairs):
        out.append("infinity")
    return out


# ----------------------------------------------------------------------
# the thirteen line families of the color homogenization
# ----------------------------------------------------------------------

# coordinates a1, a2, a3, a4; each entry is (tag, plane form, base point)
COLOR_LINE_FAMILIES = (
    ("1(a)", (1, 1, 0, 0), (1, -1, 0, 0)),
    ("1(b)", (1, -1, 0, 0), (1, 1, 0, 0)),
    ("2(a)", (1, 0, 1, 0), (1, 0, -1, 0)),
    ("2(b)", (1, 0, -1, 0), (1, 0, 1, 0)),
    ("3(a)", (0, 1, 1, 0), (0, 1, -1, 0)),
    ("3(b)", (0, 1, -1, 0), (0, 1, 1, 0)),
    ("4(a)", (0, 0, -2, 1), (1, -1, 0, 0)),
    ("4(b)", (0, 0, 2, 1), (1, 1, 0, 0)),
    ("5(a)", (0, -2, 0, 1), (1, 0, -1, 0)),
    ("5(b)", (0, 2, 0, 1), (1, 0, 1, 0)),
    ("6(a)", (-2, 0, 0, 1), (0, 1, -1, 0)),
    ("6(b)", (2, 0, 0, 1), (0, 1, 1, 0)),
)


def classify_line_family_color(L: Line) -> list:
    """All family tags matched by the line: containment in the listed plane
    plus passage through the listed point, and tag 7 for lines inside the
    a4 plane.  Returns the sorted list of tags; empty means none."""
    tags = []
    for tag, plane, point in COLOR_LINE_FAMILIES:
        if L.in_plane(plane) and L.contains_point(point):
            tags.append(tag)
    if L.in_plane((0, 0, 0, 1)):
        tags.append("7")
    return tags
