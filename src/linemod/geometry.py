"""Lines and quadrics in P^3 over the rationals.

Lines are stored dually, as the pencil of two independent linear forms in
the coordinate functions; incidence then reduces to one determinant and
containment checks to linear algebra.  Plucker coordinates are available
for reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import RankDeficientError
from .linalg import dense_nullspace, dense_rank, in_span, normalize_integer_vector, reduced_echelon


@dataclass(frozen=True)
class Line:
    """The line V(u, v) cut out by two independent degree-one forms."""

    forms: tuple

    def __post_init__(self):
        u, v = self.forms
        u = tuple(Fraction(c) for c in u)
        v = tuple(Fraction(c) for c in v)
        if len(u) != 4 or len(v) != 4:
            raise ValueError("forms must have four coordinates")
        if dense_rank([u, v]) != 2:
            raise RankDeficientError("the two forms are linearly dependent")
        object.__setattr__(self, "forms", (u, v))

    def canonical(self) -> tuple:
        """Reduced echelon basis of the form span, integer normalized;
        equal lines have equal canonical bases."""
        return tuple(normalize_integer_vector(row) for row in reduced_echelon(self.forms, 4))

    def __eq__(self, other):
        return isinstance(other, Line) and self.canonical() == other.canonical()

    def __hash__(self):
        return hash(self.canonical())

    def points(self) -> tuple:
        """Two projective points spanning the line, integer normalized."""
        basis = dense_nullspace(self.forms, 4)
        if len(basis) != 2:
            raise RankDeficientError("line does not have a two-dimensional point span")
        return tuple(normalize_integer_vector(p) for p in basis)

    def contains_point(self, point) -> bool:
        return all(_pair(f, point) == 0 for f in self.forms)

    def in_plane(self, plane_form) -> bool:
        """Whether the line lies inside the plane cut out by the form."""
        return in_span(plane_form, list(self.forms))

    def plucker(self) -> tuple:
        """Point Plucker coordinates p01, p02, p03, p12, p13, p23."""
        p, q = self.points()
        coords = []
        for i in range(4):
            for j in range(i + 1, 4):
                coords.append(p[i] * q[j] - p[j] * q[i])
        return normalize_integer_vector(coords)


def _pair(form, point) -> Fraction:
    return sum(Fraction(a) * Fraction(b) for a, b in zip(form, point))


def lines_meet(L1: Line, L2: Line) -> bool:
    """Two lines meet iff their four forms fail to span all of k^4."""
    return dense_rank(list(L1.forms) + list(L2.forms)) <= 3


@dataclass(frozen=True)
class Quadric:
    """A quadric surface, as a nonzero symmetric 4x4 rational matrix."""

    matrix: tuple

    def __post_init__(self):
        M = tuple(tuple(Fraction(c) for c in row) for row in self.matrix)
        if len(M) != 4 or any(len(r) != 4 for r in M):
            raise ValueError("quadric matrix must be 4x4")
        if all(c == 0 for row in M for c in row):
            raise ValueError("quadric matrix must be nonzero")
        for i in range(4):
            for j in range(4):
                if M[i][j] != M[j][i]:
                    raise ValueError("quadric matrix must be symmetric")
        object.__setattr__(self, "matrix", M)

    def evaluate(self, point) -> Fraction:
        p = [Fraction(c) for c in point]
        return sum(self.matrix[i][j] * p[i] * p[j] for i in range(4) for j in range(4))

    def polarize(self, p, q) -> Fraction:
        p = [Fraction(c) for c in p]
        q = [Fraction(c) for c in q]
        return sum(self.matrix[i][j] * p[i] * q[j] for i in range(4) for j in range(4))

    def contains_point(self, point) -> bool:
        return self.evaluate(point) == 0


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


def line_on_quadric(L: Line, Q: Quadric) -> bool:
    """Whether the line lies on the quadric: the restriction of the
    quadratic form to the point span vanishes identically."""
    p, q = L.points()
    return Q.evaluate(p) == 0 and Q.evaluate(q) == 0 and Q.polarize(p, q) == 0


def pencil_membership(L: Line, base: Quadric, direction: Quadric):
    """Solve for c with L on V(base + c * direction); returns the list of
    rational solutions c, plus 'infinity' if L lies on the direction quadric.

    The three restriction coefficients are linear in c, so membership in a
    pencil of quadrics reduces to a rational linear system.
    """
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
        if solutions is None:
            solutions = {c}
        else:
            solutions &= {c}
            if not solutions:
                break
    out: list = sorted(solutions) if solutions else ([] if solutions is not None else ["any"])
    if line_on_quadric(L, direction):
        out = list(out) + ["infinity"]
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
