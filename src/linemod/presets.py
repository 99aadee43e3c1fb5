"""Built-in presentations, bracket tables, gradings, quadrics and fixtures.

Each algebra is one record of bracket-table data: basis names, structure
constants, signs, grading and the ordered pairs whose relations are
presented.  Every presentation is derived from its record by one formula,
``ncalg.bracket_relation``: the enveloping presentation (genuinely
inhomogeneous, used for filtered computations) and its graded
homogenization by a central degree-one generator.  The eight-dimensional
superalgebra's constants come from the 3x3 supertrace-zero matrix model.
The shipped ``.alg`` files under ``data/`` are the frozen transcription the
derived presentations are pinned against in the tests.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from typing import NamedTuple

from . import geometry, liealg
from .errors import UnknownPresetError
from .ncalg import Generator, NcPoly, bracket_relation, group_identity
from .rewrite import Presentation

_CACHE: dict = {}


# ----------------------------------------------------------------------
# the 3x3 supertrace-zero matrix model
# ----------------------------------------------------------------------

_SL21_NAMES = ("x1", "x2", "x3", "x4", "y1", "y2", "y3", "y4")


def _matrix_unit(i, j):
    # the basis matrices hold only 0 and 1, so products stay on ints
    return tuple(tuple(int((r, c) == (i, j)) for c in range(3)) for r in range(3))


def _mat_mul(A, B):
    return tuple(
        tuple(sum(A[r][m] * B[m][c] for m in range(3)) for c in range(3))
        for r in range(3)
    )


def _mat_addscale(A, B, s):
    return tuple(
        tuple(A[r][c] + s * B[r][c] for c in range(3)) for r in range(3)
    )


def _sl21_basis_matrices():
    E = _matrix_unit
    x1 = _mat_addscale(E(0, 0), E(2, 2), 1)
    x2 = _mat_addscale(E(1, 1), E(2, 2), 1)
    return (
        x1, x2, E(0, 1), E(1, 0),     # even part
        E(0, 2), E(2, 0), E(1, 2), E(2, 1),  # odd part
    )


def _sl21_expand(M) -> tuple:
    """Coordinates of a supertrace-zero integer matrix over the eight basis
    matrices, as Fractions."""
    if M[2][2] != M[0][0] + M[1][1]:
        raise ValueError("matrix does not have supertrace zero")
    return tuple(Fraction(v) for v in (
        M[0][0], M[1][1], M[0][1], M[1][0],
        M[0][2], M[2][0], M[1][2], M[2][1],
    ))


def sl21_structure():
    """Structure constants and signs of the eight-dimensional superalgebra,
    computed from matrix supercommutators."""
    basis = _sl21_basis_matrices()
    parity = (0, 0, 0, 0, 1, 1, 1, 1)
    table = []
    signs = []
    for i in range(8):
        row = []
        srow = []
        for j in range(8):
            sign = -1 if parity[i] and parity[j] else 1
            prod = _mat_addscale(_mat_mul(basis[i], basis[j]), _mat_mul(basis[j], basis[i]), -sign)
            row.append(_sl21_expand(prod))
            srow.append(sign)
        table.append(tuple(row))
        signs.append(tuple(srow))
    return tuple(table), tuple(signs)


# ----------------------------------------------------------------------
# the algebras: bracket-table data, one record each, built on demand so
# that importing the module computes no structure constants
# ----------------------------------------------------------------------


class _Algebra(NamedTuple):
    """Structure constants and signs as in ``BracketTable``, plus the ordered
    pairs (i, j) whose bracket relations the presentations carry."""

    name: str
    kind: str
    basis_names: tuple
    table: tuple
    signs: tuple
    pairs: tuple
    grading_group: str | None
    labels: tuple | None


_Z = (0, 0, 0)


def _sl2() -> _Algebra:
    return _Algebra(
        "sl2", "lie", ("e", "f", "h"),
        table=(
            (_Z, (0, 0, 1), (-2, 0, 0)),
            ((0, 0, -1), _Z, (0, 2, 0)),
            ((2, 0, 0), (0, -2, 0), _Z),
        ),
        signs=((1, 1, 1), (1, 1, 1), (1, 1, 1)),
        pairs=((0, 1), (2, 0), (2, 1)),
        grading_group=None, labels=None,
    )


def _sl11() -> _Algebra:
    return _Algebra(
        "sl11", "super", ("e", "f", "h"),
        table=(
            (_Z, (0, 0, 1), _Z),
            ((0, 0, 1), _Z, _Z),
            (_Z, _Z, _Z),
        ),
        signs=((-1, -1, 1), (-1, -1, 1), (1, 1, 1)),
        pairs=((0, 1), (2, 0), (2, 1)),
        grading_group="Z2", labels=((1,), (1,), (0,)),
    )


def _slc() -> _Algebra:
    return _Algebra(
        "slc", "color", ("a1", "a2", "a3"),
        table=(
            (_Z, (0, 0, 1), (0, 1, 0)),
            ((0, 0, 1), _Z, (1, 0, 0)),
            ((0, 1, 0), (1, 0, 0), _Z),
        ),
        signs=((1, -1, -1), (-1, 1, -1), (-1, -1, 1)),
        pairs=((0, 1), (1, 2), (2, 0)),
        grading_group="Z2xZ2", labels=((1, 0), (0, 1), (1, 1)),
    )


def _sl21() -> _Algebra:
    # the square relations of the odd generators are deleted: one relation
    # per unordered pair of basis vectors
    return _Algebra(
        "sl21", "super", _SL21_NAMES, *sl21_structure(),
        pairs=tuple((i, j) for i in range(8) for j in range(i + 1, 8)),
        grading_group="Z2", labels=((0,),) * 4 + ((1,),) * 4,
    )


def _presentation(name: str, algebra, homogenizer: str | None, squares: bool) -> Presentation:
    """The enveloping presentation of ``algebra()``: the bracket relations
    of its pairs, then (with ``squares``) the square of each odd basis
    vector.  With a ``homogenizer`` name, its homogenization by a central
    generator of that name and identity group label."""
    alg = algebra()
    n = len(alg.basis_names)
    names, labels, h = alg.basis_names, alg.labels, None
    if homogenizer is not None:
        names, h = names + (homogenizer,), n
        if labels is not None:
            labels = labels + (group_identity(len(labels[0])),)
    relations = [bracket_relation(alg.table, alg.signs, i, j, h) for i, j in alg.pairs]
    if squares:
        relations += [NcPoly.monomial((i, i)) for i in range(n) if alg.signs[i][i] == -1]
    if h is not None:
        relations += [NcPoly.monomial((i, h)) - NcPoly.monomial((h, i)) for i in range(n)]
    return Presentation(
        name=name,
        generators=tuple(Generator(i, g, 1, labels[i] if labels else None)
                         for i, g in enumerate(names)),
        relations=tuple(relations),
        grading_group=alg.grading_group,
    )


def _table(algebra, enveloping: str) -> liealg.BracketTable:
    alg = algebra()
    return liealg.BracketTable(
        name=alg.name,
        kind=alg.kind,
        basis_names=alg.basis_names,
        table=alg.table,
        signs=alg.signs,
        enveloping=preset(enveloping),
        labels=alg.labels,
    )


# ----------------------------------------------------------------------
# quadrics
# ----------------------------------------------------------------------


def sl2_pencil_quadric(delta) -> geometry.Quadric:
    """The quadric det + delta^2 t^2 in coordinates (e, f, h, t), where det
    is the determinant form -(h^2 + ef) of the 2x2 trace-zero model."""
    d = Fraction(delta)
    return geometry.quadric_from_coeffs({(0, 1): -1, (2, 2): -1, (3, 3): d * d})


def sl11_middle_quadric() -> geometry.Quadric:
    """The quadric ht - 2ef in coordinates (e, f, h, t) that carries the
    line-module lines not meeting V(h, t)."""
    return geometry.quadric_from_coeffs({(2, 3): 1, (0, 1): -2})


# ----------------------------------------------------------------------
# catalogue
# ----------------------------------------------------------------------

# presentation -> (builder of its algebra's record, homogenizer name or None,
# odd squares presented)
_PRESENTATIONS = {
    "sl2_A": (_sl2, "t", False),
    "sl2_U": (_sl2, None, False),
    "sl11_U": (_sl11, None, True),
    "sl11_Uhat": (_sl11, None, False),
    "sl11_H": (_sl11, "t", True),
    "sl11_Hhat": (_sl11, "t", False),
    "slc_U": (_slc, None, False),
    "slc_H": (_slc, "a4", False),
    "sl21_Hhat": (_sl21, "t", False),
}

# bracket table -> (builder of its algebra's record, its enveloping presentation)
_TABLES = {
    "sl2_table": (_sl2, "sl2_U"),
    "sl11_table": (_sl11, "sl11_U"),
    "slc_table": (_slc, "slc_U"),
    "sl21_table": (_sl21, "sl21_Hhat"),
}

_BUILDERS = {
    **{name: partial(_presentation, name, *spec) for name, spec in _PRESENTATIONS.items()},
    **{name: partial(_table, *spec) for name, spec in _TABLES.items()},
    "sl11_quadric": sl11_middle_quadric,
}

PRESET_NAMES = tuple(sorted(_BUILDERS))

PRESENTATION_NAMES = tuple(_PRESENTATIONS)


def preset(name: str):
    """A validated immutable built-in object: a presentation, a bracket
    table, or a quadric."""
    if name not in _BUILDERS:
        raise UnknownPresetError(
            f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}"
        )
    if name not in _CACHE:
        _CACHE[name] = _BUILDERS[name]()
    return _CACHE[name]


# ----------------------------------------------------------------------
# fixtures
# ----------------------------------------------------------------------

# parameter samples (alpha : beta) for the superalgebra family, with both
# degenerate points included
SL11_AB_SAMPLES = ((1, 0), (0, 1), (1, 1), (1, -1), (2, 3), (-1, 5), (7, 2))

# admissible tuples (alpha, beta, lambda, gamma) with gamma^2 = alpha beta lambda,
# including the boundary cases alpha beta = 0
SL11_ADMISSIBLE = (
    (1, 1, 4, 2),
    (1, 1, 4, -2),
    (1, 1, 0, 0),
    (2, 3, 6, 6),
    (1, -1, -1, 1),
    (1, -1, -4, -2),
    (1, 0, 5, 0),
    (1, 0, 0, 0),
    (0, 1, -3, 0),
)

# graded functionals (gamma = 0) used for the graded line-module checks
SL11_GRADED_PHI = (
    (1, 1, 2),
    (1, 0, -3),
    (0, 1, 0),
    (2, 3, Fraction(1, 2)),
    (1, -1, 7),
)

# lines on the middle quadric: V(e - s h, t - 2 s f) for rational s
SL11_QUADRIC_LINE_PARAMS = (1, -1, 2, Fraction(1, 2), -3)

# borel parameters s for the upper-triangular family plus the two
# coordinate planes (tagged by name)
SL2_BOREL_S = (0, 1, -2, Fraction(1, 3))

SL2_LAMBDAS = (0, 1, -1, 2, -2, 3, Fraction(1, 2), Fraction(-3, 2), 5, Fraction(7, 3))

# completion degree and oracle degree of the sl21 suite, which takes no bounds
SL21_BOUNDS = (5, 3)
