"""Built-in presentations, bracket tables, gradings, quadrics and fixtures.

Every algebra ships in two forms where that makes sense: the genuinely
inhomogeneous enveloping presentation (used for filtered computations) and
its graded homogenization by a central degree-one generator.  The
eight-dimensional superalgebra presentation is generated from the 3x3
supertrace-zero matrix model rather than transcribed by hand; three
hand-checked relations act as the transcription audit in the tests.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import UnknownPresetError
from .geometry import Quadric, quadric_from_coeffs
from .liealg import BracketTable
from .ncalg import Generator, NcPoly
from .rewrite import Presentation

_CACHE: dict = {}


def _gens(names, labels=None, degrees=None):
    out = []
    for i, name in enumerate(names):
        lab = labels[i] if labels else None
        deg = degrees[i] if degrees else 1
        out.append(Generator(i, name, deg, lab))
    return tuple(out)


def _rel(pairs) -> NcPoly:
    return NcPoly({tuple(w): Fraction(c) for w, c in pairs})


# ----------------------------------------------------------------------
# presentations
# ----------------------------------------------------------------------

_Z2_EFHT = ((1,), (1,), (0,), (0,))
_Z2_EFH = ((1,), (1,), (0,))
_G_COLOR = ((1, 0), (0, 1), (1, 1), (0, 0))
_G_COLOR3 = ((1, 0), (0, 1), (1, 1))


def _sl2_A() -> Presentation:
    E, F, H, T = range(4)
    return Presentation(
        name="sl2_A",
        generators=_gens(["e", "f", "h", "t"]),
        relations=(
            _rel([((E, F), 1), ((F, E), -1), ((H, T), -1)]),
            _rel([((H, E), 1), ((E, H), -1), ((E, T), -2)]),
            _rel([((H, F), 1), ((F, H), -1), ((F, T), 2)]),
            _rel([((E, T), 1), ((T, E), -1)]),
            _rel([((F, T), 1), ((T, F), -1)]),
            _rel([((H, T), 1), ((T, H), -1)]),
        ),
        field_note="char 0",
    )


def _sl2_U() -> Presentation:
    E, F, H = range(3)
    return Presentation(
        name="sl2_U",
        generators=_gens(["e", "f", "h"]),
        relations=(
            _rel([((E, F), 1), ((F, E), -1), ((H,), -1)]),
            _rel([((H, E), 1), ((E, H), -1), ((E,), -2)]),
            _rel([((H, F), 1), ((F, H), -1), ((F,), 2)]),
        ),
        field_note="char 0",
    )


def _sl11_U() -> Presentation:
    E, F, H = range(3)
    return Presentation(
        name="sl11_U",
        generators=_gens(["e", "f", "h"], _Z2_EFH),
        relations=(
            _rel([((E, F), 1), ((F, E), 1), ((H,), -1)]),
            _rel([((H, E), 1), ((E, H), -1)]),
            _rel([((H, F), 1), ((F, H), -1)]),
            _rel([((E, E), 1)]),
            _rel([((F, F), 1)]),
        ),
        grading_group="Z2",
        field_note="char != 2",
    )


def _sl11_Uhat() -> Presentation:
    E, F, H = range(3)
    return Presentation(
        name="sl11_Uhat",
        generators=_gens(["e", "f", "h"], _Z2_EFH),
        relations=(
            _rel([((E, F), 1), ((F, E), 1), ((H,), -1)]),
            _rel([((H, E), 1), ((E, H), -1)]),
            _rel([((H, F), 1), ((F, H), -1)]),
        ),
        grading_group="Z2",
        field_note="char != 2",
    )


def _sl11_H() -> Presentation:
    E, F, H, T = range(4)
    return Presentation(
        name="sl11_H",
        generators=_gens(["e", "f", "h", "t"], _Z2_EFHT),
        relations=(
            _rel([((E, F), 1), ((F, E), 1), ((H, T), -1)]),
            _rel([((H, E), 1), ((E, H), -1)]),
            _rel([((H, F), 1), ((F, H), -1)]),
            _rel([((E, E), 1)]),
            _rel([((F, F), 1)]),
            _rel([((E, T), 1), ((T, E), -1)]),
            _rel([((F, T), 1), ((T, F), -1)]),
            _rel([((H, T), 1), ((T, H), -1)]),
        ),
        grading_group="Z2",
        field_note="char != 2",
    )


def _sl11_Hhat() -> Presentation:
    E, F, H, T = range(4)
    return Presentation(
        name="sl11_Hhat",
        generators=_gens(["e", "f", "h", "t"], _Z2_EFHT),
        relations=(
            _rel([((E, F), 1), ((F, E), 1), ((H, T), -1)]),
            _rel([((H, E), 1), ((E, H), -1)]),
            _rel([((H, F), 1), ((F, H), -1)]),
            _rel([((E, T), 1), ((T, E), -1)]),
            _rel([((F, T), 1), ((T, F), -1)]),
            _rel([((H, T), 1), ((T, H), -1)]),
        ),
        grading_group="Z2",
        field_note="char != 2",
    )


def _slc_U() -> Presentation:
    A1, A2, A3 = range(3)
    return Presentation(
        name="slc_U",
        generators=_gens(["a1", "a2", "a3"], _G_COLOR3),
        relations=(
            _rel([((A1, A2), 1), ((A2, A1), 1), ((A3,), -1)]),
            _rel([((A2, A3), 1), ((A3, A2), 1), ((A1,), -1)]),
            _rel([((A3, A1), 1), ((A1, A3), 1), ((A2,), -1)]),
        ),
        grading_group="Z2xZ2",
        field_note="char 0",
    )


def _slc_H() -> Presentation:
    A1, A2, A3, A4 = range(4)
    return Presentation(
        name="slc_H",
        generators=_gens(["a1", "a2", "a3", "a4"], _G_COLOR),
        relations=(
            _rel([((A1, A2), 1), ((A2, A1), 1), ((A3, A4), -1)]),
            _rel([((A2, A3), 1), ((A3, A2), 1), ((A1, A4), -1)]),
            _rel([((A3, A1), 1), ((A1, A3), 1), ((A2, A4), -1)]),
            _rel([((A1, A4), 1), ((A4, A1), -1)]),
            _rel([((A2, A4), 1), ((A4, A2), -1)]),
            _rel([((A3, A4), 1), ((A4, A3), -1)]),
        ),
        grading_group="Z2xZ2",
        field_note="char 0",
    )


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


def _sl21_Hhat() -> Presentation:
    """Homogenization of the superalgebra's enveloping algebra with the
    square relations of the odd generators deleted: one relation per
    unordered pair of the nine generators."""
    table, signs = sl21_structure()
    T = 8
    labels = tuple((0,) if i < 4 else (1,) for i in range(4 + 4)) + ((0,),)
    relations = []
    for i in range(8):
        for j in range(i + 1, 8):
            pairs = [((i, j), 1), ((j, i), -signs[i][j])]
            for k, c in enumerate(table[i][j]):
                if c:
                    pairs.append(((k, T), -c))
            relations.append(_rel(pairs))
    for i in range(8):
        relations.append(_rel([((i, T), 1), ((T, i), -1)]))
    return Presentation(
        name="sl21_Hhat",
        generators=_gens(list(_SL21_NAMES) + ["t"], labels),
        relations=tuple(relations),
        grading_group="Z2",
        field_note="char != 2",
    )


# ----------------------------------------------------------------------
# bracket tables
# ----------------------------------------------------------------------


def _sl2_table() -> BracketTable:
    z = (0, 0, 0)
    return BracketTable(
        name="sl2",
        kind="lie",
        basis_names=("e", "f", "h"),
        table=(
            (z, (0, 0, 1), (-2, 0, 0)),
            ((0, 0, -1), z, (0, 2, 0)),
            ((2, 0, 0), (0, -2, 0), z),
        ),
        signs=((1, 1, 1), (1, 1, 1), (1, 1, 1)),
        enveloping=preset("sl2_U"),
    )


def _sl11_table() -> BracketTable:
    z = (0, 0, 0)
    return BracketTable(
        name="sl11",
        kind="super",
        basis_names=("e", "f", "h"),
        table=(
            (z, (0, 0, 1), z),
            ((0, 0, 1), z, z),
            (z, z, z),
        ),
        signs=((-1, -1, 1), (-1, -1, 1), (1, 1, 1)),
        enveloping=preset("sl11_U"),
        grading_group="Z2",
        labels=_Z2_EFH,
    )


def _slc_table() -> BracketTable:
    z = (0, 0, 0)
    return BracketTable(
        name="slc",
        kind="color",
        basis_names=("a1", "a2", "a3"),
        table=(
            (z, (0, 0, 1), (0, 1, 0)),
            ((0, 0, 1), z, (1, 0, 0)),
            ((0, 1, 0), (1, 0, 0), z),
        ),
        signs=((1, -1, -1), (-1, 1, -1), (-1, -1, 1)),
        enveloping=preset("slc_U"),
        grading_group="Z2xZ2",
        labels=_G_COLOR3,
    )


def _sl21_table() -> BracketTable:
    table, signs = sl21_structure()
    return BracketTable(
        name="sl21",
        kind="super",
        basis_names=_SL21_NAMES,
        table=table,
        signs=signs,
        enveloping=preset("sl21_Hhat"),
        grading_group="Z2",
        labels=tuple((0,) if i < 4 else (1,) for i in range(8)),
    )


# ----------------------------------------------------------------------
# quadrics
# ----------------------------------------------------------------------


def sl2_pencil_quadric(delta) -> Quadric:
    """The quadric det + delta^2 t^2 in coordinates (e, f, h, t), where det
    is the determinant form -(h^2 + ef) of the 2x2 trace-zero model."""
    d = Fraction(delta)
    return quadric_from_coeffs({(0, 1): -1, (2, 2): -1, (3, 3): d * d})


def sl11_middle_quadric() -> Quadric:
    """The quadric ht - 2ef in coordinates (e, f, h, t) that carries the
    line-module lines not meeting V(h, t)."""
    return quadric_from_coeffs({(2, 3): 1, (0, 1): -2})


# ----------------------------------------------------------------------
# catalogue
# ----------------------------------------------------------------------

_BUILDERS = {
    "sl2_A": _sl2_A,
    "sl2_U": _sl2_U,
    "sl11_U": _sl11_U,
    "sl11_Uhat": _sl11_Uhat,
    "sl11_H": _sl11_H,
    "sl11_Hhat": _sl11_Hhat,
    "slc_U": _slc_U,
    "slc_H": _slc_H,
    "sl21_Hhat": _sl21_Hhat,
    "sl2_table": _sl2_table,
    "sl11_table": _sl11_table,
    "slc_table": _slc_table,
    "sl21_table": _sl21_table,
    "sl11_quadric": sl11_middle_quadric,
}

PRESET_NAMES = tuple(sorted(_BUILDERS))

PRESENTATION_NAMES = (
    "sl2_A", "sl2_U", "sl11_U", "sl11_Uhat", "sl11_H", "sl11_Hhat",
    "slc_U", "slc_H", "sl21_Hhat",
)


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
