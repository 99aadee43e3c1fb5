import hashlib
from fractions import Fraction
from pathlib import Path

import pytest

from linemod.dsl import format_poly
from linemod.errors import UnknownPresetError
from linemod.liealg import table_consistent_with_presentation
from linemod.ncalg import NcPoly
from linemod.presets import PRESENTATION_NAMES, preset, sl21_structure, sl2_pencil_quadric
from linemod.rewrite import complete

DATA = Path(__file__).parent / "data"

EXPECTED_RELATION_COUNTS = {
    "sl2_A": 6,
    "sl2_U": 3,
    "sl11_U": 5,
    "sl11_Uhat": 3,
    "sl11_H": 8,
    "sl11_Hhat": 6,
    "slc_U": 3,
    "slc_H": 6,
    "sl21_Hhat": 36,
}


def test_relation_counts():
    for name, count in EXPECTED_RELATION_COUNTS.items():
        assert len(preset(name).relations) == count, name


def test_unknown_preset():
    with pytest.raises(UnknownPresetError):
        preset("nope")


def test_hhat_contains_main_relation():
    p = preset("sl11_Hhat")
    rel = NcPoly({(0, 1): 1, (1, 0): 1, (2, 3): -1})
    assert rel in p.relations


def test_sl2_contains_main_relations():
    # typed from the paper, not from the bracket table: [h, e] = 2e, [e, f] = h
    a = preset("sl2_A")
    assert NcPoly({(2, 0): 1, (0, 2): -1, (0, 3): -2}) in a.relations
    assert NcPoly({(0, 1): 1, (1, 0): -1, (2, 3): -1}) in a.relations
    u = preset("sl2_U")
    assert NcPoly({(0, 1): 1, (1, 0): -1, (2,): -1}) in u.relations


def test_color_h_contains_main_relation():
    p = preset("slc_H")
    rel = NcPoly({(0, 1): 1, (1, 0): 1, (2, 3): -1})
    assert rel in p.relations
    central = NcPoly({(0, 3): 1, (3, 0): -1})
    assert central in p.relations


def _up_to_scale(a, b):
    if a.support() != b.support():
        return False
    w = next(iter(a.support()))
    return b == a.scale(b.coeff(w) / a.coeff(w))


def test_sl21_quoted_relations():
    p = preset("sl21_Hhat")
    quoted = [
        NcPoly({(2, 4): Fraction(1), (4, 2): Fraction(-1)}),
        NcPoly({(4, 6): Fraction(1), (6, 4): Fraction(1)}),
        NcPoly({(2, 6): Fraction(1), (6, 2): Fraction(-1), (4, 8): Fraction(-1)}),
    ]
    for q in quoted:
        assert any(_up_to_scale(q, r) for r in p.relations)


def test_sl21_square_relations_deleted():
    p = preset("sl21_Hhat")
    for i in range(4, 8):
        square = NcPoly.monomial((i, i))
        assert not any(_up_to_scale(square, r) for r in p.relations)


def test_sl21_golden_relations():
    p = preset("sl21_Hhat")
    names = p.generator_names()
    order = p.default_order()
    rendered = [format_poly(r, names, order) for r in p.relations]
    golden = (DATA / "sl21_relations.txt").read_text().splitlines()
    assert rendered == golden


def test_sl21_grading():
    p = preset("sl21_Hhat")
    labels = p.group_labels()
    assert labels[:4] == ((0,),) * 4
    assert labels[4:8] == ((1,),) * 4
    assert labels[8] == (0,)


def test_tables_match_presentations(sl21_system):
    for table_name in ("sl2_table", "sl11_table", "slc_table"):
        T = preset(table_name)
        assert table_consistent_with_presentation(T, complete(T.enveloping, max_degree=4))
    assert table_consistent_with_presentation(
        preset("sl21_table"), system=sl21_system, strict_pairs=True
    )


def test_sl21_table_values():
    table = preset("sl21_table")
    # <x3, x4> = x1 - x2 and <y1, y2> = x1 from the matrix model
    assert table.table[2][3] == (1, -1, 0, 0, 0, 0, 0, 0)
    assert table.table[4][5] == (1, 0, 0, 0, 0, 0, 0, 0)


def test_pencil_quadric():
    q = sl2_pencil_quadric(Fraction(3))
    assert q.den == 2
    assert Fraction(q.ints[3][3], q.den) == 9
    assert Fraction(q.ints[0][1], q.den) == Fraction(-1, 2)
    assert Fraction(q.ints[2][2], q.den) == -1


def test_presentation_names_all_load():
    for name in PRESENTATION_NAMES:
        p = preset(name)
        assert p.name == name


def _fraction_sl21_structure():
    """Reference: supercommutators of the eight basis matrices computed
    directly on 3x3 Fraction matrices."""
    def unit(i, j):
        return [[Fraction(int((r, c) == (i, j))) for c in range(3)] for r in range(3)]

    def plus(A, B, s=1):
        return [[A[r][c] + s * B[r][c] for c in range(3)] for r in range(3)]

    def times(A, B):
        return [[sum(A[r][m] * B[m][c] for m in range(3)) for c in range(3)] for r in range(3)]

    basis = [plus(unit(0, 0), unit(2, 2)), plus(unit(1, 1), unit(2, 2)), unit(0, 1), unit(1, 0),
             unit(0, 2), unit(2, 0), unit(1, 2), unit(2, 1)]
    coords = ((0, 0), (1, 1), (0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1))
    table, signs = [], []
    for i in range(8):
        signs.append(tuple(-1 if i >= 4 and j >= 4 else 1 for j in range(8)))
        row = []
        for j in range(8):
            M = plus(times(basis[i], basis[j]), times(basis[j], basis[i]), -signs[i][j])
            row.append(tuple(M[r][c] for r, c in coords))
        table.append(tuple(row))
    return tuple(table), tuple(signs)


def test_sl21_structure_matches_fraction_matrices():
    table, signs = sl21_structure()
    assert (table, signs) == _fraction_sl21_structure()
    assert all(type(v) is Fraction for row in table for entry in row for v in entry)
    assert all(type(s) is int for row in signs for s in row)
    # SHA-256 of the reprs, which spell out every value's type
    assert hashlib.sha256(repr((table, signs)).encode()).hexdigest() == (
        "e66a9a9ed955c261529f0f859e539cd60167db3823180fd929829b0db5e815ea")
    relations = repr([sorted(r.items()) for r in preset("sl21_Hhat").relations])
    assert hashlib.sha256(relations.encode()).hexdigest() == (
        "218e50954f4543d1f4f12ea43bcaf17ca5ae28459cc4c1440890b17359872f47")
