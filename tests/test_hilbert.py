from fractions import Fraction

import pytest

from linemod.errors import InhomogeneousError, OracleCapError
from linemod import hilbert
from linemod.hilbert import (
    HilbertFunction,
    filtered_cyclic_dims,
    filtered_model,
    hilbert_algebra,
    hilbert_cyclic_left_module,
    line_module_dims,
    normal_words_by_degree,
    oracle_graded_dims,
    words_of_degree,
)
from linemod.ncalg import Generator, NcPoly
from linemod.presets import preset
from linemod.rewrite import Presentation, complete


def binom3(d):
    return (d + 1) * (d + 2) * (d + 3) // 6


def test_free_algebra_counts():
    free = Presentation(
        name="free4",
        generators=tuple(Generator(i, n) for i, n in enumerate("abcd")),
        relations=(),
    )
    assert list(oracle_graded_dims(free, 3)) == [1, 4, 16, 64]
    assert list(hilbert_algebra(free, 3)) == [1, 4, 16, 64]
    assert list(hilbert_cyclic_left_module(complete(free, max_degree=3), (), 3)) == [1, 4, 16, 64]


def test_two_routes_hhat(hhat_system):
    rewrite = hilbert_algebra(hhat_system, 8)
    assert list(rewrite) == [binom3(d) for d in range(9)]
    oracle = oracle_graded_dims(preset("sl11_Hhat"), 5)
    assert list(oracle) == list(rewrite)[:6]


def test_two_routes_h(h_system):
    rewrite = hilbert_algebra(h_system, 8)
    assert list(rewrite) == [1] + [4 * d for d in range(1, 9)]
    oracle = oracle_graded_dims(preset("sl11_H"), 5)
    assert list(oracle) == [1, 4, 8, 12, 16, 20]


def test_two_routes_color(color_system):
    rewrite = hilbert_algebra(color_system, 8)
    assert list(rewrite) == [binom3(d) for d in range(9)]
    oracle = oracle_graded_dims(preset("slc_H"), 5)
    assert list(oracle) == list(rewrite)[:6]


def test_two_routes_sl2(a_system):
    rewrite = hilbert_algebra(a_system, 8)
    oracle = oracle_graded_dims(preset("sl2_A"), 5)
    assert list(oracle) == list(rewrite)[:6]


def test_two_routes_sl21(sl21_system):
    rewrite = hilbert_algebra(sl21_system, 4)
    oracle = oracle_graded_dims(preset("sl21_Hhat"), 4, cap=7000)
    assert list(oracle) == list(rewrite)


def test_zero_relation_ideal_is_free():
    pres = preset("sl11_Hhat")
    # oracle on the free algebra piece: no relations of degree <= 1
    dims = oracle_graded_dims(pres, 1)
    assert list(dims) == [1, 4]


def test_inhomogeneous_rejected():
    with pytest.raises(InhomogeneousError):
        hilbert_algebra(preset("sl11_U"), 3)
    with pytest.raises(InhomogeneousError):
        oracle_graded_dims(preset("slc_U"), 3)


def test_oracle_cap():
    with pytest.raises(OracleCapError):
        oracle_graded_dims(preset("sl21_Hhat"), 5, cap=100)


def test_filtered_model_cap_checked_on_every_call(monkeypatch):
    # sl2_U has 1 + 3 + 9 = 13 monomials up to filtration 2 and 121 up to 4;
    # a cached model must not let a call with a lower cap through
    pres = preset("sl2_U")
    message = "filtration 2 needs 13 monomials, above the cap 10"
    for warm in (False, True):
        hilbert._filtered_model.cache_clear()
        if warm:
            filtered_model(pres, 4)
        with pytest.raises(OracleCapError, match=message):
            filtered_model(pres, 4, cap=10)
        with monkeypatch.context() as env:
            env.setenv("LINEMOD_ORACLE_CAP", "10")
            with pytest.raises(OracleCapError, match=message):
                filtered_model(pres, 4)
    assert filtered_model(pres, 4) is filtered_model(pres, 4, cap=121)


def test_normal_words_match_dims(hhat_system):
    words = normal_words_by_degree(hhat_system, 4)
    assert [len(words[d]) for d in range(5)] == [binom3(d) for d in range(5)]


def test_words_of_degree_order():
    assert words_of_degree((1, 1), 2) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_cyclic_module_line(hhat_system):
    gens = (
        NcPoly({(2,): Fraction(1), (3,): Fraction(-1)}),
        NcPoly({(0,): Fraction(1), (1,): Fraction(1)}),
    )
    dims = hilbert_cyclic_left_module(hhat_system, gens, 6)
    assert dims == line_module_dims(6)


def test_cyclic_module_negative_control(hhat_system):
    dims = hilbert_cyclic_left_module(hhat_system, (NcPoly.gen(0), NcPoly.gen(1)), 4)
    assert list(dims)[:3] == [1, 2, 2]


def test_cyclic_module_no_generators(hhat_system):
    dims = hilbert_cyclic_left_module(hhat_system, (), 4)
    assert list(dims) == [binom3(d) for d in range(5)]


def test_cyclic_dims_never_exceed_algebra(hhat_system):
    algebra = hilbert_algebra(hhat_system, 6)
    gens = (NcPoly.gen(2), NcPoly.gen(0))
    module = hilbert_cyclic_left_module(hhat_system, gens, 6)
    assert all(m <= a for m, a in zip(module, algebra))


def test_filtered_dims_uhat():
    dims = filtered_cyclic_dims(preset("sl11_Uhat"), (), 5)
    assert list(dims) == [binom3(i) for i in range(6)]


def test_filtered_dims_with_squares():
    dims = filtered_cyclic_dims(preset("sl11_U"), (), 5)
    assert list(dims) == [1, 4, 8, 12, 16, 20]


def test_filtered_quotient_collapse():
    # an inadmissible shift forces 1 into the ideal
    shifts = (
        NcPoly({(2,): Fraction(1), (): Fraction(-1)}),
        NcPoly({(0,): Fraction(1), (1,): Fraction(1)}),
    )
    dims = filtered_cyclic_dims(preset("sl11_U"), shifts, 4)
    assert list(dims) == [0, 0, 0, 0, 0]


def test_hilbert_function_equality():
    hf = HilbertFunction((1, 2, 3))
    assert hf == [1, 2, 3]
    assert hf.truncate(1) == (1, 2)
    assert hf[2] == 3


def test_hilbert_independent_of_order():
    from linemod.ncalg import TermOrder

    pres = preset("sl11_Hhat")
    reversed_order = TermOrder.from_precedence(pres.z_degrees, (3, 2, 1, 0))
    system = complete(pres, order=reversed_order, max_degree=6)
    assert list(hilbert_algebra(system, 6)) == [binom3(d) for d in range(7)]


def test_filtered_two_routes_agree():
    # filtered dimensions via completed rewrite systems (normal words of
    # degree <= i form a filtered basis) against the free-algebra span model
    for name in ("sl11_U", "sl11_Uhat", "slc_U", "sl2_U"):
        pres = preset(name)
        system = complete(pres, max_degree=5)
        words = normal_words_by_degree(system, 5)
        cumulative = [sum(len(words[e]) for e in range(i + 1)) for i in range(6)]
        assert list(filtered_cyclic_dims(pres, (), 5)) == cumulative, name


def test_cyclic_dims_generator_basis_invariant(hhat_system):
    from random import Random

    g1 = NcPoly({(2,): Fraction(1), (3,): Fraction(-2)})
    g2 = NcPoly({(0,): Fraction(1), (1,): Fraction(3), (3,): Fraction(-1)})
    base = hilbert_cyclic_left_module(hhat_system, (g1, g2), 5)
    rng = Random(31)
    for _ in range(10):
        while True:
            a, b, c, d = (rng.randint(-4, 4) for _ in range(4))
            if a * d - b * c != 0:
                break
        mixed = (g1.scale(a) + g2.scale(b), g1.scale(c) + g2.scale(d))
        assert hilbert_cyclic_left_module(hhat_system, mixed, 5) == base
