import tracemalloc
from fractions import Fraction
from functools import lru_cache
from itertools import product
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from linemod.errors import InhomogeneousError, OracleCapError
from linemod import hilbert
from linemod.hilbert import (
    cyclic_module_model,
    filtered_cyclic_dims,
    filtered_model,
    hilbert_algebra,
    line_module_dims,
    normal_words_by_degree,
    oracle_degree_within_cap,
    oracle_graded_dims,
    word_counts,
    words_of_degree,
)
from linemod.dsl import parse_algebra, parse_expression
from linemod.liealg import Functional, SubalgebraSpec, shift_generators
from linemod.linalg import SparseEchelon
from linemod.modules import torsion_free_on
from linemod.ncalg import Generator, NcPoly, TermOrder
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
    assert list(hilbert_algebra(complete(free, max_degree=3), 3)) == [1, 4, 16, 64]


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


def test_two_routes_sl21(sl21_system, monkeypatch):
    monkeypatch.setenv("LINEMOD_ORACLE_CAP", "7000")
    added = []
    add = SparseEchelon.add
    monkeypatch.setattr(SparseEchelon, "add", lambda ech, row: added.append(row) or add(ech, row))
    rewrite = hilbert_algebra(sl21_system, 4)
    oracle = oracle_graded_dims(preset("sl21_Hhat"), 4)
    assert list(oracle) == list(rewrite)
    # the left shifts are the quotient V (x) A_{d-1} itself; 36 quadratic
    # relations at degree 2, their 36 * 9 right shifts at degree 3, and 9
    # right shifts of each of the 244 rows stored at degree 3
    assert len(added) == 36 + 324 + 2196


def test_oracle_reaches_sl21_degree_five(sl21_system, monkeypatch):
    monkeypatch.setenv("LINEMOD_ORACLE_CAP", "60000")
    oracle = oracle_graded_dims(preset("sl21_Hhat"), 5)
    assert list(oracle) == [1, 9, 45, 161, 459, 1113]
    assert list(oracle) == list(hilbert_algebra(sl21_system, 5))


def _naive_oracle(pres, max_degree):
    """Every row u*r*v, over all relations r and all word pairs (u, v) of
    complementary degree, over columns enumerated independently of
    ``words_of_degree``."""
    degrees = pres.z_degrees
    words = {d: [] for d in range(max_degree + 1)}
    for n in range(max_degree + 1):
        for w in product(range(len(degrees)), repeat=n):
            deg = sum(degrees[g] for g in w)
            if deg <= max_degree:
                words[deg].append(w)
    dims = []
    for d in range(max_degree + 1):
        pos = {w: i for i, w in enumerate(words[d])}
        ech = SparseEchelon()
        for rel in pres.relations:
            rel_deg = next(iter(rel.z_degrees(degrees)))
            for i in range(d - rel_deg + 1):
                for u, v in product(words[i], words[d - rel_deg - i]):
                    ech.add({pos[u + w + v]: c for w, c in rel.items()})
        dims.append(len(pos) - ech.rank)
    return dims


@st.composite
def _weighted_presentations(draw):
    """2-3 generators of degree 1 or 2 and 1-3 homogeneous relations of
    degree 2 or 3 each, so weighted degrees and cubic relations mix."""
    degrees = tuple(draw(st.lists(st.integers(1, 2), min_size=2, max_size=3)))
    n = len(degrees)
    coeff = st.integers(-2, 2)
    relations = []
    for _ in range(draw(st.integers(1, 3))):
        rel_deg = draw(st.integers(2, 3))
        words = [w for k in range(1, rel_deg + 1) for w in product(range(n), repeat=k)
                 if sum(degrees[g] for g in w) == rel_deg]
        terms = {w: c for w in words if (c := draw(coeff))}
        if terms:
            relations.append(NcPoly(terms))
    if not relations:
        relations.append(NcPoly({(0, 1): 1, (1, 0): -1}))
    gens = tuple(Generator(i, name, g) for i, (name, g) in enumerate(zip("xyz", degrees)))
    return Presentation(name="weighted", generators=gens, relations=tuple(relations))


@settings(max_examples=100, deadline=None)
@given(_weighted_presentations(), st.integers(2, 5))
def test_oracle_matches_all_rows_on_weighted_presentations(pres, bound):
    assert list(oracle_graded_dims(pres, bound)) == _naive_oracle(pres, bound)


@pytest.mark.parametrize("name, bound", [
    ("sl2_A", 4), ("sl11_H", 4), ("sl11_Hhat", 4), ("slc_H", 4), ("sl21_Hhat", 3),
])
def test_oracle_matches_all_rows_on_presets(name, bound):
    pres = preset(name)
    assert list(oracle_graded_dims(pres, bound)) == _naive_oracle(pres, bound)


@st.composite
def _rational_presentations(draw):
    """Weighted presentations as above, with rational coefficients whose
    denominators differ from relation to relation."""
    pres = draw(_weighted_presentations())
    coeff = st.sampled_from([Fraction(1, 2), Fraction(-2, 3), Fraction(3, 4), 1, -1])
    relations = tuple(NcPoly({w: c * draw(coeff) for w, c in rel.items()}) for rel in pres.relations)
    return Presentation(name="rational", generators=pres.generators, relations=relations)


@settings(max_examples=60, deadline=None)
@given(_rational_presentations(), st.integers(0, 5))
def test_oracle_matches_all_rows_with_rational_coefficients(pres, bound):
    assert list(oracle_graded_dims(pres, bound)) == _naive_oracle(pres, bound)


_QUOTIENT_CASES = {
    # rational coefficients, and a cubic relation next to a quadratic one
    "fractions": ("""algebra q {
  generators x y;
  relations { x*y - 1/2*y*x; 1/3*x*x*y - y*x*x; }
}""", None),
    # z has degree 3, above bounds 0-2; x*x*x - 2*z mixes word lengths
    "heavy": ("""algebra heavy {
  generators x y z;
  degree 1 1 3;
  relations { x*y - y*x; x*x*x - 2*z; y*z - 2/3*z*y; }
}""", None),
    # the exterior algebra on two generators, zero from degree 3 on
    "vanishing": ("""algebra ext {
  generators x y;
  relations { x*x; y*y; x*y + y*x; }
}""", [1, 2, 1, 0, 0]),
    # a nonzero constant relation: every graded piece is zero
    "constant": ("""algebra zero {
  generators x y;
  relations { 3; x*y - y*x; }
}""", [0, 0, 0, 0, 0]),
}


@pytest.mark.parametrize("bound", [0, 1, 2, 4])
@pytest.mark.parametrize("name", sorted(_QUOTIENT_CASES))
def test_oracle_matches_all_rows_on_quotient_edge_cases(name, bound):
    text, expected = _QUOTIENT_CASES[name]
    pres = parse_algebra(text)
    dims = list(oracle_graded_dims(pres, bound))
    assert dims == _naive_oracle(pres, bound)
    if expected:
        assert dims == expected[:bound + 1]


def test_oracle_memory_at_sl21_degree_five(monkeypatch):
    # the echelon of degree 5 has 9 * 459 columns, not one per each of the
    # 59 049 free words
    monkeypatch.setenv("LINEMOD_ORACLE_CAP", "60000")
    pres = preset("sl21_Hhat")
    tracemalloc.start()
    try:
        dims = oracle_graded_dims(pres, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dims == [1, 9, 45, 161, 459, 1113]
    assert peak < 5_000_000


def test_zero_relation_ideal_is_free():
    pres = preset("sl11_Hhat")
    # oracle on the free algebra piece: no relations of degree <= 1
    dims = oracle_graded_dims(pres, 1)
    assert list(dims) == [1, 4]


def test_inhomogeneous_rejected():
    with pytest.raises(InhomogeneousError):
        hilbert_algebra(complete(preset("sl11_U"), max_degree=3), 3)
    with pytest.raises(InhomogeneousError):
        oracle_graded_dims(preset("slc_U"), 3)


def test_oracle_cap(monkeypatch):
    monkeypatch.setenv("LINEMOD_ORACLE_CAP", "100")
    with pytest.raises(OracleCapError):
        oracle_graded_dims(preset("sl21_Hhat"), 5)


def test_filtered_model_cap_checked_on_every_call(monkeypatch):
    # sl2_U has 1 + 3 + 9 = 13 monomials up to filtration 2 and 121 up to 4;
    # a cached model must not let a call with a lower cap through
    pres = preset("sl2_U")
    message = "filtration 2 needs 13 monomials, above the cap 10"
    for warm in (False, True):
        hilbert._filtered_model.cache_clear()
        if warm:
            filtered_model(pres, 4)
        with monkeypatch.context() as env:
            env.setenv("LINEMOD_ORACLE_CAP", "10")
            with pytest.raises(OracleCapError, match=message):
                filtered_model(pres, 4)
    model = filtered_model(pres, 4)
    monkeypatch.setenv("LINEMOD_ORACLE_CAP", "121")
    assert filtered_model(pres, 4) is model


def test_normal_words_match_dims(hhat_system):
    words = normal_words_by_degree(hhat_system, 4)
    assert [len(words[d]) for d in range(5)] == [binom3(d) for d in range(5)]


def test_words_of_degree_order():
    assert words_of_degree((1, 1), 2) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert words_of_degree((1, 2), 3) == [(0, 0, 0), (0, 1), (1, 0)]


def test_word_counts_build_no_word_lists(monkeypatch):
    monkeypatch.delenv("LINEMOD_ORACLE_CAP", raising=False)
    # degree 4 of the nine-generator algebra has 6561 words, above the
    # default cap; the check counts them without listing them
    words_of_degree.cache_clear()
    assert oracle_degree_within_cap(preset("sl21_Hhat"), 4) == 3
    assert words_of_degree.cache_info().currsize == 0
    for degrees in ((1, 2), (1, 1, 1), (2, 3)):
        assert word_counts(degrees, 8) == [len(words_of_degree(degrees, d)) for d in range(9)]
    assert word_counts((1, 2), -1) == []


def test_cyclic_module_line(hhat_system):
    gens = (
        NcPoly({(2,): Fraction(1), (3,): Fraction(-1)}),
        NcPoly({(0,): Fraction(1), (1,): Fraction(1)}),
    )
    dims = cyclic_module_model(hhat_system, gens, 6).dims(6)
    assert dims == line_module_dims(6)


def test_cyclic_module_negative_control(hhat_system):
    dims = cyclic_module_model(hhat_system, (NcPoly.gen(0), NcPoly.gen(1)), 4).dims(4)
    assert list(dims)[:3] == [1, 2, 2]


def test_cyclic_module_no_generators(hhat_system):
    dims = hilbert_algebra(hhat_system, 4)
    assert list(dims) == [binom3(d) for d in range(5)]


def test_cyclic_dims_never_exceed_algebra(hhat_system):
    algebra = hilbert_algebra(hhat_system, 6)
    gens = (NcPoly.gen(2), NcPoly.gen(0))
    module = cyclic_module_model(hhat_system, gens, 6).dims(6)
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


def test_hilbert_independent_of_order():
    from linemod.ncalg import TermOrder

    pres = preset("sl11_Hhat")
    reversed_order = TermOrder.from_precedence(pres.z_degrees, (3, 2, 1, 0))
    system = complete(pres, order=reversed_order, max_degree=6)
    assert list(hilbert_algebra(system, 6)) == [binom3(d) for d in range(7)]


def _relabel(pres, perm):
    """The same algebra with generator i moved to index perm[i]."""
    gens = sorted((Generator(perm[g.index], g.name, g.z_degree, g.group_label)
                   for g in pres.generators), key=lambda g: g.index)
    rels = tuple(NcPoly({tuple(perm[x] for x in w): c for w, c in r.items()})
                 for r in pres.relations)
    return Presentation(pres.name, tuple(gens), rels, pres.grading_group)


@lru_cache(maxsize=None)
def _both_routes(pres, bound):
    return (list(hilbert_algebra(complete(pres, max_degree=bound), bound)),
            list(oracle_graded_dims(pres, bound)))


def _nontrivial_permutations(n):
    return st.permutations(range(n)).filter(lambda p: list(p) != sorted(p))


@pytest.mark.parametrize("name, bound", [
    ("sl2_A", 5), ("sl11_H", 5), ("sl11_Hhat", 5), ("slc_H", 5), ("sl21_Hhat", 3),
])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_relabelled_generators_keep_both_routes(name, bound, data):
    # relabelling changes the default term order, hence the completion the
    # rewrite route counts on, and the column order of the oracle's echelon
    pres = preset(name)
    perm = data.draw(_nontrivial_permutations(len(pres.generators)))
    rewrite, oracle = _both_routes(pres, bound)
    relabelled = _relabel(pres, perm)
    assert list(hilbert_algebra(complete(relabelled, max_degree=bound), bound)) == rewrite
    assert list(oracle_graded_dims(relabelled, bound)) == oracle
    assert rewrite == oracle


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
    base = cyclic_module_model(hhat_system, (g1, g2), 5).dims(5)
    rng = Random(31)
    for _ in range(10):
        while True:
            a, b, c, d = (rng.randint(-4, 4) for _ in range(4))
            if a * d - b * c != 0:
                break
        mixed = (g1.scale(a) + g2.scale(b), g1.scale(c) + g2.scale(d))
        assert cyclic_module_model(hhat_system, mixed, 5).dims(5) == base


# skew polynomial ring: its completed rules have non-integral right-hand
# sides (x*y -> 3/2 y*x), so the memo holds Fractions
_SKEW = """algebra skew {
  generators x y z;
  relations { 2*x*y - 3*y*x; x*z - z*x; 2*y*z - 5*z*y; }
}"""
_SCALED_CASES = {
    "slc_H": ("a1 - 1/2*a4", "a2 + a3"),
    "sl2_A": ("e", "h - 2*t"),
    "skew": ("x - 1/2*z", "2/3*y"),
}


@lru_cache(maxsize=None)
def _scaled_case(name):
    """The completed system, the generators and their cyclic model to
    degree 5."""
    pres = parse_algebra(_SKEW) if name == "skew" else preset(name)
    system = complete(pres, max_degree=5)
    gens = tuple(parse_expression(g, pres) for g in _SCALED_CASES[name])
    return system, gens, cyclic_module_model(system, gens, 5)


_NONZERO_RATIONALS = st.fractions(min_value=-20, max_value=20, max_denominator=12).filter(bool)


@pytest.mark.parametrize("name", sorted(_SCALED_CASES))
@settings(max_examples=25, deadline=None)
@given(scales=st.tuples(_NONZERO_RATIONALS, _NONZERO_RATIONALS))
def test_scaled_generators_keep_the_cyclic_model(name, scales):
    # a generator enters the completion as its primitive integer multiple,
    # so any rational multiple of it gives the same leading words, the same
    # basis elements and the same module basis
    system, gens, base = _scaled_case(name)
    scaled = tuple(g.scale(s) for g, s in zip(gens, scales))
    model = cyclic_module_model(system, scaled, 5)
    assert model.dims(5) == base.dims(5)
    assert model.leads == base.leads
    assert model.basis == base.basis


def test_skew_case_memo_holds_fractions():
    system, _, base = _scaled_case("skew")
    assert base.dims(5) == [1, 1, 1, 1, 1, 1]
    coeffs = [c for entry in system._products._table.values() for c in entry[1::2]]
    assert any(type(c) is Fraction for c in coeffs)


def test_integral_memo_after_a_model_build(color_system):
    # rational generators over integer structure constants: the memo and
    # every basis element of the left ideal are int-valued
    pres = color_system.presentation
    gens = tuple(parse_expression(g, pres) for g in ("a1 - 1/2*a4", "a2 + a3 + 5/3*a4"))
    model = cyclic_module_model(color_system, gens, 6)
    assert model.dims(6) == line_module_dims(6)
    table = color_system._products._table
    assert table and all(type(c) is int for entry in table.values() for c in entry[1::2])
    assert all(type(c) is int for g in model.leads.values() for c in g.values())


# ----------------------------------------------------------------------
# the cyclic model against the all-rows echelon it replaced
# ----------------------------------------------------------------------


def _reference_cyclic(system, generators, max_degree):
    """The cyclic module by row reduction: per degree d, every row NF(b g)
    for a generator g and a normal word b of degree d - deg g, over the
    normal words of degree d.  Returns ``(dims, torsion_free)``, where
    ``torsion_free(x)`` decides whether left multiplication by the letter x
    is injective from each degree below the bound to the next."""
    degrees = system.presentation.z_degrees
    basis = normal_words_by_degree(system, max_degree)
    positions = [{w: i for i, w in enumerate(basis[d])} for d in range(max_degree + 1)]
    ideal = [SparseEchelon() for _ in range(max_degree + 1)]
    for g in generators:
        g_deg = next(iter(g.z_degrees(degrees)))
        for d in range(g_deg, max_degree + 1):
            for b in basis[d - g_deg]:
                ideal[d].add({positions[d][w]: c for w, c in system.right_multiply(b, g).items()})
    dims = [len(basis[d]) - ideal[d].rank for d in range(max_degree + 1)]

    def torsion_free(x):
        # the images x*b of all of A_d span x*M_d modulo L_{d+1}
        for d in range(max_degree):
            ech = ideal[d + 1].copy()
            added = sum(
                ech.add({positions[d + 1][w]: c
                         for w, c in system.right_multiply((), {(x,) + b: 1}).items()}) is not None
                for b in basis[d])
            if added != dims[d]:
                return False
        return True

    return dims, torsion_free


def _check_against_reference(system, generators, bound):
    """Dims, and torsion of every letter of degree one, agree with the
    all-rows echelon."""
    model = cyclic_module_model(system, generators, bound)
    dims, torsion_free = _reference_cyclic(system, generators, bound)
    assert model.dims(bound) == dims
    # torsion_free_on reads only the spec's system and model, and takes a
    # letter of degree one
    spec = SimpleNamespace(system=system, model=lambda _: model)
    pres = system.presentation
    for x, name in enumerate(pres.generator_names()):
        if pres.z_degrees[x] == 1:
            assert torsion_free_on(spec, name, bound) == torsion_free(x), name


def _random_element(draw, degrees, top):
    """A nonzero homogeneous element of some degree 1..top that has words,
    with small integer coefficients."""
    deg = draw(st.sampled_from([d for d in range(1, top + 1) if words_of_degree(degrees, d)]))
    words = words_of_degree(degrees, deg)
    support = draw(st.lists(st.sampled_from(words), min_size=1, max_size=3, unique=True))
    coeffs = draw(st.lists(st.integers(-3, 3).filter(bool),
                           min_size=len(support), max_size=len(support)))
    return NcPoly(dict(zip(support, coeffs)))


@settings(max_examples=60, deadline=None)
@given(_weighted_presentations(), st.data())
def test_cyclic_model_matches_all_rows_on_weighted_presentations(pres, data):
    degrees = pres.z_degrees
    precedence = tuple(data.draw(st.permutations(range(len(degrees)))))
    system = complete(pres, TermOrder.from_precedence(degrees, precedence), max_degree=5)
    gens = tuple(_random_element(data.draw, degrees, 3)
                 for _ in range(data.draw(st.integers(1, 3))))
    _check_against_reference(system, gens, 5)


@lru_cache(maxsize=None)
def _preset_system(name, bound):
    return complete(preset(name), max_degree=bound)


@pytest.mark.parametrize("name, bound", [
    ("sl2_A", 4), ("sl11_H", 4), ("sl11_Hhat", 4), ("slc_H", 4), ("sl21_Hhat", 3),
])
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_cyclic_model_matches_all_rows_on_presets(name, bound, data):
    system = _preset_system(name, bound)
    degrees = system.presentation.z_degrees
    gens = tuple(_random_element(data.draw, degrees, 2)
                 for _ in range(data.draw(st.integers(1, 3))))
    _check_against_reference(system, gens, bound)


@pytest.mark.parametrize("gens", [("1",), ("e", "1")])
def test_a_constant_generator_kills_the_module(a_system, gens):
    # NF(1) = 1 has the empty leading word, a suffix of every word
    pres = a_system.presentation
    model = cyclic_module_model(a_system, tuple(parse_expression(g, pres) for g in gens), 4)
    assert list(model.leads) == [()]
    assert model.dims(4) == [0, 0, 0, 0, 0]


def test_a_generator_in_the_two_sided_ideal_leaves_the_algebra(a_system):
    relation = a_system.presentation.relations[0]
    model = cyclic_module_model(a_system, (relation,), 4)
    assert model.leads == {}
    assert model.dims(4) == hilbert_algebra(a_system, 4)


# ----------------------------------------------------------------------
# the early-exit properness test against the full filtered echelon
# ----------------------------------------------------------------------


def _reference_words(model):
    """The free words of level <= max_degree, listed by brute force and
    sorted by decreasing level and then lexicographically: the word at
    each column of the model."""
    degrees = model.presentation.z_degrees
    words = [w for n in range(model.max_degree + 1)
             for w in product(range(len(degrees)), repeat=n)
             if sum(degrees[g] for g in w) <= model.max_degree]
    return sorted(words, key=lambda w: (-sum(degrees[g] for g in w), w))


def _old_order_echelon(model, shifts, column):
    """The ideal echelon built generator by generator: all rows of one
    shift generator before any row of the next, another insertion order
    for the same row space."""
    degrees = model.presentation.z_degrees
    ech = model.base.copy()
    for s in shifts:
        if s.is_zero():
            continue
        s_deg = max(sum(degrees[g] for g in w) for w in s.support())
        for i in range(model.max_degree - s_deg + 1):
            for u in words_of_degree(degrees, i):
                ech.add({column[u + w]: c for w, c in s.items()})
    return ech


def _check_filtered_routes(model, shifts):
    degrees = model.presentation.z_degrees
    words = _reference_words(model)
    column = {w: c for c, w in enumerate(words)}
    assert model.column == column
    dims = filtered_cyclic_dims(model.presentation, shifts, model.max_degree)
    assert model.is_proper(shifts) == (dims[0] == 1)
    old = _old_order_echelon(model, shifts, column)
    assert set(model.ideal_echelon(shifts).pivot_columns()) == set(old.pivot_columns())
    word_level = {w: sum(degrees[g] for g in w) for w in words}
    levels = [word_level[words[c]] for c in old.pivot_columns()]
    assert list(dims) == [
        sum(1 for lv in word_level.values() if lv <= i) - sum(1 for lv in levels if lv <= i)
        for i in range(model.max_degree + 1)
    ]
    return dims


_small = st.fractions(min_value=-5, max_value=5, max_denominator=4)


@st.composite
def _pairs(draw):
    """(table, enveloping presentation, S, phi) with admissible functionals
    drawn on purpose: phi(e) = 0 on the sl2 Borel planes, lambda =
    gamma^2/(alpha beta) for sl11, phi(a_i) = mu/2 or phi(a_j + mu a_k) = 0
    for slc; each one otherwise free.  The basis of S is then mixed."""
    env = draw(st.sampled_from(["sl2_U", "sl11_U", "sl11_Uhat", "slc_U"]))
    admissible = draw(st.booleans())
    if env == "sl2_U":
        table = preset("sl2_table")
        s = draw(_small)
        v1, v2 = (0, -2 * s, 1), (1, -s * s, s)      # [v1, v2] = 2 v2
        phi = (draw(_small), 0 if admissible else draw(_small))
    elif env.startswith("sl11"):
        table = preset("sl11_table")
        alpha, beta, gamma = draw(_small), draw(_small), draw(_small)
        if not alpha and not beta:
            alpha = Fraction(1)
        if admissible and alpha * beta:
            lam = gamma * gamma / (alpha * beta)
        else:
            lam = draw(_small)
            if admissible:
                gamma = Fraction(0)
        v1, v2 = (0, 0, 1), (alpha, beta, 0)
        phi = (lam, gamma)
    else:
        table = preset("slc_table")
        i = draw(st.integers(0, 2))
        j, k = [m for m in range(3) if m != i]
        mu = draw(st.sampled_from([1, -1]))
        v1 = tuple(1 if m == i else 0 for m in range(3))
        v2 = tuple(1 if m == j else mu if m == k else 0 for m in range(3))
        phi = (draw(_small), draw(_small))
        if admissible:
            phi = draw(st.sampled_from([(phi[0], 0), (Fraction(mu, 2), phi[1])]))
    a, b, c, d = (draw(st.integers(-3, 3)) for _ in range(4))
    if a * d == b * c:
        a, b, c, d = 1, 0, 0, 1
    S = SubalgebraSpec(tuple(a * x + b * y for x, y in zip(v1, v2)),
                       tuple(c * x + d * y for x, y in zip(v1, v2)))
    mixed = Functional(a * phi[0] + b * phi[1], c * phi[0] + d * phi[1])
    return table, preset(env), S, mixed


@settings(max_examples=100, deadline=None)
@given(_pairs(), st.integers(2, 4))
def test_is_proper_matches_filtered_dims_on_enveloping_algebras(drawn, bound):
    table, env, S, phi = drawn
    _check_filtered_routes(filtered_model(env, bound), shift_generators(S, phi, NcPoly.one()))


@pytest.mark.parametrize("env,table,sub,admissible,inadmissible", [
    ("sl2_U", "sl2_table", ((0, 0, 1), (1, 0, 0)), (3, 0), (3, 1)),
    ("sl11_U", "sl11_table", ((0, 0, 1), (1, 1, 0)), (4, 2), (1, 0)),
    ("sl11_Uhat", "sl11_table", ((0, 0, 1), (1, 1, 0)), (4, 2), None),
    ("slc_U", "slc_table", ((0, 0, 1), (1, 1, 0)), (Fraction(1, 2), 7), (0, 1)),
])
def test_is_proper_gives_both_answers(env, table, sub, admissible, inadmissible):
    model = filtered_model(preset(env), 4)
    S = SubalgebraSpec(*sub)
    shifts = shift_generators(S, Functional(*admissible), NcPoly.one())
    assert model.is_proper(shifts)
    assert _check_filtered_routes(model, shifts)[0] == 1
    if inadmissible is not None:
        shifts = shift_generators(S, Functional(*inadmissible), NcPoly.one())
        assert not model.is_proper(shifts)
        assert _check_filtered_routes(model, shifts)[0] == 0


@st.composite
def _filtered_presentations(draw):
    """2-3 generators, 1-3 relations with quadratic, linear and constant
    terms (so the two-sided ideal itself often spans 1), and 0-2 shift
    generators of degree at most one."""
    n = draw(st.integers(2, 3))
    coeff = st.integers(-2, 2)
    words = list(product(range(n), repeat=2)) + [(g,) for g in range(n)] + [()]
    relations = []
    for _ in range(draw(st.integers(1, 3))):
        terms = {w: c for w in words if (c := draw(coeff))}
        if any(len(w) == 2 for w in terms):
            relations.append(NcPoly(terms))
    if not relations:
        relations.append(NcPoly({(0, 1): 1, (1, 0): -1, (): 1}))
    gens = tuple(Generator(i, name) for i, name in enumerate("xyz"[:n]))
    pres = Presentation(name="fuzz", generators=gens, relations=tuple(relations))
    shifts = []
    for _ in range(draw(st.integers(0, 2))):
        terms = {w: c for w in [(g,) for g in range(n)] + [()] if (c := draw(coeff))}
        shifts.append(NcPoly(terms))
    return pres, tuple(shifts)


@settings(max_examples=100, deadline=None)
@given(_filtered_presentations(), st.integers(2, 4))
def test_is_proper_matches_filtered_dims_on_random_presentations(drawn, bound):
    pres, shifts = drawn
    _check_filtered_routes(filtered_model(pres, bound), shifts)


def test_is_proper_when_the_relations_alone_span_one():
    # x*y = 1 and y*x = 0: x*y*x is both x and 0, so x lies in the ideal
    # and so does x*y = 1, inside filtration level 4
    x_y = Presentation(
        name="collapse",
        generators=(Generator(0, "x"), Generator(1, "y")),
        relations=(NcPoly({(0, 1): 1, (): -1}), NcPoly({(1, 0): 1})),
    )
    assert _check_filtered_routes(filtered_model(x_y, 3), ())[0] == 1
    assert _check_filtered_routes(filtered_model(x_y, 4), ())[0] == 0


def test_filtered_model_with_an_empty_level():
    # the Weyl algebra x*y - y*x = 1 with x and y of degree 2: levels 1 and
    # 3 hold no words, and U/Uy is k[x], one x^k in each even level
    weyl = Presentation(
        name="weyl2",
        generators=(Generator(0, "x", 2), Generator(1, "y", 2)),
        relations=(NcPoly({(0, 1): 1, (1, 0): -1, (): -1}),),
    )
    model = filtered_model(weyl, 4)
    assert model.level_start == [6, 6, 4, 4, 0]
    assert len(model.column) == 7 and model.column[()] == 6
    y = NcPoly.gen(1)
    assert _check_filtered_routes(model, (y,)) == [1, 1, 2, 2, 3]
    assert _check_filtered_routes(model, ()) == [1, 1, 3, 3, 6]
    ideal = model.ideal_echelon((y,))
    assert ideal.contains({model.column[(0, 1)]: 1})
    assert not ideal.contains({model.column[(0,)]: 1})
