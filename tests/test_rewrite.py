from fractions import Fraction
from functools import lru_cache
from itertools import product
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from linemod import rewrite
from linemod.errors import DegenerateRelationError, OutOfCertifiedRangeError
from linemod.hilbert import (
    hilbert_algebra,
    normal_word_counts,
    normal_words_by_degree,
    oracle_graded_dims,
    words_of_degree,
)
from linemod.ncalg import Generator, NcPoly, TermOrder
from linemod.presets import PRESENTATION_NAMES, preset
from linemod.rewrite import (
    Presentation,
    RewriteSystem,
    Rule,
    complete,
    confluence_certificate,
    normal_form,
    replay_trace,
)


def _pres(name, names, relations, **kw):
    gens = tuple(Generator(i, n) for i, n in enumerate(names))
    return Presentation(name=name, generators=gens, relations=relations, **kw)


def test_commutative_pair():
    rel = NcPoly({(0, 1): 1, (1, 0): -1})
    system = complete(_pres("kxy", ["x", "y"], (rel,)), max_degree=4)
    assert len(system.rules) == 1
    assert system.rules[0].lhs == (0, 1)
    assert system.rules[0].rhs == NcPoly.monomial((1, 0))
    assert system.confluent_up_to == 4
    assert confluence_certificate(system)


def test_hhat_completion_needs_no_new_rules(hhat_system):
    assert len(hhat_system.rules) == 6
    assert confluence_certificate(hhat_system)
    assert not hhat_system.discarded_above_bound


def test_relations_reduce_to_zero(hhat_system):
    for rel in hhat_system.presentation.relations:
        assert normal_form(rel, hhat_system).is_zero()


def test_normal_form_examples(hhat_system):
    rel = NcPoly({(0, 1): 1, (1, 0): 1, (2, 3): -1})
    assert normal_form(rel, hhat_system).is_zero()
    t = NcPoly.gen(3)
    assert normal_form(t, hhat_system) == t


def test_ideal_member(hhat_system):
    assert normal_form(NcPoly({(2, 0): 1, (0, 2): -1}), hhat_system).is_zero()
    assert not normal_form(NcPoly.gen(0), hhat_system).is_zero()


def test_degree_guard(hhat_system):
    big = NcPoly.monomial(tuple([0] * 9))
    with pytest.raises(OutOfCertifiedRangeError):
        normal_form(big, hhat_system)
    with pytest.raises(OutOfCertifiedRangeError):
        normal_form(big, hhat_system, [])


def test_degenerate_relation_errors():
    with pytest.raises(DegenerateRelationError):
        _pres("zero", ["x"], (NcPoly.zero(),))
    inconsistent = _pres("one", ["x"], (NcPoly.one(),))
    with pytest.raises(DegenerateRelationError):
        complete(inconsistent, max_degree=2)


def test_trace_single_step(hhat_system):
    ef = NcPoly.monomial((0, 1))
    steps = []
    normal_form(ef, hhat_system, steps)
    assert len(steps) == 1
    assert steps[0].rule_lhs == (0, 1)
    assert steps[0].position == 0


def test_trace_of_normal_word_is_empty(hhat_system):
    steps = []
    normal_form(NcPoly.monomial((3, 2)), hhat_system, steps)
    assert steps == []


def test_trace_replay_soundness(hhat_system):
    rng = Random(5)
    words = [(0, 1, 2), (2, 0, 1, 3), (0, 0, 1, 1), (1, 0, 2, 3)]
    poly = NcPoly({w: Fraction(rng.randint(1, 5)) for w in words})
    steps = []
    nf = normal_form(poly, hhat_system, steps)
    assert replay_trace(poly, steps, hhat_system) == nf == normal_form(poly, hhat_system)


def test_integral_system_reduces_in_ints_and_returns_fractions(color_system):
    # the rules' pairs are ints; what leaves the engine is Fraction-valued,
    # which reports render as "p/q" strings
    assert all(type(c) is int for r in color_system.rules for _, c in r.pairs)
    assert all(type(c) is Fraction for r in color_system.rules for c in r.rhs.terms.values())
    terms = {(0, 1, 2, 0): 3, (3, 2, 1): Fraction(-1, 2), (2, 1): Fraction(4)}
    poly = NcPoly(terms)
    steps = []
    out = normal_form(poly, color_system, steps)
    assert out.terms and all(type(c) is Fraction for c in out.terms.values())
    assert steps and all(type(st.coefficient) is Fraction for st in steps)
    assert out == normal_form(poly, color_system) == replay_trace(poly, steps, color_system)


def test_normal_form_idempotent(hhat_system):
    rng = Random(9)
    for _ in range(20):
        words = [tuple(rng.randint(0, 3) for _ in range(rng.randint(0, 4)))
                 for _ in range(3)]
        poly = NcPoly({w: Fraction(rng.randint(-4, 4)) for w in words})
        nf = normal_form(poly, hhat_system)
        assert normal_form(nf, hhat_system) == nf


def test_inhomogeneous_completion_slc_U():
    system = complete(preset("slc_U"), max_degree=6)
    assert confluence_certificate(system)
    # the three pair rules give the ordered-monomial basis
    assert sorted(r.lhs for r in system.rules) == [(0, 1), (0, 2), (1, 2)]


def test_interreduction_no_nested_lhs(sl21_system):
    lhs = [r.lhs for r in sl21_system.rules]
    for a in lhs:
        for b in lhs:
            if a is b or len(b) > len(a):
                continue
            inside = any(a[i:i + len(b)] == b for i in range(len(a) - len(b) + 1))
            assert not (inside and a != b)


def test_rule_rhs_below_lhs(sl21_system):
    order = sl21_system.order
    for rule in sl21_system.rules:
        for w in rule.rhs.support():
            assert order.compare(w, rule.lhs) < 0


def test_trace_expansion_witnesses_ideal_membership(hhat_system):
    # x - normal_form(x) equals the sum of the traced replacements, each of
    # which is a left-right multiple of an oriented relation
    poly = NcPoly({(0, 1, 2): Fraction(2), (2, 0, 1, 3): Fraction(-1)})
    steps = []
    normal_form(poly, hhat_system, steps)
    total = NcPoly.zero()
    for st in steps:
        rule = hhat_system.rule_for(st.rule_lhs)
        prefix = NcPoly.monomial(st.word[: st.position])
        suffix = NcPoly.monomial(st.word[st.position + len(st.rule_lhs):])
        member = prefix * (NcPoly.monomial(rule.lhs) - rule.rhs) * suffix
        total = total + member.scale(st.coefficient)
    assert poly - normal_form(poly, hhat_system) == total


# ----------------------------------------------------------------------
# random small presentations: completion against the brute-force oracle
# ----------------------------------------------------------------------


@st.composite
def small_presentations(draw, linear_tails=False):
    """2-3 generators, 1-3 quadratic relations with small integer
    coefficients; with ``linear_tails`` some relations get degree-one terms."""
    n = draw(st.integers(2, 3))
    quadratic = list(product(range(n), repeat=2))
    coeff = st.integers(-3, 3)
    relations = []
    for _ in range(draw(st.integers(1, 3))):
        terms = {w: c for w in quadratic if (c := draw(coeff))}
        if linear_tails and draw(st.booleans()):
            terms.update({(g,): c for g in range(n) if (c := draw(coeff))})
        if terms:
            relations.append(NcPoly(terms))
    if not relations:
        relations.append(NcPoly({(0, 1): 1, (1, 0): -1}))
    precedence = tuple(draw(st.permutations(range(n))))
    return _pres("fuzz", "xyz"[:n], tuple(relations)), precedence


@settings(max_examples=40, deadline=None)
@given(small_presentations(), st.integers(2, 4))
def test_completion_matches_oracle_on_random_presentations(drawn, bound):
    pres, precedence = drawn
    system = complete(pres, max_degree=bound)
    assert confluence_certificate(system)
    oracle = oracle_graded_dims(pres, bound)
    assert hilbert_algebra(system, bound) == oracle
    # a different term order completes to other rules, same quotient
    permuted = TermOrder.from_precedence(pres.z_degrees, precedence)
    other = complete(pres, order=permuted, max_degree=bound)
    assert confluence_certificate(other)
    assert hilbert_algebra(other, bound) == oracle


@settings(max_examples=40, deadline=None)
@given(small_presentations(linear_tails=True), st.integers(3, 4))
def test_completion_certified_with_linear_tails(drawn, bound):
    pres, precedence = drawn
    order = TermOrder.from_precedence(pres.z_degrees, precedence)
    system = complete(pres, order=order, max_degree=bound)
    assert confluence_certificate(system)
    for rel in pres.relations:
        assert normal_form(rel, system).is_zero()


def test_complete_raises_when_certificate_fails(monkeypatch):
    monkeypatch.setattr(rewrite, "confluence_certificate", lambda system: False)
    with pytest.raises(RuntimeError, match="'sl11_Hhat' to degree 5"):
        complete(preset("sl11_Hhat"), max_degree=5)


# ----------------------------------------------------------------------
# the reduction engine against an independent reference
# ----------------------------------------------------------------------


def _precedence(pres, names):
    return TermOrder.from_precedence(
        pres.z_degrees, tuple(pres.gen_index(n) for n in names))


def test_permuted_slc_H_completes_to_degree_8():
    # a reducer that never merges like terms re-reduces shared subwords of
    # the overlap polynomials here; at degree 8 it ran for minutes
    pres = preset("slc_H")
    system = complete(pres, order=_precedence(pres, "a2 a4 a3 a1".split()), max_degree=8)
    assert confluence_certificate(system)
    assert hilbert_algebra(system, 8) == [1, 4, 10, 20, 35, 56, 84, 120, 165]
    assert hilbert_algebra(system, 5) == oracle_graded_dims(pres, 5)


ENGINE_SYSTEMS = [
    ("sl11_Hhat", None),
    ("sl11_Hhat", "t h f e"),
    ("slc_H", None),
    ("slc_H", "a2 a4 a3 a1"),
    ("slc_U", "a3 a1 a2"),   # inhomogeneous: rewrites also lower the degree
]


@lru_cache(maxsize=None)
def _engine_system(name, precedence):
    pres = preset(name)
    order = _precedence(pres, precedence.split()) if precedence else None
    return complete(pres, order=order, max_degree=6)


def stack_normal_form(poly, system):
    """Reference reducer: pop one (word, coefficient) pair at a time, rewrite
    it with the first rule in list order whose lhs occurs anywhere in the
    word, and never merge like terms before reducing them."""
    out = {}
    work = list(poly.items())
    while work:
        word, coeff = work.pop()
        for rule in system.rules:
            n = len(rule.lhs)
            pos = next((i for i in range(len(word) - n + 1) if word[i:i + n] == rule.lhs), None)
            if pos is not None:
                break
        else:
            out[word] = out.get(word, 0) + coeff
            continue
        for w, c in rule.rhs.items():
            work.append((word[:pos] + w + word[pos + n:], coeff * c))
    return NcPoly(out)


def random_polys(ngens):
    return st.dictionaries(
        st.lists(st.integers(0, ngens - 1), max_size=6).map(tuple),
        st.fractions(min_value=-5, max_value=5, max_denominator=3),
        max_size=5,
    ).map(NcPoly)


@pytest.mark.parametrize("name, precedence", ENGINE_SYSTEMS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_engine_matches_stack_reference(name, precedence, data):
    system = _engine_system(name, precedence)
    poly = data.draw(random_polys(len(system.presentation.generators)))
    steps = []
    nf = normal_form(poly, system, steps)
    for a, b in zip(steps, steps[1:]):
        assert system.order.compare(a.word, b.word) > 0
    assert normal_form(poly, system) == nf
    assert replay_trace(poly, steps, system) == nf
    assert stack_normal_form(poly, system) == nf


# ----------------------------------------------------------------------
# the lhs automaton against the first-letter scan it replaced
# ----------------------------------------------------------------------


def first_letter_scan(word, rules):
    """Reference matcher: at each position from the left, the rules whose
    lhs starts with that letter, in list order; the first whose lhs occurs
    there wins."""
    index = {}
    for rule in rules:
        index.setdefault(rule.lhs[0], []).append(rule)
    n = len(word)
    for pos in range(n):
        for rule in index.get(word[pos], ()):
            L = rule.lhs
            if n - pos >= len(L) and word[pos:pos + len(L)] == L:
                return pos, rule
    return None


def first_to_end(word, rules):
    """Reference for any lhs set: the leftmost end of an lhs occurrence,
    and the longest lhs ending there."""
    for end in range(1, len(word) + 1):
        ending = [r for r in rules if word[:end][-len(r.lhs):] == r.lhs and len(r.lhs) <= end]
        if ending:
            rule = max(ending, key=lambda r: len(r.lhs))
            return end - len(rule.lhs), rule
    return None


def lhs_words(lhs_set, ngens):
    """Words made of lhs factors and single letters, so that matches, near
    misses and overlapping partial matches are all common."""
    factors = [l[i:j] for l in lhs_set for i in range(len(l)) for j in range(i + 1, len(l) + 1)]
    piece = st.one_of(st.sampled_from(factors), st.integers(0, ngens - 1).map(lambda x: (x,)))
    return st.lists(piece, max_size=6).map(lambda parts: sum(parts, ()))


@pytest.mark.parametrize("name", PRESENTATION_NAMES)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_find_match_matches_first_letter_scan_on_presets(name, data):
    system = _engine_system(name, None)
    word = data.draw(lhs_words([r.lhs for r in system.rules], len(system.presentation.generators)))
    got = rewrite._find_match(word, system.automaton)
    expected = first_letter_scan(word, system.rules)
    assert got == expected
    assert got is None or got[1] is expected[1]


@settings(max_examples=60, deadline=None)
@given(small_presentations(), st.integers(2, 5), st.data())
def test_find_match_matches_first_letter_scan_on_random_presentations(drawn, bound, data):
    pres, precedence = drawn
    order = TermOrder.from_precedence(pres.z_degrees, precedence)
    system = complete(pres, order=order, max_degree=bound)
    for _ in range(5):
        word = data.draw(lhs_words([r.lhs for r in system.rules], len(pres.generators)))
        assert rewrite._find_match(word, system.automaton) == first_letter_scan(word, system.rules)


def monomial_system(lhs_set, degrees):
    """A rewrite system with the rules lhs -> 0, built by hand: the lhs set
    need not be inter-reduced, so one lhs may end inside another."""
    gens = tuple(Generator(i, f"x{i}", z_degree=g) for i, g in enumerate(degrees))
    rules = [Rule(l, NcPoly.zero()) for l in lhs_set]
    pres = Presentation("monomial", gens, tuple(NcPoly.monomial(l) for l in lhs_set))
    order = TermOrder.from_precedence(degrees)
    return RewriteSystem(pres, order, rules, 6, [], False)


def any_lhs_sets(ngens):
    return st.lists(st.lists(st.integers(0, ngens - 1), min_size=1, max_size=4).map(tuple),
                    min_size=1, max_size=5, unique=True)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_automaton_on_any_lhs_set(data):
    # an lhs that is a suffix of a longer lhs's prefix is found only through
    # the fail states, which inter-reduced systems never need
    ngens = data.draw(st.integers(2, 3))
    lhs_set = data.draw(any_lhs_sets(ngens))
    degrees = tuple(data.draw(st.lists(st.integers(1, 2), min_size=ngens, max_size=ngens)))
    system = monomial_system(lhs_set, degrees)
    for _ in range(5):
        word = data.draw(lhs_words(lhs_set, ngens))
        got = rewrite._find_match(word, system.automaton)
        expected = first_to_end(word, system.rules)
        assert got == expected
        assert got is None or got[1] is expected[1]
    naive = _naive_normal_words(system, 5)
    listed = normal_words_by_degree(system, 5)
    assert {d: sorted(ws) for d, ws in listed.items()} == naive
    assert normal_word_counts(system, 5) == [len(naive[d]) for d in range(6)]


def test_automaton_fail_states_report_the_inner_lhs():
    # reading "x0 x1" passes the trie state of the prefix of x0 x1 x2, where
    # the lhs x1 ends
    system = monomial_system([(0, 1, 2), (1,)], (1, 1, 1))
    assert rewrite._find_match((0, 1, 2), system.automaton) == (1, system.rules[1])
    assert normal_word_counts(system, 3) == [1, 2, 4, 8]


# ----------------------------------------------------------------------
# the memo of normal word times letter against the reduction engine
# ----------------------------------------------------------------------


def assert_products_match_engine(system, bound):
    """right_multiply(v, x) equals a full reduction of v*x for every normal
    word v of degree below ``bound`` and every letter x."""
    words = normal_words_by_degree(system, bound - 1)
    letters = range(len(system.presentation.generators))
    for d in range(bound):
        for v in words[d]:
            for x in letters:
                expected = normal_form(NcPoly.monomial(v + (x,)), system).terms
                assert system.right_multiply(v, {(x,): 1}) == expected, (v, x)


PRODUCT_SYSTEMS = [
    ("slc_H", None, 8),
    ("slc_H", "a2 a4 a3 a1", 8),
    ("sl11_Hhat", None, 7),
    ("sl2_A", None, 7),
    ("sl21_Hhat", None, 5),
]


@pytest.mark.parametrize("name, precedence, bound", PRODUCT_SYSTEMS)
def test_product_memo_matches_engine(name, precedence, bound):
    pres = preset(name)
    order = _precedence(pres, precedence.split()) if precedence else None
    assert_products_match_engine(complete(pres, order=order, max_degree=bound), bound)


@settings(max_examples=100, deadline=None)
@given(small_presentations(), st.integers(2, 5))
def test_product_memo_matches_engine_on_random_presentations(drawn, bound):
    pres, precedence = drawn
    order = TermOrder.from_precedence(pres.z_degrees, precedence)
    assert_products_match_engine(complete(pres, order=order, max_degree=bound), bound)


@pytest.mark.parametrize("name, precedence", ENGINE_SYSTEMS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_right_multiply_by_polynomials(name, precedence, data):
    # words of several letters fold through the memo; slc_U also lowers degree
    system = _engine_system(name, precedence)
    words = normal_words_by_degree(system, 3)
    v = data.draw(st.sampled_from([w for d in range(4) for w in words[d]]))
    ngens = len(system.presentation.generators)
    terms = data.draw(st.dictionaries(
        st.lists(st.integers(0, ngens - 1), max_size=3).map(tuple),
        st.fractions(min_value=-5, max_value=5, max_denominator=3),
        max_size=5,
    ))
    expected = normal_form(NcPoly({v + w: c for w, c in terms.items()}), system)
    assert NcPoly(system.right_multiply(v, terms)) == expected


def test_product_memo_fills_long_chains_without_recursion():
    # x^k * y moves y past k letters; each step needs the product below it
    k = 3000
    rel = NcPoly({(0, 1): 1, (1, 0): -1})
    system = complete(_pres("kxy", ["x", "y"], (rel,)), max_degree=k + 1)
    assert system.right_multiply((0,) * k, {(1,): 2}) == {(1,) + (0,) * k: 2}


# ----------------------------------------------------------------------
# normal words against a naive filter of all words
# ----------------------------------------------------------------------


def _naive_normal_words(system, max_degree):
    """The words of ``words_of_degree`` that contain no rule lhs as a
    factor, in that order: lexicographic, which is generation order when
    every degree is 1."""
    lhs = [r.lhs for r in system.rules]

    def normal(w):
        return not any(w[i:i + len(l)] == l for l in lhs for i in range(len(w) - len(l) + 1))

    degrees = system.order.degrees
    return {d: [w for w in words_of_degree(degrees, d) if normal(w)]
            for d in range(max_degree + 1)}


@pytest.mark.parametrize("name, bound", [
    ("sl2_A", 6), ("sl11_H", 6), ("sl11_Hhat", 6), ("slc_H", 6), ("sl21_Hhat", 4),
])
def test_normal_words_match_naive_filter_on_presets(name, bound):
    system = complete(preset(name), max_degree=bound)
    naive = _naive_normal_words(system, bound)
    assert normal_words_by_degree(system, bound) == naive
    assert normal_word_counts(system, bound) == [len(naive[d]) for d in range(bound + 1)]


@settings(max_examples=60, deadline=None)
@given(small_presentations(), st.integers(2, 5))
def test_normal_words_match_naive_filter_on_random_presentations(drawn, bound):
    pres, precedence = drawn
    order = TermOrder.from_precedence(pres.z_degrees, precedence)
    system = complete(pres, order=order, max_degree=bound)
    naive = _naive_normal_words(system, bound)
    assert normal_words_by_degree(system, bound) == naive
    assert normal_word_counts(system, bound) == [len(naive[d]) for d in range(bound + 1)]


def test_normal_words_with_a_degree_two_generator():
    # x and z of degree 1, y of degree 2: y commutes with x, and z x - x z
    # is y; words of one degree have different lengths, so listing
    # (generation order) and words_of_degree order differ
    x, y, z = NcPoly.gen(0), NcPoly.gen(1), NcPoly.gen(2)
    gens = (Generator(0, "x"), Generator(1, "y", z_degree=2), Generator(2, "z"))
    pres = Presentation("deg2", gens, (x * y - y * x, z * x - x * z - y))
    system = complete(pres, max_degree=7)
    naive = _naive_normal_words(system, 7)
    listed = normal_words_by_degree(system, 7)
    assert {d: sorted(ws) for d, ws in listed.items()} == naive
    assert listed != naive
    counts = normal_word_counts(system, 7)
    assert counts == [len(naive[d]) for d in range(8)]
    assert hilbert_algebra(system, 7) == counts
    assert oracle_graded_dims(pres, 6) == counts[:7]
