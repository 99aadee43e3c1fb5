"""Graded and filtered dimensions by two independent routes.

The working route counts rewrite normal forms; the audit route builds each
graded piece A_d of the quotient from the pieces below it, as V (x) A_{d-1}
modulo the images of the relations of degree d and of right shifts of the
rows stored below (the left shifts of the ideal are the tensor product
itself), and row-reduces with exact rational arithmetic, never consulting
the rewrite system.  The filtered variant realizes cyclic quotients of
genuinely inhomogeneous presentations (enveloping algebras) the same
brute-force way.

The cyclic-module route completes the left ideal of its generators
one-sidedly, bounded by degree, and counts the normal words that no
leading word ends; it builds no echelon.  Each generator and basis element
is kept as its primitive integer multiple, which spans the same left ideal.
"""

from __future__ import annotations

import os
from fractions import Fraction
from functools import lru_cache
from heapq import heapify, heappop, heappush
from itertools import accumulate
from typing import NamedTuple

from . import dsl
from .errors import InhomogeneousError, LinemodError, OracleCapError
from .linalg import SparseEchelon, normalize_integer_vector
from .ncalg import EMPTY_WORD, Word
from .rewrite import Presentation, RewriteSystem

ORACLE_CAP_ENV = "LINEMOD_ORACLE_CAP"
ORACLE_CAP_DEFAULT = 4096


def line_module_dims(max_degree: int) -> list:
    """The target profile 1, 2, ..., N+1 of a line module."""
    return list(range(1, max_degree + 2))


# ----------------------------------------------------------------------
# rewrite route
# ----------------------------------------------------------------------


def normal_words_by_degree(system: RewriteSystem, max_degree: int) -> dict:
    """Words of each degree <= max_degree containing no rule lhs.

    Built breadth first through the system's lhs automaton: a one-letter
    extension of a normal word is normal iff the automaton finds no lhs
    ending at its last letter.  Word lists are in a deterministic generation
    order (by length, then parent, then letter) and form a basis of the
    quotient in certified degrees.
    """
    degrees = system.order.degrees
    goto, found = system.automaton.goto, system.automaton.rule
    out = {d: [] for d in range(max_degree + 1)}
    out[0].append(EMPTY_WORD)
    frontier = [(EMPTY_WORD, 0, 0)]   # (normal word, degree, automaton state)
    while frontier:
        new_frontier = []
        for word, deg, state in frontier:
            row = goto[state]
            for g, g_deg in enumerate(degrees):
                nd = deg + g_deg
                t = row[g]
                if nd <= max_degree and found[t] is None:
                    nw = word + (g,)
                    out[nd].append(nw)
                    new_frontier.append((nw, nd, t))
        frontier = new_frontier
    return out


def normal_word_counts(system: RewriteSystem, max_degree: int) -> list:
    """The number of normal words of each degree 0..max_degree.

    A dynamic program over the states of the lhs automaton: the normal
    words of degree d ending in state t are the normal words of degree
    d - deg x, in some state s, extended by a letter x with goto[s][x] = t
    reaching no rule.  No word list is built.
    """
    degrees = system.order.degrees
    goto, found = system.automaton.goto, system.automaton.rule
    by_state = [{0: 1}]   # per degree: automaton state -> normal words ending there
    for d in range(1, max_degree + 1):
        here = {}
        for g, g_deg in enumerate(degrees):
            if g_deg > d:
                continue
            for s, n in by_state[d - g_deg].items():
                t = goto[s][g]
                if found[t] is None:
                    here[t] = here.get(t, 0) + n
        by_state.append(here)
    return [sum(counts.values()) for counts in by_state]


def require_graded(p: Presentation) -> None:
    """Raise InhomogeneousError unless the relations of ``p`` are homogeneous
    in the integer degree, naming the first that is not: the one check of
    every graded route."""
    degrees = p.z_degrees
    for n, rel in enumerate(p.relations, 1):
        if not rel.is_z_homogeneous(degrees):
            text = dsl.format_poly(rel, p.generator_names(), p.default_order())
            raise InhomogeneousError(f"{p.name!r} is not graded: relation {n}, {text}, "
                                     "is not homogeneous in the integer degree")


def hilbert_algebra(system: RewriteSystem, max_degree: int) -> list:
    """Graded dimensions of the quotient algebra of a completed system, by
    counting normal forms."""
    require_graded(system.presentation)
    system.require_certified(max_degree)
    return normal_word_counts(system, max_degree)


# ----------------------------------------------------------------------
# brute-force oracle route
# ----------------------------------------------------------------------


def oracle_cap() -> int:
    """The oracle's monomial cap: ``LINEMOD_ORACLE_CAP`` if set, else the
    default.  A value that is not a positive integer is rejected."""
    value = os.environ.get(ORACLE_CAP_ENV)
    if not value:
        return ORACLE_CAP_DEFAULT
    try:
        cap = int(value)
    except ValueError:
        cap = 0
    if cap <= 0:
        raise LinemodError(f"{ORACLE_CAP_ENV} must be a positive integer, got {value!r}")
    return cap


def _first_over_cap(counts):
    """``(d, counts[d], cap)`` for the first entry of ``counts`` above the
    oracle cap, or None when every entry fits."""
    cap = oracle_cap()
    return next(((d, count, cap) for d, count in enumerate(counts) if count > cap), None)


def oracle_degree_within_cap(p: Presentation, max_degree: int) -> int:
    """The largest d <= max_degree such that the monomials of every degree
    up to d fit the oracle cap (degree 0 always fits)."""
    over = _first_over_cap(word_counts(p.z_degrees, max_degree))
    return max_degree if over is None else over[0] - 1


def word_counts(degrees: tuple, max_degree: int) -> list:
    """The number of free words of each degree 0..max_degree, by the
    recurrence on the first letter (no word list is built)."""
    counts = []
    for d in range(max_degree + 1):
        counts.append(sum(counts[d - g] for g in degrees if g <= d) if d else 1)
    return counts


@lru_cache(maxsize=64)
def words_of_degree(degrees: tuple, d: int) -> list:
    """All free words of integer degree exactly d, in lexicographic index
    order (the oracle's column order)."""
    if d == 0:
        return [EMPTY_WORD]
    return [(g,) + w for g, k in enumerate(degrees) if k <= d
            for w in words_of_degree(degrees, d - k)]


def oracle_graded_dims(p: Presentation, max_degree: int) -> list:
    """Graded dimensions of A = T/I (T the free algebra, I the ideal of the
    relations), row-reducing degree d in V (x) A_{d-1}, never in T_d.

    Degree d has one column per pair (x, b): a letter x and a basis word b
    of A_{d - deg x}, that is, a pivot-free column of that degree, read as
    the word x*b (degree 0 has the one column ()).  A word x*u enters as
    x (x) NF(u), NF(u) being u reduced against its degree's echelon, kept
    per word as an integer row over a denominator
    (``SparseEchelon.reduce_integer``; no row of it goes in by ``add``).
    The rows added are the images of the relations of degree d and of s*y
    for each row s stored at degree d - deg y; dims[d] is columns minus
    rank.

    Proof, by induction on d:
    - x*u -> x (x) NF(u) is the quotient map T_d -> T_d / sum_x x*I_{d-deg x},
      as T_d is the direct sum of the x*T_{d-deg x} and NF kills I below d;
    - a stored row sum a*(x, b), read as sum a*x*b, lies in I_d: an added
      row, the image of some f in I_d, reads as f minus terms x*(u - NF(u))
      in x*I, and stored rows combine added rows; so shifting s to s*y is
      sound;
    - the added rows span the image of I_d = sum_x x*I_{d-deg x} + R_d +
      sum_y I_{d-deg y}*y (R_d the relations of degree d), as the first
      term maps to 0 and I_e is sum_x x*I_{e-deg x} plus the span of its
      stored rows;
    - reducing against the echelon leaves only pivot-free columns, so NF(w)
      holds the coordinates of w over the basis words.

    A nonzero constant relation makes every dimension 0.  The cap counts
    free words, more than the columns.  This route never consults the
    rewrite system.
    """
    require_graded(p)
    degrees = p.z_degrees
    over = _first_over_cap(word_counts(degrees, max_degree))
    if over:
        raise OracleCapError("degree {} has {} monomials, above the cap {}; "
                             "set {} to allow this".format(*over, ORACLE_CAP_ENV))
    relations = {}   # degree -> the (word, coefficient) pairs of each relation
    for rel in p.relations:
        rel_deg = next(iter(rel.z_degrees(degrees)))
        if rel_deg == 0:   # a nonzero constant relation: A is zero
            return [0] * (max_degree + 1)
        if rel_deg <= max_degree:
            relations.setdefault(rel_deg, []).append(rel.items())
    # per degree: its echelon, each letter's first column, the word x*b of
    # each column, and pivot-free column -> basis position; and NF by word
    echelons, starts, columns, position = [SparseEchelon()], [[0]], [[EMPTY_WORD]], [{0: 0}]
    memo = {EMPTY_WORD: ({0: 1}, 1)}

    def nf(m, w):
        """``(row, den)``: NF(w) = ``row / den`` over the basis of degree m."""
        hit = memo.get(w)
        if hit is None:
            row, den = nf(m - degrees[w[0]], w[1:])
            start = starts[m][w[0]]
            red, scale = echelons[m].reduce_integer({start + i: v for i, v in row.items()})
            hit = memo[w] = {position[m][c]: v for c, v in red.items()}, den * scale
        return hit

    def image(d, terms):
        """The image in degree d of the sum of c*w over the (word w,
        coefficient c) pairs; ``int`` values where the NFs are integral."""
        row = {}
        for w, c in terms:
            r, e = nf(d - degrees[w[0]], w[1:])
            f = c if e == 1 else Fraction(c, e)
            start = starts[d][w[0]]
            for i, v in r.items():
                row[i + start] = row.get(i + start, 0) + f * v
        return row

    for d in range(1, max_degree + 1):
        low = [(x, d - g) for x, g in enumerate(degrees) if g <= d]
        starts.append(list(accumulate((len(position[d - g]) if g <= d else 0 for g in degrees),
                                      initial=0)))
        columns.append([(x,) + columns[e][c] for x, e in low for c in position[e]])
        ech = SparseEchelon()
        echelons.append(ech)
        for terms in relations.get(d, ()):
            ech.add(image(d, terms))
        for y, e in low:
            for s in echelons[e].rows():
                ech.add(image(d, [(columns[e][c] + (y,), v) for c, v in s.items()]))
        pivots = set(ech.pivot_columns())
        free = [c for c in range(len(columns[d])) if c not in pivots]
        position.append({c: i for i, c in enumerate(free)})
    return [len(basis) for basis in position]


def hilbert_two_routes(system: RewriteSystem, max_degree: int, oracle_degree: int) -> tuple:
    """``(rewrite, oracle, agree)``: the graded dimensions of a completed
    system by rewriting to ``max_degree``, of its presentation by the
    oracle to ``oracle_degree``, and whether the two agree in degrees <=
    oracle_degree."""
    rewrite = hilbert_algebra(system, max_degree)
    oracle = oracle_graded_dims(system.presentation, oracle_degree)
    return rewrite, oracle, rewrite[:oracle_degree + 1] == oracle


# ----------------------------------------------------------------------
# cyclic graded left modules
# ----------------------------------------------------------------------


class CyclicModuleModel(NamedTuple):
    """Rewrite-route model of M = A/(sum A g_i) in degrees <= N.

    ``leads`` maps each leading word of a one-sided Gröbner basis of the
    left ideal L to its element, a word -> coefficient dict over normal
    words of A; no leading word is a suffix of another.  ``basis`` holds,
    per degree, the normal words with no suffix in ``leads``: a basis of M
    in that degree.
    """

    max_degree: int
    system: RewriteSystem
    leads: dict
    basis: dict

    def dims(self, max_degree: int) -> list:
        return [len(self.basis[d]) for d in range(max_degree + 1)]

    def reduce(self, terms) -> dict:
        """The normal form in M of an element of A given as a word ->
        coefficient dict over normal words of degree <= N: supported on
        ``basis`` words, and equal to ``terms`` modulo L.

        Words are taken greatest first.  A word ``w = u * lead(g)``, times
        its coefficient c, goes to ``-c / lc(g)`` times the rest of ``NF(u *
        g)``, whose greatest word is w as w is normal and the order is
        multiplicative.  Coefficients stay exact: ``int`` where integral,
        else ``Fraction``."""
        system, leads = self.system, self.leads
        key = system.order.heap_key
        pending = dict(terms)
        heap = [(key(w), w) for w in pending]
        heapify(heap)
        out = {}
        while heap:
            word = heappop(heap)[1]
            c = pending.pop(word)
            if not c:
                continue
            k = _lead_start(word, leads)
            if k is None:
                out[word] = c
                continue
            h = system.right_multiply(word[:k], leads[word[k:]])
            q = Fraction(c) / h[word]
            q = q.numerator if q.denominator == 1 else q
            for w, a in h.items():
                if w == word:
                    continue   # c - q * lc == 0
                if w in pending:
                    pending[w] -= q * a
                else:
                    pending[w] = -q * a
                    heappush(heap, (key(w), w))
        return out


def _lead_start(word: Word, leads: dict):
    """The start of the suffix of ``word`` that is a leading word, or None.
    At most one is: of two such suffixes, the shorter would be a suffix of
    the longer."""
    return next((k for k in range(len(word), -1, -1) if word[k:] in leads), None)


def cyclic_module_model(system: RewriteSystem, generators, max_degree: int) -> CyclicModuleModel:
    """Build the degreewise model of the cyclic left module by a one-sided
    Buchberger completion of the left ideal L = sum A g_i, bounded by
    degree (Mora 1994).

    Elements are normal forms over normal words, read from the system's
    memo of normal word times letter (``RewriteSystem.right_multiply``);
    the certified-range check keeps every product in the confluent range.
    A generator enters as ``NF(g)`` of its primitive integer multiple,
    which generates the same left ideal.  Pending elements are taken by
    degree.  Each is reduced against the leading words found so far
    (``CyclicModuleModel.reduce``), and a nonzero remainder g is kept,
    as its primitive integer multiple, under its greatest word.  Reducing
    every word, not only the greatest, keeps the elements short, and with
    them the products ``NF(u * g)`` that later reductions subtract.  For
    a new leading word l, ``NF(p * g)`` is queued for every rule lhs ``p *
    s`` with p and s nonempty, s a prefix of l, and ``deg p + deg g <= N``.

    Why the result is complete: for normal words u and l, the word u * l is
    reducible only through an lhs that straddles the join, so u = v * p for
    such a p, and ``NF(u * g) = NF(v * NF(p * g))``.  The queued
    ``NF(p * g)`` reduces to zero by elements ``u_j * g_j`` with ``u_j *
    lead(g_j)`` normal and below p * l; multiplied by v, each term is below
    u * l, so by induction on that word every ``NF(u * g)`` is a
    combination of products ``u' * g'`` whose leading words ``u' *
    lead(g')`` are normal.  These products span L in degrees <= N, so the
    leading words of L are the normal words with a suffix among the
    leading words found, and M has the others as its basis.  A leading
    word of positive degree is never a proper suffix of a later one, and
    every queued element has a higher degree than its parent, so the
    completion ends.  A leading word () (a generator whose normal form is
    a nonzero constant) is a suffix of every word, and M is then zero.
    """
    pres = system.presentation
    require_graded(pres)
    system.require_certified(max_degree)
    order = system.order
    degrees = pres.z_degrees
    pending = []   # heap of (degree, serial, element)
    for g in generators:
        if g.is_zero() or not g.is_z_homogeneous(degrees):
            raise InhomogeneousError("module generators must be nonzero and homogeneous")
        deg = next(iter(g.z_degrees(degrees)))
        if deg <= max_degree:
            words, coeffs = zip(*g.items())
            nf = system.right_multiply(EMPTY_WORD, dict(zip(words, normalize_integer_vector(coeffs))))
            pending.append((deg, len(pending), nf))
    heapify(pending)
    serial = len(pending)
    splits = [(lhs[:k], lhs[k:], order.word_degree(lhs[:k]))
              for lhs in (r.lhs for r in system.rules) for k in range(1, len(lhs))]
    model = CyclicModuleModel(max_degree, system, {}, {})
    while pending:
        deg, _, f = heappop(pending)
        f = model.reduce(f)
        if not f:
            continue
        lead = min(f, key=order.heap_key)
        g = model.leads[lead] = dict(zip(f, normalize_integer_vector(tuple(f.values()))))
        for p, s, p_deg in splits:
            if deg + p_deg <= max_degree and lead[:len(s)] == s:
                heappush(pending, (deg + p_deg, serial, system.right_multiply(p, g)))
                serial += 1
    for d, words in normal_words_by_degree(system, max_degree).items():
        model.basis[d] = [w for w in words if _lead_start(w, model.leads) is None]
    return model


# ----------------------------------------------------------------------
# filtered route (inhomogeneous presentations)
# ----------------------------------------------------------------------


class FilteredModel(NamedTuple):
    """Free-word model of a filtered quotient of a presented algebra.

    The free words of level <= max_degree are numbered once (``column``),
    by decreasing level and in ``words_of_degree`` order within a level, so
    the words of level <= i are the columns from ``level_start[i]`` on, the
    last column is the empty word, and the echelon pivots from there on
    span the row space's intersection with level i.  The rows span degree
    max_degree of the homogenized quotient with its homogenizer set to 1
    (see ``filtered_cyclic_dims``).  The two-sided ideal rows are
    echelonized once per presentation and degree bound (``base``);
    left-ideal shift rows are layered on top of a copy of it per query.
    The pivot set of a row space does not depend on the order its rows
    are added in.
    """

    presentation: Presentation
    max_degree: int
    column: dict
    level_start: list
    base: SparseEchelon

    def _shift_rows(self, shift_generators):
        """The rows u*s of the left ideal of the shifts, restricted to
        filtration level <= max_degree: by degree of u, and for each word u
        one row per shift generator.  A generator enters as its primitive
        integer multiple, which generates the same left ideal, so every row
        is an int row."""
        degrees = self.presentation.z_degrees
        column = self.column
        shifts = []
        for s in shift_generators:
            if not s.is_zero():
                words, coeffs = zip(*s.items())
                shifts.append((tuple(zip(words, normalize_integer_vector(coeffs))),
                               self.max_degree - s.max_z_degree(degrees)))
        for i in range(max((top for _, top in shifts), default=-1) + 1):
            for u in words_of_degree(degrees, i):
                for s, top in shifts:
                    if i <= top:
                        yield {column[u + w]: c for w, c in s}

    def ideal_echelon(self, shift_generators) -> SparseEchelon:
        """Echelon of (two-sided relation ideal) + (left ideal of shifts),
        restricted to filtration level <= max_degree."""
        ech = self.base.copy()
        for row in self._shift_rows(shift_generators):
            ech.add(row)
        return ech

    def is_proper(self, shift_generators) -> bool:
        """Whether the identity lies outside the ideal, i.e.
        ``filtered_cyclic_dims(presentation, shift_generators,
        max_degree)[0] == 1``.

        The empty word is the last column, so it is a pivot exactly when
        the ideal spans 1; once a pivot it stays one, so shift rows are
        added only until the first row that pivots there.
        """
        one = len(self.column) - 1
        if one in self.base.pivot_columns():
            return False
        ech = self.base.copy()
        for row in self._shift_rows(shift_generators):
            if ech.add(row) == one:
                return False
        return True


def filtered_model(p: Presentation, max_degree: int) -> FilteredModel:
    """The filtered free-word model of a presentation, built once per
    (presentation, bound); the monomial cap is checked on every call."""
    over = _first_over_cap(accumulate(word_counts(p.z_degrees, max_degree)))
    if over:
        raise OracleCapError("filtration {} needs {} monomials, above the cap {}".format(*over))
    return _filtered_model(p, max_degree)


@lru_cache(maxsize=16)
def _filtered_model(p: Presentation, max_degree: int) -> FilteredModel:
    degrees = p.z_degrees
    # from the counts: with generators of degree 2 only, odd levels hold no words
    counts = word_counts(degrees, max_degree)
    level_start = [sum(counts[i + 1:]) for i in range(max_degree + 1)]
    column = {w: c for d in range(max_degree, -1, -1)
              for c, w in enumerate(words_of_degree(degrees, d), level_start[d])}
    # echelonize the two-sided rows once; each shift query starts from a copy
    base = SparseEchelon()
    for rel in p.relations:
        rel_deg = rel.max_z_degree(degrees)
        for i in range(max_degree - rel_deg + 1):
            for u in words_of_degree(degrees, i):
                for j in range(max_degree - rel_deg - i + 1):
                    for v in words_of_degree(degrees, j):
                        base.add({column[u + w + v]: c for w, c in rel.items()})
    return FilteredModel(p, max_degree, column, level_start, base)


def filtered_cyclic_dims(p: Presentation, shift_generators, max_degree: int) -> list:
    """Filtration dimensions of U/(U s_1 + ... + U s_m) in the free algebra.

    U is the possibly inhomogeneous quotient presented by ``p`` filtered by
    total degree, and the s_i are arbitrary free-algebra elements (for an
    induced module, s = x - phi(x) over the subalgebra basis).  Let M be
    the graded module presented by the homogenized relations and shifts,
    with a central homogenizer t, and N = max_degree.  The rows u*r*v and
    u*s of total degree at most N span degree N of its relations with t
    set to 1, so dims[i] is the dimension of t^(N-i) * M_i inside M_N, and
    dims[N] that of M_N.  It is the dimension of filtration level i of the
    quotient module when M has no t-torsion, and not in general.
    Everything is spanned directly over free words, so the result is
    independent of any rewriting.
    """
    model = filtered_model(p, max_degree)
    pivots = model.ideal_echelon(shift_generators).pivot_columns()
    total = len(model.column)
    return [total - start - sum(1 for c in pivots if c >= start) for start in model.level_start]
