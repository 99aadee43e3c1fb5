"""Graded and filtered dimensions by two independent routes.

The working route counts rewrite normal forms; the audit route builds each
graded piece of the defining ideal inside the free algebra from the pieces
below it (left shifts of their echelon rows, the relations of that degree,
and right shifts of the rows that gave a pivot below) and row-reduces with
exact rational arithmetic, never consulting the rewrite system.  The
filtered variant realizes cyclic quotients of genuinely inhomogeneous
presentations (enveloping algebras) the same brute-force way.

The cyclic-module route passes each module generator to the rewrite
engine as its primitive integer multiple, which spans the same left ideal,
so with integer structure constants its rows are ``int``-valued from the
memo to the echelon.
"""

from __future__ import annotations

import os
from functools import lru_cache
from itertools import accumulate
from typing import NamedTuple

from .errors import InhomogeneousError, LinemodError, OracleCapError
from .linalg import SparseEchelon, normalize_integer_vector
from .ncalg import EMPTY_WORD
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
    in the integer degree: the one check of every graded route."""
    if not p.is_z_homogeneous():
        raise InhomogeneousError(
            f"{p.name!r} is not graded; use filtered_cyclic_dims for filtered dimensions"
        )


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


def _block_starts(degrees: tuple, d: int) -> tuple:
    """Per letter x, the column of the first degree-d word beginning with
    x: the words beginning with x form one block, ordered like the words
    of degree d - deg x."""
    counts = word_counts(degrees, d)
    starts, start = [], 0
    for g in degrees:
        starts.append(start)
        if g <= d:
            start += counts[d - g]
    return tuple(starts)


def _word_column(degrees: tuple, word: tuple) -> int:
    """The column of a word among the free words of its degree."""
    col, m = 0, sum(degrees[x] for x in word)
    for x in word:
        col += _block_starts(degrees, m)[x]
        m -= degrees[x]
    return col


@lru_cache(maxsize=256)
def right_shift_columns(degrees: tuple, e: int, y: int) -> tuple:
    """Per degree-e word w, in ``words_of_degree`` order, the column of
    w*y among the words of degree e + deg y.

    Built from the block starts without listing words: the words x*u of
    degree e fill block x in the order of u, and x*u*y lies in block x of
    degree e + deg y at the column of u*y.
    """
    starts = _block_starts(degrees, e + degrees[y])
    if e == 0:
        return (starts[y],)
    return tuple(starts[x] + c for x, g in enumerate(degrees) if g <= e
                 for c in right_shift_columns(degrees, e - g, y))


def oracle_graded_dims(p: Presentation, max_degree: int) -> list:
    """Graded dimensions by row-reducing the ideal's graded pieces.

    Columns of degree d are the free words of degree d in
    ``words_of_degree`` order, where the words beginning with a letter x
    form one block ordered like the words of degree d - deg x.  The
    degree-d piece of the two-sided ideal is built from the pieces below:

        I_d = sum_x x * I_{d - deg x} + R_d + sum_y N_{d - deg y} * y

    where R_d holds the relations of degree d and N_e the echelon rows
    that the relation and right-shift rows added at degree e gave (each as
    reduced on entry; rows that gave no pivot add none).  Proof, by
    induction on d: a row u*r*v with u nonempty is x*(u'*r*v), and one with
    v = v'*y nonempty is (u*r*v')*y with u*r*v' in I_{d - deg y}; and
    I_e = sum_x x * I_{e - deg x} + span N_e, so I_e * y lies in
    sum_x x * I_{e + deg y - deg x} + N_e * y.

    The left shifts x*p of the echelon rows p of I_{d - deg x} are
    independent, pivoting at x*pivot(p), and go in without elimination
    (``SparseEchelon.add_shifted``), each a reference to p under the
    column offset of x's block, not a copy; the relation and right-shift
    rows are reduced against them, the right shifts' columns read from
    ``right_shift_columns``.  N_d is read back with
    ``SparseEchelon.rows_from``, past the left shifts, so no shifted row
    is ever built.  The quotient dimension is the number of degree-d words
    minus the rank.  This route never consults the rewrite system.
    """
    require_graded(p)
    degrees = p.z_degrees
    reach = max(degrees, default=1)
    counts = word_counts(degrees, max_degree)
    over = _first_over_cap(counts)
    if over:
        raise OracleCapError("degree {} has {} monomials, above the cap {}; "
                             "set {} to allow this".format(*over, ORACLE_CAP_ENV))
    relations = {}   # degree -> relation rows over the words of that degree
    for rel in p.relations:
        rel_deg = next(iter(rel.z_degrees(degrees)))
        if rel_deg <= max_degree:
            relations.setdefault(rel_deg, []).append(
                {_word_column(degrees, w): c for w, c in rel.items()})
    echelons = {}   # degree -> echelon of I_d, while a later degree still shifts it
    gained = {}     # degree -> N_d, its echelon rows that are not left shifts
    dims = []
    for d in range(max_degree + 1):
        starts = _block_starts(degrees, d)
        ech = SparseEchelon()
        for x, g in enumerate(degrees):
            if g <= d:
                ech.add_shifted(echelons[d - g], starts[x])
        shifted = ech.rank
        for row in relations.get(d, ()):
            ech.add(row)
        for y, g in enumerate(degrees):
            if g <= d:
                cols = right_shift_columns(degrees, d - g, y)
                for row in gained[d - g]:
                    ech.add({cols[c]: v for c, v in row.items()})
        dims.append(counts[d] - ech.rank)
        echelons[d], gained[d] = ech, ech.rows_from(shifted)
        echelons.pop(d - reach, None)   # degree d + 1 and above shift no lower
        gained.pop(d - reach, None)
    return dims


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
    """Rewrite-route model of A/(sum A g_i) in degrees <= N.

    ``basis`` holds the normal words of each degree (a basis of A_d);
    ``ideal`` holds, per degree, the echelonized row space of the left
    ideal expressed over those words.
    """

    max_degree: int
    basis: dict
    ideal: list
    positions: list

    def dim(self, d: int) -> int:
        return len(self.basis[d]) - self.ideal[d].rank

    def dims(self, max_degree: int) -> list:
        return [self.dim(d) for d in range(max_degree + 1)]


def cyclic_module_model(system: RewriteSystem, generators, max_degree: int) -> CyclicModuleModel:
    """Build the degreewise linear model of the cyclic left module.

    Each row ``NF(b g)``, for a normal word ``b`` and a generator ``g``, is
    read from the system's memo of normal word times letter
    (``RewriteSystem.right_multiply``); the certified-range check keeps every
    product in the confluent range, where it equals a full reduction.  A
    generator enters as its primitive integer multiple, which generates the
    same left ideal, so the rows carry no denominators of its own."""
    pres = system.presentation
    require_graded(pres)
    system.require_certified(max_degree)
    degrees = pres.z_degrees
    gens, gen_degs = [], []
    for g in generators:
        if g.is_zero() or not g.is_z_homogeneous(degrees):
            raise InhomogeneousError("module generators must be nonzero and homogeneous")
        words, coeffs = zip(*g.items())
        gens.append(dict(zip(words, normalize_integer_vector(coeffs))))
        gen_degs.append(next(iter(g.z_degrees(degrees))))
    basis = normal_words_by_degree(system, max_degree)
    positions = [{w: i for i, w in enumerate(basis[d])} for d in range(max_degree + 1)]
    ideal = [SparseEchelon() for _ in range(max_degree + 1)]
    for d in range(max_degree + 1):
        pos = positions[d]
        for g, gdeg in zip(gens, gen_degs):
            if d < gdeg:
                continue
            for b in basis[d - gdeg]:
                nf = system.right_multiply(b, g)
                ideal[d].add({pos[w]: c for w, c in nf.items()})
    return CyclicModuleModel(max_degree, basis, ideal, positions)


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
        one row per shift generator."""
        degrees = self.presentation.z_degrees
        column = self.column
        shifts = []
        for s in shift_generators:
            if not s.is_zero():
                shifts.append((s, self.max_degree - s.max_z_degree(degrees)))
        for i in range(max((top for _, top in shifts), default=-1) + 1):
            for u in words_of_degree(degrees, i):
                for s, top in shifts:
                    if i <= top:
                        yield {column[u + w]: c for w, c in s.items()}

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
