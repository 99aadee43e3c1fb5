"""Exact row reduction over the rationals, computed on integer rows.

Rows are sparse maps from an integer column to a nonzero rational (an
``int`` or a ``Fraction``).  A row pivots on its least column and rows are
inserted in caller order, so ranks and echelon bases are deterministic.

The kernel is fraction-free in the style of Bareiss (1968): an input row's
denominators are cleared once, on entry, every stored pivot row is a
primitive integer row (content divided out, positive leading entry), and an
elimination step is ``row <- (b/g) row - (a/g) pivot`` with ``g = gcd(a, b)``.
``Fraction`` objects are made only where results leave the kernel.
``reduced_echelon`` and ``dense_nullspace`` are thin wrappers over it.
``reduce_integer`` hands the integer reduction out as ``(row, scale)``, for
callers that keep their own rows over a common denominator (the graded
oracle's normal forms).

Two-dimensional subspaces (subalgebra planes, lines of ``P^3`` as planes of
forms) need no echelon: ``IntegerPlane``, the one type for the span of two
vectors, reads rank, membership and coordinates from the integer Plücker
coordinates of its basis; it makes ``Fraction`` objects only in ``solve``
and in ``v1`` and ``v2``, which reports and messages read.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

from .errors import RankDeficientError


def _integer_row(row: dict) -> tuple:
    """Clear denominators: ``(ints, den)`` with ``row == ints / den``, in a
    new dict, since elimination mutates it; an ``int`` row is copied."""
    for v in row.values():
        if type(v) is not int:
            break
    else:
        return {c: v for c, v in row.items() if v}, 1
    den = lcm(*(v.denominator for v in row.values()))
    return {c: v.numerator * (den // v.denominator) for c, v in row.items() if v}, den


class SparseEchelon:
    """Incremental echelon form over the rationals.

    A row's pivot is its least column.  Pivot rows are stored as primitive
    integer rows with no column below the pivot, so a single ascending
    elimination pass reduces any row completely.
    """

    def __init__(self):
        self._pivots = {}   # column -> primitive integer row, lead > 0; insertion order

    @property
    def rank(self) -> int:
        return len(self._pivots)

    def pivot_columns(self) -> list:
        return list(self._pivots)

    def rows(self) -> list:
        """The stored primitive integer rows, in insertion order; callers
        must not mutate them."""
        return list(self._pivots.values())

    def copy(self) -> "SparseEchelon":
        """An independent echelon with the same pivots; rows added to the
        copy leave this one unchanged."""
        new = SparseEchelon()
        new._pivots = dict(self._pivots)   # stored rows are never mutated
        return new

    def _eliminate(self, row: dict) -> tuple:
        """Reduce an integer row against the pivots.

        Returns ``(reduced, scale)``: ``reduced / scale`` is the input minus
        a combination of pivot rows, with no entry in a pivot column.
        """
        pivots = self._pivots
        scale = 1
        while True:
            hit = None
            for c in row:
                if c in pivots and (hit is None or c < hit):
                    hit = c
            if hit is None:
                return row, scale
            prow = pivots[hit]
            a = row[hit]
            b = prow[hit]
            g = gcd(a, b)
            if g != b:
                m = b // g
                scale *= m
                row = {c: v * m for c, v in row.items()}
            f = a // g
            for c, v in prow.items():
                s = row.get(c, 0) - f * v
                if s:
                    row[c] = s
                else:
                    del row[c]

    def reduce_integer(self, row: dict) -> tuple:
        """``(reduced, scale)`` for an integer row with no zero entry:
        ``reduced / scale`` is its full reduction, an integer row.  ``row``
        itself may be changed."""
        return self._eliminate(row)

    def reduce(self, row: dict) -> dict:
        """Fully reduce ``row`` against the stored pivot rows; the result
        is exact, with ``Fraction`` values."""
        ints, den = _integer_row(row)
        red, scale = self._eliminate(ints)
        den *= scale
        return {c: Fraction(v, den) for c, v in red.items()}

    def add(self, row: dict):
        """Reduce ``row`` and, if nonzero, insert it as a new pivot row.

        Returns the new pivot column, or None if the row was dependent.
        """
        red, _ = self._eliminate(_integer_row(row)[0])
        if not red:
            return None
        pivot = min(red)
        g = gcd(*red.values())
        if red[pivot] < 0:
            g = -g
        if g != 1:
            red = {c: v // g for c, v in red.items()}
        self._pivots[pivot] = red
        return pivot

    def contains(self, row: dict) -> bool:
        return not self._eliminate(_integer_row(row)[0])[0]


def reduced_echelon(rows, ncols) -> list:
    """The reduced row echelon form of the matrix with the given rows.

    Returns one Fraction tuple of length ``ncols`` per pivot, in ascending
    pivot order: 1 at its pivot and 0 at every other pivot column.
    """
    ech = SparseEchelon()
    for r in rows:
        ech.add({j: v for j, v in enumerate(r) if v})
    zero, one = Fraction(0), Fraction(1)
    out = []
    for p in sorted(ech.pivot_columns()):
        # back-substitution: e_p minus its reduction is the row of pivot p
        red = ech.reduce({p: 1})
        out.append(tuple((one if c == p else zero) - red.get(c, zero) for c in range(ncols)))
    return out


def dense_nullspace(rows, ncols) -> list:
    """Basis of the right null space of the matrix with the given rows.

    Returns a list of Fraction tuples of length ``ncols``: one vector per
    free column, in ascending order, read off the reduced row echelon form.
    """
    # the null vector of free column f: 1 at f and, at each pivot p, minus
    # the entry of p's row in column f
    row_of = {next(c for c, v in enumerate(row) if v): row for row in reduced_echelon(rows, ncols)}
    zero, one = Fraction(0), Fraction(1)
    return [tuple(-row_of[c][f] if c in row_of else (one if c == f else zero) for c in range(ncols))
            for f in range(ncols) if f not in row_of]


def normalize_integer_vector(vec) -> tuple:
    """Scale a vector of ints and Fractions to coprime integers with positive
    leading sign (the zero vector stays zero).  A vector of ints needs no
    common denominator, and one already coprime with positive lead is
    returned as it is, as a tuple."""
    if all(type(v) is int for v in vec):
        ints = vec
    else:
        den = lcm(*(v.denominator for v in vec))
        ints = [v.numerator * (den // v.denominator) for v in vec]
    g = gcd(*ints)
    if not g:
        return tuple(ints)
    if next(v for v in ints if v) < 0:
        g = -g
    return tuple(ints) if g == 1 else tuple(v // g for v in ints)


def fraction_vector(vec) -> tuple:
    """``vec`` as a tuple of Fractions; entries that already are Fractions
    are kept, not copied."""
    return tuple(c if type(c) is Fraction else Fraction(c) for c in vec)


def _over(vec, den: int) -> tuple:
    """The Fraction tuple ``vec / den``."""
    return fraction_vector(vec) if den == 1 else tuple(Fraction(x, den) for x in vec)


class IntegerPlane:
    """The span of two rational vectors ``u / den`` and ``v / den``, read in
    integer arithmetic (``den`` is 1 unless integer rows ``u`` and ``v``
    are given over a common denominator).

    ``ints`` holds the primitive integer multiples ``a`` of u and ``b`` of v,
    and ``plucker`` the Plücker coordinates ``p_ij = a_i b_j - a_j b_i`` for
    i < j, in lexicographic order.  The vectors are independent iff some
    ``p_ij`` is nonzero.  Then ``w`` lies in their span iff every 3x3 minor
    ``w_i p_jk - w_j p_ik + w_k p_ij`` of ``(w; a; b)`` vanishes, and its
    coordinates over ``(u, v)`` follow by Cramer's rule on the first nonzero
    ``p_ij``.

    ``v1`` and ``v2`` are the two vectors as tuples of Fractions, made when
    they are read, for reports and messages.  Planes compare equal when
    these vectors are equal, not when they span the same plane, and are
    unhashable.
    """

    __slots__ = ("basis", "den", "ints", "plucker")

    def __init__(self, u, v, den: int = 1):
        a, b = normalize_integer_vector(u), normalize_integer_vector(v)
        self.basis = (u, v)
        self.den = den
        self.ints = (a, b)
        self.plucker = {(i, j): a[i] * b[j] - a[j] * b[i]
                        for i, j in combinations(range(len(a)), 2)}

    @property
    def v1(self) -> tuple:
        return _over(self.basis[0], self.den)

    @property
    def v2(self) -> tuple:
        return _over(self.basis[1], self.den)

    def __eq__(self, other):
        return isinstance(other, IntegerPlane) and (self.v1, self.v2) == (other.v1, other.v2)

    def rank_on(self, coords) -> int:
        """Rank of the two vectors restricted to the given ascending
        coordinates."""
        p = self.plucker
        if any(p[ij] for ij in combinations(coords, 2)):
            return 2
        a, b = self.ints
        return 1 if any(a[i] or b[i] for i in coords) else 0

    def rank(self) -> int:
        return self.rank_on(range(len(self.basis[0])))

    def require_rank2(self):
        if self.rank() != 2:
            raise RankDeficientError("subspace basis is rank deficient")

    def contains(self, w) -> bool:
        """Whether ``w`` lies in the span; the rank must be 2."""
        p = self.plucker
        return all(w[i] * p[j, k] - w[j] * p[i, k] + w[k] * p[i, j] == 0
                   for i, j, k in combinations(range(len(w)), 3))

    def pivot(self) -> tuple:
        """The first ``(i, j)`` with ``p_ij`` nonzero; the rank must be 2."""
        return next(ij for ij, p in self.plucker.items() if p)

    def solve(self, w) -> tuple:
        """The Fractions ``(x, y)`` with ``w = (x u + y v) / den``, by
        Cramer's rule on the coordinates of the pivot; ``w`` must lie in the
        span."""
        i, j = self.pivot()
        u, v = self.basis
        det = u[i] * v[j] - u[j] * v[i]
        return (Fraction(self.den * (w[i] * v[j] - w[j] * v[i]), det),
                Fraction(self.den * (u[i] * w[j] - u[j] * w[i]), det))
