from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from linemod.linalg import (
    IntegerPlane,
    SparseEchelon,
    dense_nullspace,
    fraction_vector,
    normalize_integer_vector,
    reduced_echelon,
)


def test_rank_and_membership():
    plane = IntegerPlane((1, 0, 2), (0, 1, 3))
    assert plane.rank() == 2
    assert plane.rank_on([0, 2]) == 2 and plane.rank_on([2]) == 1
    assert plane.contains((1, 1, 5)) and plane.contains((2, -1, 1))
    assert not plane.contains((0, 0, 1))
    assert IntegerPlane((1, 2, 0), (Fraction(-1, 2), -1, 0)).rank() == 1
    assert IntegerPlane((0, 0), (0, 0)).rank() == 0


def test_coords_in_span():
    plane = IntegerPlane((1, 0, 2), (0, 1, 3))
    coeffs = plane.solve((2, -1, 1))
    assert coeffs == (2, -1)
    assert all(type(c) is Fraction for c in coeffs)
    # the coordinates are over the given basis, not its integer multiples
    plane = IntegerPlane((Fraction(1, 2), 0, 1), (0, -2, 6))
    assert plane.ints == ((1, 0, 2), (0, 1, -3))
    assert plane.solve((1, 2, -1)) == (2, -1)
    assert plane.solve((0, 0, 0)) == (0, 0)


def test_fraction_vector_keeps_fractions():
    half = Fraction(1, 2)
    vec = fraction_vector((half, 3, "2/3"))
    assert vec == (half, 3, Fraction(2, 3))
    assert vec[0] is half
    assert all(type(c) is Fraction for c in vec)


def test_echelon_deterministic_rank():
    ech = SparseEchelon()
    assert ech.add({0: Fraction(1), 1: Fraction(2)}) == 0
    assert ech.add({1: Fraction(1)}) == 1
    assert ech.add({0: Fraction(3), 1: Fraction(-1)}) is None
    assert ech.rank == 2
    assert ech.pivot_columns() == [0, 1]


def test_nullspace():
    basis = dense_nullspace([(1, 0, 0, 0), (0, 0, 1, -1)], 4)
    assert len(basis) == 2
    for vec in basis:
        assert vec[0] == 0
        assert vec[2] == vec[3]


def test_normalize_integer_vector():
    assert normalize_integer_vector((Fraction(1, 2), Fraction(-1, 3), 0)) == (3, -2, 0)
    assert normalize_integer_vector((Fraction(-2), Fraction(4), 0)) == (1, -2, 0)
    assert normalize_integer_vector((0, 0)) == (0, 0)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-30, 30), min_size=1, max_size=6))
def test_normalize_integer_vector_on_ints(ints):
    # an int vector skips the common denominator; the output is the same
    # tuple of ints as for the equal Fraction vector, a list or a tuple in
    out = normalize_integer_vector(tuple(ints))
    assert out == normalize_integer_vector([Fraction(v) for v in ints])
    assert out == normalize_integer_vector(ints)
    assert type(out) is tuple and all(type(v) is int for v in out)


# ----------------------------------------------------------------------
# the integer kernel against an independent dense Gauss-Jordan
# ----------------------------------------------------------------------


def gauss_jordan(rows, cols):
    """Reduced row echelon form over Fractions, pivoting on ``cols`` in the
    order given.  Returns {pivot column: row dict}, each row 1 at its pivot
    and 0 at every other pivot."""
    mat = [[Fraction(r.get(c, 0)) for c in cols] for r in rows]
    where = {}
    r = 0
    for j, c in enumerate(cols):
        pr = next((i for i in range(r, len(mat)) if mat[i][j]), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        lead = mat[r][j]
        mat[r] = [v / lead for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][j]:
                f = mat[i][j]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        where[c] = r
        r += 1
    return {c: {cols[j]: v for j, v in enumerate(mat[i]) if v} for c, i in where.items()}


def reference_reduce(vec, rref):
    """``vec`` minus the element of the span that agrees with it on every
    pivot column."""
    out = {c: Fraction(v) for c, v in vec.items() if v}
    for p, row in rref.items():
        f = out.get(p, 0)
        if f:
            for c, v in row.items():
                s = out.get(c, 0) - f * v
                if s:
                    out[c] = s
                else:
                    del out[c]
    return out


entries = st.one_of(
    st.just(0),
    st.integers(-3, 3),
    st.fractions(min_value=-5, max_value=5, max_denominator=9),
    st.integers(-10**30, 10**30),
    st.builds(Fraction, st.integers(-10**12, 10**12), st.integers(1, 10**12)),
)


@st.composite
def matrices(draw):
    """Columns 0..n-1, a random column order, and rows of which some are
    combinations of earlier rows (so dependent rows occur)."""
    n = draw(st.integers(1, 6))
    order = draw(st.permutations(range(n)))
    rows = []
    for _ in range(draw(st.integers(0, 7))):
        if rows and draw(st.booleans()):
            coeffs = [draw(entries) for _ in rows]
            row = {c: sum(k * r.get(c, 0) for k, r in zip(coeffs, rows)) for c in range(n)}
        else:
            row = {c: draw(entries) for c in range(n)}
        rows.append({c: v for c, v in row.items() if v})
    probe = {c: draw(entries) for c in range(n)}
    return n, order, rows, {c: v for c, v in probe.items() if v}


def _by_rank(data):
    """The drawn matrix with each column relabelled as its rank in the drawn
    column order, which the kernel's least-column pivoting then follows."""
    n, order, rows, probe = data
    rank_of = {c: i for i, c in enumerate(order)}

    def relabel(row):
        return {rank_of[c]: v for c, v in row.items()}

    return n, list(range(n)), [relabel(r) for r in rows], relabel(probe)


def _echelon(rows):
    ech = SparseEchelon()
    added = [ech.add(r) for r in rows]
    return ech, added


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_echelon_matches_gauss_jordan(data):
    n, order, rows, probe = _by_rank(data)
    ech, added = _echelon(rows)
    rref = gauss_jordan(rows, order)
    assert ech.rank == len(rref)
    # add() returns the pivot a prefix gains, None when the rank stays
    for i, pivot in enumerate(added):
        before = set(gauss_jordan(rows[:i], order))
        after = set(gauss_jordan(rows[: i + 1], order))
        assert pivot == (None if after == before else (after - before).pop())
    assert ech.pivot_columns() == [p for p in added if p is not None]
    assert ech.reduce(probe) == reference_reduce(probe, rref)
    assert all(type(v) is Fraction for v in ech.reduce(probe).values())
    assert ech.contains(probe) == (not reference_reduce(probe, rref))
    for row in rows:
        assert ech.contains(row)
        assert ech.reduce(row) == {}


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_pivot_rows_are_lead_one_reductions(data):
    n, order, rows, _ = _by_rank(data)
    ech, added = _echelon(rows)
    prefix = []
    pivot_rows = iter({c: Fraction(v, row[pivot]) for c, v in row.items()}
                      for row, pivot in zip(ech.integer_rows(), ech.pivot_columns()))
    for row, pivot in zip(rows, added):
        if pivot is not None:
            stored = next(pivot_rows)
            assert stored[pivot] == 1
            assert min(stored, key=order.index) == pivot
            # the row as reduced when it was inserted, scaled to lead 1
            red = reference_reduce(row, gauss_jordan(prefix, order))
            assert stored == {c: v / red[pivot] for c, v in red.items()}
        prefix.append(row)


@settings(max_examples=100, deadline=None)
@given(matrices(), matrices())
def test_copy_is_independent(first, second):
    n, order, rows, probe = _by_rank(first)
    ech, _ = _echelon(rows)
    snapshot = (ech.rank, ech.pivot_columns(), [dict(r) for r in ech.integer_rows()],
                ech.reduce(probe))
    dup = ech.copy()
    extra = [{c % n: v for c, v in r.items()} for r in second[2]]
    for row in extra:
        dup.add(row)
    assert (ech.rank, ech.pivot_columns(), ech.integer_rows(), ech.reduce(probe)) == snapshot
    rref = gauss_jordan(rows + extra, order)
    assert dup.rank == len(rref)
    assert dup.reduce(probe) == reference_reduce(probe, rref)


@settings(max_examples=100, deadline=None)
@given(matrices(), matrices(), matrices(), st.integers(0, 3))
def test_shifted_insertion_matches_adding_the_shifted_rows(first, second, extra, offset):
    # two echelons moved into disjoint column blocks, as the graded oracle
    # places its left shifts, then further rows over the whole range
    blocks = [(first[2], offset), (second[2], offset + first[0])]
    ncols = offset + first[0] + second[0]
    rows = [{c % ncols: v for c, v in r.items()} for r in extra[2]]
    probe = {c % ncols: v for c, v in extra[3].items()}
    shifted, plain = SparseEchelon(), SparseEchelon()
    for block_rows, off in blocks:
        ech = SparseEchelon()
        for r in block_rows:
            ech.add(r)
        shifted.add_shifted(ech, off)
        for r in block_rows:
            plain.add({c + off: v for c, v in r.items()})
    for r in rows:
        shifted.add(r)
        plain.add(r)
    assert shifted.rank == plain.rank
    assert set(shifted.pivot_columns()) == set(plain.pivot_columns())
    # the remainder is unique for a given row space and pivot set
    assert shifted.reduce(probe) == plain.reduce(probe)


def test_shifted_insertion_onto_a_taken_pivot_raises():
    ech, low = SparseEchelon(), SparseEchelon()
    ech.add({2: 1, 3: 1})
    low.add({0: 1})
    low.add({1: 2, 2: 1})
    # the first moved pivot, column 1, is free and the second is not:
    # nothing goes in
    with pytest.raises(ValueError, match="pivot column 2"):
        ech.add_shifted(low, 1)
    assert (ech.rank, ech.pivot_columns()) == (1, [2])
    ech.add_shifted(low, 3)
    assert ech.pivot_columns() == [2, 3, 4]
    assert ech.integer_rows()[1:] == [{3: 1}, {4: 2, 5: 1}]


@settings(max_examples=100, deadline=None)
@given(matrices())
def test_nullspace_matches_gauss_jordan(data):
    n, _, rows, _ = data
    dense = [tuple(r.get(c, 0) for c in range(n)) for r in rows]
    rref = gauss_jordan(rows, list(range(n)))
    # the reduced echelon rows, in ascending pivot order
    echelon = reduced_echelon(dense, n)
    assert echelon == [tuple(rref[p].get(c, 0) for c in range(n)) for p in sorted(rref)]
    assert all(type(v) is Fraction for row in echelon for v in row)
    expected = []
    for f in range(n):
        if f not in rref:
            vec = [Fraction(0)] * n
            vec[f] = Fraction(1)
            for p, row in rref.items():
                vec[p] = -row.get(f, 0)
            expected.append(tuple(vec))
    assert dense_nullspace(dense, n) == expected


F = Fraction
NULLSPACE_FIXTURES = [
    (([(1, 0, 0, 0), (0, 0, 1, -1)], 4),
     [(0, 1, 0, 0), (0, 0, 1, 1)]),
    (([(F(1, 2), F(-3, 4)), (1, F(-3, 2))], 2),
     [(F(3, 2), 1)]),
    (([(2, 4, -2, 6, 0), (F(1, 3), 0, 1, F(-5, 7), 2), (3, 6, -3, 9, 0)], 5),
     [(-3, 2, 1, 0, 0), (F(15, 7), F(-18, 7), 0, 1, 0), (-6, 3, 0, 0, 1)]),
    (([(0, 0, 0), (0, 0, 0)], 3),
     [(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
    (([], 3),
     [(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
    (([(1, 2), (3, 4)], 2),
     []),
    (([(0, 10**20 + 1, F(1, 10**9), 7), (5, 0, 0, F(-2, 3))], 4),
     [(0, F(-1, 100000000000000000001000000000), 1, 0),
      (F(2, 15), F(-7, 100000000000000000001), 0, 1)]),
]


def test_nullspace_fixtures():
    for (rows, ncols), expected in NULLSPACE_FIXTURES:
        basis = dense_nullspace(rows, ncols)
        assert basis == [tuple(F(v) for v in vec) for vec in expected]
        assert all(type(v) is Fraction for vec in basis for v in vec)


@st.composite
def planes(draw):
    """Two vectors of length 1-6, the second sometimes a multiple of the
    first or zero, and a probe that is sometimes a combination of them."""
    n = draw(st.integers(1, 6))
    u = tuple(draw(entries) for _ in range(n))
    if draw(st.booleans()):
        k = draw(entries)
        v = tuple(k * x for x in u)
    else:
        v = tuple(draw(entries) for _ in range(n))
    if draw(st.booleans()):
        x, y = draw(entries), draw(entries)
        w = tuple(x * a + y * b for a, b in zip(u, v))
    else:
        w = tuple(draw(entries) for _ in range(n))
    return u, v, w


@settings(max_examples=150, deadline=None)
@given(planes(), st.data())
def test_integer_plane_matches_gauss_jordan(vectors, data):
    u, v, w = vectors
    n = len(u)
    rows = [{c: x for c, x in enumerate(r) if x} for r in (u, v)]
    rref = gauss_jordan(rows, list(range(n)))
    plane = IntegerPlane(u, v)
    assert plane.rank() == len(rref)
    coords = sorted(data.draw(st.sets(st.integers(0, n - 1))))
    assert plane.rank_on(coords) == len(gauss_jordan(rows, coords))
    if len(rref) != 2:
        return
    probe = {c: x for c, x in enumerate(w) if x}
    inside = not reference_reduce(probe, rref)
    assert plane.contains(w) == inside
    if inside:
        x, y = plane.solve(w)
        assert type(x) is type(y) is Fraction
        assert tuple(x * a + y * b for a, b in zip(u, v)) == w


@st.composite
def rows_over_a_denominator(draw):
    """Two integer rows of length 1-5, a probe row of the same length, and
    a denominator."""
    row = st.tuples(*[st.integers(-6, 6)] * draw(st.integers(1, 5)))
    return draw(row), draw(row), draw(row), draw(st.integers(1, 12))


@settings(max_examples=150, deadline=None)
@given(rows_over_a_denominator(), st.data())
def test_plane_over_a_denominator_matches_fraction_plane(drawn, data):
    r1, r2, probe, den = drawn
    n = len(r1)
    over = IntegerPlane(r1, r2, den)
    plane = IntegerPlane(*(tuple(Fraction(x, den) for x in r) for r in (r1, r2)))
    assert (over.v1, over.v2) == (plane.v1, plane.v2)
    assert all(type(c) is Fraction for c in over.v1 + over.v2 + plane.v1 + plane.v2)
    assert over == plane and plane == over
    assert over.rank() == plane.rank()
    coords = sorted(data.draw(st.sets(st.integers(0, n - 1))))
    assert over.rank_on(coords) == plane.rank_on(coords)
    # equality is by the two vectors, not by the plane they span
    assert (IntegerPlane(r2, r1, den) == over) == (r1 == r2)
    with pytest.raises(TypeError):
        hash(over)
    if over.rank() != 2:
        return
    x, y = data.draw(st.integers(-3, 3)), data.draw(st.integers(-3, 3))
    for w in (probe, tuple(x * a + y * b for a, b in zip(r1, r2))):
        assert over.contains(w) == plane.contains(w)
        if over.contains(w):
            assert over.solve(w) == plane.solve(w)
