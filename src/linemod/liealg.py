"""Bracket algebras given by structure constants.

Covers ordinary Lie algebras, Lie superalgebras and group-graded color Lie
algebras of dimension three (plus the eight-dimensional super example used
for the non-domain certificate).  Subalgebras here are subspaces closed
under the bracket; admissibility of a linear functional means that it
defines a one-dimensional module over the subalgebra, and is decided by
two independent routes that must agree.
Planes are read through their rows over one denominator (``basis``,
``den``); ``Fraction`` values are made for phi's values, canonical
parameters and shift-generator coefficients, and for reports and messages.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations
from math import lcm
from random import Random
from typing import NamedTuple

from .errors import (
    AdmissibilityError,
    RouteDisagreementError,
    SubalgebraFormError,
)
from .hilbert import filtered_model
from .linalg import IntegerPlane
from .ncalg import Generator, NcPoly, bracket_relation, up_to_scale
from .rewrite import Presentation, RewriteSystem, complete, normal_form


class BracketTable:
    """Structure constants of a bracket algebra.

    ``table[i][j]`` holds the coordinates of the bracket of basis vectors
    i and j.  ``signs[i][j]`` is +1 when the associated enveloping relation
    is commutator shaped (b_i b_j - b_j b_i - <b_i,b_j>) and -1 when it is
    anticommutator shaped; it is determined by the grading, never stored as
    an independent commutation factor.  ``enveloping`` is the inhomogeneous
    enveloping presentation on the same ordered basis names.
    """

    __slots__ = ("name", "kind", "basis_names", "table", "signs", "enveloping", "labels",
                 "_terms")

    def __init__(self, name: str, kind: str, basis_names: tuple, table: tuple, signs: tuple,
                 enveloping: Presentation, labels: tuple | None):
        self.name = name
        self.kind = kind                  # "lie" | "super" | "color"
        self.basis_names = basis_names
        self.table = table
        self.signs = signs
        self.enveloping = enveloping
        self.labels = labels
        # the nonzero structure constants as (i, j, k, c), integral ones as int
        terms = []
        for i, row in enumerate(table):
            for j, entry in enumerate(row):
                for k, c in enumerate(entry):
                    if c:
                        c = Fraction(c)
                        terms.append((i, j, k, c.numerator if c.denominator == 1 else c))
        self._terms = tuple(terms)

    @property
    def dimension(self) -> int:
        return len(self.basis_names)


def bracket(x, y, T: BracketTable) -> tuple:
    """Bilinear extension of the structure-constant table.  Every coordinate
    starts at the int 0, so int vectors on an integral table stay in int
    arithmetic."""
    out = [0] * T.dimension
    for i, j, k, c in T._terms:
        if x[i] and y[j]:
            out[k] += c * x[i] * y[j]
    return tuple(out)


# a two-dimensional subspace, given by two coefficient vectors (``v1``,
# ``v2``) or by integer rows over a common denominator
SubalgebraSpec = IntegerPlane


class Functional:
    """Values of a linear functional on the two basis vectors of a
    SubalgebraSpec."""

    __slots__ = ("on_v1", "on_v2")

    def __init__(self, on_v1, on_v2):
        self.on_v1 = Fraction(on_v1)
        self.on_v2 = Fraction(on_v2)

    def __eq__(self, other):
        return isinstance(other, Functional) and self.values() == other.values()

    def values(self) -> tuple:
        return (self.on_v1, self.on_v2)


def is_subalgebra(S: SubalgebraSpec, T: BracketTable) -> bool:
    """Closure under the bracket, tested on all four ordered pairs of the
    integer basis."""
    S.require_rank2()
    return all(S.contains(bracket(x, y, T)) for x in S.ints for y in S.ints)


def require_subalgebra(S: SubalgebraSpec, T: BracketTable) -> None:
    """Raise SubalgebraFormError when S is not closed under the bracket."""
    if not is_subalgebra(S, T):
        raise SubalgebraFormError("subspace is not closed under the bracket")


def is_graded_subspace(S: SubalgebraSpec, labels) -> bool:
    """Whether S is the sum of its intersections with the homogeneous
    components of the grading with the given per-coordinate labels."""
    S.require_rank2()
    n = len(S.basis[0])
    total = 0
    for lab in sorted(set(labels)):
        # dim of S intersected with the component: 2 minus the rank of the
        # basis on the coordinates outside the component
        total += 2 - S.rank_on([i for i in range(n) if labels[i] != lab])
    return total == 2


# ----------------------------------------------------------------------
# canonical forms of classified subalgebras
# ----------------------------------------------------------------------


def sl11_basis(alpha, beta) -> tuple:
    """The canonical basis (h, alpha e + beta f) of sl(1|1), basis order
    (e, f, h)."""
    return (0, 0, 1), (alpha, beta, 0)


def color_basis(i: int, mu) -> tuple:
    """The canonical basis (a_i, a_j + mu a_k), j < k, of the color algebra."""
    j, k = [m for m in range(3) if m != i]
    return (tuple(1 if m == i else 0 for m in range(3)),
            tuple(1 if m == j else (mu if m == k else 0) for m in range(3)))


def sl2_borel_basis(s) -> tuple:
    """The basis (E_s, H_s) of a Borel plane of sl2, basis order (e, f, h):
    E_s = e - s^2 f + s h and H_s = h - 2s f; s = 0 gives span(e, h)."""
    return (1, -s * s, s), (0, -2 * s, 1)


def sl11_form(S: SubalgebraSpec):
    """Canonicalize S to the shape span(h, alpha e + beta f).

    Returns ((alpha, beta), sl11_basis(alpha, beta)); raises
    SubalgebraFormError when S is not of that shape.  Basis order of the
    ambient algebra is (e, f, h).
    """
    S.require_rank2()
    if not S.contains((0, 0, 1)):
        raise SubalgebraFormError("subspace does not contain the even basis vector")
    # with h in S, a basis vector off the h axis is alpha e + beta f plus a
    # multiple of h; v1 is off it unless it is a multiple of h, and then v2 is
    u, v = S.basis
    w = u if u[0] or u[1] else v
    alpha, beta = Fraction(w[0], S.den), Fraction(w[1], S.den)
    return (alpha, beta), sl11_basis(alpha, beta)


def color_form(S: SubalgebraSpec):
    """Canonicalize S to the shape span(a_i, a_j + mu a_k) with mu = +-1.

    Returns ((i, j, k, mu), color_basis(i, mu)) with j < k; raises
    SubalgebraFormError when S is not of that shape.
    """
    S.require_rank2()
    a, b = S.ints
    for i in range(3):
        if not S.contains(tuple(1 if m == i else 0 for m in range(3))):
            continue
        j, k = [m for m in range(3) if m != i]
        # x_j, x_k: coordinates j, k of a_i b - b_i a, which spans the vectors
        # of S with zero i-th coordinate (a_i in S makes (a_i, b_i) nonzero)
        x_j, x_k = a[i] * b[j] - b[i] * a[j], a[i] * b[k] - b[i] * a[k]
        if not x_j:
            raise SubalgebraFormError("complement is a multiple of a single basis vector")
        mu = Fraction(x_k, x_j)
        if mu not in (1, -1):
            raise SubalgebraFormError(f"complement slope {mu} is not +-1")
        return (i, j, k, mu), color_basis(i, mu)
    raise SubalgebraFormError("subspace contains no grading basis vector")


def canonical_form(S: SubalgebraSpec, T: BracketTable) -> tuple:
    """``(params, basis)`` of ``sl11_form`` or ``color_form``, by the kind
    of T: the classified shape of S and its canonical basis, two vectors in
    ambient coordinates derived from the parameters."""
    if T.kind == "super":
        return sl11_form(S)
    if T.kind == "color":
        return color_form(S)
    raise ValueError(f"no canonical pairs for bracket kind {T.kind!r}")


def phi_at(S: SubalgebraSpec, phi: Functional, w) -> Fraction:
    """phi's value on the vector w of S, from its values on v1 and v2."""
    x, y = S.solve(w)
    return x * phi.on_v1 + y * phi.on_v2


def canonical_pair(S: SubalgebraSpec, phi: Functional, T: BracketTable) -> tuple:
    """A classified pair in canonical form: the parameters of
    ``canonical_form``, and phi's values on the canonical basis."""
    params, basis = canonical_form(S, T)
    return params, tuple(phi_at(S, phi, w) for w in basis)


# ----------------------------------------------------------------------
# admissible functionals
# ----------------------------------------------------------------------


def _pair_violation(kind: str, pair):
    """None when the per-family closed condition holds on a canonical pair,
    as returned by ``canonical_pair`` for a table of the given kind; else a
    function that formats the condition it violates."""
    if kind == "super":
        (alpha, beta), (lam, gamma) = pair
        if gamma * gamma == alpha * beta * lam:
            return None
        return lambda: (f"phi(alpha*e+beta*f)^2 = {gamma * gamma} differs from "
                        f"alpha*beta*phi(h) = {alpha * beta * lam}")
    if kind == "color":
        (i, j, k, mu), (val_i, val_w) = pair
        if val_w == 0 or 2 * val_i == mu:
            return None
        return lambda: (f"phi(a_j + mu a_k) = {val_w} is nonzero and phi(a_i) = {val_i} "
                        f"differs from mu/2 = {Fraction(mu, 2)}")
    raise ValueError(f"no canonical pairs for bracket kind {kind!r}")


def _violation(S: SubalgebraSpec, phi: Functional, T: BracketTable):
    """None when phi meets its family's closed condition, else a function
    that formats the condition it violates.

    Raises SubalgebraFormError, for every kind of table, when S is not
    closed under the bracket, before any canonical form is read."""
    require_subalgebra(S, T)
    if T.kind != "lie":
        return _pair_violation(T.kind, canonical_pair(S, phi, T))
    # [v1, v2] = [u, v] / den^2 for the rows u, v of S over den
    value = phi_at(S, phi, bracket(*S.basis, T))
    if value == 0:
        return None
    return lambda: ("phi does not vanish on the derived subalgebra: "
                    f"phi([v1,v2]) = {value / S.den ** 2}")


def closed_form_on_pair(kind: str, pair) -> bool:
    """The per-family closed condition on a canonical pair."""
    return _pair_violation(kind, pair) is None


def closed_form_admissible(S: SubalgebraSpec, phi: Functional, T: BracketTable) -> bool:
    """The per-family closed condition; the reason for a failure is made
    only where it is read (``violated_condition``)."""
    return _violation(S, phi, T) is None


def violated_condition(S: SubalgebraSpec, phi: Functional, T: BracketTable) -> str:
    """The closed condition that phi violates, formatted, or "" when phi
    meets it."""
    why = _violation(S, phi, T)
    return why() if why else ""


def shift_generators(S: SubalgebraSpec, phi: Functional, unit: NcPoly) -> tuple:
    """The left-ideal generators x - phi(x) unit for x = v1, v2: with unit 1
    over the enveloping alphabet, with the homogenizer for the line module.
    The left ideal they generate depends on S, not on its basis.  Each is
    one polynomial, built from a row of S over its denominator and phi's
    value; ``unit`` is a monomial."""
    (word, c), = unit.items()
    return tuple(NcPoly([*(((i,), Fraction(x, S.den)) for i, x in enumerate(row) if x),
                         (word, -value * c)])
                 for row, value in zip(S.basis, phi.values()))


def properness_admissible(S: SubalgebraSpec, phi: Functional, T: BracketTable,
                          max_degree: int = 4) -> bool:
    """Bounded-degree route: the cyclic module U/(U {x - phi(x)}) is nonzero,
    i.e. the identity is not spanned by the filtered left ideal.  The span
    stops at the first row that puts the identity in it."""
    model = filtered_model(T.enveloping, max_degree)
    return model.is_proper(shift_generators(S, phi, NcPoly.one()))


def admissible_functional(S: SubalgebraSpec, phi: Functional, T: BracketTable,
                          max_degree: int = 4) -> bool:
    """Whether phi defines a one-dimensional S-module, by both routes.

    The closed-form and bounded-degree answers are always both computed; a
    disagreement raises RouteDisagreementError.
    """
    closed = closed_form_admissible(S, phi, T)
    proper = properness_admissible(S, phi, T, max_degree)
    if closed != proper:
        raise RouteDisagreementError(
            f"closed form says {closed} but bounded-degree properness says {proper} "
            f"for {T.name} subspace {S.v1}, {S.v2} with phi {phi.values()}"
        )
    return closed


def require_admissible(S: SubalgebraSpec, phi: Functional, T: BracketTable):
    reason = violated_condition(S, phi, T)
    if reason:
        raise AdmissibilityError(reason)


# ----------------------------------------------------------------------
# classification of two-dimensional subalgebras
# ----------------------------------------------------------------------


class ClassificationReport(NamedTuple):
    family: str
    members: list                  # dicts: params, closed, graded
    sufficiency_pass: bool
    samples: int
    closed_sample_count: int
    counterexamples: list

    @property
    def completeness_pass(self) -> bool:
        return not self.counterexamples


def _random_ratio(rng: Random) -> tuple:
    """Numerator and denominator of ``random_fraction``, drawn alike."""
    return rng.randint(-20, 20), rng.randint(1, 20)


def random_fraction(rng: Random) -> Fraction:
    """A small random rational, the sampling unit of the audits and suites."""
    return Fraction(*_random_ratio(rng))


def _mix(rng: Random, u, v) -> tuple:
    """A random invertible integer 2x2 combination of the integer vectors u
    and v, in integer arithmetic."""
    while True:
        a, b, c, d = (rng.randint(-3, 3) for _ in range(4))
        if a * d - b * c != 0:
            break
    return (tuple(a * x + b * y for x, y in zip(u, v)),
            tuple(c * x + d * y for x, y in zip(u, v)))


def random_mix(rng: Random, u, v) -> tuple:
    """Two vectors spanning the span of u and v: a random invertible integer
    2x2 combination of them, taken on integer numerators over one common
    denominator."""
    den = lcm(*(x.denominator for x in (*u, *v)))
    rows = _mix(rng, [x.numerator * (den // x.denominator) for x in u],
                [x.numerator * (den // x.denominator) for x in v])
    return tuple(tuple(Fraction(x, den) for x in r) for r in rows)


def _random_rank2(rng: Random) -> SubalgebraSpec:
    """Random rank-2 subspace of k^3: echelon chart plus a random basis mix.

    All three echelon charts of the Grassmannian are covered, with most
    samples in the dense chart.  Each chart's rows are drawn as integer
    numerators over one denominator: the same draws, in the same order, as
    rows of ``random_fraction`` entries mixed by ``random_mix``.  The mixed
    rows stay integers, over that denominator.
    """
    roll = rng.random()
    if roll < 0.80:
        (p, q), (r, s) = _random_ratio(rng), _random_ratio(rng)
        return SubalgebraSpec(*_mix(rng, (q * s, 0, p * s), (0, q * s, r * q)), q * s)
    if roll < 0.97:
        p, q = _random_ratio(rng)
        return SubalgebraSpec(*_mix(rng, (q, p, 0), (0, 0, q)), q)
    return SubalgebraSpec(*_mix(rng, (0, 1, 0), (0, 0, 1)))


def family_member(S: SubalgebraSpec, T: BracketTable) -> bool:
    """Whether a closed subspace belongs to the classified family."""
    if T.kind == "lie":
        # solvable nonabelian plane: the derived subalgebra is one
        # dimensional and inside the plane (a Borel of sl2)
        w = bracket(*S.ints, T)
        return any(w) and S.contains(w)
    try:
        canonical_form(S, T)
        return True
    except SubalgebraFormError:
        return False


def family_members(T: BracketTable) -> list:
    """Representative members of the classified family, including the
    degenerate parameter points."""
    if T.kind == "super":
        params = [(1, 0), (0, 1), (1, 1), (1, -1), (2, 3), (-1, 5), (7, 2)]
        return [
            {"params": {"alpha": a, "beta": b}, "spec": SubalgebraSpec(*sl11_basis(a, b))}
            for a, b in params
        ]
    if T.kind == "color":
        return [{"params": {"i": i + 1, "mu": mu}, "spec": SubalgebraSpec(*color_basis(i, mu))}
                for i in range(3) for mu in (1, -1)]
    if T.kind == "lie":
        members = [
            {"params": {"borel": "upper"}, "spec": SubalgebraSpec((1, 0, 0), (0, 0, 1))},
            {"params": {"borel": "lower"}, "spec": SubalgebraSpec((0, 1, 0), (0, 0, 1))},
        ]
        for s in (1, -2, Fraction(1, 3)):
            members.append({
                "params": {"borel": f"s={s}"},
                "spec": SubalgebraSpec(*sl2_borel_basis(s)),
            })
        return members
    raise ValueError(f"unknown bracket kind {T.kind!r}")


def classify_2dim_subalgebras(T: BracketTable, samples: int, seed: int) -> ClassificationReport:
    """Verify the claimed family and audit completeness on random subspaces.

    Sufficiency: every claimed member is closed.  Completeness: among
    ``samples`` random rank-2 subspaces, every closed one belongs to the
    family; offenders are reported as counterexamples.
    """
    descriptions = {
        "super": "span(h, alpha e + beta f) for (alpha : beta) in P^1",
        "color": "span(a_i, a_j + mu a_k), mu = +-1, six subspaces",
        "lie": "the Borel planes (solvable nonabelian)",
    }
    members = []
    sufficiency = True
    for m in family_members(T):
        closed = is_subalgebra(m["spec"], T)
        graded = is_graded_subspace(m["spec"], T.labels) if T.labels else None
        sufficiency = sufficiency and closed
        members.append({"params": m["params"], "closed": closed, "graded": graded})
    rng = Random(seed)
    closed_count = 0
    counterexamples = []
    for _ in range(samples):
        S = _random_rank2(rng)
        if is_subalgebra(S, T):
            closed_count += 1
            if not family_member(S, T):
                counterexamples.append({"v1": S.v1, "v2": S.v2})
    return ClassificationReport(
        family=descriptions[T.kind],
        members=members,
        sufficiency_pass=sufficiency,
        samples=samples,
        closed_sample_count=closed_count,
        counterexamples=counterexamples,
    )


# ----------------------------------------------------------------------
# consistency with the enveloping presentation
# ----------------------------------------------------------------------


def table_consistent_with_presentation(T: BracketTable, system: RewriteSystem,
                                       strict_pairs: bool = False) -> bool:
    """Every bracket relation reduces to zero in the presented algebra.

    When ``system`` has one generator more than ``T``, that last generator
    is the homogenizer of the relations.  With ``strict_pairs`` only pairs
    i < j are checked (used for the homogenized superalgebra whose square
    relations were deleted).
    """
    n = T.dimension
    homogenizer = n if len(system.presentation.generators) == n + 1 else None
    for i in range(n):
        for j in range(n):
            if strict_pairs and i >= j:
                continue
            rel = bracket_relation(T.table, T.signs, i, j, homogenizer)
            if rel.is_zero():
                continue
            if not normal_form(rel, system).is_zero():
                return False
    return True


# ----------------------------------------------------------------------
# the rank identity behind the color classification
# ----------------------------------------------------------------------


def color_minor_identity() -> bool:
    """The rank condition of the color classification as an exact identity.

    The 3x5 coefficient matrix of v1, v2 and their three brackets has all
    ten 3x3 minors inside the ideal (2 alpha beta, alpha^2 + beta^2 - 1),
    and two of the minors recover the two generators, so the rank <= 2
    locus is exactly 2 alpha beta = 0 = alpha^2 + beta^2 - 1.  Q[alpha,
    beta] is the free algebra modulo the commutator, so both the ideal's
    Groebner basis and the normal forms come from ``complete``.
    """
    gens = (Generator(0, "alpha"), Generator(1, "beta"))
    one, zero, alpha, beta = NcPoly.one(), NcPoly.zero(), NcPoly.gen(0), NcPoly.gen(1)
    commutator = beta * alpha - alpha * beta
    ideal = ((alpha * beta).scale(2), alpha * alpha + beta * beta - one)
    polys = complete(Presentation("Q[alpha,beta]", gens, (commutator,)), max_degree=4)
    quotient = complete(Presentation("Q[alpha,beta]/I", gens, (commutator,) + ideal),
                        max_degree=4)
    if quotient.discarded_above_bound:
        return False
    cols = [
        (one, zero, alpha),
        (zero, one, beta),
        (zero, alpha.scale(2), zero),
        (beta.scale(2), zero, zero),
        (alpha, beta, one),
    ]
    minors = []
    for triple in combinations(cols, 3):
        # Leibniz expansion; the order of the factors is immaterial modulo
        # the commutator
        det = zero
        for p in permutations(range(3)):
            sign = (-1) ** sum(p[a] > p[b] for a, b in combinations(range(3), 2))
            det += (triple[p[0]][0] * triple[p[1]][1] * triple[p[2]][2]).scale(sign)
        minors.append(det)
    if not all(normal_form(m, quotient).is_zero() for m in minors):
        return False
    # the generators occur among the minors up to scale
    forms = [normal_form(m, polys) for m in minors]
    return all(any(up_to_scale(normal_form(g, polys), m) for m in forms) for g in ideal)
