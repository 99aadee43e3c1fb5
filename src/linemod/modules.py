"""Line modules, induced modules, and their degreewise certification.

A line module is a graded cyclic module whose dimensions are 1, 2, 3, ...;
the certificates here check that profile degree by degree, decide
gradedness and torsion of the homogenizing generator, and compare a line
module against the homogenization of a module induced from a subalgebra
pair (S, phi), replaying the surjection-plus-equal-dimensions argument at
bounded degree.
"""

from __future__ import annotations

from typing import NamedTuple

from . import geometry, liealg
from .errors import InhomogeneousError, RankDeficientError, SubalgebraFormError
from .hilbert import (
    CyclicModuleModel,
    cyclic_module_model,
    filtered_cyclic_dims,
    filtered_model,
    line_module_dims,
)
from .linalg import IntegerPlane, SparseEchelon
from .ncalg import NcPoly
from .rewrite import Presentation, RewriteSystem


class LineModuleSpec:
    """A cyclic quotient of a graded algebra by two independent degree-one
    left ideal generators."""

    __slots__ = ("system", "generators", "_model")

    def __init__(self, system: RewriteSystem, generators):
        self.system = system
        self.generators = tuple(generators)
        self._model = None
        if len(self.generators) != 2:
            raise ValueError("a line module spec needs exactly two generators")
        degrees = system.presentation.z_degrees
        for g in self.generators:
            if g.is_zero() or g.z_degrees(degrees) != {1}:
                raise InhomogeneousError("line module generators must be homogeneous of degree one")
        if IntegerPlane(*self.coefficients()).rank() != 2:
            raise RankDeficientError("line module generators are linearly dependent")

    def coefficients(self) -> tuple:
        """The coefficient vectors of the two generators."""
        n = len(self.system.presentation.generators)
        return tuple(g.linear_coefficients(n, "line module generators") for g in self.generators)

    def line(self) -> geometry.Line:
        """The line in P^3 cut out by the two generators."""
        if len(self.system.presentation.generators) != 4:
            raise ValueError("lines live in P^3; the algebra must have four generators")
        return geometry.Line(self.coefficients())

    def model(self, max_degree: int) -> CyclicModuleModel:
        """A degreewise linear model of the module to at least ``max_degree``.

        Its data in degrees <= d are those of the model built to d, so the
        largest model built so far serves every bound it reaches; a larger
        bound builds a new one, which is kept in its place."""
        model = self._model
        if model is None or model.max_degree < max_degree:
            model = self._model = cyclic_module_model(self.system, self.generators, max_degree)
        return model


class CertificationReport(NamedTuple):
    """Outcome of a degreewise certificate; failing any degree fails all."""

    expected: list
    found: list
    passed: bool
    details: dict


# ----------------------------------------------------------------------
# construction from subalgebra pairs
# ----------------------------------------------------------------------


def build_L_h_phi(S: IntegerPlane, phi: liealg.Functional, system: RewriteSystem,
                  table: liealg.BracketTable) -> LineModuleSpec:
    """The module over the homogenized algebra attached to a pair (S, phi),
    for any bracket table: H/H(x - phi(x) t : x in S), with t the
    homogenizer.  The left ideal depends on S, not on its basis, so the
    generators are x - phi(x) t for x = v1, v2.  S must be closed under the
    bracket; phi need not be admissible.
    """
    liealg.require_subalgebra(S, table)
    t = NcPoly.gen(len(system.presentation.generators) - 1)
    return LineModuleSpec(system, liealg.shift_generators(S, phi, t))


def pair_from_line(line: geometry.Line, table: liealg.BracketTable):
    """Invert the pair -> line map in the superalgebra case.

    The line must meet V(h, t) and not lie in V(t); the result is the
    canonical pair (S, phi) with S = span(h, alpha e + beta f) and phi given
    on that basis.  Coordinates are (e, f, h, t).  A pair's line is cut out
    by the forms x - phi(x) t, so the line read backwards is a pair whose
    canonical form is the answer.
    """
    if line.in_plane((0, 0, 0, 1)):
        raise SubalgebraFormError("line lies in V(t)")
    u, v = line.forms
    (alpha, beta), (lam, gamma) = liealg.canonical_pair(
        IntegerPlane(u[:3], v[:3]), liealg.Functional(-u[3], -v[3]), table)
    # canonical projective representative: leading odd coefficient 1
    scale = alpha if alpha else beta
    S = IntegerPlane(*liealg.sl11_basis(alpha / scale, beta / scale))
    return S, liealg.Functional(lam, gamma / scale)


# ----------------------------------------------------------------------
# certificates
# ----------------------------------------------------------------------


def certify_line_module(M: LineModuleSpec, max_degree: int) -> CertificationReport:
    """Dimension certificate: the cyclic quotient has dims d+1 up to the bound."""
    expected = line_module_dims(max_degree)
    found = M.model(max_degree).dims(max_degree)
    return CertificationReport(expected, found, found == expected, {})


def is_Z2_graded_line_module(M: LineModuleSpec) -> bool:
    """Whether the span of the two generators is a graded subspace of the
    degree-one component, for the grading carried by the presentation."""
    pres = M.system.presentation
    labels = pres.group_labels()
    if any(lab is None for lab in labels):
        raise InhomogeneousError(f"{pres.name!r} carries no grading")
    return liealg.is_graded_subspace(IntegerPlane(*M.coefficients()), labels)


def torsion_free_on(M: LineModuleSpec, generator_name: str, max_degree: int) -> bool:
    """Whether multiplication by the named (central) degree-one generator is
    injective on the module in every degree below the bound: the images
    ``NF_M(g w)`` of the degree-d module basis have full rank over the
    degree-(d + 1) basis."""
    pres = M.system.presentation
    g = pres.gen_index(generator_name)
    model = M.model(max_degree)
    for d in range(max_degree):
        column = {w: i for i, w in enumerate(model.basis[d + 1])}
        ech = SparseEchelon()
        for w in model.basis[d]:
            # NF(g w) from the product memo, certified to max_degree by M.model
            image = model.reduce(M.system.right_multiply((), {(g,) + w: 1}))
            if ech.add({column[word]: c for word, c in image.items()}) is None:
                return False
    return True


# ----------------------------------------------------------------------
# induced modules and homogenization
# ----------------------------------------------------------------------


class InducedModuleSpec(NamedTuple):
    """A module induced from a one-dimensional subalgebra module, filtered
    by total degree inside the enveloping presentation."""

    enveloping: Presentation
    table: liealg.BracketTable
    subalgebra: IntegerPlane
    phi: liealg.Functional


def induced_module_dims(I: InducedModuleSpec, max_degree: int) -> list:
    """Filtration dimensions of U/(U {x - phi(x)}), by exact linear algebra
    over free filtered monomials; never consults the rewrite route.

    Raises AdmissibilityError (naming the violated condition) when phi does
    not define a one-dimensional module.
    """
    liealg.require_admissible(I.subalgebra, I.phi, I.table)
    return filtered_cyclic_dims(
        I.enveloping, liealg.shift_generators(I.subalgebra, I.phi, NcPoly.one()), max_degree
    )


def annihilator_contains_generators(I: InducedModuleSpec, M: LineModuleSpec) -> bool:
    """Each left ideal generator of M kills the cyclic generator of the
    homogenized induced module.

    Dehomogenize each generator (homogenizer -> 1; a generator has degree
    one, so its words stay distinct) and test membership in the filtered
    left ideal of the induced module at filtration degree 2, the degree of
    the enveloping relations.
    """
    graded = M.system.presentation
    env = I.enveloping
    hom = len(graded.generators) - 1
    if graded.generator_names()[:hom] != env.generator_names():
        raise ValueError("graded and enveloping alphabets do not match")
    model = filtered_model(env, 2)
    ideal = model.ideal_echelon(liealg.shift_generators(I.subalgebra, I.phi, NcPoly.one()))
    column = model.column
    return all(ideal.contains({column[() if w[0] == hom else w]: c for w, c in g.items()})
               for g in M.generators)


def certify_homogenization_iso(I: InducedModuleSpec, M: LineModuleSpec,
                               max_degree: int) -> CertificationReport:
    """Certificate that the homogenized induced module is the line module.

    Passes iff the filtration dimensions match the module's graded
    dimensions degree by degree and the annihilator containment holds, the
    bounded-degree content of the surjection-plus-equal-dimensions proof.
    """
    induced = induced_module_dims(I, max_degree)
    line_report = certify_line_module(M, max_degree)
    ann = annihilator_contains_generators(I, M)
    return CertificationReport(
        line_report.found,
        induced,
        induced == line_report.found and ann and line_report.passed,
        {"annihilator_containment": ann},
    )
