"""Exact computer algebra for line modules over homogenized enveloping
algebras of small Lie superalgebras and color Lie algebras.

The package certifies bounded-degree statements by two independent
computational routes wherever possible: diamond-lemma rewriting normal
forms on one side, brute-force graded or filtered linear algebra over the
free algebra on the other.  All arithmetic is exact over the rationals.
"""

__version__ = "0.1.0"

from .errors import LinemodError
from .geometry import Line, Quadric, classify_line_family_color, line_on_quadric, lines_meet
from .hilbert import filtered_cyclic_dims, hilbert_algebra, oracle_graded_dims
from .liealg import (
    BracketTable,
    Functional,
    SubalgebraSpec,
    admissible_functional,
    bracket,
    classify_2dim_subalgebras,
    is_graded_subspace,
    is_subalgebra,
)
from .modules import (
    CertificationReport,
    InducedModuleSpec,
    LineModuleSpec,
    build_L_h_phi,
    certify_homogenization_iso,
    certify_line_module,
    induced_module_dims,
    is_Z2_graded_line_module,
    torsion_free_on,
)
from .ncalg import Generator, NcPoly, TermOrder
from .presets import preset, sl2_pencil_quadric, sl11_middle_quadric
from .rewrite import (
    Presentation,
    RewriteSystem,
    Rule,
    complete,
    derivation_trace,
    ideal_member,
    normal_form,
)
from .dsl import parse_algebra, parse_expression, print_algebra

__all__ = [
    "BracketTable",
    "CertificationReport",
    "Functional",
    "Generator",
    "InducedModuleSpec",
    "Line",
    "LineModuleSpec",
    "LinemodError",
    "NcPoly",
    "Presentation",
    "Quadric",
    "RewriteSystem",
    "Rule",
    "SubalgebraSpec",
    "TermOrder",
    "admissible_functional",
    "bracket",
    "build_L_h_phi",
    "certify_homogenization_iso",
    "certify_line_module",
    "classify_2dim_subalgebras",
    "classify_line_family_color",
    "complete",
    "derivation_trace",
    "filtered_cyclic_dims",
    "hilbert_algebra",
    "ideal_member",
    "induced_module_dims",
    "is_Z2_graded_line_module",
    "is_graded_subspace",
    "is_subalgebra",
    "line_on_quadric",
    "lines_meet",
    "normal_form",
    "oracle_graded_dims",
    "parse_algebra",
    "parse_expression",
    "preset",
    "print_algebra",
    "sl11_middle_quadric",
    "sl2_pencil_quadric",
    "torsion_free_on",
]
