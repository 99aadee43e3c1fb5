"""Exact computer algebra for line modules over homogenized enveloping
algebras of small Lie superalgebras and color Lie algebras.

The package certifies bounded-degree statements by two independent
computational routes wherever possible: diamond-lemma rewriting normal
forms on one side, brute-force graded or filtered linear algebra over the
free algebra on the other.  All arithmetic is exact over the rationals.
"""

__version__ = "0.1.0"

import sys
from importlib.util import LazyLoader, find_spec, module_from_spec

# each submodule's exported names, the data of ``__all__``
_EXPORTS = {
    "errors": ("LinemodError",),
    "geometry": ("Line", "Quadric", "classify_line_family_color", "line_on_quadric", "lines_meet"),
    "hilbert": ("filtered_cyclic_dims", "hilbert_algebra", "oracle_graded_dims"),
    "liealg": (
        "BracketTable",
        "Functional",
        "SubalgebraSpec",
        "admissible_functional",
        "bracket",
        "classify_2dim_subalgebras",
        "is_graded_subspace",
        "is_subalgebra",
    ),
    "modules": (
        "CertificationReport",
        "InducedModuleSpec",
        "LineModuleSpec",
        "build_L_h_phi",
        "certify_homogenization_iso",
        "certify_line_module",
        "induced_module_dims",
        "is_Z2_graded_line_module",
        "torsion_free_on",
    ),
    "ncalg": ("Generator", "NcPoly", "TermOrder"),
    "presets": ("preset", "sl2_pencil_quadric", "sl11_middle_quadric"),
    "rewrite": ("Presentation", "RewriteSystem", "Rule", "complete", "normal_form"),
    "dsl": ("parse_algebra", "parse_expression", "print_algebra"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}


def _register_lazily(name: str):
    """Put ``linemod.<name>`` in ``sys.modules`` as a module whose code runs
    on its first attribute access, so that a command compiles only the
    modules it reads."""
    spec = find_spec(f"{__name__}.{name}")
    spec.loader = LazyLoader(spec.loader)
    module = module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


# every submodule but ``cli``, which ``python -m linemod.cli`` runs as
# ``__main__`` and so must not find in ``sys.modules``
for _name in ("errors", "ncalg", "rewrite", "linalg", "hilbert", "liealg", "geometry",
              "modules", "presets", "dsl", "reports", "suites"):
    globals()[_name] = _register_lazily(_name)
del _name


def __getattr__(name: str):
    """An exported name, read from its home module on use."""
    if name in _HOME:
        return getattr(globals()[_HOME[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = sorted(_HOME)
