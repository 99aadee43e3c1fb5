"""Start-up cost and the behaviour of the package's records.

Records are ``typing.NamedTuple`` classes or plain classes with an explicit
``__init__``; the package does not import ``dataclasses``, which would pull
in ``inspect`` and generate code each time the CLI starts.  Every submodule
but ``cli`` is registered lazily, so a command compiles and runs only the
modules it reads.
"""

import ast
import os
import subprocess
import sys

from pathlib import Path

import pytest

import linemod
from linemod import hilbert
from linemod.dsl import parse_algebra, print_algebra
from linemod.geometry import Line
from linemod.hilbert import filtered_model
from linemod.modules import LineModuleSpec
from linemod.ncalg import Generator, NcPoly
from linemod.presets import preset


def _probe(code: str, expr: str):
    """The value of ``expr`` after ``code`` runs in a fresh interpreter
    that has imported ``sys`` and ``types``; -S, since a site .pth file may
    import anything and this checks the package alone."""
    src = os.path.dirname(os.path.dirname(linemod.__file__))
    probe = f"import sys, types\n{code}\nprint({expr})"
    out = subprocess.run([sys.executable, "-S", "-c", probe],
                         env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True).stdout
    return ast.literal_eval(out.splitlines()[-1])


# the linemod submodules whose code has run: a lazy module that nothing has
# read yet is still of the loader's own module type
_LOADED = ("sorted(n[8:] for n, m in sys.modules.items() "
           "if n.startswith('linemod.') and type(m) is types.ModuleType)")


def test_cli_import_leaves_out_dataclasses_and_inspect():
    assert _probe("import linemod.cli",
                  "sorted({'dataclasses', 'inspect'} & set(sys.modules))") == []


def test_import_registers_every_submodule_without_running_it():
    # the traced benchmark finds each layer in sys.modules after importing
    # linemod.cli, and reading the module's namespace runs it
    submodules = {path.stem for path in Path(linemod.__file__).parent.glob("*.py")}
    registered = _probe("import linemod",
                        "sorted(n[8:] for n in sys.modules if n.startswith('linemod.'))")
    assert set(registered) == submodules - {"__init__", "cli"}
    assert _probe("import linemod", _LOADED) == []


def test_cli_import_runs_only_what_parsing_arguments_reads():
    assert _probe("import linemod.cli", _LOADED) == [
        "cli", "errors", "ncalg", "presets", "reports", "rewrite"]


@pytest.mark.parametrize("argv, ran, skipped", [
    (["hilbert", "--algebra", "sl2_A", "--max-degree", "4"], {"hilbert", "linalg"},
     {"liealg", "geometry", "modules", "dsl", "suites"}),
    (["certify-line", "--algebra", "slc_H", "--gen", "a1", "--gen", "a2 + a3", "--max-degree", "3"],
     {"modules", "hilbert", "dsl"}, {"suites", "geometry", "liealg"}),
])
def test_a_command_runs_only_the_modules_it_reads(argv, ran, skipped):
    loaded = set(_probe(f"from linemod.cli import main\nassert main({argv!r}) == 0", _LOADED))
    assert ran <= loaded
    assert not loaded & skipped


def test_cli_runs_as_a_module_without_a_runpy_warning():
    # the benchmark starts every child as `python -m linemod.cli`; runpy
    # warns when the module it runs is already in sys.modules
    src = os.path.dirname(os.path.dirname(linemod.__file__))
    done = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "linemod.cli",
                           "--version"], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == f"linemod {linemod.__version__}\n"


def test_exports_are_their_home_modules_objects():
    table = [name for names in linemod._EXPORTS.values() for name in names]
    assert sorted(table) == sorted(linemod.__all__) == sorted(set(table))
    for home, names in linemod._EXPORTS.items():
        module = sys.modules[f"linemod.{home}"]
        assert all(getattr(linemod, name) is getattr(module, name) for name in names)
    namespace = {}
    exec("from linemod import *", namespace)
    assert all(namespace[name] is getattr(linemod, name) for name in linemod.__all__)
    with pytest.raises(AttributeError, match="no_such_name"):
        linemod.no_such_name


def test_equal_presentations_share_one_filtered_model():
    first = preset("sl11_Uhat")
    second = parse_algebra(print_algebra(first))
    assert second is not first
    assert second == first and hash(second) == hash(first)
    hilbert._filtered_model.cache_clear()
    model = filtered_model(first, 2)
    assert filtered_model(second, 2) is model
    info = hilbert._filtered_model.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
    assert second != preset("sl11_U")


@pytest.mark.parametrize("record, field", [
    (Generator(0, "x"), "name"),
    (preset("sl2_U"), "relations"),
    (Line(((0, 0, 1, 0), (0, 0, 0, 1))), "forms"),
])
def test_hashed_records_are_immutable(record, field):
    before = hash(record)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    assert hash(record) == before


def test_line_module_spec_keeps_its_model(hhat_system):
    spec = LineModuleSpec(hhat_system, (NcPoly.gen(2), NcPoly.gen(0) + NcPoly.gen(1)))
    model = spec.model(3)
    assert spec.model(3) is model and spec.model(2) is model
    assert spec.model(4) is not model and spec.model(4).max_degree == 4
