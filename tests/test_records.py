"""Start-up cost and the behaviour of the package's records.

Records are ``typing.NamedTuple`` classes or plain classes with an explicit
``__init__``; the package does not import ``dataclasses``, which would pull
in ``inspect`` and generate code each time the CLI starts.
"""

import os
import subprocess
import sys

import pytest

import linemod
from linemod import hilbert
from linemod.dsl import parse_algebra, print_algebra
from linemod.geometry import Line
from linemod.hilbert import filtered_model
from linemod.modules import LineModuleSpec
from linemod.ncalg import Generator, NcPoly
from linemod.presets import preset


def test_cli_import_leaves_out_dataclasses_and_inspect():
    # -S: a site .pth file may import anything; this checks the package alone
    code = ("import sys, linemod.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    src = os.path.dirname(os.path.dirname(linemod.__file__))
    out = subprocess.run([sys.executable, "-S", "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"


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
