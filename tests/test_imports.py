"""The import contract, checked in fresh interpreters.

``import conedyn`` loads no submodule, ``conedyn.<module>`` loads one on
first use, and building the registry's systems loads neither the
integrator nor any layer above it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import conedyn

SRC = str(Path(conedyn.__file__).resolve().parents[1])
_LOADED = ("import json, sys\n"
           "print(json.dumps(sorted(m for m in sys.modules"
           " if m.startswith('conedyn.'))))\n")


def _fresh(tmp_path, code):
    """Run code in a fresh interpreter that imports conedyn from SRC and
    return what it prints, read as JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_import_conedyn_loads_no_submodule(tmp_path):
    assert _fresh(tmp_path, "import conedyn\n" + _LOADED) == []


def test_building_every_system_loads_no_integrator(tmp_path):
    loaded = _fresh(tmp_path, (
        "from conedyn import registry\n"
        "for name in registry.SYSTEMS:\n"
        "    registry.default_field(registry.get_system(name))\n") + _LOADED)
    assert "conedyn.registry" in loaded
    for module in ("cli", "experiments", "flow", "order", "pf", "positivity",
                   "reports"):
        assert f"conedyn.{module}" not in loaded


def test_a_submodule_loads_on_first_use(tmp_path):
    names = _fresh(tmp_path, (
        "import json, conedyn\n"
        "flow = conedyn.flow\n"
        "print(json.dumps([conedyn.__file__, flow.__name__,"
        " flow.FlowSystem is conedyn.geometry.FlowSystem]))\n"))
    assert Path(names[0]).resolve().is_relative_to(SRC)
    assert names[1:] == ["conedyn.flow", True]


def test_only_submodules_resolve_on_the_package():
    from conedyn import flow, geometry

    assert flow.FlowSystem is geometry.FlowSystem
    for name in ("ConeField", "FlowSystem", "euclidean", "nope"):
        with pytest.raises(AttributeError):
            getattr(conedyn, name)
