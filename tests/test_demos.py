"""Smoke test: the demos run to the end without a traceback.

Demos 01, 02, 04, 05 and 06 run here, each in a few seconds at most:
cones and the Hilbert metric, SPD geometry, differential positivity (with
the flat-space monotonicity cross-check), Perron-Frobenius, and the
causal order.  Demos 03 and 07 take over 10 s each and are left out.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import conedyn

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("name", ["01_cones_and_hilbert_metric.py",
                                  "02_spd_geometry_and_transport.py",
                                  "04_differential_positivity.py",
                                  "05_perron_frobenius.py",
                                  "06_causal_order_minkowski.py"])
def test_cone_demo_runs(tmp_path, name):
    src = str(Path(conedyn.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(DEMOS / name)], cwd=tmp_path,
                          capture_output=True, text=True, env=env,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr
