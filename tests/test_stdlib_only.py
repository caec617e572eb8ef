"""The ``repro`` package runs on the standard library alone.

``pyproject.toml`` declares no runtime dependencies, so a clean install
has no numpy.  The check runs in a fresh interpreter in which importing
numpy fails, imports every module of the package and simulates a tiny
workload with both DRAM front ends.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parents[1]

SCRIPT = """
import importlib, pkgutil, sys
sys.modules["numpy"] = None  # makes ``import numpy`` raise ImportError
import repro
for module in pkgutil.walk_packages(repro.__path__, "repro."):
    if module.name != "repro.__main__":
        importlib.import_module(module.name)
from repro import baseline_config, run_simulation
for controller in ("reservation", "frfcfs"):
    result = run_simulation(
        "MVT",
        config=baseline_config().with_dram_controller(controller),
        scheduler="simt",
        scale=0.02,
        num_wavefronts=2,
    )
    assert result.total_cycles > 0 and result.walks_dispatched > 0
print("ok")
"""


def test_package_imports_and_simulates_without_numpy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    child = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == "ok"
