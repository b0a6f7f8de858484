"""Smoke test: the quick examples run to completion.

Each example runs as its own process, the way a user runs it, with the
result cache pointed at a temporary directory.  ``reproduce_paper`` and
``design_space_exploration`` are left out: they take minutes.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "name",
    ["buffer_dynamics", "gcn_inference", "quickstart", "custom_graph",
     "energy_analysis"],
)
def test_example_runs(tmp_path, name):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    env["REPRO_CACHE_DIR"] = str(tmp_path)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "examples" / f"{name}.py")],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
