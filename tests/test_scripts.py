"""Smoke runs of the experiment scripts on tiny grids.

Each script exits 0 only when its check holds: no classifier/solver mismatch,
no root on a nilpotent model, no table/solver disagreement in the catalog.
"""
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize(
    "script, args",
    [
        ("classification_equivalence.py", ["--count", "6", "--dims", "3", "4"]),
        ("nilpotent_no_go.py", ["--ladder", "8", "16", "--max-extra", "0"]),
        ("catalog_sweep.py", ["--nu", "1", "--t", "2", "--mu-steps", "1", "--quiet"]),
    ],
)
def test_script_exits_clean(script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", script), *args],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
