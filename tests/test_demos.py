"""Smoke tests for the narrative walk-throughs in demos/, run as the README
shows them: one interpreter per script, importing corrgen from src/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name, expected", [
    ("run_condition_checks.py", "verdict: RULED_OUT"),
    ("find_factorization.py", "converged=True"),
])
def test_demo_runs(name, expected):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert expected in proc.stdout
