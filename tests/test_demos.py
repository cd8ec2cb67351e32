"""Smoke test: every demo script runs to completion and prints something."""
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(demo)], capture_output=True,
                          text=True, env=env, cwd=ROOT, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
