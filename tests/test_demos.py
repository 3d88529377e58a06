"""Smoke test: every script in demos/ runs to completion without a warning."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("demo_*.py")))
def test_demo_runs_without_warnings(tmp_path, demo):
    # a fresh interpreter with every warning an error, in a scratch
    # directory, since the demos write their CSVs to the working directory
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-W", "error", str(ROOT / "demos" / demo)],
        cwd=tmp_path, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
