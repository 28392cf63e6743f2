"""Smoke tests: each experiment script runs to completion at a tiny size."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_kn_census_script():
    lines = run_script("kn_census.py", "--max-n", "3")
    assert len(lines) == 4
    rows = [tuple(int(x) for x in line.split()) for line in lines[1:]]
    assert rows == [(1, 2, 1, 2), (2, 5, 2, 5), (3, 18, 4, 18)]
