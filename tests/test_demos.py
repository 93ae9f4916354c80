"""Each demo prints its pinned stdout.

A demo runs as a user would run it, ``python -W error demos/<name>.py``
on ``src``, and its stdout must equal ``demos/expected/<name>.txt`` byte
for byte.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_prints_its_pinned_stdout(demo):
    done = subprocess.run(
        [sys.executable, "-W", "error", str(demo)], cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr.decode()
    expected = ROOT / "demos" / "expected" / f"{demo.stem}.txt"
    assert done.stdout == expected.read_bytes()
