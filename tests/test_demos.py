"""The demos print exactly the output recorded in tests/demo_outputs.

Each demo runs as a script with PYTHONPATH=src, the way README runs them, and
its stdout must equal the recorded file byte for byte.  A refactor that keeps
every canonical output keeps these files; a change that means to alter a
demo's output records the new file with

    PYTHONPATH=src python demos/<name>.py > tests/demo_outputs/<name>.txt
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0[1-5]_*.py"))


def test_every_demo_has_a_recorded_output():
    assert [d.stem for d in DEMOS] == sorted(
        p.stem for p in (ROOT / "tests" / "demo_outputs").glob("*.txt"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_output_is_unchanged(demo):
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, timeout=60)
    assert proc.returncode == 0, proc.stderr.decode()
    expected = (ROOT / "tests" / "demo_outputs" / f"{demo.stem}.txt").read_bytes()
    assert proc.stdout == expected
