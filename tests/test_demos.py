"""Each demo prints the bytes recorded in tests/golden/demos/<name>.out.

Regenerate one with `PYTHONPATH=src python demos/<name>.py > tests/golden/demos/<name>.out`
only when its output changes on purpose.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_stdout_matches_golden(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, str(demo)], capture_output=True, env=env, cwd=ROOT)
    assert run.returncode == 0, run.stderr.decode()
    assert run.stdout == (ROOT / "tests" / "golden" / "demos" / f"{demo.stem}.out").read_bytes()
