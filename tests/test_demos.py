"""The public surface: each demo exits 0, prints the bytes recorded in
tests/golden/demos/<name>.out and nothing on stderr, and every name the
package exports resolves.

Regenerate one with `PYTHONPATH=src python demos/<name>.py > tests/golden/demos/<name>.out`
only when its output changes on purpose.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import nemus_icl

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_stdout_matches_golden(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, str(demo)], capture_output=True, env=env, cwd=ROOT)
    assert run.returncode == 0, run.stderr.decode()
    assert run.stdout == (ROOT / "tests" / "golden" / "demos" / f"{demo.stem}.out").read_bytes()
    assert run.stderr == b""


def test_every_exported_name_resolves_once():
    # a stale entry otherwise fails only a `from nemus_icl import *`
    missing = [name for name in nemus_icl.__all__ if not hasattr(nemus_icl, name)]
    assert missing == []
    assert len(nemus_icl.__all__) == len(set(nemus_icl.__all__))
