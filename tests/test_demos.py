"""Each narrative demo runs end to end in a fresh interpreter, and a pinned
one prints its pinned stdout."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_demos_found():
    assert len(DEMOS) == 5


# each pinned demo's whole stdout; demo 05's liftings regenerate the same
# sequences with the same dimensions
PINNED_STDOUT = {
    "05_linear_complexity": """\
orbit sequences (two periods, rational field):
  p= 5: register length 3, lifted dimension 3, equal: True
  p= 7: register length 4, lifted dimension 4, equal: True
  p=23: register length 12, lifted dimension 12, equal: True

rotation sequence: complexity 3 over Q, 2 over GF(3)
its register (0, 0, 1) regenerates it: [0, 1, 2, 0, 1, 2, 0, 1, 2]
unit-circle lifting regenerates it with dimension 1: [0, 1, 2, 0, 1, 2, 0, 1, 2]

affine sequence: [1, 4, 10, 22, 46] ... (2-dimensional lifting)
computed rational complexity: 2, connection (3, -2)

p=5 connection (newest first): (1, -1, 1); companion last row: (1, -1, 1)
""",
}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_exits_zero(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    if demo.stem in PINNED_STDOUT:
        assert result.stdout == PINNED_STDOUT[demo.stem]
