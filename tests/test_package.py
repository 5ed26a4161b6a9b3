import os
import subprocess
import sys
from pathlib import Path

import koopman_dh

SRC = Path(__file__).resolve().parents[1] / "src"


def test_every_export_resolves():
    missing = [name for name in koopman_dh.__all__ if not hasattr(koopman_dh, name)]
    assert missing == []


def test_runs_as_a_module():
    """python -m koopman_dh is the CLI: six steps of x -> 3x mod 7 are one
    period from 1, and x0 = 0 is no unit mod p, which exits 2."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", "koopman_dh", "simulate", "--p", "7", "--m", "3", "--steps", "6"]
    run = lambda *extra: subprocess.run(
        argv + list(extra), env=env, capture_output=True, text=True, timeout=60
    )
    done = run()
    assert done.returncode == 0, done.stderr
    states = done.stdout.split()
    assert len(states) == 7 and states[0] == states[-1] == "1"
    assert run("--x0", "0").returncode == 2
