"""Demos run as scripts; a demo that no longer runs is a broken example."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_walk_collisions_demo_runs():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / "06_walk_collisions.py")],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "q d^2" in proc.stdout and "S_2+" in proc.stdout
