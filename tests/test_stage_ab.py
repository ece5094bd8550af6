"""tools/stage_ab.py, run with the working tree on both sides for a few
frames: it loads both, checks their outputs byte for byte and prints the
stage medians."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_stage_ab_runs_the_working_tree_against_itself():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "stage_ab.py"), "--parent-src",
         str(ROOT / "src" / "edgetrack"), "--frames", "3", "--passes", "2",
         "--backends", "float", "q40_23", "--synth", "cube"],
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    assert lines[-1] == "identical outputs"
    labels = [line.split()[:2] for line in lines[1:-1]]
    assert labels == [[b, s] for b in ("float", "q40_23")
                      for s in ("t_total", "t_visible", "t_me", "t_pose")] + [["synth", "cube"]]
