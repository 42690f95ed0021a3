"""Each demo script runs to completion against the package in src/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# Lines a demo must print: the claims demo 01 builds from cyclically_reduce
# and demo 03 from rep_from_cores and outgoing_cores.
CLAIMS = {
    "01_words_and_automorphisms.py": ["ababb conjugate to babba? True"],
    "03_successor_graph.py": [
        "path (v1, v1, v2) gives a representation on 4 strands",
        "extendable: True",
    ],
}


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(demo)], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    out = done.stdout.splitlines()
    for line in CLAIMS.get(demo.name, []):
        assert line in out
