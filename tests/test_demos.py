"""Each demo script runs to completion against the package in src/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# Lines a demo must print: the claims demo 01 builds from cyclically_reduce,
# demo 02 from check_pair_via_braid, demo 03 from rep_from_cores and
# outgoing_cores, and demo 04 from verify_braid_relations.
CLAIMS = {
    "01_words_and_automorphisms.py": ["ababb conjugate to babba? True"],
    "02_verify_and_classify.py": [
        "D2 quad (abA,bbA,ABa,bba) satisfies the braid relation: True",
    ],
    "03_successor_graph.py": [
        "path (v1, v1, v2) gives a representation on 4 strands",
        "extendable: True",
    ],
    "04_braid_actions.py": [
        f"core ({core}) on 4 strands satisfies the braid relations: True"
        for core in ("abA,a", "B,a", "ABa,bba")
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
