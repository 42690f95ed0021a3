"""The benchmark tools' use of the library API, checked without running them."""

import importlib.util
import json
import sys
from pathlib import Path

from braidact.autf2 import AutF2
from braidact.braid import BraidWord, endo_of_braid
from braidact.localrep import constant_rep

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_bench_module(monkeypatch, name):
    """Import bench/<name>.py by path, under a sys.modules entry that
    monkeypatch removes again."""
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_long_pool_image_letters_match_braid_action(monkeypatch):
    # make_long_pool.py puts src/ and bench/ on sys.path when imported, and
    # imports workloads from there.
    monkeypatch.setattr(sys, "path", list(sys.path))
    workloads = load_bench_module(monkeypatch, "workloads")
    pool_tool = load_bench_module(monkeypatch, "make_long_pool")
    pool = json.loads((BENCH / workloads.LONG_POOL_FILE).read_text())
    n = workloads.LONG_STRANDS
    for kind, braids in pool["braids"].items():
        rep = constant_rep(AutF2.parse(workloads.LONG_CORES[kind]), n)
        endo = endo_of_braid(rep, BraidWord(n, tuple(braids[0])))
        assert pool_tool.image_letters(rep, braids[0]) == sum(len(w) for w in endo.images)
