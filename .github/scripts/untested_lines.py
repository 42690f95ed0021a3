"""List the lines of src/braidact that the tier-1 tests never run, and exit 1
if there is one.

It runs the tier-1 pytest command in this process under ``sys.settrace``
and ``threading.settrace``, recording the lines that run in src/braidact
only.  A line counts when it carries bytecode: it is a line of some code
object compiled from the module (``co_lines()``, nested code objects
included).  Lines inside a statement whose first line carries
``# pragma: no cover`` are not listed.  Code run in a subprocess (the demo
tests) is not seen.

    python .github/scripts/untested_lines.py
"""

from __future__ import annotations

import ast
import os
import sys
import threading
import types
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "braidact"
PRAGMA = "# pragma: no cover"
# The tier-1 command of ROADMAP.md, minus the PYTHONPATH that main sets here.
PYTEST_ARGS = ["-q", "--continue-on-collection-errors"]


def _code_lines(code: types.CodeType) -> set[int]:
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= _code_lines(const)
    return lines


def untested_lines(source: str, ran: set[int]) -> list[int]:
    """The lines of ``source`` that carry bytecode and are not in ``ran``,
    leaving out every statement whose first line carries the pragma."""
    text = source.splitlines()
    skipped: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.stmt) and PRAGMA in text[node.lineno - 1]:
            skipped.update(range(node.lineno, node.end_lineno + 1))
    return sorted(_code_lines(compile(source, "<source>", "exec")) - ran - skipped)


def _run_traced(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest with ``args`` here; its exit code, and the lines that ran
    in each file of src/braidact."""
    prefix = str(SRC) + os.sep
    ran: dict[str, set[int]] = defaultdict(set)

    def local(frame, event, arg):
        ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        return local(frame, event, arg) if frame.f_code.co_filename.startswith(prefix) else None

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), ran


def main() -> int:
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC.parent))
    code, ran = _run_traced(PYTEST_ARGS)
    # pytest exits 1 when a test fails, which tier-1 does on purpose; any
    # other failure to run leaves nothing to read.
    if code not in (0, 1):
        print(f"pytest exited {code}; no line report", file=sys.stderr)
        return 2
    found = 0
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text()
        text = source.splitlines()
        for line in untested_lines(source, ran[str(path)]):
            print(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
            found += 1
    print(f"{found} untested lines in {SRC.relative_to(ROOT)}")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
