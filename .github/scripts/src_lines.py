"""Print the size of each module of src/braidact: total lines and code lines.

Code lines leave out blank lines, comment lines and docstrings (of the
module, each class and each function, found through ast).

    python .github/scripts/src_lines.py
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "braidact"
# A line is code when it holds a token other than these.
_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(text: str) -> tuple[int, int]:
    """(total lines, code lines) of one module's source."""
    skip = _docstring_lines(ast.parse(text))
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code - skip)


def main() -> int:
    total = code = 0
    for path in sorted(SRC.glob("*.py")):
        t, c = count(path.read_text())
        total, code = total + t, code + c
        print(f"{path.name:16} {t:6} total {c:6} code")
    print(f"{'src/braidact':16} {total:6} total {code:6} code")
    return 0


if __name__ == "__main__":
    sys.exit(main())
