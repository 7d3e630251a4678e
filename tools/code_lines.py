"""Print the code lines of each module of src/singlab and their total.

A code line is a physical line that holds a token other than a comment,
NL/NEWLINE or INDENT/DEDENT; lines of a module, class or function docstring
are left out.  Blank lines therefore never count, and a statement split over
several lines counts each line it spans.

Run from the repository root:

    python tools/code_lines.py
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "singlab"

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    source = path.read_text(encoding="utf-8")
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main() -> int:
    total = 0
    try:
        for path in sorted(PACKAGE.glob("*.py")):
            count = code_lines(path)
            total += count
            print(f"{path.stem:12} {count:5}")
        print(f"{'total':12} {total:5}")
        # Flush here, so that a closed pipe raises before main returns.
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early, as `| head -3` does.  Point stdout
        # at devnull, as the CLI does, so the interpreter's final flush
        # cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
