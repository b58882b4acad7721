"""Count the lines and lines of code of Python modules.

A line of code holds a token other than a comment or a line break, and is
not part of a module, class or function docstring; blank lines, comment
lines and docstring lines are not code. A multi-line call or string counts
every line it spans.

Usage: python tools/loc.py [PATH ...]

Each PATH is a ``.py`` file or a directory searched for them recursively;
the default is ``src/fasttog`` under the repository root. Prints each
module's lines and lines of code, then the totals.
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize
from pathlib import Path

# INDENT shares its line with code; DEDENT and ENDMARKER can sit past the last line
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.DEDENT, tokenize.ENDMARKER}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def count(source: str) -> tuple[int, int]:
    """The (lines, lines of code) of one module's source."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            code.difference_update(range(doc.lineno, doc.end_lineno + 1))
    return len(source.splitlines()), len(code)


def main(argv: list[str]) -> int:
    roots = [Path(a) for a in argv] or [Path(__file__).resolve().parents[1] / "src" / "fasttog"]
    files = sorted(f for r in roots for f in ([r] if r.is_file() else r.rglob("*.py")))
    total_lines = total_code = 0
    print(f"{'lines':>7} {'code':>7}  module")
    for f in files:
        lines, code = count(f.read_text(encoding="utf-8"))
        total_lines += lines
        total_code += code
        print(f"{lines:7,} {code:7,}  {os.path.relpath(f)}")
    print(f"{total_lines:7,} {total_code:7,}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
