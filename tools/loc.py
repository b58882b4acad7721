"""Count the lines and lines of code of Python modules.

A line of code holds a token other than a comment or a line break, and is
not part of a module, class or function docstring; blank lines, comment
lines and docstring lines are not code. A multi-line call or string counts
every line it spans.

Usage: python tools/loc.py [--against OTHER_SRC] [PATH ...]

Each PATH is a ``.py`` file or a directory searched for them recursively;
the default is ``src/fasttog`` under the repository root. Prints each
module's lines and lines of code, then the totals.

With ``--against``, OTHER_SRC is another tree's ``src`` directory, such as
that of a ``git archive`` of a parent commit, and each PATH must lie under
this repository's ``src``. Each module is counted in both trees, matched by
its path under ``src``; the rows give the other tree's counts, this tree's,
and this tree's minus the other's, with ``-`` for a module that one tree
lacks.
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import sys
import tokenize
from pathlib import Path

# INDENT shares its line with code; DEDENT and ENDMARKER can sit past the last line
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.DEDENT, tokenize.ENDMARKER}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
SRC = Path(__file__).resolve().parents[1] / "src"


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


def _modules(root: Path) -> list[Path]:
    if root.is_file():
        return [root]
    return sorted(root.rglob("*.py")) if root.is_dir() else []


def _size(f: Path) -> tuple[int, int]:
    return count(f.read_text(encoding="utf-8"))


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="loc.py", description="Count lines of Python modules.")
    parser.add_argument("paths", nargs="*", type=Path, metavar="PATH")
    parser.add_argument("--against", type=Path, metavar="OTHER_SRC")
    args = parser.parse_args(argv)
    roots = args.paths or [SRC / "fasttog"]
    if args.against is not None:
        for root in roots:
            if not root.resolve().is_relative_to(SRC):
                parser.error(f"{root} is not under {SRC}")
        return _compare(roots, args.against)
    total_lines = total_code = 0
    print(f"{'lines':>7} {'code':>7}  module")
    for f in sorted(f for r in roots for f in _modules(r)):
        lines, code = _size(f)
        total_lines += lines
        total_code += code
        print(f"{lines:7,} {code:7,}  {os.path.relpath(f)}")
    print(f"{total_lines:7,} {total_code:7,}  total")
    return 0


def _compare(roots: list[Path], other_src: Path) -> int:
    """Print each module's counts in ``other_src`` and here, and the difference."""
    sizes: dict[Path, list] = {}  # by path under src: the other tree's size, then this one's
    for root in roots:
        rel = root.resolve().relative_to(SRC)
        for side, base in enumerate((other_src, SRC)):
            for f in _modules(base / rel):
                sizes.setdefault(f.relative_to(base), [None, None])[side] = _size(f)
    print(f"{'other':>15} {'this':>15} {'this - other':>15}")
    print(f"{'lines':>7} {'code':>7} " * 3 + " module")
    for name, (other, this) in sorted(sizes.items()):
        print(_row(other, this, name))

    def total(side):
        return [sum(pair[side][i] for pair in sizes.values() if pair[side]) for i in (0, 1)]

    print(_row(total(0), total(1), "total"))
    return 0


def _row(other, this, name) -> str:
    """Two trees' (lines, code), ``-`` where one has no such module, and their difference."""
    cells = []
    for size in (other, this):
        cells += [f"{n:7,}" for n in size] if size else [f"{'-':>7}"] * 2
    cells += [f"{a - b:+7,}" for a, b in zip(this or (0, 0), other or (0, 0))]
    return " ".join(cells) + f"  {name}"


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
