"""Count the code lines of the package: no blank, comment or docstring lines.

A line counts when it holds a token that is neither a comment, a line
break nor an indent change, and is not part of a docstring (the string
statement that opens a module, class or function body).  Only the
standard library is used: ``tokenize`` for the tokens, ``ast`` to find
the docstrings.

Usage: python3 tools/code_lines.py
Prints one "<count> <file>" line per Python file of src/drorder, then
the total.
"""

from __future__ import annotations

import ast
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "drorder"


def _docstring_lines(source: str) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _BODIES) and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    with tokenize.open(path) as fh:
        source = fh.read()
    docstrings = _docstring_lines(source)
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(iter(source.splitlines(keepends=True)).__next__):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def main() -> None:
    total = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{count:6d} {path.relative_to(PACKAGE)}")
    print(f"{total:6d} total")


if __name__ == "__main__":
    main()
