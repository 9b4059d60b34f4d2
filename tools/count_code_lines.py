"""Count the code lines of Python sources: no docstrings, comments or blanks.

A line counts when a token other than a comment or a line break starts or
runs over it, and that token is not part of a docstring (the string that
opens a module, class or function body). Lines that a multi-line string
spans count, except a docstring's.

    python3 tools/count_code_lines.py [path ...]

Each path is a .py file or a directory searched for them recursively
(default src/alphalimits). Prints one count per file, then the total.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set:
    """Every line on which a docstring of tree lies."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_code_lines(path: Path) -> int:
    """The code lines of one Python source file."""
    source = path.read_bytes()
    docstrings = _docstring_lines(ast.parse(source))
    lines = set()
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type not in _LAYOUT:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def main(argv: list) -> int:
    roots = [Path(p) for p in argv] or [Path("src/alphalimits")]
    files = []
    for root in roots:
        files += sorted(root.rglob("*.py")) if root.is_dir() else [root]
    total = 0
    for f in files:
        n = count_code_lines(f)
        total += n
        print(f"{n:6d}  {f}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
