"""Count the lines of the package source: all lines, and code-only lines.

A code-only line holds code: it is no blank line, no line with only a
comment, and no line of a docstring (a string that is the first statement
of a module, class or function).  Docstrings are found with ``ast``;
comments and blank lines with ``tokenize``, so a comment or a blank line
inside a bracket is not counted either.

Run from the root of the repository; the directory defaults to ``src``:

    python tools/loc.py [DIR]

It prints one row per ``.py`` file under DIR and a total row: the file's
lines, then its code-only lines.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

# Tokens that are no code: a comment, line ends and indentation.
NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree) -> set[int]:
    """The line numbers of every docstring in the module ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, SCOPES) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(text: str) -> tuple[int, int]:
    """(lines, code-only lines) of one module's source."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code - docstring_lines(ast.parse(text)))


def main(argv) -> int:
    root = Path(argv[0] if argv else "src")
    paths = sorted(root.rglob("*.py"))
    if not paths:
        print(f"no .py files under {root}", file=sys.stderr)
        return 2
    total_lines = total_code = 0
    for path in paths:
        lines, code = count(path.read_text(encoding="utf-8"))
        total_lines += lines
        total_code += code
        print(f"{lines:6} {code:6}  {path}")
    print(f"{total_lines:6} {total_code:6}  total ({root}: lines, code-only lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
