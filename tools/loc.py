"""Count the lines of the package source: all lines, and code-only lines.

A code-only line holds code: it is no blank line, no line with only a
comment, and no line of a docstring (a string that is the first statement
of a module, class or function).  Docstrings are found with ``ast``;
comments and blank lines with ``tokenize``, so a comment or a blank line
inside a bracket is not counted either.

Run from the root of the repository; the directory defaults to ``src``:

    python tools/loc.py [DIR]
    python tools/loc.py --against REV [DIR]

The first form prints one row per ``.py`` file under DIR and a total row:
the file's lines, then its code-only lines.  With ``--against``, each row
holds a file's lines and code-only lines at the commit REV, then in the
working tree, then the two deltas; a file that only one side has counts 0
on the other and is marked added or removed.  The old side is read with
``git show REV:path``, so nothing is checked out.
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import subprocess
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


def _git(*args) -> str:
    return subprocess.run(
        ["git", *args], capture_output=True, encoding="utf-8", check=True
    ).stdout


def compare(rev: str, root: Path, paths) -> int:
    """Print the counts of the files under root at rev and of ``paths``, its
    files in the working tree, file by file, with their deltas and a total."""
    try:
        listed = _git("ls-tree", "-r", "--name-only", rev, "--", os.path.relpath(root))
        old = {
            path: count(_git("show", f"{rev}:./{path}"))
            for path in listed.splitlines()
            if path.endswith(".py")
        }
    except subprocess.CalledProcessError as exc:
        print(f"git: {exc.stderr.strip()}", file=sys.stderr)
        return 2
    new = {
        os.path.relpath(path): count(path.read_text(encoding="utf-8"))
        for path in paths
    }
    print(f"{'before':>13}  {'after':>13}  {'delta':>13}")
    print("  ".join([f"{'lines':>6} {'code':>6}"] * 3))
    totals = [0] * 4
    for path in sorted(old.keys() | new.keys()):
        row = (*old.get(path, (0, 0)), *new.get(path, (0, 0)))
        totals = [a + b for a, b in zip(totals, row)]
        mark = " (removed)" if path not in new else " (added)" if path not in old else ""
        print(_row(row, f"{path}{mark}"))
    added, removed = len(new.keys() - old.keys()), len(old.keys() - new.keys())
    print(_row(totals, f"total ({root} against {rev}: {added} added, {removed} removed)"))
    return 0


def _row(counts, label: str) -> str:
    ol, oc, nl, nc = counts
    return f"{ol:6} {oc:6}  {nl:6} {nc:6}  {nl - ol:+6} {nc - oc:+6}  {label}"


def main(argv) -> int:
    parser = argparse.ArgumentParser(description="Count the lines of the package source.")
    parser.add_argument("dir", nargs="?", default="src")
    parser.add_argument("--against", metavar="REV", help="compare with the commit REV")
    args = parser.parse_args(argv)
    root = Path(args.dir)
    paths = sorted(root.rglob("*.py"))
    if not paths:
        print(f"no .py files under {root}", file=sys.stderr)
        return 2
    if args.against:
        return compare(args.against, root, paths)
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
