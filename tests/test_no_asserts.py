"""The package signals failures with typed errors, never with ``assert``.

``python -O`` strips assert statements, so a check written as one silently
stops checking; a bare ``AssertionError`` escapes the CLI's handling of
``CoverError``s as a traceback.
"""

import ast
from pathlib import Path

import johnson_p2c

SOURCES = sorted(Path(johnson_p2c.__file__).parent.glob("*.py"))


def _offences(path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Assert):
            yield f"{path.name}:{node.lineno}: assert statement"
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                yield f"{path.name}:{node.lineno}: raise AssertionError"


def test_sources_found():
    assert len(SOURCES) > 5


def test_no_assert_in_package():
    assert [o for path in SOURCES for o in _offences(path)] == []
