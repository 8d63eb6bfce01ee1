"""One function tells J(n,k) and QJ(n,A) apart to pick a builder.

J(n,k) is the one-level graph QJ(n,{k}): both share one body in
``graphs.py``, and everything else reads ``n`` and ``levels``.  Only
``verify.builder_of`` asks ``isinstance(…, JohnsonGraph)`` or
``isinstance(…, QJGraph)``; a second such check elsewhere would be a second
place that decides which constructor serves a graph.
"""

import ast
from pathlib import Path

import johnson_p2c

SOURCES = sorted(Path(johnson_p2c.__file__).parent.glob("*.py"))
KINDS = {"JohnsonGraph", "QJGraph"}
ALLOWED = {("verify.py", "builder_of")}


def _names(node):
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr


def _kind_checks(source, filename):
    """(file, enclosing function, line) of each isinstance(…, JohnsonGraph
    or QJGraph) in the source."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = child.name if scope == "<module>" else f"{scope}.{child.name}"
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Name)
                and child.func.id == "isinstance"
                and len(child.args) == 2
                and KINDS & set(_names(child.args[1]))
            ):
                found.append((filename, scope, child.lineno))
            visit(child, inner)

    visit(ast.parse(source, filename), "<module>")
    return found


def test_sources_found():
    assert len(SOURCES) > 5


def test_only_the_builder_choice_checks_graph_kinds():
    found = [c for path in SOURCES for c in _kind_checks(path.read_text(), path.name)]
    assert [c for c in found if c[:2] not in ALLOWED] == []
    # The scan sees the checks of builder_of itself, so it is not vacuous.
    assert {c[:2] for c in found} == ALLOWED


def test_a_check_elsewhere_is_found():
    source = (
        "def pick(g):\n"
        "    def inner():\n"
        "        return isinstance(g, (graphs.QJGraph, int))\n"
        "    return isinstance(g, JohnsonGraph) or isinstance(g, GenericGraph)\n"
    )
    assert sorted(_kind_checks(source, "x.py")) == [
        ("x.py", "pick", 4),
        ("x.py", "pick.inner", 3),
    ]
