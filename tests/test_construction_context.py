"""One context, not a threaded flag, says whether covers are certified.

The constructors certify every intermediate cover when an entry point is
called with ``debug=True``.  Only the four entry points take that parameter;
they set the context variable ``_certifying`` through ``_with_debug``, and
only ``_finish``, the step that ends every subproblem, reads it.  A private
function that takes ``debug`` again, or a second reader of the variable,
would be a second way to reach the check.
"""

import ast
from pathlib import Path

import johnson_p2c

PACKAGE = Path(johnson_p2c.__file__).parent
SOURCES = sorted(PACKAGE.glob("*.py"))
CONSTRUCTORS = [PACKAGE / "p2c_johnson.py", PACKAGE / "p2c_qj.py"]
ENTRIES = {
    ("p2c_johnson.py", "p2c_johnson"),
    ("p2c_johnson.py", "p2c_johnson_masks"),
    ("p2c_qj.py", "p2c_qj"),
    ("p2c_qj.py", "p2c_qj_masks"),
}
CONTEXT = "_certifying"
CONTEXT_USES = {
    ("p2c_johnson.py", "<module>", None),
    ("p2c_johnson.py", "_with_debug", "set"),
    ("p2c_johnson.py", "_with_debug", "reset"),
    ("p2c_johnson.py", "_finish", "get"),
}


def _scan(source, filename):
    """(file, function) of each function with a parameter named ``debug``,
    and (file, function, method) of each use of the context variable; the
    method is None for a use that calls none."""
    takes_debug, uses = [], []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                name = getattr(child, "name", "<lambda>")
                inner = name if scope == "<module>" else f"{scope}.{name}"
                a = child.args
                params = [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
                if any(p is not None and p.arg == "debug" for p in params):
                    takes_debug.append((filename, inner))
            if isinstance(child, ast.Attribute) and _is_context(child.value):
                uses.append((filename, scope, child.attr))
                continue
            if _is_context(child):
                uses.append((filename, scope, None))
            visit(child, inner)

    visit(ast.parse(source, filename), "<module>")
    return takes_debug, uses


def _is_context(node):
    return isinstance(node, ast.Name) and node.id == CONTEXT


def test_only_the_entry_points_take_debug():
    found = [f for path in CONSTRUCTORS for f in _scan(path.read_text(), path.name)[0]]
    assert set(found) == ENTRIES and len(found) == len(ENTRIES)


def test_only_finish_reads_the_context():
    uses = [u for path in SOURCES for u in _scan(path.read_text(), path.name)[1]]
    assert set(uses) == CONTEXT_USES and len(uses) == len(CONTEXT_USES)


def test_a_threaded_flag_and_a_second_reader_are_found():
    source = (
        "_certifying = ContextVar('certifying', default=False)\n"
        "def _case(n, *, debug=False):\n"
        "    def inner(w, debug):\n"
        "        return _certifying.get()\n"
        "    return lambda debug: debug\n"
        "def p2c_johnson(g, q, debug=False):\n"
        "    flag = _certifying\n"
    )
    takes_debug, uses = _scan(source, "x.py")
    assert takes_debug == [
        ("x.py", "_case"),
        ("x.py", "_case.inner"),
        ("x.py", "_case.<lambda>"),
        ("x.py", "p2c_johnson"),
    ]
    assert uses == [
        ("x.py", "<module>", None),
        ("x.py", "_case.inner", "get"),
        ("x.py", "p2c_johnson", None),
    ]
