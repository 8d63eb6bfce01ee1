"""Every memo of the package is a bounded ``functools.lru_cache``.

Module-level containers are memos without a bound, a ``clear()`` or stats,
so none may exist; and since the memos hand out shared tuples, every
function that returns a memoized path as a list must return a fresh one.
"""

import ast
import importlib
from pathlib import Path

import johnson_p2c
from johnson_p2c import clear_caches, hamilton

# The package attribute ``p2c_johnson`` is the function of that name.
p2c_johnson_module = importlib.import_module("johnson_p2c.p2c_johnson")

SOURCES = sorted(Path(johnson_p2c.__file__).parent.glob("*.py"))
CONTAINERS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)


def _is_container(value) -> bool:
    if isinstance(value, CONTAINERS):
        return True
    return (
        isinstance(value, ast.Call)
        and isinstance(value.func, ast.Name)
        and value.func.id in ("dict", "list", "set")
    )


def _offences(path):
    for node in ast.parse(path.read_text(), str(path)).body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        else:
            continue
        names = [t.id for t in targets if isinstance(t, ast.Name)]
        if names == ["__all__"]:
            continue
        if _is_container(node.value):
            yield f"{path.name}:{node.lineno}: module-level container {names}"


def test_no_module_level_containers():
    assert [o for path in SOURCES for o in _offences(path)] == []


def _elements(*elements):
    return sum(1 << e for e in elements)


def test_memoized_paths_are_fresh_lists():
    clear_caches()
    s, t = _elements(1, 2, 3), _elements(4, 5, 6)
    first = hamilton._ham(6, (3,), s, t)
    expected = list(first)
    first.reverse()
    first.append(0)
    hits = hamilton._ham_path.cache_info().hits
    assert hamilton._ham(6, (3,), s, t) == expected
    assert hamilton._ham_path.cache_info().hits == hits + 1

    quad = (_elements(1, 2), _elements(3, 4), _elements(1, 3), _elements(2, 5))
    p1, p2 = p2c_johnson_module._solve_small(5, 2, *quad)
    expected = (list(p1), list(p2))
    p1[1:1] = [0]
    p2.clear()
    hits = p2c_johnson_module._oracle_cover.cache_info().hits
    assert p2c_johnson_module._solve_small(5, 2, *quad) == expected
    assert p2c_johnson_module._oracle_cover.cache_info().hits == hits + 1
