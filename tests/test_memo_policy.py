"""Every memo of the package is a bounded ``functools.lru_cache``.

Module-level containers are memos without a bound, a ``clear()`` or stats,
so none may exist; and since the memos hand out shared tuples, every
function that returns a memoized path as a list must return a fresh one.
The Hamilton memo holds only small canonical paths: no one-level key with
2k > n, and no path of more than ``MEMO_VERTICES`` vertices.
"""

import ast
import importlib
import random
from functools import lru_cache
from pathlib import Path

import pytest

import johnson_p2c
from johnson_p2c import JohnsonGraph, QJGraph, clear_caches, hamilton, sweep
from johnson_p2c.graphs import MEMO_SIZE, MEMO_VERTICES
from johnson_p2c.subsets import k_masks

# The package attribute ``p2c_qj`` is the function of that name.
p2c_module = importlib.import_module("johnson_p2c.p2c_qj")

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
    p1, p2 = p2c_module._solve_small(5, 2, *quad)
    expected = (list(p1), list(p2))
    p1[1:1] = [0]
    p2.clear()
    hits = p2c_module._oracle_cover.cache_info().hits
    assert p2c_module._solve_small(5, 2, *quad) == expected
    assert p2c_module._oracle_cover.cache_info().hits == hits + 1


def test_memo_holds_small_canonical_paths(monkeypatch):
    # Record every memoized build, as the memo's own wrapper would see it.
    entries = {}
    build = hamilton._ham_path.__wrapped__

    def recording(n, levels, s, t):
        path = build(n, levels, s, t)
        entries[n, levels, s, t] = path
        return path

    memo = lru_cache(maxsize=MEMO_SIZE)(recording)
    monkeypatch.setattr(hamilton, "_ham_path", memo)
    clear_caches()
    g = JohnsonGraph(16, 8)
    quad = tuple(random.Random(1).sample(list(k_masks(16, 8)), 4))
    first = p2c_module.p2c_masks(g, quad)
    assert len(entries) > 100
    for (n, levels, _, _), path in entries.items():
        assert len(levels) > 1 or 2 * levels[0] <= n, (n, levels)
        assert type(path) is tuple and len(path) <= MEMO_VERTICES, (n, levels)

    # Built again from the memo alone, with no miss: no in-place splice
    # touched what the memo handed out.
    misses = memo.cache_info().misses
    assert p2c_module.p2c_masks(g, quad) == first
    assert memo.cache_info().misses == misses
    assert memo.cache_info().hits > 0


# (graph, sampled quads, (hits, misses) of the Hamilton memo, the same of the
# oracle memo) after a cold sweep with seed 1, recorded when the Hamilton
# memo still stored complemented and large paths too.
SWEEP_MEMOS = [
    (JohnsonGraph(6, 3), 3000, (2915, 97), (1452, 1567)),
    (QJGraph(5, (1, 2, 3, 4)), 2000, (5542, 473), (782, 785)),
    (QJGraph(5, (2, 3, 4, 5)), 2000, (3984, 341), (721, 897)),
]


@pytest.mark.parametrize(
    "g, count, ham, oracle", SWEEP_MEMOS, ids=[repr(case[0]) for case in SWEEP_MEMOS]
)
def test_sweeps_keep_every_memo_hit(g, count, ham, oracle):
    clear_caches()
    summary = sweep(g, mode="sampled", count=count, seed=1)
    assert summary.valid == count
    for memo, (hits, misses) in (
        (hamilton._ham_path, ham),
        (p2c_module._oracle_cover, oracle),
    ):
        info = memo.cache_info()
        assert info.hits == hits and info.misses <= misses, (memo, info)
