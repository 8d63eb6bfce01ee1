"""The value types of the public API: equality, hashing, immutability, repr
and pickling."""

import ast
import pickle
from pathlib import Path as FilePath

import pytest

import johnson_p2c
from johnson_p2c import (
    CheckReport,
    ElementSet,
    EndpointQuad,
    GenericGraph,
    JohnsonGraph,
    P2CSolution,
    Path,
    QJGraph,
    Relabeling,
    SweepSummary,
    sweep,
)


def _sets(*element_lists, n=5):
    return tuple(ElementSet.from_elements(w, n) for w in element_lists)


def _quad():
    return EndpointQuad(*_sets([1, 2], [3, 4], [1, 3], [2, 5]))


def _solution():
    return P2CSolution(Path(_sets([1, 2], [1, 3])), Path(_sets([2, 5], [2, 4])))


def _summary():
    return sweep(JohnsonGraph(4, 2), mode="sampled", count=3, seed=1)


def _report():
    report = CheckReport()
    report.add("NotCovering", "2 of 6 vertices covered")
    return report


def _roundtrip(obj):
    copy = pickle.loads(pickle.dumps(obj))
    assert type(copy) is type(obj)
    assert copy == obj
    return copy


def test_endpoint_quad():
    q = _quad()
    assert q == _quad() and hash(q) == hash(_quad())
    assert q != EndpointQuad(q.v, q.u, q.x, q.y)
    assert q.vertices() == (q.u, q.v, q.x, q.y)
    assert repr(q) == "EndpointQuad(u={1,2}, v={3,4}, x={1,3}, y={2,5})"
    with pytest.raises(AttributeError):
        q.u = q.v
    assert _roundtrip(q).vertices() == q.vertices()


def test_path():
    p = Path(_sets([1, 2], [1, 3]))
    assert p == Path(_sets([1, 2], [1, 3])) and hash(p) == hash(Path(p.vertices))
    assert p != Path(_sets([1, 3], [1, 2]))
    assert p != p.vertices
    assert len(p) == 2 and list(p) == list(p.vertices) and p[-1] == p.vertices[1]
    assert repr(p) == "Path(vertices=({1,2}, {1,3}))"
    assert repr(Path((0, 3))) == "Path(vertices=(0, 3))"
    with pytest.raises(AttributeError):
        p.vertices = ()
    assert _roundtrip(p).vertices == p.vertices
    assert _roundtrip(Path(())) == Path(())


def test_p2c_solution():
    sol = _solution()
    assert sol == _solution() and hash(sol) == hash(_solution())
    assert sol != P2CSolution(sol.path_xy, sol.path_uv)
    assert repr(sol) == (
        "P2CSolution(path_uv=Path(vertices=({1,2}, {1,3})), "
        "path_xy=Path(vertices=({2,5}, {2,4})))"
    )
    assert sol.to_json() == {"path_uv": [[1, 2], [1, 3]], "path_xy": [[2, 5], [2, 4]]}
    with pytest.raises(AttributeError):
        sol.path_uv = sol.path_xy
    _roundtrip(sol)


def test_check_report():
    report = _report()
    assert report == _report() and report != CheckReport()
    assert CheckReport() == CheckReport(violations=[])
    assert not report.valid and CheckReport().valid
    # Each report owns its list.
    fresh = CheckReport()
    fresh.add("X", "y")
    assert CheckReport().violations == []
    assert repr(report) == (
        "CheckReport(violations=[('NotCovering', '2 of 6 vertices covered')])"
    )
    with pytest.raises(TypeError):
        hash(report)
    assert _roundtrip(report).to_json() == report.to_json()


def test_sweep_summary():
    summary = _summary()
    assert summary == _summary()
    assert summary != sweep(JohnsonGraph(4, 2), mode="sampled", count=3, seed=2)
    assert repr(summary) == (
        "SweepSummary(graph={'kind': 'johnson', 'n': 4, 'k': 2}, "
        "mode={'kind': 'sampled', 'seed': 1, 'count': 3}, "
        "total=3, valid=3, invalid=0, errors=0, failures=[])"
    )
    assert summary.to_json() == {
        "graph": {"kind": "johnson", "n": 4, "k": 2},
        "mode": {"kind": "sampled", "seed": 1, "count": 3},
        "total": 3,
        "valid": 3,
        "invalid": 0,
        "errors": 0,
        "failures": [],
    }
    with pytest.raises(TypeError):
        hash(summary)
    _roundtrip(summary)


def test_named_tuples_are_tuples():
    # EndpointQuad, P2CSolution and SweepSummary are NamedTuples: they equal
    # the plain tuples of their fields and unpack like them.
    q = _quad()
    u, v, x, y = q
    assert q == (u, v, x, y) and hash(q) == hash((u, v, x, y))
    sol = _solution()
    assert sol == tuple(sol) and list(sol) == [sol.path_uv, sol.path_xy]
    summary = _summary()
    assert summary == tuple(summary.to_json().values())
    with pytest.raises(AttributeError):
        summary.total = 0


def test_relabeling():
    r = Relabeling.swap(1, 3, 4)
    copy = pickle.loads(pickle.dumps(r))
    assert type(copy) is Relabeling and copy.perm == r.perm == (3, 2, 1, 4)
    assert copy(1) == 3 and copy.inverse().perm == r.perm
    with pytest.raises(AttributeError):
        copy.perm = ()


# A frozen class, a factory of one of its values, and a slot it has.
FROZEN = [
    (ElementSet, lambda: ElementSet(0b110, 3), "bits"),
    (Path, lambda: Path((0, 1)), "vertices"),
    (Relabeling, lambda: Relabeling((2, 1, 3)), "perm"),
    (JohnsonGraph, lambda: JohnsonGraph(5, 2), "k"),
    (QJGraph, lambda: QJGraph(5, (1, 3)), "levels"),
    (GenericGraph, lambda: GenericGraph(3, [(0, 1), (1, 2)]), "adjacency"),
]


@pytest.mark.parametrize("cls, make, slot", FROZEN, ids=[f[0].__name__ for f in FROZEN])
def test_a_frozen_value_refuses_assignment(cls, make, slot):
    value = make()
    state = value.__reduce__()
    for name in (slot, "new_attribute"):
        with pytest.raises(AttributeError, match=rf"^{cls.__name__} is immutable$"):
            setattr(value, name, None)
    assert value.__reduce__() == state
    copy = pickle.loads(pickle.dumps(value))
    assert type(copy) is cls and copy.__reduce__() == state


def test_one_class_guards_assignment():
    # Every frozen class inherits the one guard, subsets._Frozen.
    guards = []
    for path in sorted(FilePath(johnson_p2c.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ClassDef):
                names = [f.name for f in node.body if isinstance(f, ast.FunctionDef)]
                if "__setattr__" in names:
                    guards.append(f"{path.name}:{node.name}")
    assert guards == ["subsets.py:_Frozen"]


# Sizes and masks are ints and no bool; each row was once accepted, or an
# untyped TypeError.
NOT_INTS = [
    (JohnsonGraph, (5, True)),
    (JohnsonGraph, (4.5, 2)),
    (QJGraph, (5, [True, 2])),
    (QJGraph, (5, [1.5])),
    (QJGraph, (4.5, [1])),
    (GenericGraph, (2.5, [])),
    (GenericGraph, (True, [])),
    (ElementSet, (2, True)),
    (ElementSet, (1.5, 3)),
    (Relabeling, ([1.0, 2],)),
    (Relabeling, ([True, 2],)),
]


@pytest.mark.parametrize(
    "cls, args",
    NOT_INTS,
    ids=[f"{cls.__name__}({', '.join(map(repr, args))})" for cls, args in NOT_INTS],
)
def test_a_size_is_an_int_and_no_bool(cls, args):
    with pytest.raises(ValueError):
        cls(*args)


@pytest.mark.parametrize("other", [3, None, (0b110,)])
def test_an_element_set_orders_only_element_sets(other):
    s = ElementSet(0b110, 3)
    assert s.__lt__(other) is NotImplemented and s.__le__(other) is NotImplemented
    for compare in (
        lambda: s < other,
        lambda: s <= other,
        lambda: other < s,
        lambda: other <= s,
    ):
        with pytest.raises(TypeError):
            compare()
    assert s < ElementSet(0b1010, 3) and s <= s
