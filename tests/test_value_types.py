"""The value types of the public API: equality, hashing, immutability, repr
and pickling."""

import pickle

import pytest

from johnson_p2c import (
    CheckReport,
    ElementSet,
    EndpointQuad,
    JohnsonGraph,
    P2CSolution,
    Path,
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
