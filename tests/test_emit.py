"""The CLI's JSON text, written straight from the vertex masks, equals
``json.dumps(to_json())`` of the same path or cover, byte for byte."""

import contextlib
import io
import json
import random
from itertools import combinations, permutations
from math import comb

import pytest

from johnson_p2c import (
    ElementSet,
    EndpointQuad,
    JohnsonGraph,
    QJGraph,
    fig1_counterexample,
    hamilton_bruteforce,
    hamilton_johnson,
    p2c_complete,
    p2c_johnson,
    p2c_qj,
)
from johnson_p2c import hamilton
from johnson_p2c.cli import run
from johnson_p2c.hamilton import EMIT_SLICE, Path, path_json_parts
from johnson_p2c.subsets import mask_elements


def _cli_stdout(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run(argv) == 0
    return out.getvalue()


def _text(path, n) -> str:
    """The emitter's text of a path of ElementSets over [n]."""
    return "".join(path_json_parts([v.bits for v in path], n))


def _vertex_flag(w) -> str:
    return ",".join(map(str, w.elements()))


def _p2c_argv(graph_flags, q):
    argv = ["p2c", *graph_flags]
    for flag, w in zip("uvxy", q.vertices()):
        argv += [f"--{flag}", _vertex_flag(w)]
    return argv


def _assert_cover_text(graph_flags, q, sol, n):
    for path in (sol.path_uv, sol.path_xy):
        assert _text(path, n) == json.dumps(path.to_json())
    assert _cli_stdout(_p2c_argv(graph_flags, q)) == json.dumps(sol.to_json()) + "\n"


JOHNSON = [(n, k) for n in range(4, 12) for k in range(1, n)]


@pytest.mark.parametrize("n, k", JOHNSON)
def test_sampled_johnson_covers(n, k):
    g = JohnsonGraph(n, k)
    rng = random.Random(n * 100 + k)
    verts = list(g.vertices())
    flags = ["--graph", "johnson", "--n", str(n), "--k", str(k)]
    for _ in range(3):
        q = EndpointQuad(*rng.sample(verts, 4))
        _assert_cover_text(flags, q, p2c_johnson(g, q), n)


QJ = [
    (n, levels)
    for n in range(4, 7)
    for size in range(1, n + 1)
    for levels in combinations(range(1, n + 1), size)
    if sum(comb(n, a) for a in levels) >= 4
]


@pytest.mark.parametrize("n, levels", QJ)
def test_sampled_qj_covers(n, levels):
    g = QJGraph(n, levels)
    rng = random.Random(n * 1000 + sum(1 << a for a in levels))
    verts = list(g.vertices())
    flags = ["--graph", "qj", "--n", str(n), "--levels", ",".join(map(str, levels))]
    quads = [rng.sample(verts, 4) for _ in range(2)]
    if levels[-1] == n:
        # The apex [n] as an endpoint; the samples above may absorb it.
        apex = verts[-1]
        quads.append([apex, *rng.sample(verts[:-1], 3)])
    for quad in quads:
        q = EndpointQuad(*quad)
        _assert_cover_text(flags, q, p2c_qj(g, q), n)


@pytest.mark.parametrize("n", [4, 9, 17])
def test_complete_covers(n):
    verts = list(JohnsonGraph(n, 1).vertices())
    q = EndpointQuad(verts[0], verts[-1], verts[1], verts[2])
    flags = ["--graph", "complete", "--n", str(n)]
    _assert_cover_text(flags, q, p2c_complete(verts, q), n)


@pytest.mark.parametrize("k", [1, 69])
def test_johnson_paths_beyond_64_elements(k):
    # [70] has nine 8-element chunks, the last with six elements.
    g = JohnsonGraph(70, k)
    verts = list(g.vertices())
    s, t = verts[0], verts[-1]
    path = hamilton_johnson(g, s, t)
    assert _text(path, 70) == json.dumps(path.to_json())
    argv = ["hamilton", "--graph", "johnson", "--n", "70", "--k", str(k),
            "--s", _vertex_flag(s), "--t", _vertex_flag(t)]
    assert _cli_stdout(argv) == json.dumps({"path": path.to_json()}) + "\n"


@pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 13, 16, 20, 21, 23, 64, 65, 70])
def test_arbitrary_subsets(n):
    # Every chunk boundary of both table layouts (two halves up to n = 20,
    # 8-element chunks beyond), the empty set and [n] itself; the text does
    # not depend on the vertices being adjacent.
    rng = random.Random(n)
    full = ((1 << n) - 1) << 1
    masks = [0, full, *(rng.getrandbits(n) << 1 for _ in range(200))]
    masks += [1 << e for e in range(1, n + 1)]
    path = Path(tuple(ElementSet(m, n) for m in masks))
    assert _text(path, n) == json.dumps(path.to_json())
    empty_set = Path((ElementSet(0, n),))
    assert _text(empty_set, n) == json.dumps(empty_set.to_json()) == "[[]]"


def test_empty_path():
    assert _text(Path(()), 5) == "[]"


def _dumps(masks) -> str:
    """The text the emitter must write for a list of masks."""
    return json.dumps([mask_elements(m) for m in masks])


def _first_width(n) -> int:
    """The width of the emitter's first chunk of [n]."""
    return (n + 1) // 2 if n <= 20 else 8


def _mask(elements) -> int:
    return sum(1 << e for e in elements)


@pytest.mark.parametrize("n", range(1, 31))
def test_every_cardinality(n):
    # Every size from the empty set to [n]; then, for each size that fits,
    # a vertex with no element in the first chunk, whose text opens "[, "
    # before the fix-up.  The path opens with the empty set, with [n] and
    # with a vertex of the upper chunks only.
    rng = random.Random(n)
    masks = [_mask(rng.sample(range(1, n + 1), size)) for size in range(n + 1)]
    upper = range(_first_width(n) + 1, n + 1)
    high = [_mask(rng.sample(upper, size)) for size in range(len(upper) + 1)]
    for path in (masks + high, masks[::-1] + high, high[::-1] + masks):
        assert "".join(path_json_parts(path, n)) == _dumps(path)


@pytest.mark.parametrize("length", [EMIT_SLICE - 1, EMIT_SLICE, 2 * EMIT_SLICE + 1])
def test_parts_across_slices(length):
    rng = random.Random(length)
    masks = [rng.getrandbits(18) << 1 for _ in range(length)]
    # Vertices with no element in the first chunk (1..9) open the path,
    # and open and close every part.
    for i in {0, EMIT_SLICE - 1, EMIT_SLICE, length - 1} & {*range(length)}:
        masks[i] = rng.getrandbits(9) << 10
    parts = list(path_json_parts(masks, 18))
    assert len(parts) == -(-length // EMIT_SLICE) + 1
    path = Path(tuple(ElementSet(m, 18) for m in masks))
    assert "".join(parts) == json.dumps(path.to_json()) == _dumps(masks)


@pytest.mark.parametrize("n", [20, 60])
def test_tables_stay_small(n, monkeypatch):
    sizes = []
    build = hamilton._chunk_table

    def recorded(lo, hi):
        table = build(lo, hi)
        sizes.append(len(table))
        return table

    monkeypatch.setattr(hamilton, "_chunk_table", recorded)
    masks = [_mask(range(1, n + 1)), 0, 1 << n]
    assert "".join(path_json_parts(masks, n)) == _dumps(masks)
    assert sizes and max(sizes) <= 1024


def test_fig1_int_paths():
    g, _ = fig1_counterexample()
    for s, t in permutations(range(8), 2):
        path = hamilton_bruteforce(g, s, t)
        argv = ["hamilton", "--fixture", "fig1", "--s", f"{s:03b}", "--t", f"{t:03b}"]
        assert _cli_stdout(argv) == json.dumps({"path": path.to_json()}) + "\n"
