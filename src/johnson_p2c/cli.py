"""Command-line front end.

Subcommands: gen, hamilton, p2c, verify, oracle, sweep, fixture.  All
output is UTF-8 JSON (or DOT with --format dot) on stdout; diagnostics go
to stderr.  Exit codes: 0 success, 1 validation failure, absent oracle
solution, internal error or a stdout closed by its reader, 2 usage error.
A ValueError is the user's mistake only while input is parsed; anywhere
else it is an internal error.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time
from functools import wraps
from itertools import chain

from .covers import EndpointQuad, P2CSolution
from .errors import CoverError
from .graphs import JohnsonGraph, QJGraph, fig1_counterexample, to_dot
from .hamilton import (
    Path,
    hamilton_bruteforce,
    hamilton_masks,
    mask_path,
    path_json_parts,
)
from .p2c_qj import p2c_complete
from .subsets import ElementSet, mask_keys, vertex_json
from .verify import (
    DEFAULT_ORACLE_CAP,
    builder_of,
    certify,
    check_p2c,
    host_of,
    p2c_bruteforce,
    sweep,
)


class UsageError(Exception):
    pass


def _parses(fn):
    """Report a ValueError raised while ``fn`` parses input as a usage error."""

    @wraps(fn)
    def parse(*args):
        try:
            return fn(*args)
        except ValueError as exc:
            raise UsageError(str(exc)) from None

    return parse


class _Phases:
    """Wall time of a command and of its named phases, for --timing."""

    def __init__(self):
        self.start = self.mark = time.perf_counter()
        self.laps = []

    def lap(self, name: str) -> None:
        """End the phase called ``name`` now; the next one starts."""
        now = time.perf_counter()
        self.laps.append(f"{name}: {now - self.mark:.3f}s")
        self.mark = now

    def report(self) -> str:
        elapsed = f"elapsed: {time.perf_counter() - self.start:.3f}s"
        return " ".join([elapsed, *self.laps])


def _add_graph_flags(p):
    p.add_argument("--graph", choices=["johnson", "qj", "complete"])
    p.add_argument("--fixture", choices=["fig1"])
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--levels", help="comma-separated level cardinalities, e.g. 1,3")


@_parses
def _build_graph(args):
    if args.fixture:
        return fig1_counterexample()[0]
    if args.graph is None:
        raise UsageError("one of --graph or --fixture is required")
    if args.n is None:
        raise UsageError("--n is required")
    if args.graph == "johnson":
        if args.k is None:
            raise UsageError("--k is required for --graph johnson")
        return JohnsonGraph(args.n, args.k)
    if args.graph == "qj":
        if not args.levels:
            raise UsageError("--levels is required for --graph qj")
        levels = [int(t) for t in args.levels.split(",")]
        return QJGraph(args.n, levels)
    return JohnsonGraph(args.n, 1)  # complete graph as J(n,1)


@_parses
def _parse_vertex(text, args):
    if args.fixture:
        return int(text, 2)
    if args.n is None:
        raise UsageError("--n is required to parse subset vertices")
    return ElementSet.from_elements((int(t) for t in text.split(",")), args.n)


def _parse_quad(args):
    for flag in ("u", "v", "x", "y"):
        if getattr(args, flag) is None:
            raise UsageError(f"--{flag} is required")
    return EndpointQuad(
        _parse_vertex(args.u, args),
        _parse_vertex(args.v, args),
        _parse_vertex(args.x, args),
        _parse_vertex(args.y, args),
    )


def _emit(obj):
    print(json.dumps(obj))


def _solution_dot(g, paths):
    """DOT of g with the two paths of masks highlighted."""
    uv, xy = (list(mask_path(p, g.n)) for p in paths)
    return to_dot(
        g, highlight={"color=red, penwidth=2": uv, "color=blue, penwidth=2": xy}
    )


def _cmd_gen(args):
    g = _build_graph(args)
    if args.format == "dot":
        print(to_dot(g))
        return 0
    verts = list(g.vertices())
    _emit(
        {
            "graph": g.descriptor(),
            "vertices": [vertex_json(v) for v in verts],
            "edges": [
                [vertex_json(v), vertex_json(w)]
                for v in verts
                for w in g.neighbors(v)
                if v < w
            ],
        }
    )
    return 0


def _cmd_hamilton(args):
    g = _build_graph(args)
    if args.s is None or args.t is None:
        raise UsageError("--s and --t are required")
    s = _parse_vertex(args.s, args)
    t = _parse_vertex(args.t, args)
    if args.fixture:
        found = hamilton_bruteforce(g, s, t)
        if found is None:
            _emit({"exists": False})
            return 1
        path = list(found)
        parts = [json.dumps(path)]
    else:
        s, t = mask_keys((s, t), g.n)
        path = hamilton_masks(g, s, t)
        parts = path_json_parts(path, g.n)
    args.phases.lap("build")
    report = certify(host_of(g), [path], ((s, t),))
    args.phases.lap("check")
    if not report.valid:
        print(json.dumps(report.to_json()), file=sys.stderr)
        return 1
    # The text of _emit({"path": ...}), written part by part.
    sys.stdout.writelines(chain(['{"path": '], parts, ["}\n"]))
    args.phases.lap("emit")
    return 0


def _cmd_p2c(args):
    if args.fixture:
        raise UsageError(
            "p2c builds covers of --graph johnson, qj or complete; "
            "use oracle for --fixture fig1"
        )
    g = _build_graph(args)
    q = _parse_quad(args)
    n = g.n
    quad = mask_keys(q.vertices(), n)
    if args.graph == "complete":
        paths = [mask_keys(p, n) for p in p2c_complete(list(g.vertices()), q)]
    else:
        paths = builder_of(g)(g, quad, debug=args.debug_check)
    args.phases.lap("build")
    u, v, x, y = quad
    report = certify(host_of(g), paths, ((u, v), (x, y)))
    args.phases.lap("check")
    if not report.valid:
        print(json.dumps(report.to_json()), file=sys.stderr)
        return 1
    if args.format == "dot":
        print(_solution_dot(g, paths))
    else:
        # The text of _emit() of the cover's to_json(), written part by part
        # so that the text of a whole path is never held at once.
        uv, xy = (path_json_parts(p, n) for p in paths)
        sys.stdout.writelines(
            chain(['{"path_uv": '], uv, [', "path_xy": '], xy, ["}\n"])
        )
    args.phases.lap("emit")
    return 0


def _cmd_verify(args):
    g = _build_graph(args)
    q = _parse_quad(args)
    try:
        data = json.load(sys.stdin)
    except json.JSONDecodeError as exc:
        raise UsageError(f"stdin is not valid JSON: {exc}") from None
    if not (
        isinstance(data, dict)
        and isinstance(data.get("path_uv"), list)
        and isinstance(data.get("path_xy"), list)
    ):
        raise UsageError(
            "stdin must be a JSON object whose path_uv and path_xy are lists"
        )
    sol = P2CSolution(
        Path(tuple(_load_vertex(w, args) for w in data["path_uv"])),
        Path(tuple(_load_vertex(w, args) for w in data["path_xy"])),
    )
    report = check_p2c(g, q, sol)
    _emit(report.to_json())
    return 0 if report.valid else 1


@_parses
def _load_vertex(w, args):
    if args.fixture:
        if type(w) is int:
            return w
    elif isinstance(w, list) and all(isinstance(e, int) for e in w):
        return ElementSet.from_elements(w, args.n)
    raise UsageError(f"not a vertex of the graph: {json.dumps(w)}")


def _cmd_oracle(args):
    g = _build_graph(args)
    q = _parse_quad(args)
    sol = p2c_bruteforce(g, q, cap=args.oracle_cap)
    if sol is None:
        _emit({"exists": False})
        return 1
    _emit({"exists": True, "solution": sol.to_json()})
    return 0


def _cmd_sweep(args):
    g = _build_graph(args)
    # argparse has checked the mode; sweep's own ValueError, for the count,
    # the jobs or a constructor that cannot run on the graph, would read as
    # an internal error.
    if args.mode == "sampled" and args.count <= 0:
        raise UsageError(f"sampled sweep needs a positive count, got {args.count}")
    if args.jobs < 1:
        raise UsageError(f"sweep needs at least one job, got {args.jobs}")
    _parses(builder_of)(g, args.constructor, args.oracle_cap)
    summary = sweep(
        g,
        mode=args.mode,
        constructor=args.constructor,
        seed=args.seed,
        count=args.count,
        oracle_cap=args.oracle_cap,
        jobs=args.jobs,
    )
    _emit(summary.to_json())
    return 0 if summary.invalid == 0 and summary.errors == 0 else 1


def _cmd_fixture(args):
    g, quad = fig1_counterexample()
    if args.format == "dot":
        print(to_dot(g))
        return 0
    _emit(
        {
            "name": "fig1",
            "vertex_count": g.vertex_count,
            "edges": [
                [v, w] for v in g.vertices() for w in g.neighbors(v) if v < w
            ],
            "endpoints": {"u": quad[0], "v": quad[1], "x": quad[2], "y": quad[3]},
        }
    )
    return 0


def _make_parser():
    parser = argparse.ArgumentParser(
        prog="johnson-p2c",
        description="Disjoint path covers of Johnson and stacked Johnson graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="emit vertex and edge lists")
    _add_graph_flags(p)
    p.add_argument("--format", choices=["json", "dot"], default="json")
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("hamilton", help="Hamilton path between two vertices")
    _add_graph_flags(p)
    p.add_argument("--s")
    p.add_argument("--t")
    p.set_defaults(fn=_cmd_hamilton)

    p = sub.add_parser("p2c", help="paired 2-disjoint path cover")
    _add_graph_flags(p)
    for flag in ("u", "v", "x", "y"):
        p.add_argument(f"--{flag}")
    p.add_argument("--format", choices=["json", "dot"], default="json")
    p.add_argument("--debug-check", action="store_true")
    p.set_defaults(fn=_cmd_p2c)

    p = sub.add_parser("verify", help="check a solution JSON read from stdin")
    _add_graph_flags(p)
    for flag in ("u", "v", "x", "y"):
        p.add_argument(f"--{flag}")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("oracle", help="exact brute-force P2C search")
    _add_graph_flags(p)
    for flag in ("u", "v", "x", "y"):
        p.add_argument(f"--{flag}")
    p.add_argument("--oracle-cap", type=int, default=DEFAULT_ORACLE_CAP)
    p.set_defaults(fn=_cmd_oracle)

    p = sub.add_parser("sweep", help="certify a constructor over many quads")
    _add_graph_flags(p)
    p.add_argument("--mode", choices=["exhaustive", "sampled"], default="exhaustive")
    p.add_argument("--constructor", choices=["johnson", "qj", "complete", "oracle"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=1000)
    p.add_argument("--oracle-cap", type=int, default=DEFAULT_ORACLE_CAP)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("fixture", help="emit a built-in fixture graph")
    p.add_argument("--name", choices=["fig1"], default="fig1")
    p.add_argument("--format", choices=["json", "dot"], default="json")
    p.set_defaults(fn=_cmd_fixture)

    parser.add_argument("--timing", action="store_true", help="report elapsed time on stderr")
    return parser


def run(argv) -> int:
    parser = _make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    args.phases = _Phases()
    try:
        code = args.fn(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except CoverError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"internal error: ValueError: {exc}", file=sys.stderr)
        return 1
    if args.timing:
        print(args.phases.report(), file=sys.stderr)
    return code


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early (``| head``): end quietly, with
        # stdout on devnull so that the flush at exit raises nothing.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    # Finalization walks every object the collector tracks before it tears
    # the modules down; frozen objects sit in the permanent generation,
    # which it skips.  Not in run(), which callers run in process, and not
    # os._exit, which would skip atexit handlers and ``finally`` blocks.
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    main()
