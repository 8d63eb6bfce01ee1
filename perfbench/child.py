"""One benchmark op in a fresh interpreter: ``python3 child.py <kind> <arg>``.

Kinds:
  cli ARGS...     call ``johnson_p2c.cli.main()`` with ARGS, as a user would
  sweep SPEC      run ``johnson_p2c.sweep`` for each entry of the JSON list
                  SPEC and print one summary JSON line per entry
  setup SPEC      import the package and construct the graphs in SPEC
  hamilton SPEC   time one cold ``hamilton_johnson`` build and check it

The parent sets ``PERFBENCH_SRC`` to the checkout's ``src`` directory; the
child refuses to run against a package found anywhere else.  The op runs in
a process forked from this one, and the peak resident memory of that
process goes to the file named by ``PERFBENCH_RUSAGE``: a process started
by exec inherits the peak of the process that started it (the benchmark's
own), a forked one only this bare interpreter's.  With
``PERFBENCH_TRACE=<path>:<op id>`` set, the package is instrumented from
outside (see tracer.py) and the spans are written to <path> when the op
ends.
"""

from __future__ import annotations

import json
import os
import sys
import time


def _graph(desc):
    from johnson_p2c import JohnsonGraph, QJGraph

    if desc["kind"] == "johnson":
        return JohnsonGraph(desc["n"], desc["k"])
    return QJGraph(desc["n"], desc["levels"])


def _sweeps(spec) -> int:
    import johnson_p2c.verify

    for entry in spec:
        summary = johnson_p2c.verify.sweep(
            _graph(entry["graph"]),
            mode=entry["mode"],
            constructor=entry["constructor"],
            seed=entry["seed"],
            count=entry["count"],
        )
        print(json.dumps(summary.to_json()))
    return 0


def _setup(spec) -> int:
    import johnson_p2c  # noqa: F401

    for desc in spec:
        _graph(desc)
    return 0


def _hamilton(spec) -> int:
    import johnson_p2c.hamilton
    from johnson_p2c import ElementSet, check_hamilton

    g = _graph(spec["graph"])
    s, t = (ElementSet(bits, g.n) for bits in (spec["s"], spec["t"]))
    start = time.perf_counter()
    path = johnson_p2c.hamilton.hamilton_johnson(g, s, t)
    elapsed = time.perf_counter() - start
    valid = check_hamilton(g, path, s, t).valid
    print(json.dumps({"path_s": elapsed, "valid": valid}))
    return 0 if valid else 1


def _run(kind, args) -> int:
    if kind == "cli":
        import johnson_p2c.cli

        sys.argv = ["johnson-p2c", *args]
        try:
            johnson_p2c.cli.main()
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 1
        return 0
    spec = json.loads(args[0])
    return {"sweep": _sweeps, "setup": _setup, "hamilton": _hamilton}[kind](spec)


def main() -> int:
    pid = os.fork()
    if pid:
        _, status, usage = os.wait4(pid, 0)
        with open(os.environ["PERFBENCH_RUSAGE"], "w") as fh:
            json.dump({"maxrss_kb": usage.ru_maxrss}, fh)
        return os.waitstatus_to_exitcode(status)
    src = os.environ["PERFBENCH_SRC"]
    sys.path.insert(0, src)
    trace = os.environ.get("PERFBENCH_TRACE")
    tracer = None
    extra = {}
    if trace:
        start = time.perf_counter()
        import johnson_p2c.cli  # noqa: F401

        extra["import_s"] = time.perf_counter() - start
        from tracer import Tracer

        path, op_id = trace.rsplit(":", 1)
        tracer = Tracer(int(op_id))
        tracer.install()
    import johnson_p2c

    here = os.path.realpath(johnson_p2c.__file__)
    if not here.startswith(os.path.realpath(src) + os.sep):
        print(f"perfbench: johnson_p2c imported from {here}, not {src}", file=sys.stderr)
        return 3
    try:
        return _run(sys.argv[1], sys.argv[2:])
    finally:
        if tracer is not None:
            sys.stdout.flush()
            tracer.dump(path, extra)


if __name__ == "__main__":
    sys.exit(main())
