"""Paired A/B timing of two source checkouts on one of perfbench's sweeps.

    python tools/ab.py A B --workload johnson-sweep --pairs 10 [--size smoke]

A and B are the roots of two checkouts, each with a ``src/johnson_p2c``.
Pair i runs op i of perfbench's op stream for seed 1 once against each
checkout, in a fresh interpreter, A first in even pairs and B first in odd
ones.  The runs are pinned to one CPU, the same for every run, so both sides
see the same core.  A run times the import of the package and the op's
sweeps; the summaries are judged by perfbench's own ``Workload.judge``, and
any summary with invalid or failed quads, or fewer than requested, fails
the tool (exit 1).

It prints each pair, then each side's median import and sweep seconds, the
ratio of the medians (B over A) and the number of pairs in which B's sweeps
were faster.  The workloads are read from ``perfbench/workloads.py`` of the
checkout that holds this file, which is imported without writing bytecode,
so ``perfbench/`` stays as it is.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from itertools import islice
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SEED = 1
WORKLOADS = ("johnson-sweep", "qj-sweep")


def child(src: str, spec: str) -> int:
    """One run: import the package from ``src``, run the sweeps of ``spec``
    and print one summary line each, then a line of timings."""
    sys.path.insert(0, src)
    start = time.perf_counter()
    import johnson_p2c.verify
    from johnson_p2c import JohnsonGraph, QJGraph

    import_s = time.perf_counter() - start
    if not johnson_p2c.__file__.startswith(os.path.join(src, "")):
        here = johnson_p2c.__file__
        print(f"johnson_p2c imported from {here}, not {src}", file=sys.stderr)
        return 3
    summaries, sweep_s = [], 0.0
    for entry in json.loads(spec):
        desc = entry["graph"]
        if desc["kind"] == "johnson":
            g = JohnsonGraph(desc["n"], desc["k"])
        else:
            g = QJGraph(desc["n"], desc["levels"])
        start = time.perf_counter()
        summary = johnson_p2c.verify.sweep(
            g,
            mode=entry["mode"],
            constructor=entry["constructor"],
            seed=entry["seed"],
            count=entry["count"],
        )
        sweep_s += time.perf_counter() - start
        summaries.append(json.dumps(summary.to_json()))
    print("\n".join(summaries))
    print(json.dumps({"import_s": import_s, "sweep_s": sweep_s}))
    return 0


def run(checkout: Path, wl, op: dict) -> dict:
    """Time one op against ``checkout`` in a fresh interpreter."""
    src = str((checkout / "src").resolve())
    proc = subprocess.run(
        [sys.executable, "-I", "-B", __file__, "--child", src, op["args"][0]],
        capture_output=True,
        check=False,
    )
    *lines, last = proc.stdout.splitlines() or [b""]
    _, reason = wl.judge(op, proc.returncode, b"\n".join(lines))
    if reason:
        err = proc.stderr.decode("utf-8", "replace")[-500:]
        raise SystemExit(f"ab: {checkout}: {reason}\n{err}")
    return json.loads(last)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("a", type=Path, help="root of checkout A")
    ap.add_argument("b", type=Path, help="root of checkout B")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--size", choices=["full", "smoke"], default="full")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error(f"--pairs must be at least 1, got {args.pairs}")
    for root in (args.a, args.b):
        if not (root / "src" / "johnson_p2c" / "__init__.py").is_file():
            ap.error(f"no src/johnson_p2c package under {root}")
    return args


def main(argv) -> int:
    if argv[:1] == ["--child"]:
        return child(*argv[1:])
    args = parse_args(argv)
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(PERFBENCH))
    from workloads import Workload

    wl = Workload(args.workload, args.size)
    if hasattr(os, "sched_setaffinity"):
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})  # the runs inherit it
    else:
        cpu = None
    runs = {"a": [], "b": []}
    for i, op in enumerate(islice(wl.ops(SEED), args.pairs)):
        order = ("a", "b") if i % 2 == 0 else ("b", "a")
        for side in order:
            runs[side].append(run(getattr(args, side), wl, op))
        a, b = runs["a"][-1]["sweep_s"], runs["b"][-1]["sweep_s"]
        print(f"pair {i} ({'-'.join(order).upper()}): sweep A {a:.4f} s, "
              f"B {b:.4f} s, B/A x{b / a:.3f}")

    print(f"{wl.name} ({wl.size}), {args.pairs} pairs, op i of seed {SEED} "
          f"in pair i, CPU {cpu}")
    sweep_s = {}
    for side in ("a", "b"):
        import_s = statistics.median(r["import_s"] for r in runs[side])
        sweep_s[side] = statistics.median(r["sweep_s"] for r in runs[side])
        print(f"{side.upper()} {getattr(args, side)}: median import {import_s:.4f} s, "
              f"sweep {sweep_s[side]:.4f} s")
    wins = sum(b["sweep_s"] < a["sweep_s"] for a, b in zip(runs["a"], runs["b"]))
    print(f"sweep B/A x{sweep_s['b'] / sweep_s['a']:.3f} (ratio of medians); "
          f"B faster in {wins} of {args.pairs} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
