"""Benchmark of johnson_p2c, run from the root of a source checkout.

    python3 perfbench/run.py --workload johnson-cold --seed 1 --seconds 30 --trace 0

Each op runs in a fresh interpreter (``child.py``) against ``src/`` of the
checkout, one op at a time.  After the set-up probes, ops are started until
the next one would end after ``--seconds``.  Every op's output is checked
outside its timed span (check.py); an op counts as failed on a non-zero
exit, empty or unparsable output, a rejected cover, or a sweep summary that
certifies fewer quads than requested.

Times are wall times from spawn to exit, scaled to a reference core speed
that a fixed probe loop measures before, during and after each op (see
``pin_to_quietest_cpu`` and ``spawn``).

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs each op
twice, untraced and then instrumented from outside (tracer.py), and reports
the per-layer metrics.  Human-readable lines with sample counts come first;
the last line of stdout is one JSON object.  A full report goes to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import marshal
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
GOLDEN = HERE / "golden.json"
CHILD = HERE / "child.py"

sys.path.insert(0, str(HERE))
from workloads import SIZES, Workload  # noqa: E402

SETUP_PROBES = 15
# The whole run ends well inside the 180 s a run may take.
RUN_LIMIT_S = 170.0
# Spans written per run; the metrics use every span.
SPANS_WRITTEN = 200_000
# Golden digests are kept for this many leading ops of a seed.
GOLDEN_OPS = 8

# Probe time that defines the reference core speed: a time at reference
# speed is wall time * mean(PROBE_REF_S / probe time) over the probes
# taken around and during it.
PROBE_REF_S = 0.00075
PROBE_ROUNDS = 5_000
# Probes right before and right after an op, and the interval between the
# probes taken while it runs.
PROBES_AROUND = 3
PROBE_EVERY_S = 0.2
PROBE_TABLE = list(range(1 << 18))
# CPUs this process may use, read before the first pin narrows them.
CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []

END_TO_END = {
    "cover_s_p50": "s",
    "cover_s_tail": "s",
    "quads_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "subsets.elementset_new": "count/quad",
    "subsets.complement_calls": "count/quad",
    "subsets.relabel_calls": "count/quad",
    "subsets.neighbor_calls": "count/quad",
    "subsets.neighbor_s": "s/quad",
    "graphs.to_generic_calls": "count/quad",
    "graphs.to_generic_s": "s/quad",
    "hamilton.bruteforce_calls": "count/quad",
    "hamilton.bruteforce_s": "s/quad",
    "hamilton.bruteforce_distinct_ratio": "ratio",
    "hamilton.path_s": "s",
    "p2c_johnson.calls": "count/quad",
    "p2c_johnson.self_s": "s/quad",
    "p2c_qj.calls": "count/quad",
    "p2c_qj.self_s": "s/quad",
    "p2c_qj.ep2c_calls": "count/quad",
    "p2c_qj.ep2c_s": "s/quad",
    "p2c_qj.pick_calls": "count/quad",
    "p2c_qj.apex_calls": "count/quad",
    "verify.check_s": "s/quad",
    "verify.check_share": "ratio",
    "verify.oracle_calls": "count/quad",
    "verify.oracle_s": "s/quad",
    "verify.oracle_distinct_ratio": "ratio",
    "cli.self_s": "s/quad",
    "cli.out_bytes": "B/quad",
    "cli.import_s": "s",
    "trace.overhead_ratio": "ratio",
}


class Child:
    """Outcome of one child process: wall time from spawn to exit, the same
    time at reference core speed, exit code, captured output and peak
    resident memory."""

    def __init__(self, wall, norm, returncode, stdout, stderr, rss_mb):
        self.wall = wall
        self.norm = norm
        self.returncode = returncode
        self.stdout = stdout
        self.stderr = stderr
        self.rss_mb = rss_mb


def _probe(rounds: int = PROBE_ROUNDS) -> float:
    """Seconds a fixed pure-Python loop takes on the current core.  It
    reads a table larger than the core's own caches, as the package's
    object-heavy code does."""
    start = time.perf_counter()
    table, acc, n = {}, 0, len(PROBE_TABLE)
    for i in range(rounds):
        key = PROBE_TABLE[i * 7919 % n]
        table[key & 0xFFFF] = acc
        acc += key % 7
    return time.perf_counter() - start


def pin_to_quietest_cpu() -> None:
    """Move this process, and so the next child, to the allowed CPU on
    which a short probe runs fastest right now.

    On a shared machine each core's speed alternates, independently of the
    others, between states up to 1.7x apart for seconds at a time, and the
    fast state itself drifts over minutes.  Starting each op on the
    currently fast core keeps most ops out of the slow state, and scaling
    its wall time by the core speed probed around and during it
    (``Child.norm``) removes most of the rest: run medians of the same code
    then agree to a few percent, where raw wall times differ by 10-35%."""
    if len(CPUS) > 1:
        timings = []
        for cpu in CPUS:
            os.sched_setaffinity(0, {cpu})
            timings.append((_probe(3 * PROBE_ROUNDS), cpu))
        os.sched_setaffinity(0, {min(timings)[1]})


def _probe_until(stop: threading.Event, probes: list[float]) -> None:
    """Probe the core every PROBE_EVERY_S until ``stop`` is set.  The probe
    runs on the child's core (this process is pinned to it) and takes about
    half a percent of its time; an op that spans several speed states is
    scaled by their time-weighted mean."""
    while not stop.wait(PROBE_EVERY_S):
        probes.append(_probe())


def spawn(kind: str, args: list[str], timeout: float, trace: str | None = None) -> Child:
    pin_to_quietest_cpu()
    probes = [_probe() for _ in range(PROBES_AROUND)]
    rusage = OUT / f"rusage-{os.getpid()}.json"
    env = dict(os.environ, PERFBENCH_SRC=str(SRC), PERFBENCH_RUSAGE=str(rusage))
    env.pop("PERFBENCH_TRACE", None)
    if trace:
        env["PERFBENCH_TRACE"] = trace
    with tempfile.TemporaryFile(dir=OUT) as out, tempfile.TemporaryFile(dir=OUT) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(CHILD), kind, *args],
            stdin=subprocess.DEVNULL,
            stdout=out,
            stderr=err,
            env=env,
            cwd=ROOT,
            start_new_session=True,
        )
        # Kills the op's forked process too, which shares the session.
        timer = threading.Timer(max(timeout, 1.0), os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        stop = threading.Event()
        sampler = threading.Thread(target=_probe_until, args=(stop, probes))
        sampler.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            wall = time.perf_counter() - start
            stop.set()
            sampler.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        probes += [_probe() for _ in range(PROBES_AROUND)]
        speed = statistics.mean(PROBE_REF_S / probe for probe in probes)
        try:
            maxrss_kb = json.loads(rusage.read_text())["maxrss_kb"]
            rusage.unlink()
        except (OSError, ValueError, KeyError):
            maxrss_kb = usage.ru_maxrss  # the child died before its op did
        return Child(wall, wall * speed, proc.returncode, out.read(), err.read(),
                     maxrss_kb / 1024)


class Run:
    def __init__(self, workload: Workload, seed: int, seconds: float, trace: bool):
        self.wl = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.start = time.perf_counter()
        self.records: list[dict] = []
        self.dumps: list[dict] = []

    def remaining(self) -> float:
        return RUN_LIMIT_S - (time.perf_counter() - self.start)

    def setup_probes(self) -> list[float]:
        spec = [json.dumps(self.wl.graphs())]
        spawn("setup", spec, self.remaining())  # warm the bytecode and file caches
        walls = []
        for _ in range(SETUP_PROBES):
            child = spawn("setup", spec, self.remaining())
            if child.returncode != 0:
                raise RuntimeError(f"set-up child failed: {child.stderr.decode()[-500:]}")
            walls.append(child.norm)
        return walls

    def op(self, i: int, op: dict) -> dict:
        child = spawn(op["kind"], op["args"], self.remaining())
        certified, reason = self.wl.judge(op, child.returncode, child.stdout)
        rec = {
            "op": i,
            "wall_s": child.wall,
            "norm_s": child.norm,
            "rss_mb": child.rss_mb,
            "quads": op["quads"],
            "certified": certified,
            "reason": reason,
            "digest": hashlib.sha256(child.stdout).hexdigest(),
            "out_bytes": len(child.stdout),
        }
        if reason:
            rec["stderr"] = child.stderr.decode("utf-8", "replace")[-2000:]
        if self.trace and not reason:
            self.traced(i, op, rec)
        return rec

    def traced(self, i: int, op: dict, rec: dict) -> None:
        path = OUT / f"trace-op{os.getpid()}-{i}.marshal"
        child = spawn(op["kind"], op["args"], self.remaining(), trace=f"{path}:{i}")
        try:
            with open(path, "rb") as fh:
                dump = marshal.load(fh)  # written by this benchmark's own child
        except (OSError, EOFError, ValueError):
            dump = None
        finally:
            path.unlink(missing_ok=True)
        if child.returncode != 0 or dump is None:
            rec["certified"] = 0
            rec["reason"] = f"traced child failed with exit code {child.returncode}"
            rec["stderr"] = child.stderr.decode("utf-8", "replace")[-2000:]
            return
        if hashlib.sha256(child.stdout).hexdigest() != rec["digest"]:
            rec["certified"] = 0
            rec["reason"] = "traced run differs from untraced run"
            return
        rec["traced_norm_s"] = child.norm
        if op["kind"] == "cli":
            p = self.wl.params
            spec = {"graph": {"kind": "johnson", "n": p["n"], "k": p["k"]}}
            spec.update(s=op["quad"][0], t=op["quad"][1])
            ham = spawn("hamilton", [json.dumps(spec)], self.remaining())
            if ham.returncode != 0:
                rec["certified"] = 0
                rec["reason"] = "hamilton_johnson child failed"
                return
            rec["path_s"] = json.loads(ham.stdout)["path_s"] * ham.norm / ham.wall
        dump["speed"] = child.norm / child.wall
        self.dumps.append(dump)

    def loop(self) -> None:
        begin = time.perf_counter()
        for i, op in enumerate(self.wl.ops(self.seed)):
            op_start = time.perf_counter()
            rec = self.op(i, op)
            rec["cost_s"] = time.perf_counter() - op_start
            self.records.append(rec)
            elapsed = time.perf_counter() - begin
            typical = statistics.median(r["cost_s"] for r in self.records)
            if elapsed + typical > self.seconds or self.remaining() < 2 * typical:
                break


# ---------------------------------------------------------------------------
# Metrics.


def tail(values: list[float]) -> tuple[float, int, int]:
    """(value, percentile, samples beyond) of the highest nearest-rank
    percentile with at least ten samples beyond it; the maximum (p100) when
    there are too few samples."""
    ordered = sorted(values)
    n = len(ordered)
    rank = n - 10 if n > 10 else n
    return ordered[rank - 1], math.floor(100 * rank / n), n - rank


def end_to_end(records: list[dict], setup: list[float]) -> tuple[dict, dict]:
    per_cover = [r["norm_s"] / r["quads"] for r in records]
    value, pct, beyond = tail(per_cover)
    certified = sum(r["certified"] for r in records)
    norm = sum(r["norm_s"] for r in records)
    n = len(records)
    metrics = {
        "cover_s_p50": statistics.median(per_cover),
        "cover_s_tail": value,
        "quads_per_s": statistics.median(r["certified"] / r["norm_s"] for r in records),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(r["rss_mb"] for r in records),
    }
    notes = {
        "cover_s_p50": f"median of {n} ops",
        "cover_s_tail": f"p{pct} of {n} ops, {beyond} beyond",
        "quads_per_s": f"median of {n} ops; {certified} quads in {norm:.3f} s",
        "setup_s": f"median of {len(setup)} fresh interpreters",
        "peak_rss_mb": f"max of {n} ops",
    }
    return metrics, notes


def _span_table(dump: dict):
    """Per span: (name, layer, duration, self time, outermost of its name),
    times at reference core speed."""
    spans, names, layers = dump["spans"], dump["names"], dump["layers"]
    speed = dump["speed"]
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    for slot, (name, start, end, parent) in enumerate(spans):
        outer = True
        p = parent
        while p >= 0:
            if spans[p][0] == name:
                outer = False
                break
            p = spans[p][3]
        dur = end - start
        yield names[name], layers[name], dur * speed, (dur - child_time[slot]) * speed, outer


def per_layer(records: list[dict], dumps: list[dict]) -> tuple[dict, dict, dict]:
    """Per-layer metrics per quad, their notes, and the raw aggregates."""
    traced = [r for r in records if "traced_norm_s" in r]
    quads = sum(r["quads"] for r in traced)
    calls: dict[str, int] = {}
    incl: dict[str, float] = {}
    layer_self: dict[str, float] = {}
    counts: dict[str, int] = {}
    distinct: dict[str, int] = {}
    for dump in dumps:
        for name, layer, dur, self_s, outer in _span_table(dump):
            calls[name] = calls.get(name, 0) + 1
            if outer:
                incl[name] = incl.get(name, 0.0) + dur
            layer_self[layer] = layer_self.get(layer, 0.0) + self_s
        for table, source in ((counts, dump["counts"]), (distinct, dump["distinct"])):
            for key, value in source.items():
                table[key] = table.get(key, 0) + value

    def c(*names):
        return sum(calls.get(n, 0) for n in names) / quads

    def t(*names):
        return sum(incl.get(n, 0.0) for n in names) / quads

    def ratio(name):
        return distinct.get(name, 0) / calls[name] if calls.get(name) else 0.0

    untraced = sum(r["norm_s"] for r in traced)
    traced_wall = sum(r["traced_norm_s"] for r in traced)
    neighbors = ("same_level_neighbors", "up_neighbors", "down_neighbors")
    cli_ops = [r for r in traced if "path_s" in r]
    metrics = {
        "subsets.elementset_new": counts.get("ElementSet", 0) / quads,
        "subsets.complement_calls": counts.get("complement", 0) / quads,
        "subsets.relabel_calls": counts.get("apply_relabeling", 0) / quads,
        "subsets.neighbor_calls": c(*neighbors),
        "subsets.neighbor_s": t(*neighbors),
        "graphs.to_generic_calls": c("to_generic"),
        "graphs.to_generic_s": t("to_generic"),
        "hamilton.bruteforce_calls": c("hamilton_bruteforce"),
        "hamilton.bruteforce_s": t("hamilton_bruteforce"),
        "hamilton.bruteforce_distinct_ratio": ratio("hamilton_bruteforce"),
        "hamilton.path_s": statistics.median(r["path_s"] for r in cli_ops) if cli_ops else 0.0,
        "p2c_johnson.calls": c("p2c_johnson"),
        "p2c_johnson.self_s": layer_self.get("p2c_johnson", 0.0) / quads,
        "p2c_qj.calls": c("p2c_qj"),
        "p2c_qj.self_s": layer_self.get("p2c_qj", 0.0) / quads,
        "p2c_qj.ep2c_calls": c("ep2c_expand"),
        "p2c_qj.ep2c_s": t("ep2c_expand"),
        "p2c_qj.pick_calls": c("pick_one_avoiding", "pick_two_avoiding"),
        "p2c_qj.apex_calls": c("absorb_apex"),
        "verify.check_s": t("check_p2c"),
        "verify.check_share": incl.get("check_p2c", 0.0) / traced_wall,
        "verify.oracle_calls": c("p2c_bruteforce"),
        "verify.oracle_s": t("p2c_bruteforce"),
        "verify.oracle_distinct_ratio": ratio("p2c_bruteforce"),
        "cli.self_s": layer_self.get("cli", 0.0) / quads,
        "cli.out_bytes": sum(r["out_bytes"] for r in cli_ops) / quads,
        "cli.import_s": statistics.median(d["import_s"] * d["speed"] for d in dumps),
        "trace.overhead_ratio": traced_wall / untraced - 1.0,
    }
    notes = {name: f"{len(traced)} traced ops, {quads} quads" for name in metrics}
    notes["hamilton.path_s"] = f"median of {len(cli_ops)} cold J builds"
    notes["trace.overhead_ratio"] = (
        f"{traced_wall:.3f} s traced / {untraced:.3f} s untraced, {len(traced)} ops"
    )
    detail = {"calls": calls, "inclusive_s": incl, "layer_self_s": layer_self,
              "counts": counts, "distinct": distinct}
    return metrics, notes, detail


def write_spans(path: Path, dumps: list[dict]) -> None:
    """Write the spans of every traced op, up to SPANS_WRITTEN of them."""
    spans = []
    for dump in dumps:
        op, names, layers = dump["op"], dump["names"], dump["layers"]
        spans.extend(
            [names[n], layers[n], s, e, p, op]
            for n, s, e, p in dump["spans"][: SPANS_WRITTEN - len(spans)]
        )
    total = sum(len(d["spans"]) for d in dumps)
    merged = {
        "fields": ["name", "layer", "start", "end", "parent", "op"],
        "spans": spans,
        "dropped": total - len(spans),
    }
    with gzip.open(path, "wt") as fh:
        json.dump(merged, fh)


# ---------------------------------------------------------------------------
# Golden digests.


def check_golden(wl: Workload, seed: int, records: list[dict]) -> tuple[bool, str]:
    """(mismatch found, status line)."""
    if wl.size != "full" or not GOLDEN.exists():
        return False, "no golden digests for this size"
    expected = json.loads(GOLDEN.read_text()).get(wl.name, {}).get(str(seed))
    if expected is None:
        return False, f"no golden digests for seed {seed}"
    for i, (want, rec) in enumerate(zip(expected, records)):
        if rec["digest"] != want:
            return True, f"MISMATCH at op {i}"
    checked = min(len(expected), len(records))
    return False, f"match ({checked} of {len(records)} ops checked)"


def record_golden(wl: Workload, seed: int, records: list[dict]) -> None:
    stored = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    stored.setdefault(wl.name, {})[str(seed)] = [r["digest"] for r in records[:GOLDEN_OPS]]
    GOLDEN.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(SIZES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["full", "smoke"], default="full",
                    help="smoke: small graphs, same code paths (self-test)")
    ap.add_argument("--record-golden", action="store_true",
                    help="store this run's output digests as the seed's golden ones")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "johnson_p2c" / "__init__.py").is_file():
        print(f"perfbench: no johnson_p2c package under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    wl = Workload(args.workload, args.size)
    run = Run(wl, args.seed, args.seconds, bool(args.trace))
    setup = [] if run.trace else run.setup_probes()
    run.loop()
    records = run.records

    attempted = sum(r["quads"] for r in records)
    failed = attempted - sum(r["certified"] for r in records)
    mismatch, golden = check_golden(wl, args.seed, records)
    run_digest = hashlib.sha256("".join(r["digest"] for r in records).encode()).hexdigest()
    correct = failed == 0 and not mismatch
    if run.trace and run.dumps:
        metrics, notes, detail = per_layer(records, run.dumps)
        units = PER_LAYER
    elif run.trace:
        metrics, notes, detail, units = {}, {}, {}, PER_LAYER
        correct = False
    else:
        metrics, notes = end_to_end(records, setup)
        detail, units = {"setup_s": setup}, END_TO_END

    d = wl.describe()
    print(f"workload {wl.name} ({wl.size}) seed {args.seed}: {d['graph']}, "
          f"{d['quads_per_op']} quads per op, {len(records)} ops, trace {args.trace}")
    for name, value in metrics.items():
        print(f"  {name:36s} {value:14.6g} {units[name]:10s} ({notes[name]})")
    if not run.trace:
        raw = statistics.median(r["wall_s"] / r["quads"] for r in records)
        print(f"  {'cover_s_p50 unscaled':36s} {raw:14.6g} {'s':10s} "
              f"(median of {len(records)} ops, raw wall time; not bounded)")
    print(f"  {'fail_ratio':36s} {failed / attempted:14.6g} {'ratio':10s} "
          f"({failed} of {attempted} quads failed)")
    missing = sorted({hook for dump in run.dumps for hook in dump["missing"]})
    if missing:
        print(f"  hooks not found, reported as never called: {', '.join(missing)}")
    for rec in records:
        if rec["reason"]:
            print(f"  op {rec['op']} failed: {rec['reason']}")
    print(f"  digest {run_digest[:16]} over {len(records)} ops; golden: {golden}")

    if args.record_golden and correct:
        record_golden(wl, args.seed, records)
    stem = f"{wl.name}-{wl.size}-seed{args.seed}-trace{args.trace}"
    report = {
        "workload": wl.name, "size": wl.size, "seed": args.seed, "trace": args.trace,
        "describe": d, "correct": correct, "attempted": attempted, "failed": failed,
        "golden": golden, "digest": run_digest,
        "metrics": {k: {"value": v, "unit": units[k], "note": notes[k]} for k, v in metrics.items()},
        "detail": detail, "records": records,
        "machine": {"python": platform.python_version(), "nproc": os.cpu_count(),
                    "platform": platform.platform()},
    }
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    if run.dumps:
        write_spans(OUT / f"{stem}-spans.json.gz", run.dumps)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
