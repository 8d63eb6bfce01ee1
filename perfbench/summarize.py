"""Summarize benchmark reports: medians, quartiles and spreads per workload.

    python3 perfbench/summarize.py perfbench/out/*-full-*.json
    python3 perfbench/summarize.py --baseline perfbench/baseline.json perfbench/out/*-full-*.json

For each workload and metric it prints the median of the runs and the
spread (third minus first quartile, as a share of the median) next to the
bound fixed in BENCHMARK.json.  ``--baseline`` also writes the medians, the
per-layer medians of the traced runs and the machine they ran on to a file,
as one point of the benchmark's trajectory.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from workloads import Workload  # noqa: E402


def spread(values: list[float]) -> tuple[float, float]:
    """(median, (q3 - q1) / median) as statistics.quantiles(n=4) gives them."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else 0.0


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("reports", nargs="+", type=Path)
    ap.add_argument("--baseline", type=Path, help="write the medians to this file")
    args = ap.parse_args(argv)

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs: dict[tuple[str, int], list[dict]] = {}
    for path in args.reports:
        report = json.loads(path.read_text())
        runs.setdefault((report["workload"], report["trace"]), []).append(report)

    baseline = {"machine": {"python": platform.python_version(), "nproc": None,
                            "cpu": cpu_model()}, "workloads": {}}
    worst = 0.0
    for (name, trace), reports in sorted(runs.items()):
        entry = baseline["workloads"].setdefault(
            name, {**Workload(name).describe(), "seeds": {}}
        )
        entry["seeds"][f"trace{trace}"] = sorted(r["seed"] for r in reports)
        baseline["machine"]["nproc"] = reports[0]["machine"]["nproc"]
        ok = all(r["correct"] for r in reports)
        print(f"{name} trace {trace}: {len(reports)} runs, all correct: {ok}")
        table = entry.setdefault("per_layer" if trace else "end_to_end", {})
        for metric in reports[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in reports]
            unit = reports[0]["metrics"][metric]["unit"]
            med, sp = spread(values)
            table[metric] = {"median": med, "unit": unit}
            if trace:
                print(f"  {metric:36s} {med:14.6g} {unit}")
                continue
            table[metric]["spread"] = sp
            bound = bounds.get(metric)
            flag = ""
            if bound is not None:
                worst = max(worst, sp / bound)
                flag = "ok" if sp < bound / 3 else ("WITHIN BOUND" if sp < bound else "TOO WIDE")
            print(f"  {metric:36s} {med:14.6g} {unit:6s} spread {sp:7.2%} bound {bound} {flag}")
    print(f"worst spread / bound: {worst:.2f}")
    if args.baseline:
        args.baseline.write_text(json.dumps(baseline, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
