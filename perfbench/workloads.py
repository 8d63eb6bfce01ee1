"""The benchmark's workloads: what each op runs and how its output is judged.

Every op is one child process started from a clean interpreter, so the
package's module-level caches start empty, as they do for a user.  Inputs
come only from the seed: ``random.Random(seed)`` over the vertex list in
ascending bit-vector order (bit e is element e).
"""

from __future__ import annotations

import json
import random
from itertools import combinations
from math import comb

from check import check_cover, check_summary

# Graph sizes: the measured size and the small one the self-test runs.
SIZES = {
    "johnson-cold": {"full": {"n": 18, "k": 9}, "smoke": {"n": 10, "k": 5}},
    "johnson-sweep": {"full": {"n": 6, "k": 3, "count": 30000}, "smoke": {"n": 5, "k": 2, "count": 100}},
    "qj-sweep": {"full": {"n": 7, "count": 10}, "smoke": {"n": 5, "count": 5}},
}

WHY = {
    "johnson-cold": "one CLI p2c per fresh process on J(18,9): per-vertex subset work, "
    "Hamilton splices and the JSON emit dominate; the oracle barely runs",
    "johnson-sweep": "30,000 sampled J(6,3) quads in one process, so caches warm and grow: oracle "
    "calls fall to 0.15 per quad (0.52 cold); p2c_johnson self time 55%, oracle 22%, check_p2c 15%",
    "qj-sweep": "sampled QJ(7,A) sweep over every level set with 4+ vertices: "
    "the only workload that runs p2c_qj, EP2C expansion and apex absorption",
}


def k_subsets(n: int, k: int) -> list[int]:
    """All k-subsets of [1..n] as bitmasks, in ascending bit-vector order."""
    return sorted(sum(1 << e for e in c) for c in combinations(range(1, n + 1), k))


def elements(bits: int) -> str:
    return ",".join(str(e) for e in range(1, bits.bit_length()) if bits >> e & 1)


def level_sets(n: int) -> list[list[int]]:
    """Every non-empty level set A of QJ(n,A) whose graph has at least 4 vertices."""
    out = []
    for r in range(1, n + 1):
        for levels in combinations(range(1, n + 1), r):
            if sum(comb(n, a) for a in levels) >= 4:
                out.append(list(levels))
    return out


class Workload:
    """A named stream of ops drawn from a seed, plus the judge of their output."""

    def __init__(self, name: str, size: str = "full"):
        self.name = name
        self.size = size
        self.why = WHY[name]
        self.params = SIZES[name][size]

    def describe(self) -> dict:
        """The record of this workload kept with the baseline."""
        p = self.params
        if self.name == "qj-sweep":
            graph = f"QJ({p['n']},A) for {len(level_sets(p['n']))} level sets"
        else:
            graph = f"J({p['n']},{p['k']})"
        return {"graph": graph, "quads_per_op": next(self.ops(0))["quads"], "why": self.why}

    def graphs(self) -> list[dict]:
        """Descriptors of the graphs an op of this workload builds."""
        p = self.params
        if self.name == "qj-sweep":
            return [{"kind": "qj", "n": p["n"], "levels": a} for a in level_sets(p["n"])]
        return [{"kind": "johnson", "n": p["n"], "k": p["k"]}]

    def ops(self, seed: int):
        """Endless stream of ops; the i-th op depends only on (seed, i)."""
        rng = random.Random(seed)
        p = self.params
        if self.name == "johnson-cold":
            verts = k_subsets(p["n"], p["k"])
            while True:
                quad = rng.sample(verts, 4)
                args = ["p2c", "--graph", "johnson", "--n", str(p["n"]), "--k", str(p["k"])]
                for flag, bits in zip("uvxy", quad):
                    args += [f"--{flag}", elements(bits)]
                yield {"kind": "cli", "args": args, "quad": quad, "quads": 1}
        else:
            constructor = "qj" if self.name == "qj-sweep" else "johnson"
            graphs = self.graphs()
            while True:
                op_seed = rng.getrandbits(32)
                yield _sweep_op(
                    [
                        {
                            "graph": g,
                            "mode": "sampled",
                            "constructor": constructor,
                            "seed": op_seed,
                            "count": p["count"],
                            "requested": p["count"],
                        }
                        for g in graphs
                    ]
                )

    def judge(self, op: dict, returncode: int, stdout: bytes) -> tuple[int, str | None]:
        """(certified quads, reason the op failed or None)."""
        if returncode != 0:
            return 0, f"exit code {returncode}"
        if not stdout.strip():
            return 0, "empty output"
        if op["kind"] == "cli":
            reason = check_cover(stdout, self.params["n"], self.params["k"], op["quad"])
            return (0, reason) if reason else (1, None)
        lines = stdout.decode("utf-8", "replace").splitlines()
        if len(lines) != len(op["entries"]):
            return 0, f"{len(lines)} summaries for {len(op['entries'])} sweeps"
        certified, first = 0, None
        for line, entry in zip(lines, op["entries"]):
            valid, reason = check_summary(line, entry["requested"])
            certified += valid
            first = first or reason
        return certified, first


def _sweep_op(entries: list[dict]) -> dict:
    spec = [{k: v for k, v in e.items() if k != "requested"} for e in entries]
    return {
        "kind": "sweep",
        "args": [json.dumps(spec)],
        "entries": entries,
        "quads": sum(e["requested"] for e in entries),
    }
