"""Self-test of the benchmark on small graphs, through the same code paths.

    python3 perfbench/selftest.py

Kept out of the repository's test suite on purpose: it starts dozens of
interpreters and would slow the tier-1 gate.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from check import check_cover, check_summary  # noqa: E402
from workloads import Workload  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in BENCH["workloads"]]


def smoke(workload: str, trace: int) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "2", "--trace", str(trace), "--size", "smoke"],
        capture_output=True, text=True, timeout=180, check=True,
    )
    lines = proc.stdout.splitlines()
    return lines[:-1], json.loads(lines[-1])


class SmokeRuns(unittest.TestCase):
    def check_result(self, lines, result, declared):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], lines)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(list(result["metrics"]), [m["name"] for m in declared])
        for m in declared:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"])
            # Every metric is printed by name with its unit and sample count.
            line = next(ln for ln in lines if ln.split()[:1] == [m["name"]])
            self.assertIn(m["unit"], line)
            self.assertRegex(line, r"\(.*\d+ (ops|traced ops|fresh interpreters|cold J builds)")
        self.assertTrue(any(ln.split()[:1] == ["fail_ratio"] for ln in lines))

    def test_end_to_end_metrics(self):
        for name in NAMES:
            with self.subTest(workload=name):
                lines, result = smoke(name, 0)
                self.check_result(lines, result, BENCH["end_to_end"])
                for metric in result["metrics"].values():
                    self.assertGreater(metric["value"], 0)

    def test_per_layer_metrics(self):
        for name in NAMES:
            with self.subTest(workload=name):
                lines, result = smoke(name, 1)
                self.check_result(lines, result, BENCH["per_layer"])
                qj = {k: v["value"] for k, v in result["metrics"].items() if k.startswith("p2c_qj.")}
                if name.startswith("johnson"):
                    self.assertEqual(set(qj.values()), {0.0})
                else:
                    self.assertGreater(qj["p2c_qj.calls"], 0)


class FailureAccounting(unittest.TestCase):
    def setUp(self):
        run.OUT.mkdir(exist_ok=True)

    def test_corrupted_cover_fails(self):
        wl = Workload("johnson-cold", "smoke")
        op = next(wl.ops(3))
        child = run.spawn(op["kind"], op["args"], 60)
        self.assertEqual(wl.judge(op, child.returncode, child.stdout), (1, None))
        doc = json.loads(child.stdout)
        # Replace one interior vertex of path_xy by an endpoint of path_uv.
        doc["path_xy"][1] = doc["path_uv"][0]
        certified, reason = wl.judge(op, 0, json.dumps(doc).encode())
        self.assertEqual(certified, 0)
        self.assertIsNotNone(reason)

    def test_empty_sweep_fails(self):
        wl = Workload("johnson-sweep", "smoke")
        args = ["sweep", "--graph", "johnson", "--n", "5", "--k", "2",
                "--mode", "sampled", "--count", "-3"]
        child = run.spawn("cli", args, 60)
        op = {"kind": "sweep", "entries": [{"requested": 3}], "quads": 3}
        # Whatever the exit code, a summary of 0 quads certifies nothing.
        certified, reason = wl.judge(op, child.returncode, child.stdout)
        self.assertEqual(certified, 0)
        self.assertIsNotNone(reason)

    def test_checker_rejects(self):
        self.assertIsNotNone(check_cover(b"", 5, 2, (6, 10, 12, 18)))
        self.assertIsNotNone(check_cover(b'{"path_uv": [[1,2]]}', 5, 2, (6, 10, 12, 18)))
        ok = json.dumps({"total": 4, "valid": 4, "invalid": 0, "errors": 0})
        self.assertEqual(check_summary(ok, 4), (4, None))
        self.assertEqual(check_summary(ok, 5)[0], 0)

    def test_golden_mismatch_is_reported(self):
        wl = Workload("johnson-sweep")
        saved = run.GOLDEN
        run.GOLDEN = run.OUT / "golden-selftest.json"
        try:
            run.record_golden(wl, 1, [{"digest": "a"}, {"digest": "b"}])
            ops = [{"digest": d} for d in "abc"]
            self.assertEqual(run.check_golden(wl, 1, ops), (False, "match (2 of 3 ops checked)"))
            self.assertTrue(run.check_golden(wl, 1, [{"digest": "a"}, {"digest": "x"}])[0])
            self.assertFalse(run.check_golden(wl, 2, [{"digest": "x"}])[0])
        finally:
            run.GOLDEN.unlink(missing_ok=True)
            run.GOLDEN = saved


class Tracing(unittest.TestCase):
    def test_missing_hook_is_listed_not_fatal(self):
        from tracer import Tracer

        tracer = Tracer(0)
        tracer._rebind("johnson_p2c.gone", "solve", tracer._span_wrapper("gone", "solve"))
        self.assertEqual(tracer.missing, ["johnson_p2c.gone.solve"])


class BareDirectory(unittest.TestCase):
    def test_refuses_without_sources(self):
        bare = run.OUT / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(HERE.parent / "BENCHMARK.json", bare)
        try:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", NAMES[0], "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180,
            )
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
