import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "ab.py"

# A checkout whose sweep reports one invalid quad in every summary.
BROKEN_INIT = """
class JohnsonGraph:
    def __init__(self, *args):
        pass


QJGraph = JohnsonGraph
"""
BROKEN_VERIFY = """
from types import SimpleNamespace


def sweep(g, count, **kwargs):
    doc = {"total": count, "valid": count - 1, "invalid": 1, "errors": 0}
    return SimpleNamespace(to_json=lambda: doc)
"""


def ab(*args):
    return subprocess.run(
        [sys.executable, str(TOOL), *map(str, args)],
        capture_output=True,
        text=True,
        timeout=120,
        check=False,
    )


def test_a_checkout_against_itself():
    done = ab(ROOT, ROOT, "--workload", "johnson-sweep", "--pairs", "2", "--size", "smoke")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0].startswith("pair 0 (A-B): sweep A ")
    assert lines[1].startswith("pair 1 (B-A): sweep A ")
    assert lines[2].startswith("johnson-sweep (smoke), 2 pairs, op i of seed 1 in pair i")
    assert lines[3].startswith(f"A {ROOT}: median import ")
    assert lines[-1].startswith("sweep B/A x") and lines[-1].endswith(" of 2 pairs")


def test_an_invalid_quad_fails_the_tool(tmp_path):
    package = tmp_path / "src" / "johnson_p2c"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(BROKEN_INIT)
    (package / "verify.py").write_text(BROKEN_VERIFY)
    done = ab(ROOT, tmp_path, "--workload", "qj-sweep", "--pairs", "1", "--size", "smoke")
    assert done.returncode == 1
    assert done.stderr.startswith(f"ab: {tmp_path}: 1 invalid or failed quads")


def test_a_directory_without_the_package_is_refused(tmp_path):
    done = ab(ROOT, tmp_path, "--workload", "qj-sweep", "--pairs", "1")
    assert done.returncode == 2 and "no src/johnson_p2c package" in done.stderr
