"""Peak memory of cold CLI covers above the acceptance sizes (slow tier).

Run with ``pytest -m slow``.  Each case runs ``johnson-p2c p2c`` on the
seed-1 quad of ``perfbench`` (``random.Random(1).sample`` of the vertex
masks in ascending order) in a process forked from a bare interpreter, as
``perfbench/child.py`` does: a process started by exec inherits the peak
resident memory of the process that started it, a forked one only the bare
interpreter's.  The bounds sit between the peaks of a build that copied
every complemented or embedded half above ``MEMO_VERTICES`` and certified
with a set per path (87 and 278 MB) and those of one that builds such
halves in their final masks and certifies on one sorted key list (57 and
170 MB), measured on a 2-core Xeon with Python 3.11.
"""

import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# argv: the source directory, then the CLI's arguments.  Prints the child's
# exit code and its peak resident memory in KiB.
FORKED_CLI = """
import os, sys
src, args = sys.argv[1], sys.argv[2:]
pid = os.fork()
if pid == 0:
    os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
    sys.path.insert(0, src)
    import johnson_p2c.cli
    sys.argv = ["johnson-p2c", *args]
    try:
        johnson_p2c.cli.main()
    except SystemExit as exc:
        os._exit(exc.code if isinstance(exc.code, int) else 1)
    os._exit(0)
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""

# (n, k, the seed-1 quad as element lists, bound on the peak in MB)
COLD_COVERS = [
    (22, 11,
     ["2,4,5,6,8,11,15,16,17,19,20", "5,7,8,10,11,12,15,16,19,21,22",
      "1,4,5,7,8,10,12,15,17,18,19", "1,3,4,5,7,9,13,14,16,20,21"],
     70),
    (24, 12,
     ["2,4,5,6,8,12,13,15,16,20,21,22", "5,6,7,8,13,14,16,19,20,21,23,24",
      "5,7,8,9,10,12,13,16,17,19,20,21", "2,5,7,8,9,11,13,14,18,19,22,23"],
     220),
]


@pytest.mark.slow
@pytest.mark.parametrize(
    "n, k, quad, bound_mb", COLD_COVERS, ids=["J(22,11)", "J(24,12)"]
)
def test_cold_cli_cover_peak_memory(n, k, quad, bound_mb):
    args = ["p2c", "--graph", "johnson", "--n", str(n), "--k", str(k)]
    for flag, elements in zip("uvxy", quad):
        args += [f"--{flag}", elements]
    done = subprocess.run(
        [sys.executable, "-c", FORKED_CLI, str(SRC), *args],
        capture_output=True,
        text=True,
        check=True,
    )
    code, peak_kib = map(int, done.stdout.split())
    assert code == 0, done.stderr
    assert peak_kib / 1024 < bound_mb
