import importlib.util
import subprocess
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "loc.py"
spec = importlib.util.spec_from_file_location("loc", TOOL)
loc = importlib.util.module_from_spec(spec)
spec.loader.exec_module(loc)

SOURCE = '''"""Module docstring,
over two lines."""

import os  # a comment after code

# a comment alone


class C:
    """Class docstring."""

    x = [
        1,  # inside a bracket
        # alone inside a bracket

        2,
    ]

    def f(self):
        """Function docstring."""
        return """a string
that is no docstring"""
'''


def test_counts_lines_and_code_only_lines():
    # Code: import, class, x = [, 1, 2, ], def, and the two lines of the
    # returned string.
    assert loc.count(SOURCE) == (22, 9)


def test_main_prints_a_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n\n")
    assert loc.main([str(tmp_path)]) == 0
    last = capsys.readouterr().out.splitlines()[-1].split()
    assert last[:3] == ["24", "10", "total"]
    assert loc.main([str(tmp_path / "none")]) == 2


def _git(repo, *args):
    subprocess.run(
        ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-c", "commit.gpgsign=false"]
        + list(args),
        cwd=repo,
        check=True,
        capture_output=True,
    )


def test_against_compares_with_a_commit(tmp_path, capsys, monkeypatch):
    # Commit 1 has a.py and gone.py; commit 2 grows a.py by two code lines,
    # removes gone.py and adds new.py.
    src = tmp_path / "src"
    src.mkdir()
    (src / "a.py").write_text(SOURCE)
    (src / "gone.py").write_text("x = 1\n\n")
    _git(tmp_path, "init", "-q")
    _git(tmp_path, "add", "-A")
    _git(tmp_path, "commit", "-q", "-m", "one")
    (src / "a.py").write_text(SOURCE + "y = 2\nz = 3\n")
    (src / "gone.py").unlink()
    (src / "new.py").write_text('"""Docstring."""\n\nw = 4\n')
    _git(tmp_path, "add", "-A")
    _git(tmp_path, "commit", "-q", "-m", "two")
    monkeypatch.chdir(tmp_path)
    assert loc.main(["--against", "HEAD~1"]) == 0
    rows = [row.split(None, 6) for row in capsys.readouterr().out.splitlines()[2:]]
    assert rows == [
        ["22", "9", "24", "11", "+2", "+2", "src/a.py"],
        ["2", "1", "0", "0", "-2", "-1", "src/gone.py (removed)"],
        ["0", "0", "3", "1", "+3", "+1", "src/new.py (added)"],
        ["24", "10", "27", "12", "+3", "+2", "total (src against HEAD~1: 1 added, 1 removed)"],
    ]
    # The working tree is the last commit; nothing is checked out.
    assert loc.main(["--against", "HEAD"]) == 0
    assert capsys.readouterr().out.splitlines()[-1].split()[4:6] == ["+0", "+0"]
    assert (src / "new.py").exists() and not (src / "gone.py").exists()
    assert loc.main(["--against", "no-such-rev"]) == 2
