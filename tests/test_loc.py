import importlib.util
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
