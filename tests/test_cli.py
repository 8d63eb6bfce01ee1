import importlib
import io
import json
import os
import subprocess
import sys

import pytest

import johnson_p2c
from johnson_p2c import ElementSet
from johnson_p2c.cli import run
from johnson_p2c.hamilton import EMIT_SLICE


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


QUAD = ["1,2", "3,4", "1,3", "2,5"]


class TestP2CCommand:
    def test_table_row_instance(self, capsys):
        code, out, _ = invoke(
            capsys,
            "p2c", "--graph", "johnson", "--n", "4", "--k", "2",
            "--u", "1,2", "--v", "1,3", "--x", "2,3", "--y", "2,4",
        )
        assert code == 0
        sol = json.loads(out)
        assert sol["path_uv"][0] == [1, 2] and sol["path_uv"][-1] == [1, 3]
        assert sol["path_xy"][0] == [2, 3] and sol["path_xy"][-1] == [2, 4]

    def test_qj(self, capsys):
        code, out, _ = invoke(
            capsys,
            "p2c", "--graph", "qj", "--n", "4", "--levels", "1,2",
            "--u", "1", "--v", "2", "--x", "1,2", "--y", "3,4", "--debug-check",
        )
        assert code == 0
        sol = json.loads(out)
        assert len(sol["path_uv"]) + len(sol["path_xy"]) == 10

    def test_dot_format(self, capsys):
        code, out, _ = invoke(
            capsys,
            "p2c", "--graph", "johnson", "--n", "4", "--k", "2",
            "--u", "1,2", "--v", "1,3", "--x", "2,3", "--y", "2,4",
            "--format", "dot",
        )
        assert code == 0
        assert out.startswith("graph G {")
        assert "penwidth=2" in out

    def test_deterministic_output(self, capsys):
        args = (
            "p2c", "--graph", "johnson", "--n", "6", "--k", "3",
            "--u", "1,2,3", "--v", "4,5,6", "--x", "1,2,4", "--y", "3,5,6",
        )
        _, out1, _ = invoke(capsys, *args)
        _, out2, _ = invoke(capsys, *args)
        assert out1 == out2

    def test_missing_flag_is_usage_error(self, capsys):
        code, _, err = invoke(capsys, "p2c", "--graph", "johnson", "--n", "5")
        assert code == 2
        assert "usage error" in err

    def test_fixture_is_usage_error_pointing_to_oracle(self, capsys):
        # No constructor covers the fixture; the exact search does.
        code, out, err = invoke(
            capsys,
            "p2c", "--fixture", "fig1",
            "--u", "000", "--v", "010", "--x", "001", "--y", "011",
        )
        assert code == 2 and out == ""
        assert err.startswith("usage error:") and err.count("\n") == 1
        assert "oracle" in err and "Traceback" not in err

    def test_out_of_range_is_failure(self, capsys):
        code, _, err = invoke(
            capsys,
            "p2c", "--graph", "johnson", "--n", "3", "--k", "1",
            "--u", "1", "--v", "2", "--x", "3", "--y", "1",
        )
        assert code != 0

    def test_debug_check_failure_is_one_line(self, capsys, monkeypatch):
        # An oracle that drops a vertex yields an invalid intermediate cover,
        # which --debug-check reports as a typed error, not a traceback.
        # The package exports the function p2c_qj under the module's name.
        p2c_module = importlib.import_module("johnson_p2c.p2c_qj")
        solve_small = p2c_module._solve_small

        def drop_one(*args):
            p1, p2 = solve_small(*args)
            longer = p1 if len(p1) > len(p2) else p2
            del longer[1]
            return p1, p2

        monkeypatch.setattr(p2c_module, "_solve_small", drop_one)
        code, out, err = invoke(
            capsys,
            "p2c", "--graph", "johnson", "--n", "5", "--k", "3",
            "--u", "1,2,3", "--v", "3,4,5", "--x", "1,2,4", "--y", "2,4,5",
            "--debug-check",
        )
        assert code == 1 and out == ""
        assert err.count("\n") == 1
        assert err.startswith("InvariantViolated: invalid cover of J(5,3)")
        assert "NotCovering" in err and "Traceback" not in err


    def test_internal_value_error_is_not_usage_error(self, capsys, monkeypatch):
        # A ValueError past input parsing is a fault of the program: exit 1,
        # one line, no traceback.
        p2c_module = importlib.import_module("johnson_p2c.p2c_qj")

        def broken(*args):
            raise ValueError("tuple.index(x): x not in tuple")

        monkeypatch.setattr(p2c_module, "_solve_small", broken)
        code, out, err = invoke(
            capsys,
            "p2c", "--graph", "johnson", "--n", "5", "--k", "3",
            "--u", "1,2,3", "--v", "3,4,5", "--x", "1,2,4", "--y", "2,4,5",
        )
        assert code == 1 and out == ""
        assert err == "internal error: ValueError: tuple.index(x): x not in tuple\n"

    @pytest.mark.parametrize(
        "graph, quad",
        [
            (["--graph", "johnson", "--n", "5", "--k", "9"], QUAD),
            (["--graph", "qj", "--n", "5", "--levels", "3,2"], QUAD),
            (["--graph", "qj", "--n", "5", "--levels", "1,x"], QUAD),
            (["--graph", "johnson", "--n", "5", "--k", "2"], ["1,6", *QUAD[1:]]),
            (["--graph", "johnson", "--n", "5", "--k", "2"], ["1,a", *QUAD[1:]]),
            (["--fixture", "fig1"], ["012", "001", "010", "011"]),
        ],
    )
    def test_bad_input_is_usage_error(self, capsys, graph, quad):
        flags = [w for flag, v in zip("uvxy", quad) for w in (f"--{flag}", v)]
        code, out, err = invoke(capsys, "p2c", *graph, *flags)
        assert code == 2 and out == ""
        assert err.startswith("usage error:") and err.count("\n") == 1


class TestTiming:
    @pytest.mark.parametrize(
        "argv",
        [
            ["p2c", "--graph", "qj", "--n", "6", "--levels", "1,3,6",
             "--u", "2,3,6", "--v", "1,3,5", "--x", "4,5,6", "--y", "4"],
            ["hamilton", "--graph", "johnson", "--n", "7", "--k", "3",
             "--s", "1,2,3", "--t", "5,6,7"],
        ],
    )
    def test_phases_on_one_line(self, capsys, argv):
        code, plain, err = invoke(capsys, *argv)
        assert code == 0 and err == ""
        code, timed, err = invoke(capsys, "--timing", *argv)
        assert code == 0 and timed == plain
        assert err.count("\n") == 1
        names = [field.rstrip(":") for field in err.split()[::2]]
        assert names == ["elapsed", "build", "check", "emit"]

    def test_other_commands_report_elapsed_only(self, capsys):
        code, _, err = invoke(
            capsys, "--timing", "gen", "--graph", "johnson", "--n", "4", "--k", "2"
        )
        assert code == 0
        assert err.startswith("elapsed: ") and err.count("\n") == 1
        assert len(err.split()) == 2


class TestHamiltonCommand:
    def test_johnson(self, capsys):
        code, out, _ = invoke(
            capsys,
            "hamilton", "--graph", "johnson", "--n", "4", "--k", "2",
            "--s", "1,2", "--t", "3,4",
        )
        assert code == 0
        p = json.loads(out)["path"]
        assert len(p) == 6 and p[0] == [1, 2] and p[-1] == [3, 4]

    def test_qj(self, capsys):
        code, out, _ = invoke(
            capsys,
            "hamilton", "--graph", "qj", "--n", "4", "--levels", "1,2,3",
            "--s", "1", "--t", "1,2,3",
        )
        assert code == 0
        assert len(json.loads(out)["path"]) == 4 + 6 + 4


class TestOracleCommand:
    def test_fig1_absent(self, capsys):
        code, out, _ = invoke(
            capsys,
            "oracle", "--fixture", "fig1",
            "--u", "000", "--v", "101", "--x", "100", "--y", "001",
        )
        assert code == 1
        assert json.loads(out) == {"exists": False}

    def test_fig1_present(self, capsys):
        code, out, _ = invoke(
            capsys,
            "oracle", "--fixture", "fig1",
            "--u", "000", "--v", "010", "--x", "001", "--y", "011",
        )
        assert code == 0
        assert json.loads(out)["exists"] is True


class TestVerifyCommand:
    def test_pipe_roundtrip(self, capsys, monkeypatch):
        args = (
            "p2c", "--graph", "johnson", "--n", "5", "--k", "2",
            "--u", "1,2", "--v", "3,4", "--x", "1,3", "--y", "2,5",
        )
        _, out, _ = invoke(capsys, *args)
        monkeypatch.setattr(sys, "stdin", io.StringIO(out))
        code, out2, _ = invoke(
            capsys,
            "verify", "--graph", "johnson", "--n", "5", "--k", "2",
            "--u", "1,2", "--v", "3,4", "--x", "1,3", "--y", "2,5",
        )
        assert code == 0
        assert json.loads(out2)["valid"] is True

    @pytest.mark.parametrize(
        "stdin",
        [
            json.dumps({"path_uv": [[1, 2], [3, 4]]}),
            json.dumps({"path_xy": [[1, 3], [2, 5]]}),
            "{not json",
            "",
            json.dumps([[1, 2], [3, 4]]),
            json.dumps({"path_uv": 3, "path_xy": [[1, 3]]}),
            json.dumps({"path_uv": [[1, 2], "x"], "path_xy": [[1, 3]]}),
        ],
    )
    def test_malformed_stdin_is_usage_error(self, capsys, monkeypatch, stdin):
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
        code, out, err = invoke(
            capsys,
            "verify", "--graph", "johnson", "--n", "5", "--k", "2",
            "--u", "1,2", "--v", "3,4", "--x", "1,3", "--y", "2,5",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("usage error:") and err.count("\n") == 1

    def test_vertex_outside_ground_set_is_usage_error(self, capsys, monkeypatch):
        stdin = json.dumps({"path_uv": [[1, 9]], "path_xy": [[1, 3]]})
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
        code, out, err = invoke(
            capsys,
            "verify", "--graph", "johnson", "--n", "5", "--k", "2",
            "--u", "1,2", "--v", "3,4", "--x", "1,3", "--y", "2,5",
        )
        assert code == 2 and out == ""
        assert err.startswith("usage error:") and err.count("\n") == 1

    def test_a_json_true_is_no_element(self, capsys, monkeypatch):
        # Once the cover with each element 1 written as true was valid.
        args = (
            "--graph", "johnson", "--n", "5", "--k", "2",
            "--u", "1,2", "--v", "3,4", "--x", "1,3", "--y", "2,5",
        )
        _, out, _ = invoke(capsys, "p2c", *args)
        assert "[1, " in out
        monkeypatch.setattr(sys, "stdin", io.StringIO(out.replace("[1, ", "[true, ")))
        code, out, err = invoke(capsys, "verify", *args)
        assert code == 2 and out == ""
        assert err.startswith("usage error:") and err.count("\n") == 1

    def test_a_json_true_is_no_fixture_vertex(self, capsys, monkeypatch):
        # Once it was checked, and reported as a ForeignVertex (exit 1).
        cover = {"path_uv": [0, 2], "path_xy": [True, 5, 4, 6, 7, 3]}
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(cover)))
        code, out, err = invoke(
            capsys,
            "verify", "--fixture", "fig1",
            "--u", "000", "--v", "010", "--x", "001", "--y", "011",
        )
        assert code == 2 and out == ""
        assert err.startswith("usage error:") and err.count("\n") == 1

    def test_rejects_broken_solution(self, capsys, monkeypatch):
        broken = json.dumps({"path_uv": [[1, 2], [3, 4]], "path_xy": [[1, 3], [2, 5]]})
        monkeypatch.setattr(sys, "stdin", io.StringIO(broken))
        code, out, _ = invoke(
            capsys,
            "verify", "--graph", "johnson", "--n", "5", "--k", "2",
            "--u", "1,2", "--v", "3,4", "--x", "1,3", "--y", "2,5",
        )
        assert code == 1
        assert json.loads(out)["valid"] is False


class TestSweepCommand:
    def test_exhaustive_j42(self, capsys):
        code, out, _ = invoke(
            capsys, "sweep", "--graph", "johnson", "--n", "4", "--k", "2"
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["total"] == 360 and summary["valid"] == 360

    def test_sampled_qj(self, capsys):
        code, out, _ = invoke(
            capsys,
            "sweep", "--graph", "qj", "--n", "5", "--levels", "1,2,3",
            "--mode", "sampled", "--count", "25", "--seed", "9",
        )
        assert code == 0
        assert json.loads(out)["valid"] == 25

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_nonpositive_count_is_usage_error(self, capsys, count):
        code, out, err = invoke(
            capsys,
            "sweep", "--graph", "johnson", "--n", "5", "--k", "2",
            "--mode", "sampled", "--count", count,
        )
        assert code == 2
        assert out == "" and "usage error" in err

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_job_count_below_one_is_usage_error(self, capsys, jobs):
        # Once run serially with exit 0.
        code, out, err = invoke(
            capsys,
            "sweep", "--graph", "johnson", "--n", "5", "--k", "2",
            "--mode", "sampled", "--count", "10", "--jobs", jobs,
        )
        assert code == 2
        assert out == ""
        assert err == f"usage error: sweep needs at least one job, got {jobs}\n"


    # Exit code of each pairing of a graph with --constructor (none given
    # first): 1 where the covers fail the checker (complete on a graph that
    # is not complete) or the oracle proves some quad uncoverable (fig1),
    # 2 where the constructor cannot run on the graph.
    @pytest.mark.parametrize(
        "graph, codes",
        [
            (["--graph", "johnson", "--n", "4", "--k", "2"], [0, 0, 0, 1, 0]),
            (["--graph", "qj", "--n", "5", "--levels", "1,2"], [0, 2, 0, 1, 0]),
            (["--graph", "complete", "--n", "5"], [0, 0, 0, 0, 0]),
            (["--fixture", "fig1"], [1, 2, 2, 1, 1]),
        ],
        ids=["johnson", "qj", "complete", "fig1"],
    )
    def test_every_constructor_pairing_exits_cleanly(self, capsys, graph, codes):
        names = [None, "johnson", "qj", "complete", "oracle"]
        for name, want in zip(names, codes):
            flags = [] if name is None else ["--constructor", name]
            code, out, err = invoke(
                capsys, "sweep", *graph, *flags, "--mode", "sampled", "--count", "40"
            )
            assert code == want, (name, err)
            if want == 2:
                assert out == "" and err.count("\n") == 1
                assert err.startswith(f"usage error: constructor '{name}' cannot run")
            else:
                assert err == "" and json.loads(out)["total"] == 40

    @pytest.mark.parametrize("mode", ["exhaustive", "sampled"])
    def test_oracle_above_its_cap_fails_up_front(self, capsys, mode):
        code, out, err = invoke(
            capsys,
            "sweep", "--graph", "johnson", "--n", "7", "--k", "3",
            "--constructor", "oracle", "--mode", mode, "--count", "5",
        )
        assert code == 1 and out == ""
        assert err == "TooLargeForOracle: 35 vertices exceeds oracle cap 20\n"

    def test_oracle_cap_flag_reaches_the_refusal(self, capsys):
        graph = ["--graph", "johnson", "--n", "6", "--k", "3"]
        flags = ["--constructor", "oracle", "--mode", "sampled", "--count", "2"]
        code, out, err = invoke(capsys, "sweep", *graph, *flags, "--oracle-cap", "19")
        assert code == 1 and out == ""
        assert err == "TooLargeForOracle: 20 vertices exceeds oracle cap 19\n"
        code, out, err = invoke(capsys, "sweep", *graph, *flags)
        assert code == 0 and err == "" and json.loads(out)["valid"] == 2

    @pytest.mark.parametrize("mode", ["exhaustive", "sampled"])
    def test_too_few_vertices_fails(self, capsys, mode):
        code, out, err = invoke(
            capsys,
            "sweep", "--graph", "johnson", "--n", "3", "--k", "1", "--mode", mode,
        )
        assert code == 1
        assert out == ""
        assert err.startswith("TooFewVertices:") and err.count("\n") == 1


class TestModuleEntry:
    @staticmethod
    def _env():
        """The environment of a child that imports this package."""
        src = os.path.dirname(os.path.dirname(johnson_p2c.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src, *filter(None, [env.get("PYTHONPATH")])]
        )
        return env

    def _python_m(self, argv, stdin=b""):
        """``python -m johnson_p2c.cli ARGV``: the exit goes through
        ``main``, so through its freeze and the interpreter's teardown."""
        return subprocess.run(
            [sys.executable, "-m", "johnson_p2c.cli", *argv],
            input=stdin, capture_output=True, env=self._env(), timeout=60,
        )

    def test_python_m_cli(self, capsys):
        proc = self._python_m([
            "p2c", "--graph", "johnson", "--n", "4", "--k", "2",
            "--u", "1,2", "--v", "1,3", "--x", "2,3", "--y", "2,4",
        ])
        assert proc.returncode == 0, proc.stderr
        sol = json.loads(proc.stdout)
        assert sol["path_uv"][0] == [1, 2] and sol["path_xy"][-1] == [2, 4]
        # J(15,7) has 6,435 vertices: path_uv is written in two parts,
        # and all of it reaches stdout before the process ends.
        argv = [
            "p2c", "--graph", "johnson", "--n", "15", "--k", "7",
            "--u", "1,2,3,4,5,6,7", "--v", "9,10,11,12,13,14,15",
            "--x", "1,2,3,4,5,6,8", "--y", "2,3,4,5,6,7,8",
        ]
        proc = self._python_m(argv)
        code, out, _ = invoke(capsys, *argv)
        assert proc.returncode == code == 0, proc.stderr
        assert proc.stdout == out.encode()
        assert len(json.loads(out)["path_uv"]) > EMIT_SLICE
        # A broken cover: exit 1, with the report on stdout.
        broken = json.dumps({"path_uv": [[1, 2], [3, 4]], "path_xy": [[1, 3], [2, 5]]})
        proc = self._python_m(
            ["verify", "--graph", "johnson", "--n", "5", "--k", "2",
             "--u", "1,2", "--v", "3,4", "--x", "1,3", "--y", "2,5"],
            broken.encode(),
        )
        assert proc.returncode == 1
        report = json.loads(proc.stdout)
        assert report["valid"] is False and report["violations"]

    @pytest.mark.parametrize(
        "argv",
        [
            # Written by _emit's print.
            ["sweep", "--graph", "qj", "--n", "3", "--levels", "1,2"],
            # Written part by part.
            ["p2c", "--graph", "johnson", "--n", "4", "--k", "2",
             "--u", "1,2", "--v", "1,3", "--x", "2,3", "--y", "2,4"],
        ],
        ids=["sweep", "p2c"],
    )
    def test_closed_stdout_ends_without_a_traceback(self, argv):
        # As after `| head -c 50`, but every write fails: the pipe's read
        # end is closed before the child starts.
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "johnson_p2c.cli", *argv],
                stdout=write_end, stderr=subprocess.PIPE, text=True,
                env=self._env(), timeout=60,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert proc.stderr == ""


class TestColdPath:
    def test_p2c_wraps_only_the_quad(self, capsys, monkeypatch):
        # The cover is built, certified and written on masks: the only
        # ElementSets are the four parsed endpoints.
        init = ElementSet.__init__
        made = []

        def counted(self, *args):
            made.append(args)
            init(self, *args)

        monkeypatch.setattr(ElementSet, "__init__", counted)
        code, out, _ = invoke(
            capsys,
            "p2c", "--graph", "johnson", "--n", "10", "--k", "5",
            "--u", "1,2,3,4,5", "--v", "6,7,8,9,10",
            "--x", "1,2,3,4,6", "--y", "5,7,8,9,10",
        )
        assert code == 0
        assert sum(map(len, json.loads(out).values())) == 252
        assert len(made) <= 4

    def test_import_leaves_out_dataclasses(self):
        src = os.path.dirname(os.path.dirname(johnson_p2c.__file__))
        code = "import sys, johnson_p2c.cli; print('dataclasses' in sys.modules)"
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, cwd=src, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"


class TestGenAndFixture:
    def test_gen_json(self, capsys):
        code, out, _ = invoke(capsys, "gen", "--graph", "johnson", "--n", "4", "--k", "2")
        assert code == 0
        data = json.loads(out)
        assert len(data["vertices"]) == 6
        assert len(data["edges"]) == 12  # 6 vertices of degree 4

    @pytest.mark.parametrize(
        "graph, descriptor, vertex",
        [
            (["johnson", "--k", "0"], {"kind": "johnson", "n": 4, "k": 0}, []),
            (["johnson", "--k", "4"], {"kind": "johnson", "n": 4, "k": 4}, [1, 2, 3, 4]),
            (["qj", "--levels", "4"], {"kind": "qj", "n": 4, "levels": [4]}, [1, 2, 3, 4]),
        ],
    )
    def test_gen_single_vertex_graph(self, capsys, graph, descriptor, vertex):
        # J(n,0), J(n,n) and QJ(n,{n}) are one vertex with no edges.
        code, out, err = invoke(capsys, "gen", "--n", "4", "--graph", *graph)
        assert code == 0 and err == ""
        assert json.loads(out) == {"graph": descriptor, "vertices": [vertex], "edges": []}

    @pytest.mark.parametrize("graph", [["johnson", "--k", "0"], ["qj", "--levels", "1"]])
    def test_gen_on_an_empty_ground_set_is_usage_error(self, capsys, graph):
        code, out, err = invoke(capsys, "gen", "--n", "0", "--graph", *graph)
        assert code == 2 and out == ""
        assert err.startswith("usage error:") and err.count("\n") == 1

    def test_fixture_json(self, capsys):
        code, out, _ = invoke(capsys, "fixture")
        assert code == 0
        data = json.loads(out)
        assert data["vertex_count"] == 8 and len(data["edges"]) == 14

    def test_unknown_subcommand(self, capsys):
        assert invoke(capsys, "frobnicate")[0] == 2
