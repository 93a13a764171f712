"""CLI: suite execution, report schema, row judging, determinism, exit codes."""

import ast
import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from povmint import cli, core, finite
from povmint.cli import main

FAST = ["--dim", "16", "--grid", "24"]


def run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


def table_file(tmp_path, rhos, weights, name="table.json"):
    measure = finite.FiniteMeasure(np.asarray(weights, dtype=float))
    table = finite.gram_probabilities(rhos, measure)
    path = tmp_path / name
    path.write_text(table.to_json())
    return str(path)


def qubit(az):
    return np.array([[0.5 + 0.5 * az, 0.0], [0.0, 0.5 - 0.5 * az]],
                    dtype=complex)


class TestVerify:
    @pytest.mark.parametrize("suite", ["circle", "sphere", "core", "finite"])
    def test_fast_suites_pass(self, capsys, suite):
        code, out = run(capsys, ["verify", suite] + FAST)
        assert code == 0
        report = json.loads(out)
        assert report["suite"] == suite
        for chk in report["checks"]:
            assert set(chk) == {"id", "paper_anchor", "computed", "expected",
                                "tol", "pass"}
            assert chk["pass"]

    def test_plane_suite_passes(self, capsys):
        code, out = run(capsys, ["verify", "plane"] + FAST)
        assert code == 0
        assert all(c["pass"] for c in json.loads(out)["checks"])

    @pytest.mark.parametrize("argv", [["plane", "--dim", "16"], ["sphere"]])
    def test_array_symbols_skip_the_per_node_quantize(self, capsys, monkeypatch, argv):
        # these suites hand core.quantize_values node arrays, never a symbol
        # to call once per node
        def per_node_quantize(fam, f):
            raise AssertionError("core.quantize called")

        monkeypatch.setattr(core, "quantize", per_node_quantize)
        code, _out = run(capsys, ["verify"] + argv)
        assert code == 0

    def test_halfplane_suite_passes(self, capsys):
        code, out = run(capsys, ["verify", "halfplane", "--dim", "8",
                                 "--grid", "48"])
        assert code == 0
        ids = [c["id"] for c in json.loads(out)["checks"]]
        assert "admissibility-derived" in ids

    def test_reports_deterministic(self, capsys):
        _, first = run(capsys, ["verify", "circle"] + FAST)
        _, second = run(capsys, ["verify", "circle"] + FAST)
        assert first == second

    def test_csv_format(self, capsys):
        code, out = run(capsys, ["verify", "circle", "--format", "csv"] + FAST)
        assert code == 0
        header = out.splitlines()[0]
        assert header == "suite,id,paper_anchor,computed,expected,tol,pass"

    def test_tol_override_forces_failure(self, capsys):
        code, out = run(capsys, ["verify", "circle", "--tol", "1e-300"] + FAST)
        assert code == 1
        assert not all(c["pass"] for c in json.loads(out)["checks"])

    def test_multi_suite_out_suffixing(self, capsys, tmp_path):
        base = tmp_path / "report.json"
        code = main(["verify", "all", "--out", str(base), "--dim", "16",
                     "--grid", "24"])
        assert code == 0
        for suite in ("circle", "sphere", "plane", "halfplane", "core",
                      "finite"):
            path = tmp_path / f"report-{suite}.json"
            assert path.exists()
            assert json.loads(path.read_text())["suite"] == suite

    def test_multi_suite_out_in_dotted_directory(self, capsys, tmp_path):
        # only the file name takes the suite suffix, not a dot in the directory
        out_dir = tmp_path / "run.v2"
        out_dir.mkdir()
        code = main(["verify", "all", "--out", str(out_dir / "report"),
                     "--dim", "16", "--grid", "24"])
        assert code == 0
        assert sorted(p.name for p in out_dir.iterdir()) == sorted(
            f"report-{suite}" for suite in ("circle", "core", "finite",
                                            "halfplane", "plane", "sphere"))

    def test_configuration_error_exit_2(self, capsys):
        code = main(["verify", "plane", "--t", "1.5"])
        assert code == 2

    def test_plane_dim_beyond_laguerre_range_exit_2(self, capsys):
        # the outermost default radial node is ~673 at dim 160, past |x| <= 600
        code = main(["verify", "plane", "--dim", "160"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("configuration error in suite plane")

    @pytest.mark.parametrize("suite,t", [("plane", "0.999"), ("halfplane", "0.9")])
    def test_bessel_overflow_exit_2(self, capsys, suite, t):
        # at these t the Bessel closed forms need I_nu(x) beyond x = 700
        code = main(["verify", suite, "--t", t])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"configuration error in suite {suite}")

    def test_unwritable_out_exit_2(self, capsys, tmp_path):
        code = main(["verify", "circle", "--out", str(tmp_path / "missing" / "x")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("configuration error")

    @pytest.mark.parametrize("tol", ["-1", "-0.5", "nan", "inf"])
    def test_bad_tol_exit_2(self, capsys, monkeypatch, tmp_path, tol):
        def never(args):
            raise AssertionError("suite ran")

        monkeypatch.setitem(cli.SUITES, "circle", never)
        out = tmp_path / "report.json"
        code = main(["verify", "circle", "--tol", tol, "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert not out.exists()
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("configuration error: --tol must lie in [0, inf)")

    def test_zero_tol_is_valid(self, capsys):
        code, out = run(capsys, ["verify", "finite", "--tol", "0"] + FAST)
        assert code in (0, 1)
        assert {c["tol"] for c in json.loads(out)["checks"]} == {0.0}

    @pytest.mark.parametrize("alpha", ["0", "nan", "inf"])
    def test_bad_alpha_exit_2(self, capsys, alpha):
        code = main(["verify", "halfplane", "--alpha", alpha])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0] == ("configuration error in suite halfplane: resolution "
                            f"requires 0 < alpha < inf, got {float(alpha)}")

    def test_halfplane_reports_parameters_used(self, capsys):
        code, out = run(capsys, ["verify", "halfplane", "--dim", "48",
                                 "--grid", "48", "--r", "0.3"])
        assert code == 0
        assert json.loads(out)["params"] == {"t": 0.2, "alpha": 2.0, "dim": 16,
                                             "grid": 64}


class TestRows:
    """Suites return rows as data; ``_judge`` alone decides ``pass`` and applies
    ``--tol``, and ``render`` alone rounds."""

    def test_pass_is_produced_only_in_judge(self):
        tree = ast.parse(Path(cli.__file__).read_text())
        owner = {}  # node -> innermost enclosing function name (ast.walk is BFS)
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef):
                owner.update(dict.fromkeys(ast.walk(func), func.name))

        def is_pass(node):
            return isinstance(node, ast.Constant) and node.value == "pass"

        producers = [node for node in ast.walk(tree)
                     if (isinstance(node, ast.Dict) and any(map(is_pass, node.keys)))
                     or (isinstance(node, ast.Subscript) and is_pass(node.slice)
                         and isinstance(node.ctx, ast.Store))
                     or (isinstance(node, ast.Call) and node.args
                         and is_pass(node.args[0]) and isinstance(node.func, ast.Attribute)
                         and node.func.attr in {"setdefault", "__setitem__"})]
        assert producers
        assert {owner.get(node) for node in producers} == {"_judge"}

    def test_check_rows_carry_no_pass(self):
        row = cli.check("x", "anchor", 1.0, 1.0, 1e-12)
        assert list(row) == ["id", "paper_anchor", "computed", "expected", "tol"]

    def test_judge_overrides_every_tolerance_but_none(self):
        rows = [cli.check("a", "x", 0.5, 0.0, 1.0),
                cli.check("b", "x", {"note": "text"}, None, None)]
        assert cli._judge(rows) == [{**row, "pass": True} for row in rows]
        judged = cli._judge(rows, 0.1)
        assert [row["tol"] for row in judged] == [0.1, None]
        assert [row["pass"] for row in judged] == [False, True]
        assert list(judged[0]) == ["id", "paper_anchor", "computed", "expected",
                                   "tol", "pass"]
        assert rows[0]["tol"] == 1.0 and "pass" not in rows[0]

    def test_judge_fails_a_nan_row(self):
        row = cli.check("a", "x", [0.0, math.nan], [0.0, 0.0], 1.0)
        assert cli._judge([row])[0]["pass"] is False

    def test_new_row_field_needs_one_edit(self, capsys, monkeypatch, tmp_path):
        judge = cli._judge

        def judge_with_field(rows, tol=None):
            return [{**row, "extra": row["id"]} for row in judge(rows, tol)]

        monkeypatch.setattr(cli, "_judge", judge_with_field)
        assert main(["verify", "all", "--out", str(tmp_path / "r.json")] + FAST) == 0
        reports = [json.loads(p.read_text()) for p in sorted(tmp_path.glob("r-*.json"))]
        assert len(reports) == 6
        path = table_file(tmp_path, [qubit(0.4), qubit(-0.4)], [1.0, 1.0])
        code, out = run(capsys, ["reconstruct", path, "--tol", "1e-6"])
        assert code == 0
        reports.append(json.loads(out))
        for report in reports:
            assert report["checks"]
            for row in report["checks"]:
                assert row["extra"] == row["id"]

    def test_round_recurses_into_dicts(self):
        value = {"a": 0.1 + 0.2, "b": [1 / 3, 2 / 3], "z": 2 / 3 + 1j / 7,
                 "c": {"d": np.float64(2 / 7)}, "note": "text", "n": 6}
        assert cli._round(value) == {
            "a": round(0.1 + 0.2, 12), "b": [round(1 / 3, 12), round(2 / 3, 12)],
            "z": [round(2 / 3, 12), round(1 / 7, 12)],
            "c": {"d": round(2 / 7, 12)}, "note": "text", "n": 6}

    def test_round_is_idempotent(self):
        rng = np.random.default_rng(0)
        values = rng.standard_normal(2000) * 10.0 ** rng.integers(-14, 8, 2000)
        once = cli._round({"v": values, "z": complex(values[0], values[1])})
        assert cli._round(once) == once


class TestTracerBindings:
    """The benchmark's tracer rebinds module attributes of the library by
    name; each of those names must exist and be restored afterwards."""

    @staticmethod
    def tracer():
        path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
        spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        tracer = module.Tracer()
        tracer.attach(cli)
        return tracer

    def test_attach_install_uninstall_restores_every_patch(self):
        def current(owner, attr):
            return owner[attr] if isinstance(owner, dict) else getattr(owner, attr)

        tracer = self.tracer()
        patches = tracer._patches
        assert len(patches) == 26
        tracer.install()
        try:
            for owner, attr, _original, replacement in patches:
                assert current(owner, attr) is replacement
        finally:
            tracer.uninstall()
        for owner, attr, original, _replacement in patches:
            assert current(owner, attr) is original

    def test_traced_plane_report_matches_untraced(self, capsys):
        # the tracer wraps core.quantize's symbol in a callable, so a node
        # array handed to core.quantize would fail only in traced runs
        argv = ["verify", "plane", "--dim", "16"]
        want = run(capsys, argv)
        tracer = self.tracer()
        tracer.install()
        try:
            got = run(capsys, argv)
        finally:
            tracer.uninstall()
        assert got == want
        assert want[0] == 0


class TestImport:
    def test_cli_import_defers_scipy_optimize(self):
        # only the finite solver needs scipy.optimize; it loads on first use
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        code = ("import sys, povmint.cli\n"
                "print('scipy.optimize' in sys.modules)\n")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "False"

    def test_cli_import_defers_scipy(self):
        # scipy.special loads inside the functions that use it, so no
        # scipy module is part of the CLI's start-up
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        code = ("import sys, povmint.cli\n"
                "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "[]"

    def test_plane_family_loads_no_scipy(self):
        # the Gauss-Laguerre rule and the displacement entries are numpy, so
        # building and quantizing on a plane family never imports scipy
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        code = ("import sys\n"
                "from povmint import core, plane\n"
                "params = plane.ThermalParams(0.2, 48)\n"
                "fam = plane.plane_family(params)\n"
                "core.quantize(fam, lambda nd: nd[0])\n"
                "plane._radial_integrals(params)\n"
                "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "[]"


class TestReconstruct:
    def test_round_trip_exit_0(self, capsys, tmp_path):
        path = table_file(tmp_path, [qubit(0.4), qubit(-0.4)], [1.0, 1.0])
        code, out = run(capsys, ["reconstruct", path, "--tol", "1e-6"])
        assert code == 0
        report = json.loads(out)
        assert report["suite"] == "reconstruct"
        assert len(report["solution"]) == 2

    def test_non_density_result_exit_4(self, capsys, tmp_path, monkeypatch):
        path = table_file(tmp_path, [qubit(0.4), qubit(-0.4)], [1.0, 1.0])
        monkeypatch.setattr(finite, "is_density",
                            lambda *a, **k: SimpleNamespace(ok=False))
        code, _out = run(capsys, ["reconstruct", path, "--tol", "1e-6"])
        assert code == 4

    def test_invalid_table_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"p": [0.9, 0.9, 0.9, 0.9],
                                    "nu": [1.0, 1.0], "n": 2}))
        assert main(["reconstruct", str(path)]) == 2

    @pytest.mark.parametrize("flag,value", [("--restarts", "0"),
                                            ("--restarts", "-1"),
                                            ("--tol", "-1"), ("--tol", "0"),
                                            ("--tol", "nan"), ("--tol", "inf")])
    def test_bad_solver_setting_exit_2(self, capsys, tmp_path, monkeypatch, flag, value):
        def never(*args, **kwargs):
            raise AssertionError("solver ran")

        monkeypatch.setattr(finite, "reconstruct", never)
        path = table_file(tmp_path, [qubit(0.4), qubit(-0.4)], [1.0, 1.0])
        out = tmp_path / "report.json"
        code = main(["reconstruct", path, flag, value, "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert not out.exists()
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("configuration error")

    def test_unwritable_out_exit_2(self, capsys, tmp_path):
        path = table_file(tmp_path, [qubit(0.4), qubit(-0.4)], [1.0, 1.0])
        code = main(["reconstruct", path, "--tol", "1e-6",
                     "--out", str(tmp_path / "missing" / "x")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("configuration error")

    def test_infeasible_exit_3(self, capsys, tmp_path):
        # seven rank-one points exceed the qubit bound N <= 6
        angles = np.arange(7) * np.pi / 7
        rhos = []
        for a in angles:
            v = np.array([np.cos(a), np.sin(a)])
            rhos.append(np.outer(v, v).astype(complex))
        path = table_file(tmp_path, rhos, [2.0 / 7.0] * 7)
        assert main(["reconstruct", path, "--rank-one"]) == 3
