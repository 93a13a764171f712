"""CLI: suite execution, report schema, determinism, exit codes."""

import importlib.util
import json
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

    def test_halfplane_reports_parameters_used(self, capsys):
        code, out = run(capsys, ["verify", "halfplane", "--dim", "48",
                                 "--grid", "48", "--r", "0.3"])
        assert code == 0
        assert json.loads(out)["params"] == {"t": 0.2, "alpha": 2.0, "dim": 16,
                                             "grid": 64}


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
                                            ("--tol", "-1"), ("--tol", "0")])
    def test_bad_solver_setting_exit_2(self, capsys, tmp_path, flag, value):
        path = table_file(tmp_path, [qubit(0.4), qubit(-0.4)], [1.0, 1.0])
        code = main(["reconstruct", path, flag, value])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
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
