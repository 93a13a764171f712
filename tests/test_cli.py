"""CLI: suite execution, report schema, determinism, exit codes."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from povmint import cli, finite
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

    def test_halfplane_reports_parameters_used(self, capsys):
        code, out = run(capsys, ["verify", "halfplane", "--dim", "48",
                                 "--grid", "48", "--r", "0.3"])
        assert code == 0
        assert json.loads(out)["params"] == {"t": 0.2, "alpha": 2.0, "dim": 16,
                                             "grid": 64}


class TestTracerBindings:
    """The benchmark's tracer rebinds module attributes of the library by
    name; each of those names must exist and be restored afterwards."""

    def test_attach_install_uninstall_restores_every_patch(self):
        path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
        spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)

        def current(owner, attr):
            return owner[attr] if isinstance(owner, dict) else getattr(owner, attr)

        tracer = module.Tracer()
        tracer.attach(cli)
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


class TestReconstruct:
    def test_round_trip_exit_0(self, capsys, tmp_path):
        path = table_file(tmp_path, [qubit(0.4), qubit(-0.4)], [1.0, 1.0])
        code, out = run(capsys, ["reconstruct", path, "--tol", "1e-6"])
        assert code == 0
        report = json.loads(out)
        assert report["suite"] == "reconstruct"
        assert len(report["solution"]) == 2

    def test_invalid_table_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"p": [0.9, 0.9, 0.9, 0.9],
                                    "nu": [1.0, 1.0], "n": 2}))
        assert main(["reconstruct", str(path)]) == 2

    def test_infeasible_exit_3(self, capsys, tmp_path):
        # seven rank-one points exceed the qubit bound N <= 6
        angles = np.arange(7) * np.pi / 7
        rhos = []
        for a in angles:
            v = np.array([np.cos(a), np.sin(a)])
            rhos.append(np.outer(v, v).astype(complex))
        path = table_file(tmp_path, rhos, [2.0 / 7.0] * 7)
        assert main(["reconstruct", path, "--rank-one"]) == 3
