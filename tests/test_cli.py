"""CLI: suite execution, report schema, row judging, determinism, exit codes."""

import argparse
import ast
import functools
import hashlib
import importlib.util
import inspect
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from povmint import (DomainError, circle, cli, core, finite, halfplane, numerics, plane,
                     sphere)
from povmint.cli import main

FAST = ["--dim", "16", "--grid", "24"]
# FAST cut down to the flags each suite reads; `verify all` takes FAST whole
FAST_READ = {"circle": ["--grid", "24"], "sphere": ["--grid", "24"], "plane": ["--dim", "16"],
             "halfplane": ["--grid", "24"], "core": [], "finite": []}


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
        code, out = run(capsys, ["verify", suite] + FAST_READ[suite])
        assert code == 0
        report = json.loads(out)
        assert report["suite"] == suite
        for chk in report["checks"]:
            assert set(chk) == {"id", "paper_anchor", "computed", "expected",
                                "tol", "pass"}
            assert chk["pass"]

    @pytest.mark.parametrize("suite", ["circle", "sphere"])
    @pytest.mark.parametrize("r", ["0", "0.3", "0.8", "1"])
    def test_default_rule_is_exact_for_every_row(self, capsys, suite, r):
        # the 8-node default integrates each row exactly (trigonometric degree
        # <= 2 on the circle; degree <= 2 in cos(theta), order <= 1 on the sphere),
        # so every reported value equals the 48-node one
        for seed in map(str, range(10)):
            small = json.loads(run(capsys, ["verify", suite, "--r", r, "--seed", seed])[1])
            large = json.loads(run(capsys, ["verify", suite, "--r", r, "--seed", seed,
                                            "--grid", "48"])[1])
            assert (small["params"]["grid"], large["params"]["grid"]) == (8, 48)
            assert small["checks"] == large["checks"]

    def test_plane_suite_passes(self, capsys):
        code, out = run(capsys, ["verify", "plane"] + FAST_READ["plane"])
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
        code, out = run(capsys, ["verify", "halfplane", "--grid", "48"])
        assert code == 0
        ids = [c["id"] for c in json.loads(out)["checks"]]
        assert "admissibility-derived" in ids

    def test_reports_deterministic(self, capsys):
        _, first = run(capsys, ["verify", "circle"] + FAST_READ["circle"])
        _, second = run(capsys, ["verify", "circle"] + FAST_READ["circle"])
        assert first == second

    def test_csv_format(self, capsys):
        code, out = run(capsys, ["verify", "circle", "--format", "csv"] + FAST_READ["circle"])
        assert code == 0
        header = out.splitlines()[0]
        assert header == "suite,id,paper_anchor,computed,expected,tol,pass"

    def test_tol_override_forces_failure(self, capsys):
        code, out = run(capsys, ["verify", "circle", "--tol", "1e-300"] + FAST_READ["circle"])
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
        # the suite's rule has dim // 2 + 8 + ceil(4t/(1-t)) radii; 183 is the first count
        # whose outermost node, x = (1-t)J ~ 700.8, lies past the density builder's
        # validated x <= 700: at dim 256 from t = 0.92 on (ceil(46.00000000000003) = 47),
        # while t = 0.91 takes 177; past dim 256 ThermalParams refuses the truncation
        assert main(["verify", "plane", "--dim", "256", "--t", "0.91"]) == 0
        capsys.readouterr()
        for argv in (["--dim", "256", "--t", "0.92"], ["--dim", "257"]):
            code = main(["verify", "plane"] + argv)
            captured = capsys.readouterr()
            assert code == 2
            assert captured.out == ""
            lines = captured.err.splitlines()
            assert len(lines) == 1
            assert lines[0].startswith("configuration error in suite plane")

    # suite -> (module read for the budget, --grid one rule node over it, its nodes)
    OVER_BUDGET = {"sphere": (sphere, 128, "128 x 128"),
                   "halfplane": (halfplane, 128, "128 x 128"),
                   "circle": (numerics, 128 * 128, "16384")}

    @pytest.mark.parametrize("suite", ["sphere", "halfplane", "circle"])
    def test_grid_over_node_budget_exit_2_before_the_rule(self, capsys, monkeypatch, suite):
        # with the budget one node short of the rule (128 x 128 product nodes,
        # or 128^2 circle nodes), the suite stops with one line before it
        # allocates the rule's 2 x 128^2 doubles (256 KiB)
        owner, grid, nodes = self.OVER_BUDGET[suite]
        budget = 128 * 128 - 1
        monkeypatch.setattr(owner, "MAX_RULE_NODES", budget)
        tracemalloc.start()
        try:
            code = main(["verify", suite, "--grid", str(grid)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (f"configuration error in suite {suite}: {nodes} "
                                f"nodes exceed the budget of {budget}\n")
        assert peak < 128 * 128 * 2 * 8

    def test_node_budget_admits_the_rule_that_fills_it(self, monkeypatch):
        for module in (sphere, halfplane):
            monkeypatch.setattr(module, "MAX_RULE_NODES", 12 * 12)
        assert sphere.sphere_rule(12, 12).size == halfplane.affine_group_rule(12).size == 144
        with pytest.raises(DomainError, match="12 x 13 nodes"):
            sphere.sphere_rule(12, 13)
        with pytest.raises(DomainError, match="13 x 13 nodes"):
            halfplane.affine_group_rule(13)

    def test_plane_exact_compressions_pass_at_t_07(self, capsys):
        code, out = run(capsys, ["verify", "plane", "--t", "0.7"])
        assert code == 0
        assert all(c["pass"] for c in json.loads(out)["checks"])

    @pytest.mark.parametrize("argv", [["--t", "0.9"], ["--dim", "8"],
                                      ["--dim", "16", "--t", "0.5"]])
    def test_plane_fails_only_purity_from_the_thermal_tail(self, capsys, argv):
        # the compression loses t^dim of trace, which only the purity row sees
        code, out = run(capsys, ["verify", "plane"] + argv)
        assert code == 1
        assert [c["id"] for c in json.loads(out)["checks"] if not c["pass"]] == ["purity"]

    @pytest.mark.parametrize("suite,t", [("plane", "0.999"), ("halfplane", "0.9")])
    def test_bessel_overflow_exit_2(self, capsys, suite, t):
        # at these t the Bessel closed forms need I_nu(x) beyond x = 700: the
        # plane's I_0 overflows, while the half-plane kernel takes I_alpha
        # scaled by e^{-x} and so still writes its report
        code = main(["verify", suite, "--t", t])
        captured = capsys.readouterr()
        if suite == "halfplane":
            assert code in (0, 1)
            assert captured.err == ""
            report = json.loads(captured.out)
            assert report["params"]["t"] == 0.9
            assert "kernel-trace" in [chk["id"] for chk in report["checks"]]
            return
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

    @pytest.mark.parametrize("suite", sorted(cli.SUITES) + ["all"])
    def test_negative_seed_exit_2(self, capsys, monkeypatch, tmp_path, suite):
        def never(**kwargs):
            raise AssertionError("suite ran")

        for name, fn in list(cli.SUITES.items()):
            monkeypatch.setitem(cli.SUITES, name, functools.wraps(fn)(never))
        out = tmp_path / "report.json"
        code = main(["verify", suite, "--seed", "-1", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []
        assert captured.err == "configuration error: --seed must be >= 0, got -1\n"

    @pytest.mark.parametrize("out", [False, True], ids=["stdout", "out"])
    def test_all_writes_nothing_when_a_later_suite_fails(self, capsys, tmp_path, out):
        # circle, core and finite run before halfplane rejects t = 1.5
        argv = ["verify", "all", "--t", "1.5"]
        code = main(argv + ["--out", str(tmp_path / "r.json")] if out else argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []
        assert captured.err == ("configuration error in suite halfplane: "
                                "t must lie in [0, 1), got 1.5\n")

    def test_plane_dim_past_the_validated_range_exit_2(self, capsys):
        code = main(["verify", "plane", "--dim", "300"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == ("configuration error in suite plane: "
                                "dim must be >= 1 and <= 256, got 300\n")

    def test_zero_tol_is_valid(self, capsys):
        code, out = run(capsys, ["verify", "finite", "--tol", "0"] + FAST_READ["finite"])
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
        code, out = run(capsys, ["verify", "halfplane", "--grid", "48"])
        assert code == 0
        assert json.loads(out)["params"] == {"t": 0.2, "alpha": 2.0, "dim": 16,
                                             "grid": 64}

    @pytest.mark.parametrize("flag,value", [("--dim", "48"), ("--r", "0.3")])
    def test_halfplane_rejects_the_flags_it_does_not_read(self, capsys, flag, value):
        code = main(["verify", "halfplane", flag, value])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"configuration error: verify halfplane does not read {flag}\n"

    def test_halfplane_integrates_the_orbit_once(self, monkeypatch):
        # c_rho and the resolution block come from one rows=3 reduction over
        # the 2,048 p > 0 nodes of the 64 x 64 rule
        calls, overlap = [], halfplane.overlap_block

        def recording(q, p, alpha, rows, cols):
            calls.append((np.size(q), rows))
            return overlap(q, p, alpha, rows, cols)

        monkeypatch.setattr(halfplane, "overlap_block", recording)
        cli.suite_halfplane(alpha=2.0, t=0.2, grid=48)
        assert calls == [(2048, 3)]

    def test_circle_checks_its_pairs_as_arrays(self, monkeypatch):
        # the 20 product/commutator pairs take 4 rho_circle calls in all, not 4
        # per pair; the resolution, kernel and distance checks take the rest
        calls, rho = [], circle.rho_circle

        def counting(*args):
            calls.append(args)
            return rho(*args)

        monkeypatch.setattr(circle, "rho_circle", counting)
        cli.suite_circle(r=0.8, grid=48, seed=0)
        assert len(calls) <= 8

    def test_core_takes_the_lower_symbol_sup_in_one_call(self, monkeypatch):
        shapes, lower = [], core.lower_symbol

        def recording(fam, a, x):
            shapes.append(np.shape(x))
            return lower(fam, a, x)

        monkeypatch.setattr(core, "lower_symbol", recording)
        cli.suite_core(seed=0)
        assert shapes == [(50,)]

    @pytest.mark.parametrize("seed", range(10))
    def test_circle_pairs_keep_the_per_pair_draws(self, monkeypatch, seed):
        # one (20, 4) draw reads the stream as the loop did: r1, phi1, r2, phi2
        # per pair, so the report does not move
        pairs, algebra = [], circle.product_and_algebra

        def recording(p1, p2):
            pairs.append((p1, p2))
            return algebra(p1, p2)

        monkeypatch.setattr(circle, "product_and_algebra", recording)
        cli.suite_circle(r=0.8, grid=48, seed=seed)
        rng = np.random.default_rng(seed)
        loop = [circle.CircleDensityParams(rng.uniform(0, 1), rng.uniform(0, math.pi))
                for _ in range(40)]
        [(p1, p2)] = pairs
        assert np.array_equal(p1.r, [p.r for p in loop[0::2]])
        assert np.array_equal(p1.phi, [p.phi for p in loop[0::2]])
        assert np.array_equal(p2.r, [p.r for p in loop[1::2]])
        assert np.array_equal(p2.phi, [p.phi for p in loop[1::2]])


SUITE_FLAGS = ("r", "t", "alpha", "dim", "grid")
# suite -> the flags it reads
READS = {"circle": {"r", "grid", "seed"}, "sphere": {"r", "grid"}, "plane": {"t", "dim"},
         "halfplane": {"alpha", "t", "grid"}, "core": {"seed"}, "finite": {"seed"}}


class TestSuiteFlags:
    """A suite's keyword parameters are the verify flags it reads.  A suite flag
    given to a suite that does not read it exits 2 before any work; the run
    flags --tol, --seed, --out and --format are accepted by every suite."""

    # a value of each suite flag away from its default (halfplane's grid floor is 64)
    VALUES = {"r": 0.5, "t": 0.3, "alpha": 3.0, "dim": 16, "grid": 72}
    # each in FLAGS order
    DEFAULT_PARAMS = {"circle": {"r": 0.8, "grid": 8, "seed": 0},
                      "sphere": {"r": 0.8, "grid": 8}, "plane": {"t": 0.2, "dim": 48},
                      "halfplane": {"t": 0.2, "alpha": 2.0, "dim": 16, "grid": 64},
                      "core": {"seed": 0}, "finite": {"seed": 0}}

    @staticmethod
    def stub(monkeypatch, suite, calls, derived=None):
        """Swap SUITES[suite] for a stand-in with its signature (as the
        benchmark's tracer wraps it) that records its keyword arguments and
        returns ``derived`` (default none) and one row."""
        @functools.wraps(cli.SUITES[suite])
        def stand_in(**kwargs):
            calls.append((suite, kwargs))
            return derived or {}, [cli.check("row", "anchor", 0.0, 0.0, 1.0)]

        monkeypatch.setitem(cli.SUITES, suite, stand_in)

    def test_signatures_are_the_declarations(self):
        assert {name: set(inspect.signature(fn).parameters)
                for name, fn in cli.SUITES.items()} == READS
        assert set(cli.FLAGS) == set(SUITE_FLAGS) | set(cli.RUN_FLAGS)

    @staticmethod
    def params(out):
        """A report's params as (key, value) pairs in the order written: a dict
        comparison would not see the key order."""
        return dict(json.loads(out, object_pairs_hook=list))["params"]

    @pytest.mark.parametrize("suite", sorted(READS))
    def test_default_params_come_in_flags_order(self, capsys, suite):
        code, out = run(capsys, ["verify", suite])
        assert code == 0
        want = self.DEFAULT_PARAMS[suite]
        assert self.params(out) == list(want.items())
        assert list(want) == [key for key in cli.FLAGS if key in want]

    @pytest.mark.parametrize("suite,flag", [(suite, flag) for suite in sorted(READS)
                                            for flag in SUITE_FLAGS if flag in READS[suite]])
    def test_a_read_flag_changes_the_params(self, capsys, suite, flag):
        # halfplane --t 0.3 exits 1 on admissibility-derived (ROADMAP item 9);
        # the verdict is not this test's subject, the written params are
        code, out = run(capsys, ["verify", suite, f"--{flag}", str(self.VALUES[flag])])
        assert code in (0, 1)
        assert self.params(out) == list({**self.DEFAULT_PARAMS[suite],
                                         flag: self.VALUES[flag]}.items())

    def test_derived_values_override_in_place_and_follow_the_flags(self, capsys,
                                                                   monkeypatch):
        # a derived read flag keeps its slot, a derived unread flag takes its
        # FLAGS slot, and keys that are no flag follow in the order returned
        calls = []
        self.stub(monkeypatch, "circle", calls,
                  derived={"n_theta": 3, "grid": 99, "dim": 5, "extra": "x"})
        code, out = run(capsys, ["verify", "circle", "--grid", "24"])
        assert code == 0
        assert calls == [("circle", {"r": 0.8, "grid": 24, "seed": 0})]
        assert self.params(out) == [("r", 0.8), ("dim", 5), ("grid", 99), ("seed", 0),
                                    ("n_theta", 3), ("extra", "x")]

    def test_all_writes_the_params_of_the_single_suite_runs(self, capsys, tmp_path):
        assert main(["verify", "all", "--out", str(tmp_path / "r.json")] + FAST) == 0
        for suite in sorted(READS):
            code, out = run(capsys, ["verify", suite] + FAST_READ[suite])
            assert code == 0
            assert self.params((tmp_path / f"r-{suite}.json").read_text()) == self.params(out)

    @pytest.mark.parametrize("suite,flag", [(suite, flag) for suite in sorted(READS)
                                            for flag in SUITE_FLAGS
                                            if flag not in READS[suite]])
    def test_an_unread_flag_exits_2_before_the_suite(self, capsys, monkeypatch, tmp_path,
                                                     suite, flag):
        calls = []
        self.stub(monkeypatch, suite, calls)
        out = tmp_path / "report.json"
        code = main(["verify", suite, f"--{flag}", str(self.VALUES[flag]),
                     "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"configuration error: verify {suite} does not read --{flag}\n"
        assert not out.exists()
        assert calls == []

    @pytest.mark.parametrize("suite", sorted(READS))
    def test_run_flags_are_accepted_by_every_suite(self, capsys, monkeypatch, tmp_path, suite):
        calls = []
        self.stub(monkeypatch, suite, calls)
        out = tmp_path / "report.csv"
        code = main(["verify", suite, "--tol", "0.5", "--seed", "7", "--out", str(out),
                     "--format", "csv"])
        assert code == 0
        assert capsys.readouterr() == ("", "")
        assert out.read_text().splitlines()[1] == f"{suite},row,anchor,0.0,0.0,0.5,True"
        defaults = {"r": 0.8, "t": 0.2, "alpha": 2.0, "dim": 48, "grid": None, "seed": 7}
        assert calls == [(suite, {flag: defaults[flag] for flag in READS[suite]})]

    def test_all_applies_each_flag_to_the_suites_that_read_it(self, capsys, monkeypatch,
                                                              tmp_path):
        calls = []
        for suite in cli.SUITES:
            self.stub(monkeypatch, suite, calls)
        flags = [arg for flag in SUITE_FLAGS
                 for arg in (f"--{flag}", str(self.VALUES[flag]))]
        code = main(["verify", "all", "--seed", "3", "--out", str(tmp_path / "r.json")]
                    + flags)
        assert code == 0
        values = {**self.VALUES, "seed": 3}
        assert calls == [(suite, {flag: values[flag] for flag in READS[suite]})
                         for suite in sorted(READS)]

    def test_sphere_ignores_the_run_seed(self, capsys):
        # the benchmark's small-suites workload runs `verify sphere --seed N`
        seeded = run(capsys, ["verify", "sphere", "--seed", "7"])
        assert seeded == run(capsys, ["verify", "sphere"])
        assert seeded[0] == 0


class TestPlaneSizedRules:
    """`verify plane` builds its family on plane.sized_rules; its rows agree with the
    same suite on plane_family's default rules (dim + 16 radii, max(2 dim + 32, 64)
    angles): the polynomial rows to 1e-12, each covariance defect within twice its
    default-rule value or 1e-9."""

    @staticmethod
    def rows(t, dim):
        return {row["id"]: row["computed"] for row in cli.suite_plane(t, dim)[1]}

    @pytest.mark.parametrize("dim", [8, 16, 32, 48])
    @pytest.mark.parametrize("t", [0.0, 0.2, 0.5, 0.7, 0.9])
    def test_rows_match_the_default_rules(self, monkeypatch, t, dim):
        sized = self.rows(t, dim)
        monkeypatch.setattr(plane, "sized_rules", lambda params: ())
        default = self.rows(t, dim)
        for name in ("ccr-block", "quadratic-q2", "resolution-block"):
            assert abs(sized[name] - default[name]) <= 1e-12, name
        for name in ("translation", "rotation", "parity", "conjugation"):
            name = f"covariance-{name}"
            assert sized[name] <= max(2.0 * default[name], 1e-9), name

    def test_rule_sizes(self):
        # 24 + 8 + ceil(4 * 0.2 / 0.8) = 33 radii and 56 angles at the defaults;
        # at t = 0.9 the bump term reaches plane_family's cap of dim + 16
        radial, angular = plane.sized_rules(plane.ThermalParams(0.2, 48))
        assert (radial.size, angular.size) == (33, 56)
        assert plane.sized_rules(plane.ThermalParams(0.9, 48))[0].size == 64


class TestGoldenReports:
    """Plane reports byte for byte against files written by an earlier build:
    a speed-up of the plane's numerics must not move a printed digit."""

    GOLDEN = Path(__file__).resolve().parent / "golden"

    @pytest.mark.parametrize("name, argv, exit_code", [
        ("plane-default.json", [], 0),
        ("plane-dim16-t0.5.json", ["--dim", "16", "--t", "0.5"], 1),
        ("plane-dim32-t0.json", ["--dim", "32", "--t", "0"], 0),
    ])
    def test_plane_report_bytes(self, capsys, name, argv, exit_code):
        code, out = run(capsys, ["verify", "plane"] + argv)
        assert code == exit_code
        assert out.encode() == (self.GOLDEN / name).read_bytes()

    # command line -> exit code and sha256 of stdout and stderr: every suite at
    # the defaults and at seeds 0..9, and the non-default parameters below,
    # each in JSON and CSV
    DIGESTS = json.loads((GOLDEN / "report-digests.json").read_text())

    @pytest.mark.parametrize("command", sorted(DIGESTS))
    def test_report_digests(self, capsys, command):
        code = main(command.split())
        captured = capsys.readouterr()
        assert {"exit": code,
                "stdout_sha256": hashlib.sha256(captured.out.encode()).hexdigest(),
                "stderr_sha256": hashlib.sha256(captured.err.encode()).hexdigest(),
                } == self.DIGESTS[command]


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


def _workloads():
    """perfbench/workloads.py's WORKLOADS, loaded from its file as TestTracerBindings
    loads the tracer (registered first: its dataclasses look their module up)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


class TestBenchmarkWorkloads:
    """Every benchmark workload's first ops pass on the current library: a
    change that would fail them, and so zero the benchmark's pass_rate, fails
    here too."""

    WORKLOADS = _workloads()

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_first_ops_pass(self, capsys, name):
        workload = self.WORKLOADS[name]
        state = workload.setup(cli, 0)
        assert state.get("setup_checks", (1, 0))[1] == 0
        for i in (0, 1):
            outcome = workload.op(state, i)
            assert outcome.attempted > 0
            assert outcome.failed == 0


class TestParser:
    """`main` parses a verify argv with the verify sub-parser alone, builds the
    full parser otherwise, and prints what the full parser printed."""

    # argv -> exit code and sha256 of stdout and stderr at COLUMNS=80, as
    # printed when every `main` call built the full parser
    USAGE = {
        "": (2,
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "7d099992c7b93e0dcb2a6d7618e6f0ed245c921c478a83e97f696db7e3ecf763"),
        "--help": (0,
            "55cf1fde4b0ffdc5836fef3c32f29d0d5a6235da5c7f98f44aad8a44931867d6",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        "bogus": (2,
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "4e5fd07def0ce480e0c5e9e630942fa09a7f463b30b6403fc4291ebc87136bda"),
        "verify --help": (0,
            "0fcbeeedfa9fbb0f3d4b5315737223128825de0af8230dbc8c78021af500dc33",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        "reconstruct --help": (0,
            "6ad1bd17e3e4d67478735bc45d015c707fa9cd9f6f08eb3ee8670499c97d2ddb",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        "verify nosuch": (2,
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "59eb8600412fb5d35bd4ff2b024bb29a8a5839b44d4cb9c26f86e8dc76d9d368"),
        "verify circle --bogus": (2,
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "c33dbc9011c0e500cdd481184cb5594cdd32443a1113a0d28d3e742f8cd2d51d"),
        "reconstruct": (2,
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "277cf2384066d136decb5c40cecfed73ddee4cba04b6e0e1f787a0e06873eb1f"),
    }

    @staticmethod
    def outcome(capsys, parse, argv):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        captured = capsys.readouterr()
        return (exc.value.code, hashlib.sha256(captured.out.encode()).hexdigest(),
                hashlib.sha256(captured.err.encode()).hexdigest())

    @pytest.mark.parametrize("argv", sorted(USAGE))
    def test_help_and_usage_errors_are_unchanged(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")
        got = self.outcome(capsys, main, argv.split())
        assert got == self.outcome(capsys, cli.build_parser().parse_args, argv.split())
        assert got == self.USAGE[argv]

    @pytest.mark.parametrize("argv, command", [
        ([], None), (["--help"], None), (["bogus"], None), (["verify", "core"], "verify"),
        (["reconstruct", "nosuch.json"], "reconstruct"), (["circle", "verify"], None),
        (["verify", "nosuch"], "verify"), (["verify", "circle", "--bogus"], "verify")])
    def test_main_builds_the_parser_of_argv0(self, capsys, monkeypatch, argv, command):
        # every command builds the full parser; verify builds it only to report
        # an unrecognized argument in its usage
        built, build = [], cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda *a: built.append(a) or build(*a))
        try:
            main(argv)
        except SystemExit:
            pass
        capsys.readouterr()
        assert built == ([] if command == "verify" and "--bogus" not in argv else [()])

    @pytest.mark.parametrize("argv, progs", [
        (["verify", "core"], ["povmint verify"]),
        (["verify", "--help"], ["povmint verify"]),
        (["verify", "nosuch"], ["povmint verify"]),
        (["verify", "circle", "--bogus"],
         ["povmint verify", "povmint", "povmint verify", "povmint reconstruct"]),
        (["reconstruct", "nosuch.json"], ["povmint", "povmint verify", "povmint reconstruct"]),
        ([], ["povmint", "povmint verify", "povmint reconstruct"]),
        (["bogus"], ["povmint", "povmint verify", "povmint reconstruct"])])
    def test_argument_parsers_constructed(self, capsys, monkeypatch, argv, progs):
        made, init = [], argparse.ArgumentParser.__init__

        def counting(parser, *args, **kwargs):
            made.append(kwargs.get("prog"))
            init(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        try:
            main(argv)
        except SystemExit:
            pass
        capsys.readouterr()
        assert made == progs


class TestImport:
    GEOMETRIES = ("circle", "finite", "halfplane", "plane", "sphere")
    # prints the geometry modules loaded so far
    LOADED = (f"print(sorted(m for m in sys.modules\n"
              f"             if m.removeprefix('povmint.') in {GEOMETRIES!r}))\n")

    @staticmethod
    def fresh(code, *argv):
        """Stdout lines of ``code`` run in a fresh interpreter on the sources."""
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        out = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                             capture_output=True, text=True, timeout=300)
        assert out.returncode == 0, out.stderr
        return out.stdout.strip().splitlines()

    def test_cli_import_loads_no_geometry(self):
        # a cold start pays only for core and operators: no geometry module and
        # no numpy.polynomial (the half-plane kernel rule is built on first use)
        lines = self.fresh("import sys, povmint.cli\n" + self.LOADED
                           + "print('numpy.polynomial' in sys.modules)\n")
        assert lines == ["[]", "False"]

    def test_verify_circle_loads_only_circle(self):
        lines = self.fresh("import contextlib, io, sys\n"
                           "from povmint import cli\n"
                           "with contextlib.redirect_stdout(io.StringIO()):\n"
                           "    code = cli.main(['verify', 'circle'])\n"
                           "print(code)\n" + self.LOADED)
        assert lines == ["0", "['povmint.circle']"]

    @pytest.mark.parametrize("suite", ["sphere", "halfplane"])
    def test_gauss_legendre_suites_load_no_numpy_polynomial(self, suite):
        # legendre_rule is Golub-Welsch in plain numpy, not numpy's leggauss
        lines = self.fresh("import contextlib, io, sys\n"
                           "from povmint import cli\n"
                           "with contextlib.redirect_stdout(io.StringIO()):\n"
                           "    code = cli.main(['verify', sys.argv[1]])\n"
                           "print(code, 'numpy.polynomial' in sys.modules)\n", suite)
        assert lines == ["0 False"]

    def test_reconstruct_then_verify_all_load_what_they_use(self, tmp_path):
        path = table_file(tmp_path, [qubit(0.4), qubit(-0.4)], [1.0, 1.0])
        lines = self.fresh("import contextlib, io, sys\n"
                           "from povmint import cli\n"
                           "with contextlib.redirect_stdout(io.StringIO()):\n"
                           "    code = cli.main(['reconstruct', sys.argv[1]])\n"
                           "print(code)\n" + self.LOADED
                           + "with contextlib.redirect_stdout(io.StringIO()):\n"
                           "    code = cli.main(['verify', 'all'])\n"
                           "print(code)\n" + self.LOADED, path)
        assert lines == ["0", "['povmint.finite']", "0",
                         str(sorted(f"povmint.{name}" for name in self.GEOMETRIES))]

    def test_geometry_attributes_load_on_first_access(self):
        lines = self.fresh("import sys, povmint.cli as cli\n" + self.LOADED
                           + "for name in sys.argv[1:]:\n"
                           "    print(getattr(cli, name) is sys.modules['povmint.' + name])\n"
                           "print(hasattr(cli, 'torus'))\n", *self.GEOMETRIES)
        assert lines == ["[]"] + ["True"] * len(self.GEOMETRIES) + ["False"]

    def test_tracer_attaches_before_any_suite_runs(self):
        # the benchmark's tracer reads cli.plane, cli.halfplane, ... right after
        # import; in-process tests cannot see this, every module being loaded
        path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
        lines = self.fresh("import importlib.util, sys, povmint.cli as cli\n"
                           "spec = importlib.util.spec_from_file_location('t', sys.argv[1])\n"
                           "module = importlib.util.module_from_spec(spec)\n"
                           "spec.loader.exec_module(module)\n"
                           "tracer = module.Tracer()\n"
                           "tracer.attach(cli)\n"
                           "print(len(tracer._patches))\n", str(path))
        assert lines == ["26"]

    def test_cli_import_defers_scipy_optimize(self):
        # importing the CLI loads no scipy.optimize
        assert self.fresh("import sys, povmint.cli\n"
                          "print('scipy.optimize' in sys.modules)\n") == ["False"]

    def test_cli_import_defers_scipy(self):
        # no scipy module is part of the CLI's start-up
        code = ("import sys, povmint.cli\n"
                "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n")
        assert self.fresh(code) == ["[]"]

    def test_plane_family_loads_no_scipy(self):
        # the Gauss-Laguerre rule and the displacement entries are numpy, so
        # building and quantizing on a plane family never imports scipy
        code = ("import sys\n"
                "from povmint import core, plane\n"
                "params = plane.ThermalParams(0.2, 48)\n"
                "fam = plane.plane_family(params)\n"
                "core.quantize(fam, lambda nd: nd[0])\n"
                "plane._radial_integrals(params)\n"
                "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n")
        assert self.fresh(code) == ["[]"]

    def test_verify_all_and_reconstruct_load_no_scipy(self, tmp_path):
        # the Bessel routine and the Levenberg-Marquardt solver are numpy, so
        # every suite and both reconstruct shapes run without scipy
        full = table_file(tmp_path, [qubit(0.4), qubit(-0.4)], [1.0, 1.0])
        third = 2.0 * math.pi / 3.0
        vecs = [np.array([math.cos(a), math.sin(a)]) for a in (0.0, third, 2 * third)]
        rank_one = table_file(tmp_path, [np.outer(v, v).astype(complex) for v in vecs],
                              [2.0 / 3.0] * 3, name="rank_one.json")
        code = ("import contextlib, io, sys\n"
                "from povmint import cli\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                "    codes = [cli.main(['verify', 'all']),\n"
                "             cli.main(['reconstruct', sys.argv[1]]),\n"
                "             cli.main(['reconstruct', sys.argv[2], '--rank-one'])]\n"
                "print(codes, sorted(m for m in sys.modules if m.startswith('scipy')))\n")
        assert self.fresh(code, full, rank_one) == ["[0, 0, 0] []"]


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

    def test_weights_not_summing_to_n_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"p": [1.0, 0.0, 0.0, 1.0], "nu": [1.0, 1.0], "n": 3}))
        code = main(["reconstruct", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "invalid table: weights must sum to the Hilbert dimension n\n"

    def test_invalid_table_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"p": [0.9, 0.9, 0.9, 0.9],
                                    "nu": [1.0, 1.0], "n": 2}))
        assert main(["reconstruct", str(path)]) == 2

    @pytest.mark.parametrize("text", [
        '{"p": [1, 0, 0, 1], "nu": [1, 1], "n": null}',
        '[1, 2]',
        '{"p": [1, 0, 0, 1], "nu": 5, "n": 2}',
        '{"p": [0.58, 0.42, 0.42, 0.58], "nu": [1, 1], "n": 2.5}',
        '{"p": [NaN, 0.42, 0.42, 0.58], "nu": [1, 1], "n": 2}',
        '{"p": [0.58, 0.42, 0.42, 0.58], "nu": [NaN, 1], "n": 2}',
        '{"p": [0.58, 0.42, 0.42, 0.58], "nu": {"a": 1}, "n": 2}',
    ], ids=["null-n", "top-level-list", "scalar-nu", "fractional-n", "nan-p", "nan-nu",
            "object-nu"])
    def test_malformed_table_exit_2(self, capsys, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        code = main(["reconstruct", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("invalid table:")

    @pytest.mark.parametrize("flag,value", [("--restarts", "0"),
                                            ("--restarts", "-1"), ("--seed", "-1"),
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

    def test_negative_seed_exit_2_before_the_table_is_read(self, capsys, tmp_path):
        # the check runs before the table file is opened, so none is needed
        out = tmp_path / "report.json"
        code = main(["reconstruct", str(tmp_path / "missing.json"), "--seed", "-1",
                     "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert not out.exists()
        assert captured.err == ("configuration error: --restarts must be >= 1, --seed >= 0 "
                                "and --tol in (0, inf), got 8, -1 and 1e-08\n")

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
