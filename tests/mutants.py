"""Mutation gate: every mutant below must make its named tests fail.

    python3 tests/mutants.py

Each mutant replaces one exact snippet of one file under ``src/`` (the
snippet must occur there exactly once, or the script stops before running
anything).  The script copies ``src/`` to a temporary directory, checks that
the unmutated copy passes every named test, and then, one mutant after
another, applies the replacement, runs that mutant's tests in one pytest
subprocess with ``PYTHONPATH`` on the copy, and restores the file.  A mutant
is killed when pytest reports a failing test.  No process pool is started.

Exit status: 0 when every mutant is killed, 1 when one survives or errs,
2 when a snippet is not unique or the unmutated copy fails.  pytest does
not collect this file: its name does not match ``test_*.py``.

The mutants come from the corrected forms of DECISIONS.md flipped back to
the printed forms, from the DomainError guards (each dropped), from the
mutants CHANGES.md records, and from the report ``params`` writer.  A change
that deletes a mutant's snippet updates or retires that mutant.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
TIMEOUT_S = 120


class Mutant(NamedTuple):
    name: str
    file: str  # under src/povmint
    snippet: str
    replacement: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root


MUTANTS = [
    # --- DECISIONS.md corrected forms flipped back to the printed forms
    Mutant("circle-commutator-printed (entries 1, 2)", "circle.py",
           "commutator = -1.0j * rr * sin * SIGMA2",
           "commutator = -2.0j * rr * sin * SIGMA2",
           ("tests/test_circle.py::TestAlgebra::test_product_commutator_anticommutator",)),
    Mutant("series-cross-weight-printed (entry 7)", "plane.py",
           "ratio = n / np_ if printed else math.exp(lf[n] - lf[np_])",
           "ratio = n / np_",
           ("tests/test_plane.py::TestProbabilityKernel::test_matrix_vs_series",)),
    Mutant("bessel-exponent-printed (entry 8)", "plane.py",
           "expo = -x * u if printed else -2.0 * x * u",
           "expo = -x * u",
           ("tests/test_plane.py::TestProbabilityKernel::test_bessel_identity",)),
    Mutant("hs-purity-squared-printed (entry 9)", "plane.py",
           "gap = (pur * pur if printed else pur) - prob",
           "gap = pur * pur - prob",
           ("tests/test_plane.py::TestProbabilityKernel::test_hs_distance_closed_form",)),
    Mutant("phase-rows-read-printed-route (entry 10)", "cli.py",
           "ph = plane.phase_operator(pp)",
           "ph = plane.phase_operator_printed(pp)",
           ("tests/test_cli.py::TestVerify::test_plane_suite_passes",)),
    Mutant("phase-printed-divides-complex (entry 10)", "plane.py",
           "out = 1j * (f / (mp - m))",
           "out = 1j * f / (mp - m)",
           ("tests/test_plane.py::TestPhaseOperator::test_published_route_matches_per_entry_oracle",)),
    Mutant("c-rho-row-reads-printed (entries 11, 12)", "cli.py",
           'checks.append(check("admissibility-derived", "croexpl", c_quad,\n'
           "                        halfplane.c_rho_derived(alpha), 1e-8))",
           'checks.append(check("admissibility-derived", "croexpl", c_quad,\n'
           "                        halfplane.c_rho_printed(alpha, t), 1e-8))",
           ("tests/test_cli.py::TestVerify::test_halfplane_suite_passes",)),
    Mutant("thermal-kernel-printed (entry 13)", "halfplane.py",
           "pre, decay = (1.0 - t, t) if printed else (1.0, 1.0 + t)",
           "pre, decay = (1.0 - t, t)",
           ("tests/test_halfplane.py::TestThermalKernel::test_trace_is_one",)),
    Mutant("rank-one-discriminant-printed (entry 14)", "finite.py",
           "disc = math.sqrt(8 * n * n - 4 * n + 1)",
           "disc = math.sqrt(8 * n * n - 8 * n + 9)",
           ("tests/test_finite.py::TestFeasibility",)),
    Mutant("bessel-hankel-floor-12 (entry 17)", "numerics.py",
           "x_h = max([20.0,", "x_h = max([12.0,",
           ("tests/test_numerics.py::TestBessel::test_matches_mpmath",)),
    Mutant("lm-zero-column-scale (entry 17)", "finite.py",
           "np.where(d > 0, d * d, 1.0)", "d * d",
           ("tests/test_finite.py::TestLeastSquares::test_gauge_degenerate_start",)),
    Mutant("qubit-rounding-eigenvalues-kept (entry 20)", "finite.py",
           "np.sqrt(np.where(w > 1e-12, w, 0.0))", "np.sqrt(np.maximum(w, 0.0))",
           ("tests/test_finite.py::TestClosedForm::test_invariant_under_unitary_and_transpose",)),
    Mutant("packed-lower-scatter-sign (entry 23)", "plane.py",
           "np.concatenate([rc - is_, rs + ic, rc + is_, ic - rs])",
           "np.concatenate([rc + is_, rs + ic, rc + is_, ic - rs])",
           ("tests/test_plane.py::TestPackedWeightedSum::test_matches_toeplitz_oracle",)),

    # --- mutants recorded in CHANGES.md that still apply
    Mutant("laguerre-step-reassociated", "numerics.py",
           "a, b = 2 * ks - 1 + alpha - x, ks - 1 + alpha",
           "a, b = 2 * ks - 1 + (alpha - x), ks - 1 + alpha",
           ("tests/test_numerics.py::TestLaguerre::test_table_matches_literal_recurrence",)),
    Mutant("bessel-overflow-guard-np-all", "numerics.py",
           "if np.any(x > BESSEL_OVERFLOW_X):", "if np.all(x > BESSEL_OVERFLOW_X):",
           ("tests/test_halfplane.py::TestThermalKernel::test_array_guards",)),
    Mutant("displacement-log-without-errstate", "plane.py",
           'with np.errstate(divide="ignore", invalid="ignore"):  # log 0 = -inf at x = 0',
           "if True:",
           ("tests/test_plane.py::TestDisplacementOracles",)),
    Mutant("orbit-probe-on-last-state", "halfplane.py",
           "probe[0, 0] = 1.0", "probe[-1, -1] = 1.0",
           ("tests/test_halfplane.py::TestOrbitEngine::test_c_rho_needs_one_row",)),
    Mutant("last-node-batch-dropped", "core.py",
           "for start in range(0, len(idx), step):",
           "for start in range(0, len(idx) - step + 1, step):",
           ("tests/test_core.py::TestNodeArrayContract::test_small_batch_budget_crosses_chunks",)),
    Mutant("seed-not-a-run-flag", "cli.py",
           'RUN_FLAGS = ("tol", "seed", "out", "format")', 'RUN_FLAGS = ("tol", "out", "format")',
           ("tests/test_cli.py::TestSuiteFlags::test_run_flags_are_accepted_by_every_suite",)),

    # --- the report params writer
    Mutant("params-in-signature-order", "cli.py",
           "params = {key: used[key] for key in [*FLAGS, *used] if key in used}",
           "params = used",
           ("tests/test_cli.py::TestGoldenReports::test_report_digests[verify halfplane --format json]",)),
    Mutant("params-ignore-derived", "cli.py",
           "used = {**given, **derived}", "used = dict(given)",
           ("tests/test_cli.py::TestGoldenReports::test_report_digests[verify halfplane --format json]",)),

    # --- DomainError guards, each dropped
    Mutant("periodic-rule-accepts-fractions", "numerics.py",
           "    if n < 1 or n % 1:  # an integral float is accepted; NaN fails\n"
           '        raise DomainError(f"node count must be an integer >= 1, got {n}")\n'
           "    if n > MAX_RULE_NODES:",
           "    if n < 1:\n"
           '        raise DomainError(f"node count must be an integer >= 1, got {n}")\n'
           "    if n > MAX_RULE_NODES:",
           ("tests/test_numerics.py::TestRules::test_node_count_must_be_an_integer",)),
    Mutant("laguerre-degree-guard", "numerics.py",
           'raise DomainError(f"degree must be a nonnegative integer, got {n_max}")', "pass",
           ("tests/test_numerics.py::TestLaguerre::test_rejects_bad_degree_and_alpha",)),
    Mutant("laguerre-alpha-guard", "numerics.py",
           'raise DomainError(f"alpha must be > -1 or a negative integer, got {alpha}")', "pass",
           ("tests/test_numerics.py::TestLaguerre::test_rejects_bad_degree_and_alpha",)),
    Mutant("laguerre-range-guard", "numerics.py",
           "if n_max > LAGUERRE_MAX_N or not np.all(np.abs(x) <= LAGUERRE_MAX_X):",
           "if n_max > LAGUERRE_MAX_N:",
           ("tests/test_numerics.py::TestLaguerre::test_validated_range_guard",)),
    Mutant("bessel-argument-guard", "numerics.py",
           'raise DomainError(f"argument must be nonnegative, got {np.min(x)}")', "pass",
           ("tests/test_numerics.py::TestBessel::test_domain_errors",)),
    Mutant("bessel-order-guard", "numerics.py",
           'raise DomainError(f"order must lie in [0, {BESSEL_MAX_NU:g}], got {nu}")', "pass",
           ("tests/test_numerics.py::TestBessel::test_domain_errors",)),
    Mutant("hyp2f1-degree-guard", "numerics.py",
           'raise DomainError(f"m must be a nonnegative integer, got {m}")', "pass",
           ("tests/test_numerics.py::TestHyp2f1::test_rejects_negative_m",)),
    Mutant("rule-weights-finite-guard", "numerics.py",
           'raise DomainError("quadrature weights must be finite")', "pass",
           ("tests/test_numerics.py::TestRules::test_rule_weights_must_be_finite",)),
    Mutant("legendre-interval-guard", "numerics.py",
           'raise DomainError(f"interval needs finite bounds a < b, got [{a}, {b}]")', "pass",
           ("tests/test_numerics.py::TestRules::test_legendre_bad_inputs",)),
    Mutant("laguerre-rule-alpha-guard", "numerics.py",
           'raise DomainError(f"Gauss-Laguerre rule needs alpha > -1, got {alpha}")', "pass",
           ("tests/test_numerics.py::TestRules::test_bad_inputs",)),
    Mutant("product-rule-1d-guard", "numerics.py",
           'raise DomainError("product_rule composes 1-D rules only")', "pass",
           ("tests/test_numerics.py::TestRules::test_product_rule_rejects_2d_factor",)),
    Mutant("plane-t-guard", "plane.py",
           'raise DomainError(f"t must lie in [0, 1), got {self.t}")', "pass",
           ("tests/test_plane.py::TestParamsAndStates::test_rejects_bad_t_and_dim",)),
    Mutant("plane-dim-bound (entry 22)", "plane.py",
           'raise DomainError(f"dim must be >= 1 and <= 256, got {self.dim}")', "pass",
           ("tests/test_plane.py::TestParamsAndStates::test_dim_bound_holds_before_any_rule_is_built",)),
    Mutant("radial-density-range-guard (entry 19)", "plane.py",
           'raise DomainError(f"J in [{np.min(j)}, {np.max(j)}] is outside the"\n'
           '                          " validated range 0 <= (1-t) J <= 700")', "pass",
           ("tests/test_plane.py::TestCompressedDensity::test_outside_validated_range_raises",)),
    Mutant("halfplane-alpha-guard", "halfplane.py",
           'raise DomainError(f"resolution requires 0 < alpha < inf, got {self.alpha}")', "pass",
           ("tests/test_halfplane.py::TestBasis::test_alpha_must_be_positive_and_finite",)),
    Mutant("basis-domain-guard", "halfplane.py",
           'raise DomainError("basis functions live on x >= 0")', "pass",
           ("tests/test_halfplane.py::TestBasis::test_basis_domain",)),
    Mutant("kernel-argument-guard", "halfplane.py",
           'raise DomainError("kernel arguments must be nonnegative")', "pass",
           ("tests/test_halfplane.py::TestThermalKernel::test_kernel_guards",)),
    Mutant("fold-pairing-guard (entry 18)", "halfplane.py",
           'raise DomainError("the group rule must pair (q, p) with (q, -p) at equal weights")', "pass",
           ("tests/test_halfplane.py::TestMirrorFold::test_unpaired_rule_raises",)),
    Mutant("circle-density-r-guard", "circle.py",
           'raise DomainError(f"r must lie in [0, 1], got {r}")', "pass",
           ("tests/test_circle.py::TestParams::test_rejects_any_bad_entry_of_r",)),
    Mutant("sphere-node-budget", "sphere.py",
           'raise DomainError(f"{n_theta} x {n_phi} nodes exceed the budget of {MAX_RULE_NODES}")', "pass",
           ("tests/test_cli.py::TestVerify::test_node_budget_admits_the_rule_that_fills_it",)),
]


def run_tests(src: Path, tests, stop_first: bool) -> tuple[int, str]:
    """pytest's exit code and output for ``tests`` with ``src`` on PYTHONPATH."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1",
           "PYTEST_DISABLE_PLUGIN_AUTOLOAD": "1"}
    argv = [sys.executable, "-m", "pytest", "-q", "--tb=no", "-p", "no:cacheprovider",
            *(["-x"] if stop_first else []), *tests]
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return -1, f"timed out after {TIMEOUT_S} s"
    return proc.returncode, proc.stdout + proc.stderr


def main() -> int:
    start = time.perf_counter()
    counts = {m.name: (SRC / "povmint" / m.file).read_text().count(m.snippet) for m in MUTANTS}
    bad = [f"{name}: snippet found {n} times, not once" for name, n in counts.items() if n != 1]
    if bad:
        print("mutant table is stale:\n  " + "\n  ".join(bad))
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "src"
        shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__"))
        code, out = run_tests(copy, sorted({t for m in MUTANTS for t in m.tests}), False)
        if code != 0:
            print(f"the unmutated copy fails its tests (pytest exit {code}):\n{out}")
            return 2
        failed = []
        for m in MUTANTS:
            path = copy / "povmint" / m.file
            original = path.read_text()
            path.write_text(original.replace(m.snippet, m.replacement))
            try:
                code, out = run_tests(copy, m.tests, True)
            finally:
                path.write_text(original)
            verdict = {1: "killed", 0: "SURVIVED"}.get(code, f"ERROR (pytest exit {code})")
            print(f"{verdict:10} {m.name}", flush=True)
            if code != 1:
                failed.append((m.name, out))
    for name, out in failed:
        print(f"\n--- {name}\n{out}")
    print(f"\n{len(MUTANTS)} mutants, {len(MUTANTS) - len(failed)} killed, "
          f"in {time.perf_counter() - start:.0f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
