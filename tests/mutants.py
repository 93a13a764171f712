"""Mutation gate: every mutant below must make its named tests fail.

    python3 tests/mutants.py

Each mutant replaces one exact snippet of one file under ``src/`` (the
snippet must occur there exactly once, or the script stops before running
anything).  The script copies ``src/`` to a temporary directory, checks that
the unmutated copy passes every named test, and then, one mutant after
another, applies the replacement, runs that mutant's tests with
``pytest.main`` in one child forked from this process, with the copy first on
``sys.path`` and on ``PYTHONPATH``, and restores the file.  Before the first
fork this process pins BLAS to one thread, imports pytest and the tests'
third-party modules once and moves them out of the garbage collector's scans
(``gc.freeze``).  It never imports ``povmint``, so each child imports it, and
the test modules, from the copy as it stands.  Bytecode goes under a prefix in
the temporary directory: the unmutated run writes it, the copy's is then
deleted, and the children write none, so they reuse the test modules'
assertion-rewritten bytecode and compile each mutated module from its source.
A mutant is killed when pytest reports a failing test.  Where a named test is
parametrized, the mutant names the case that kills it, so no run pays for the other
cases.  One child runs at a time, and no process pool is started.

Exit status: 0 when every mutant is killed, 1 when one survives or errs,
2 when a snippet is not unique, a named test is not defined or the unmutated
copy fails.  pytest does not collect this file: its name does not match
``test_*.py``.  The snippet and test-id checks alone run in Tier-1 as
``tests/test_mutant_table.py``.

The mutants come from the corrected forms of DECISIONS.md flipped back to
the printed forms, from the DomainError guards (each dropped), from the
mutants CHANGES.md records, and from the report ``params`` writer.  A change
that deletes a mutant's snippet updates or retires that mutant.
"""

from __future__ import annotations

import ast
import gc
import importlib
import os
import shutil
import signal
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
TIMEOUT_S = 120
# imported once by the parent; each forked child finds them loaded
PRELOAD = ("pytest", "numpy", "numpy.testing", "mpmath", "scipy.special")


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
           ("tests/test_plane.py::TestPhaseOperator::test_published_route_matches_per_entry_oracle[0.0-8]",)),
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
           ("tests/test_numerics.py::TestBessel::test_matches_mpmath[0.5]",)),
    Mutant("lm-zero-column-scale (entry 17)", "finite.py",
           "np.where(d > 0, d * d, 1.0)", "d * d",
           ("tests/test_finite.py::TestLeastSquares::test_gauge_degenerate_start",)),
    Mutant("qubit-rounding-eigenvalues-kept (entry 20)", "finite.py",
           "np.sqrt(np.where(w > 1e-12, w, 0.0))", "np.sqrt(np.maximum(w, 0.0))",
           ("tests/test_finite.py::TestClosedForm::test_invariant_under_unitary_and_transpose[2]",)),
    Mutant("real-values-made-complex (entry 25)", "core.py",
           "vals = np.asarray(vals, dtype=complex if np.iscomplexobj(vals) else float)",
           "vals = np.asarray(vals, dtype=complex)",
           ("tests/test_core.py::TestQuantizeValues::test_real_values_reach_the_family_as_float",)),
    Mutant("packed-builder-column-write (entry 25)", "plane.py",
           "out=packed[n, :dim - n])",
           "out=packed[n, 1:dim - n + 1])",
           ("tests/test_plane.py::TestCompressedDensity::test_matches_mpmath_closed_form[0.0]",)),
    Mutant("quantize-symbol-made-complex (entry 28)", "core.py",
           "vals if vals.imag.any() else vals.real", "vals",
           ("tests/test_core.py::TestQuantizeValues::test_real_symbol_reaches_the_family_as_one_float_call",)),
    Mutant("displacement-column-0 (entry 28)", "plane.py",
           "np.sqrt(s / k[1:])", "np.sqrt(s / (k[1:] + 1))",
           ("tests/test_plane.py::TestDisplacementOracles::test_matches_mpmath_and_loop[48]",)),
    Mutant("displacement-recurrence-y-sign (entry 28)", "plane.py",
           "_diagonal_recurrence(1.0, flat, 1.0, -flat, dim)",
           "_diagonal_recurrence(1.0, flat, 1.0, flat, dim)",
           ("tests/test_plane.py::TestDisplacementOracles::test_matches_mpmath_and_loop[48]",)),
    Mutant("displacement-recurrence-t (entry 28)", "plane.py",
           "_diagonal_recurrence(1.0, flat, 1.0, -flat, dim)",
           "_diagonal_recurrence(1.0, flat, 0.5, -flat, dim)",
           ("tests/test_plane.py::TestDisplacementOracles::test_matches_mpmath_and_loop[48]",)),
    Mutant("displacement-upper-sign-dropped (entry 28)", "plane.py",
           "-square, square)", "square, square)",
           ("tests/test_plane.py::TestDisplacementOracles::test_scaled_real_strips_gaussian[10.0]",)),
    Mutant("radial-integrals-printed-1-t-factor (entries 10, 35)", "plane.py",
           "(1.0 - t) ** (d / 2.0) * f21", "(1.0 - t) ** (d / 2.0 + 1.0) * f21",
           ("tests/test_plane.py::TestRadialIntegrals::test_matches_mpmath[0.2-1]",)),
    Mutant("radial-integrals-printed-sqrt-m-mp (entries 10, 35)", "plane.py",
           "pre[m, d] *", "np.array([math.gamma(s / 2.0 + 1.0) for s in m + mp]) / np.sqrt(m * mp) *",
           ("tests/test_plane.py::TestRadialIntegrals::test_matches_mpmath[0.2-1]",)),
    Mutant("radial-integrals-lower-degree-max (entry 35)", "plane.py",
           "m, mp = np.triu_indices(dim)", "m, mp = np.indices((dim, dim)).reshape(2, -1)",
           ("tests/test_plane.py::TestRadialIntegrals::test_matches_mpmath[0.0-2]",)),
    Mutant("sphere-sum-sigma-y-sign (entry 26)", "sphere.py",
           "-r * SIGMA[1]", "r * SIGMA[1]",
           ("tests/test_core.py::TestClosedFormSums::test_matches_the_loop[sphere]",)),
    Mutant("circle-sum-cos-sin-swapped (entry 26)", "circle.py",
           "np.cos(big_phi), np.sin(big_phi)]", "np.sin(big_phi), np.cos(big_phi)]",
           ("tests/test_core.py::TestClosedFormSums::test_matches_the_loop[circle]",)),
    Mutant("legendre-not-symmetrized (entry 26)", "numerics.py",
           "x, w = 0.5 * (x - x[::-1]), 0.5 * (w + w[::-1])", "pass",
           ("tests/test_numerics.py::TestLegendreRule::test_matches_mpmath[16]",)),
    Mutant("legendre-weight-off-the-root (entry 26)", "numerics.py",
           "2.0 * (one_x2 + 2.0 * x * step)", "2.0 * one_x2",
           ("tests/test_numerics.py::TestLegendreRule::test_matches_mpmath[48]",)),
    Mutant("golub-welsch-newton-step-dropped (entries 15, 26)", "numerics.py",
           "x -= recurrence(x)[0]", "pass",
           ("tests/test_numerics.py::TestLegendreRule::test_matches_mpmath[16]",
            "tests/test_numerics.py::TestLaguerreRule::test_matches_scipy[0.0]")),

    Mutant("plane-sum-lower-sign (entries 23, 27)", "plane.py",
           "out[lower], out[upper] = rc + 1j * rs,", "out[lower], out[upper] = rc - 1j * rs,",
           ("tests/test_plane.py::TestPackedWeightedSum::test_matches_toeplitz_oracle[2-odd-offset]",)),
    Mutant("plane-sum-upper-sign (entries 23, 27)", "plane.py",
           "rc + 1j * rs, rc - 1j * rs", "rc + 1j * rs, rc + 1j * rs",
           ("tests/test_plane.py::TestPackedWeightedSum::test_matches_toeplitz_oracle[2-odd-offset]",)),
    Mutant("complex-split-imaginary-sign (entry 27)", "core.py",
           "fam.weighted_sum(re) + 1j * fam.weighted_sum(im)",
           "fam.weighted_sum(re) - 1j * fam.weighted_sum(im)",
           ("tests/test_core.py::TestClosedFormSums::test_matches_the_loop[circle]",)),
    Mutant("complex-split-skipped (entry 27)", "core.py",
           "if fam.weighted_sum is not None and np.iscomplexobj(c):", "if False:",
           ("tests/test_core.py::TestQuantizeValues::test_real_values_reach_the_family_as_float",)),
    Mutant("complex-split-strided (entry 27)", "core.py",
           "re, im = np.stack([c.real, c.imag])", "re, im = c.real, c.imag",
           ("tests/test_core.py::TestQuantizeValues::test_real_values_reach_the_family_as_float",)),

    # --- mutants recorded in CHANGES.md that still apply
    Mutant("laguerre-step-reassociated", "numerics.py",
           "a, b = 2 * ks - 1 + alpha - x, ks - 1 + alpha",
           "a, b = 2 * ks - 1 + (alpha - x), ks - 1 + alpha",
           ("tests/test_numerics.py::TestLaguerre::test_table_matches_literal_recurrence[2]",)),
    Mutant("bessel-overflow-guard-np-all", "numerics.py",
           "if np.any(x > BESSEL_OVERFLOW_X):", "if np.all(x > BESSEL_OVERFLOW_X):",
           ("tests/test_halfplane.py::TestThermalKernel::test_array_guards",)),
    Mutant("orbit-probe-on-last-state", "halfplane.py",
           "probe[0, 0] = 1.0", "probe[-1, -1] = 1.0",
           ("tests/test_halfplane.py::TestOrbitEngine::test_c_rho_needs_one_row",)),
    Mutant("last-node-batch-dropped", "core.py",
           "for start in range(0, len(idx), step):",
           "for start in range(0, len(idx) - step + 1, step):",
           ("tests/test_core.py::TestNodeArrayContract::test_small_batch_budget_crosses_chunks[torus-orbit]",)),
    Mutant("orbit-sum-conjugate-dropped", "core.py",
           "@ col.conj()", "@ col",
           ("tests/test_core.py::TestOrbitSums::test_matches_the_loop[affine-non-diagonal]",)),
    Mutant("orbit-sum-eigenbasis-skipped", "core.py",
           "u = u @ vecs", "u = u",
           ("tests/test_core.py::TestOrbitSums::test_matches_the_loop[affine-non-diagonal]",)),
    Mutant("orbit-sum-column-skipped", "core.py",
           "for n in np.flatnonzero(lam):", "for n in np.flatnonzero(lam)[1:]:",
           ("tests/test_core.py::TestOrbitSums::test_matches_the_loop[torus]",)),
    Mutant("plane-default-radii-uncapped", "plane.py",
           "laguerre_dx_rule(min(dim + 16, 182), 0.0, 1.0 - params.t)",
           "laguerre_dx_rule(dim + 16, 0.0, 1.0 - params.t)",
           ("tests/test_plane.py::TestQuantization::test_default_rules_reach_dim_256[0.2-167]",)),
    Mutant("seed-not-a-run-flag (entry 21)", "cli.py",
           'RUN_FLAGS = ("tol", "seed", "out", "format")', 'RUN_FLAGS = ("tol", "out", "format")',
           ("tests/test_cli.py::TestSuiteFlags::test_run_flags_are_accepted_by_every_suite[halfplane]",
            "tests/test_cli.py::TestGoldenReports::test_report_digests[verify plane --seed 0 --format json]")),
    Mutant("reports-written-per-suite (entry 21)", "cli.py",
           'reports.append((render(report, opts["format"]), path))',
           '_emit(render(report, opts["format"]), path)',
           ("tests/test_cli.py::TestVerify::test_all_writes_nothing_when_a_later_suite_fails[stdout]",)),

    # --- the report params writer
    Mutant("params-in-signature-order", "cli.py",
           "params = {key: used[key] for key in [*FLAGS, *used] if key in used}",
           "params = used",
           ("tests/test_cli.py::TestGoldenReports::test_report_digests[verify halfplane --format json]",)),
    Mutant("params-ignore-derived", "cli.py",
           "used = {**given, **derived}", "used = dict(given)",
           ("tests/test_cli.py::TestGoldenReports::test_report_digests[verify halfplane --format json]",)),

    # --- verify's default rules and its parser (entry 29)
    Mutant("sphere-default-below-degree (entry 29)", "cli.py",
           "n = max(grid or 8, 8)", "n = max(grid or 1, 1)",
           ("tests/test_cli.py::TestVerify::test_default_rule_is_exact_for_every_row[1-sphere]",)),
    Mutant("halfplane-default-48 (entry 29)", "cli.py",
           "grid = max(grid or 64, 64)", "grid = max(grid or 48, 48)",
           ("tests/test_cli.py::TestSuiteFlags::test_default_params_come_in_flags_order[halfplane]",)),
    Mutant("plane-rule-t-term-dropped (entry 32)", "plane.py",
           "dim // 2 + 8 + math.ceil(4.0 * t / (1.0 - t))", "dim // 2 + 8",
           ("tests/test_cli.py::TestPlaneSizedRules::test_rows_match_the_default_rules[0.9-16]",)),
    Mutant("plane-radii-below-degree-exact (entry 32)", "plane.py",
           "min(dim + 16, dim // 2 + 8 +", "min(dim + 16, dim // 2 - 2 +",
           ("tests/test_cli.py::TestPlaneSizedRules::test_rows_match_the_default_rules[0.0-16]",)),
    Mutant("verify-reparse-dropped (entry 29)", "cli.py",
           "        if not unrecognized:\n            return run_verify(args)",
           "        return run_verify(args)",
           ("tests/test_cli.py::TestParser::test_help_and_usage_errors_are_unchanged",)),

    # --- the kernel checks' rule (entry 34)
    Mutant("plain-dx-reweighting-flipped (entry 34)", "numerics.py",
           "- alpha * np.log(base.nodes)", "+ alpha * np.log(base.nodes)",
           ("tests/test_halfplane.py::TestThermalKernel::test_kernel_rule_integrates_laguerre_moments_exactly[2.0]",)),
    Mutant("kernel-rule-12-nodes (entry 34)", "halfplane.py",
           "laguerre_dx_rule(40, alpha)", "laguerre_dx_rule(12, alpha)",
           ("tests/test_halfplane.py::TestThermalKernel::test_kernel_checks_hold_over_alpha_and_t[0.5-0.5]",)),

    # --- the overlap block (entries 16 and 36)
    Mutant("partner-route-choice-inverted (entry 16)", "halfplane.py",
           "elem[fb] = np.where(err_b < err_a,", "elem[fb] = np.where(err_b > err_a,",
           ("tests/test_halfplane.py::TestBatchedOverlap::test_corner_and_fallback_nodes_match_mpmath[2.0]",)),
    Mutant("overlap-block-node-major (entry 36)", "halfplane.py",
           "out = np.empty((rows, cols) + q.shape, dtype=complex).transpose([*range(2, q.ndim + 2), 0, 1])",
           "out = np.empty(q.shape + (rows, cols), dtype=complex)",
           ("tests/test_halfplane.py::TestBatchedOverlap::test_node_vectors_are_contiguous",)),

    # --- DomainError guards, each dropped
    Mutant("periodic-rule-accepts-fractions", "numerics.py",
           "    if n < 1 or n % 1:  # an integral float is accepted; NaN fails\n"
           '        raise DomainError(f"node count must be an integer >= 1, got {n}")\n'
           "    if n > MAX_RULE_NODES:",
           "    if n < 1:\n"
           '        raise DomainError(f"node count must be an integer >= 1, got {n}")\n'
           "    if n > MAX_RULE_NODES:",
           ("tests/test_numerics.py::TestRules::test_node_count_must_be_an_integer[nan-periodic]",)),
    Mutant("laguerre-degree-guard", "numerics.py",
           'raise DomainError(f"degree must be a nonnegative integer, got {n_max}")', "pass",
           ("tests/test_numerics.py::TestLaguerre::test_rejects_bad_degree_and_alpha",)),
    Mutant("laguerre-degree-accepts-nonfinite (entry 30)", "numerics.py",
           "if not 0 <= n_max < math.inf or n_max % 1:", "if n_max < 0 or int(n_max) != n_max:",
           ("tests/test_numerics.py::TestDegreeGuards::test_nonfinite_degree_is_a_domain_error[laguerre_table-inf]",)),
    Mutant("f21-degree-accepts-nonfinite (entry 30)", "numerics.py",
           "any(d < 0 or d % 1 for d in degrees)", "any(d < 0 or int(d) != d for d in degrees)",
           ("tests/test_numerics.py::TestDegreeGuards::test_nonfinite_degree_is_a_domain_error[_f21_terms-nan]",)),
    Mutant("laguerre-float-degree-kept (entry 31)", "numerics.py",
           "n_max, alpha, x = int(n_max), np.asarray(", "n_max, alpha, x = n_max, np.asarray(",
           ("tests/test_numerics.py::TestDegreeGuards::test_integral_float_degree_is_the_integer_degree",)),
    Mutant("laguerre-alpha-accepts-nonfinite (entry 31)", "numerics.py",
           "if not np.all(np.isfinite(alpha) & ((alpha > -1.0) | (alpha == np.round(alpha)))):",
           "if np.any((alpha <= -1.0) & (alpha != np.round(alpha))):",
           ("tests/test_numerics.py::TestLaguerre::test_nonfinite_alpha_is_a_domain_error[inf]",)),
    Mutant("laguerre-rule-alpha-accepts-nan (entry 31)", "numerics.py",
           "if not -1 < alpha < math.inf:  # NaN fails too", "if alpha <= -1:",
           ("tests/test_numerics.py::TestRules::test_laguerre_rule_nonfinite_alpha[nan]",
            "tests/test_halfplane.py::TestBasis::test_nan_alpha_is_a_domain_error[gram_defect]")),
    Mutant("bessel-argument-accepts-nan (entry 31)", "numerics.py",
           "if not np.all((x >= 0) & (x < math.inf)):", "if np.any((x < 0) | (x == math.inf)):",
           ("tests/test_numerics.py::TestBessel::test_nan_argument_is_a_domain_error",)),
    Mutant("bessel-argument-accepts-inf (entry 32)", "numerics.py",
           "if not np.all((x >= 0) & (x < math.inf)):", "if not np.all(x >= 0):",
           ("tests/test_numerics.py::TestBessel::test_infinite_argument_is_a_domain_error",)),
    Mutant("kernel-argument-accepts-nan (entry 31)", "halfplane.py",
           "if not np.all((x >= 0) & (x < math.inf) & (y >= 0) & (y < math.inf)):",
           "if np.any((x < 0) | (x == math.inf) | (y < 0) | (y == math.inf)):",
           ("tests/test_halfplane.py::TestThermalKernel::test_nan_argument_is_a_domain_error[nan-x]",)),
    Mutant("kernel-argument-accepts-inf (entry 32)", "halfplane.py",
           "if not np.all((x >= 0) & (x < math.inf) & (y >= 0) & (y < math.inf)):",
           "if not np.all((x >= 0) & (y >= 0)):",
           ("tests/test_halfplane.py::TestThermalKernel::test_infinite_argument_is_a_domain_error[inf-y]",)),
    Mutant("laguerre-dx-rule-rate-guard (entry 37)", "numerics.py",
           'raise DomainError(f"rate must lie in (0, inf), got {rate}")', "pass",
           ("tests/test_plane.py::TestCompressedDensity::test_rules_reject_rate_outside_0_inf[-0.5]",)),
    Mutant("laguerre-dx-rule-zero-weight-warns (entry 32)", "numerics.py",
           'with np.errstate(divide="ignore"):', "with np.errstate():",
           ("tests/test_plane.py::TestCompressedDensity::test_rule_keeps_underflowed_weights_at_zero",)),
    Mutant("covariance-unitary-shape-guard (entry 31)", "core.py",
           'raise ValueError(f"covariance needs the full unitary, got U(g0) of shape {u0.shape}")',
           "pass",
           ("tests/test_core.py::TestGroupOrbit::test_covariance_needs_the_full_unitary",)),
    Mutant("laguerre-alpha-guard", "numerics.py",
           'raise DomainError(f"alpha must be > -1 or a negative integer, got {alpha}")', "pass",
           ("tests/test_numerics.py::TestLaguerre::test_rejects_bad_degree_and_alpha",)),
    Mutant("laguerre-range-guard", "numerics.py",
           "if n_max > LAGUERRE_MAX_N or not np.all(np.abs(x) <= LAGUERRE_MAX_X):",
           "if n_max > LAGUERRE_MAX_N:",
           ("tests/test_numerics.py::TestLaguerre::test_validated_range_guard",)),
    Mutant("bessel-argument-guard", "numerics.py",
           'raise DomainError(f"argument must be nonnegative and finite, got [{np.min(x)}, {np.max(x)}]")',
           "pass",
           ("tests/test_numerics.py::TestBessel::test_domain_errors",)),
    Mutant("bessel-order-guard", "numerics.py",
           'raise DomainError(f"order must lie in [0, {BESSEL_MAX_NU:g}], got {nu}")', "pass",
           ("tests/test_numerics.py::TestBessel::test_domain_errors",)),
    Mutant("hyp2f1-degree-guard", "numerics.py",
           'raise DomainError(f"m must be a nonnegative integer, got {m}")', "pass",
           ("tests/test_numerics.py::TestHyp2f1::test_rejects_negative_m",)),
    Mutant("rule-weights-finite-guard", "numerics.py",
           'raise DomainError("quadrature weights must be finite")', "pass",
           ("tests/test_numerics.py::TestRules::test_rule_weights_must_be_finite[nan]",)),
    Mutant("legendre-interval-guard", "numerics.py",
           'raise DomainError(f"interval needs finite bounds a < b, got [{a}, {b}]")', "pass",
           ("tests/test_numerics.py::TestRules::test_legendre_bad_inputs[inf-b]",)),
    Mutant("laguerre-rule-alpha-guard", "numerics.py",
           'raise DomainError(f"Gauss-Laguerre rule needs alpha > -1, got {alpha}")', "pass",
           ("tests/test_numerics.py::TestRules::test_bad_inputs",)),
    Mutant("product-rule-1d-guard", "numerics.py",
           'raise DomainError("product_rule composes 1-D rules only")', "pass",
           ("tests/test_numerics.py::TestRules::test_product_rule_rejects_2d_factor",)),
    Mutant("plane-t-guard", "plane.py",
           'raise DomainError(f"t must lie in [0, 1), got {self.t}")', "pass",
           ("tests/test_plane.py::TestParamsAndStates::test_rejects_bad_t_and_dim",)),
    Mutant("plane-dim-accepts-bool (entry 30)", "plane.py",
           "if isinstance(self.dim, bool) or not isinstance", "if not isinstance",
           ("tests/test_plane.py::TestParamsAndStates::test_rejects_non_integral_dim[True]",)),
    Mutant("plane-dim-bound (entry 22)", "plane.py",
           'raise DomainError(f"dim must be >= 1 and <= 256, got {self.dim}")', "pass",
           ("tests/test_plane.py::TestParamsAndStates::test_dim_bound_holds_before_any_rule_is_built",)),
    Mutant("radial-density-range-guard (entry 19)", "plane.py",
           'raise DomainError(f"J in [{np.min(j)}, {np.max(j)}] is outside the"\n'
           '                          " validated range 0 <= (1-t) J <= 700")', "pass",
           ("tests/test_plane.py::TestCompressedDensity::test_outside_validated_range_raises",)),
    Mutant("displacement-dim-accepts-integral-float (entry 37)", "plane.py",
           'raise DomainError(f"dim must be an integer, got {dim!r}")', "pass",
           ("tests/test_plane.py::TestDisplacementOracles::test_validated_range_raises",)),
    Mutant("displacement-range-guard (entry 28)", "plane.py",
           'raise DomainError(f"dim = {dim}, |z|^2 in [{np.min(x)}, {np.max(x)}] is outside"\n'
           '                          " the validated range dim <= 256, 0 <= |z|^2 <= 600")', "pass",
           ("tests/test_plane.py::TestDisplacementOracles::test_validated_range_raises",)),
    Mutant("halfplane-alpha-guard", "halfplane.py",
           'raise DomainError(f"resolution requires 0 < alpha < inf, got {self.alpha}")', "pass",
           ("tests/test_halfplane.py::TestBasis::test_alpha_must_be_positive_and_finite[-1.0]",)),
    Mutant("halfplane-dim-accepts-bool (entry 30)", "halfplane.py",
           "if isinstance(self.dim, bool) or not isinstance", "if not isinstance",
           ("tests/test_halfplane.py::TestBasis::test_dim_must_be_an_integer[True]",)),
    Mutant("orbit-rows-guard (entry 37)", "halfplane.py",
           'raise DomainError(f"rows must be an integer >= 1, got {rows!r}")', "pass",
           ("tests/test_halfplane.py::TestOrbitEngine::test_rows_must_be_an_integer_from_1[0]",)),
    Mutant("basis-domain-guard", "halfplane.py",
           'raise DomainError("basis functions live on x >= 0")', "pass",
           ("tests/test_halfplane.py::TestBasis::test_basis_domain",)),
    Mutant("kernel-argument-guard", "halfplane.py",
           'raise DomainError("kernel arguments must be nonnegative and finite")', "pass",
           ("tests/test_halfplane.py::TestThermalKernel::test_kernel_guards",)),
    Mutant("eigen-ratio-root-guard (entry 34)", "halfplane.py",
           'raise DomainError(f"e_{m} vanishes at x = {x}: no eigenvalue ratio there")', "pass",
           ("tests/test_halfplane.py::TestThermalKernel::test_eigen_ratio_at_a_root_is_a_domain_error[e1-at-3]",)),
    Mutant("fold-pairing-guard (entry 18)", "halfplane.py",
           'raise DomainError("the group rule must pair (q, p) with (q, -p) at equal weights")', "pass",
           ("tests/test_halfplane.py::TestMirrorFold::test_unpaired_rule_raises",)),
    Mutant("unit-radius-guard", "numerics.py",
           'raise DomainError(f"r must lie in [0, 1], got {r}")', "pass",
           ("tests/test_circle.py::TestParams::test_rejects_any_bad_entry_of_r[r1]",)),
    Mutant("circle-family-r-guard (entry 26)", "circle.py",
           "r, rule = float(unit_radius(r)), circle_rule(n)", "r, rule = float(r), circle_rule(n)",
           ("tests/test_core.py::TestClosedFormSums::test_r_is_checked_when_the_family_is_built[1.5-circle]",)),
    Mutant("sphere-family-r-guard (entry 26)", "sphere.py",
           "r, rule = float(unit_radius(r)), sphere_rule(n_theta, n_phi)",
           "r, rule = float(r), sphere_rule(n_theta, n_phi)",
           ("tests/test_core.py::TestClosedFormSums::test_r_is_checked_when_the_family_is_built[1.5-sphere]",)),
    Mutant("gauss-rule-matrix-budget", "numerics.py",
           'raise DomainError(f"{n} x {n} Jacobi matrix exceeds the budget of {MAX_RULE_NODES}")',
           "pass",
           ("tests/test_numerics.py::TestRules::test_gauss_rule_budget_admits_the_matrix_that_fills_it",)),
    Mutant("sphere-node-budget", "sphere.py",
           'raise DomainError(f"{n_theta} x {n_phi} nodes exceed the budget of {MAX_RULE_NODES}")', "pass",
           ("tests/test_cli.py::TestVerify::test_node_budget_admits_the_rule_that_fills_it",)),
]


def preload() -> None:
    """Pin BLAS to one thread before numpy loads (a child forked from a process with BLAS
    threads can hang), then import PRELOAD into this process."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ["PYTEST_DISABLE_PLUGIN_AUTOLOAD"] = "1"
    for name in PRELOAD:
        importlib.import_module(name)
    gc.freeze()  # the children's collections skip what is loaded by now


def _child(src: Path, argv: list[str], log: int, write: bool) -> None:
    """Run pytest on argv in this forked child, with its output to ``log`` and its bytecode
    under ``src``'s sibling ``pycache`` (written only if ``write``); never returns."""
    code = 3
    try:
        signal.alarm(TIMEOUT_S)
        os.dup2(log, 1)
        os.dup2(log, 2)
        os.chdir(ROOT)
        os.environ.update(PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        sys.pycache_prefix, sys.dont_write_bytecode = str(src.parent / "pycache"), not write
        sys.path.insert(0, str(src))
        import pytest
        code = int(pytest.main(argv))
    except BaseException:
        traceback.print_exc()
    finally:
        sys.stdout.flush()
        sys.stderr.flush()
        os._exit(code)


def run_tests(src: Path, tests, stop_first: bool, write: bool = False) -> tuple[int, str]:
    """pytest's exit code and output for ``tests``, run in one child forked from this
    process with ``src`` first on ``sys.path``."""
    argv = ["-q", "--tb=no", "-p", "no:cacheprovider", *(["-x"] if stop_first else []), *tests]
    sys.stdout.flush()
    sys.stderr.flush()
    with tempfile.TemporaryFile("w+") as log:
        pid = os.fork()
        if pid == 0:
            _child(src, argv, log.fileno(), write)
        status = os.waitpid(pid, 0)[1]
        log.seek(0)
        out = log.read()
    if os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGALRM:
        return -1, f"timed out after {TIMEOUT_S} s"
    return os.waitstatus_to_exitcode(status), out


def stale_snippets() -> list[str]:
    """One line per mutant whose snippet does not occur exactly once in its file."""
    counts = {m.name: (SRC / "povmint" / m.file).read_text().count(m.snippet) for m in MUTANTS}
    return [f"{name}: snippet found {n} times, not once" for name, n in counts.items() if n != 1]


def unresolved_tests(ids) -> list[str]:
    """One line per pytest node id whose file is missing or does not define each of its
    ``Class::test`` names (parametrize ids aside): read by ``ast``, nothing imported."""
    bad = []
    for test_id in ids:
        path, *names = test_id.split("[")[0].split("::")
        body = ast.parse((ROOT / path).read_text()).body if (ROOT / path).is_file() else None
        for name in names:
            defs = {node.name: node.body for node in body or ()
                    if isinstance(node, (ast.ClassDef, ast.FunctionDef))}
            body = defs.get(name)
        if body is None:
            bad.append(f"{test_id}: not defined")
    return bad


def main() -> int:
    start = time.perf_counter()
    bad = stale_snippets() + unresolved_tests(sorted({t for m in MUTANTS for t in m.tests}))
    if bad:
        print("mutant table is stale:\n  " + "\n  ".join(bad))
        return 2
    preload()
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "src"
        shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__"))
        code, out = run_tests(copy, sorted({t for m in MUTANTS for t in m.tests}), False, True)
        # the test modules' bytecode stays for the children; the copy's goes
        shutil.rmtree(Path(tmp) / "pycache" / str(copy).lstrip(os.sep), ignore_errors=True)
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
