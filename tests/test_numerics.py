"""Special functions and quadrature rules against independent oracles."""

import math
import os
import subprocess
import sys

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import eval_genlaguerre, iv, roots_genlaguerre

from povmint import numerics
from povmint.numerics import (DomainError, PoleError, QuadratureRule, bessel_i,
                              bessel_i_scaled, hyp2f1_terminating, laguerre,
                              laguerre_rule, laguerre_table, legendre_rule,
                              periodic_rule, product_rule)

import oracles


class TestLaguerre:
    def test_matches_scipy(self):
        x = np.linspace(0.0, 80.0, 23)
        for n in (0, 1, 2, 7, 30, 120):
            for alpha in (0.0, 0.5, 2.0, 3.7):
                assert_allclose(laguerre(n, alpha, x),
                                eval_genlaguerre(n, alpha, x),
                                rtol=1e-10, atol=1e-10)

    def test_matches_mpmath_high_degree(self):
        # scipy itself recurses, so cross-check a few points independently
        for n, alpha, x in [(200, 0.0, 55.0), (150, 0.5, 300.0), (64, 2.0, 1.0)]:
            want = float(mpmath.laguerre(n, alpha, x))
            assert abs(laguerre(n, alpha, x) - want) <= 1e-8 * (1 + abs(want))

    def test_scalar_in_scalar_out(self):
        val = laguerre(3, 1.0, 2.0)
        assert isinstance(val, float)

    def test_negative_integer_alpha_reflection(self):
        # L_n^{(m-n)}(t) = (m!/n!) (-t)^(n-m) L_m^{(n-m)}(t) for m >= n
        m, n, t = 7, 4, 1.7
        lhs = laguerre(n, m - n, t)
        rhs = (math.factorial(m) / math.factorial(n)
               * (-t) ** (n - m) * laguerre(m, n - m, t))
        assert_allclose(lhs, rhs, rtol=1e-12)

    def test_rejects_bad_degree_and_alpha(self):
        with pytest.raises(DomainError):
            laguerre(-1, 0.0, 1.0)
        with pytest.raises(DomainError):
            laguerre(2, -1.5, 1.0)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
    def test_nonfinite_alpha_is_a_domain_error(self, alpha):
        for call in (lambda: laguerre(3, alpha, 1.0), lambda: laguerre_table(3, alpha, 1.0)):
            with pytest.raises(DomainError, match="alpha must be > -1 or a negative integer"):
                call()

    def test_validated_range_guard(self):
        with pytest.raises(DomainError):
            laguerre(300, 0.0, 1.0)
        with pytest.raises(DomainError):
            laguerre(3, 0.0, 1e4)
        with pytest.raises(DomainError):
            laguerre(3, 0.5, math.nan)
        with pytest.raises(DomainError):
            laguerre_table(3, 0.5, np.array([1.0, math.nan]))

    def test_range_guard_survives_optimized_mode(self):
        # python -O strips assert statements; the guard must not rely on them
        code = ("from povmint.numerics import DomainError, laguerre\n"
                "try:\n"
                "    laguerre(300, 0, 1.0)\n"
                "except DomainError:\n"
                "    print('DomainError')\n")
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "DomainError"

    def test_table_matches_scalar_recurrence(self):
        x = np.array([0.0, 0.7, 12.5, 235.0])
        table = laguerre_table(20, np.arange(8)[:, None], x)
        for n in range(21):
            for k in range(8):
                assert np.array_equal(table[n, k], laguerre(n, k, x))


    @pytest.mark.parametrize("n_max", [0, 1, 2, 200])
    def test_table_matches_literal_recurrence(self, n_max):
        # the step coefficients formed once as arrays give the same bits
        x = np.random.default_rng(3).uniform(0.0, 60.0, 7)
        for alpha, arg in [(0.0, 1.2345), (0.37, 1.2345), (0.37, x),
                           (np.arange(12), x.reshape(-1, 1))]:  # displacement's broadcast
            got = laguerre_table(n_max, alpha, arg)
            assert np.array_equal(got, oracles.laguerre_table_recurrence(n_max, alpha, arg))


class TestBessel:
    def test_matches_scipy(self):
        for nu in (0.0, 1.0, 2.5):
            for x in (0.0, 0.3, 10.0, 300.0):
                assert_allclose(bessel_i(nu, x), iv(nu, x), rtol=1e-12)

    def test_overflow_raises(self):
        with pytest.raises(OverflowError):
            bessel_i(0.0, 800.0)

    def test_scaled_form_covers_overflow(self):
        mant, expo = bessel_i_scaled(1.0, 900.0)
        want = mpmath.besseli(1, 900)
        got = mpmath.mpf(mant) * mpmath.exp(expo)
        assert abs(got / want - 1) < 1e-10

    def test_scaled_form_over_arrays(self):
        x = np.array([[0.0, 2.0], [300.0, 900.0]])
        mant, expo = bessel_i_scaled(2.5, x)
        assert mant.shape == expo.shape == x.shape
        for m, e, xi in zip(mant.ravel(), expo.ravel(), x.ravel()):
            assert (m, e) == bessel_i_scaled(2.5, float(xi))
        assert isinstance(bessel_i_scaled(2.5, 2.0)[0], float)
        with pytest.raises(DomainError):
            bessel_i_scaled(2.5, np.array([1.0, -1.0]))

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            bessel_i(0.0, -1.0)
        with pytest.raises(DomainError):
            bessel_i(-1.0, 1.0)
        with pytest.raises(DomainError):
            bessel_i_scaled(60.5, 1.0)

    def test_nan_argument_is_a_domain_error(self):
        for call in (lambda: bessel_i(0.0, math.nan),
                     lambda: bessel_i_scaled(2.0, np.array([1.0, math.nan]))):
            with pytest.raises(DomainError, match="argument must be nonnegative"):
                call()

    def test_infinite_argument_is_a_domain_error(self):
        # I_nu(inf) has no mantissa and exponent: (0, inf) would be 0 e^inf
        for call in (lambda: bessel_i(0.0, math.inf),
                     lambda: bessel_i_scaled(0.0, math.inf),
                     lambda: bessel_i_scaled(2.0, np.array([1.0, math.inf]))):
            with pytest.raises(DomainError, match="argument must be nonnegative and finite"):
                call()

    @pytest.mark.parametrize("nu", [0.0, 0.1, 0.5, 2.0, 3.7, 10.0, 20.0, 40.0, 60.0])
    def test_matches_mpmath(self, nu):
        # both sides of the series/Hankel threshold, x in [0, 700] for
        # bessel_i, up to 1e5 for the scaled form; for nu = 40 the band
        # (700, 1920), where a series started at exp(nu log(x/2) - x)
        # underflows; nu = 60 is the largest order accepted
        x_h = numerics._bessel_plan(nu)[1]
        x = np.concatenate([np.linspace(0.0, 700.0, 36), np.geomspace(1e-3, 1e5, 25),
                            [np.nextafter(x_h, 0.0), x_h, 20.5, 179.0],
                            np.linspace(700.5, 1919.5, 13) if nu == 40.0 else []])
        with mpmath.workdps(30):
            for xi, mant in zip(x, bessel_i_scaled(nu, x)[0]):
                want = mpmath.besseli(nu, xi)
                if want < 1e-290:  # true underflow
                    continue
                assert abs(mant / (want * mpmath.exp(-xi)) - 1) < 1e-13, xi
                if xi <= 700.0:
                    assert abs(bessel_i(nu, xi) / want - 1) < 1e-13, xi


class TestHyp2f1:
    def test_matches_mpmath(self):
        for m, b, c, x in [(3, 1.5, 2.0, 0.3), (7, -2.5, 4.0, -1.2),
                           (12, 0.7, -20.5, 0.9)]:
            want = float(mpmath.hyp2f1(-m, b, c, x))
            assert_allclose(hyp2f1_terminating(m, b, c, x), want, rtol=1e-12)

    def test_complex_argument(self):
        z = 0.4 - 1.1j
        want = complex(mpmath.hyp2f1(-5, -8, 3.5, z))
        got = hyp2f1_terminating(5, -8.0, 3.5, z)
        assert abs(got - want) < 1e-12 * abs(want)

    def test_pole_detection(self):
        # (c)_k hits zero at k=2 < m
        with pytest.raises(PoleError):
            hyp2f1_terminating(5, 1.0, -2.0, 0.5)

    def test_terminates_before_pole(self):
        # numerator dies at k=1, denominator pole would be at k=2
        val = hyp2f1_terminating(1, 1.0, -2.0, 0.5)
        assert_allclose(val, 1.0 - 0.5 / (-2.0), rtol=1e-14)

    def test_rejects_negative_m(self):
        with pytest.raises(DomainError):
            hyp2f1_terminating(-3, 1.0, 1.0, 0.5)

    @pytest.mark.parametrize("x", [[0.7, -1.3], [0.4 - 1.1j, 2.5j]])
    def test_terms_over_an_array_of_degrees(self, x):
        # one series per degree, zero-padded past it, equal bit for bit to the
        # calls of one degree each (x is an array in both, so both divide alike)
        rng = np.random.default_rng(5)
        m, x = np.arange(13), np.array(x)
        b, c = rng.uniform(-3.0, 3.0, 13), rng.uniform(0.5, 4.0, 13)
        got = np.broadcast_arrays(*numerics._f21_terms(m[:, None], b[:, None],
                                                       c[:, None], x))
        for k in m:
            want = numerics._f21_terms(k, b[k], c[k], x) + [np.zeros(len(x))] * (12 - k)
            assert np.array_equal(np.array(got)[:, k], np.array(want))

    @pytest.mark.parametrize("x", [0.3, 0.4 - 1.1j, np.array(0.7),
                                   np.array([0.7, -1.3]), np.array([0.4 - 1.1j, 2.5j]),
                                   np.array([2, -3]), np.array([0.5], dtype=np.float32)],
                             ids=["float", "complex", "0-d", "float-array",
                                  "complex-array", "int-array", "float32-array"])
    def test_first_term_is_unit_power(self, x):
        # arrays start from ones rather than x ** 0; both give the same first term
        first, want = numerics._f21_terms(3, 1.5, 2.0, x)[0], 1.0 * x ** 0
        assert type(first) is type(want)
        assert np.asarray(first).dtype == np.asarray(want).dtype
        assert np.array_equal(first, want)

    @pytest.mark.parametrize("x, kind", [(0.3, float), (np.array(0.3), float),
                                         (0.4 - 1.1j, complex)])
    def test_scalar_argument_gives_python_scalar(self, x, kind):
        assert type(hyp2f1_terminating(3, 1.5, 2.0, x)) is kind

    def test_pole_gives_nan_terms(self):
        # b = -1 zeroes the terms from k = 2 on, and (c)_2 = 0: 0 / 0 at k = 2
        with pytest.raises(PoleError):
            hyp2f1_terminating(5, -1.0, -2.0, 0.5)
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = numerics._f21_terms(np.array([5]), -1.0, -2.0, 0.5)
        assert np.isnan(sum(terms)).all()


class TestDegreeGuards:
    """A NaN or infinite degree is a DomainError, not int()'s ValueError or
    OverflowError."""

    @pytest.mark.parametrize("degree", [math.nan, math.inf])
    @pytest.mark.parametrize("call", [
        lambda m: laguerre_table(m, 0.0, 1.0), lambda m: laguerre(m, 0.0, 1.0),
        lambda m: numerics._f21_terms(m, 1.0, 2.0, 0.5),
        lambda m: hyp2f1_terminating(m, 1.0, 2.0, 0.5)],
        ids=["laguerre_table", "laguerre", "_f21_terms", "hyp2f1_terminating"])
    def test_nonfinite_degree_is_a_domain_error(self, call, degree):
        with pytest.raises(DomainError, match="must be a nonnegative integer"):
            call(degree)

    def test_integral_float_degree_is_the_integer_degree(self):
        assert np.array_equal(laguerre_table(3.0, 0.5, 1.0), laguerre_table(3, 0.5, 1.0))
        assert laguerre(3.0, 0.5, 1.0) == laguerre(3, 0.5, 1.0)


class TestRules:
    def test_trapezoid_exact_for_trig(self):
        rule = periodic_rule(8, 1.0)
        vals = np.cos(3.0 * rule.nodes)
        assert abs(rule.integrate(vals)) < 1e-14
        assert_allclose(rule.integrate(np.ones(8)), 2.0 * math.pi, rtol=1e-14)

    def test_trapezoid_offset_shifts_nodes(self):
        rule = periodic_rule(4, 1.0, offset=0.5)
        assert_allclose(rule.nodes[0], 0.5 * (2.0 * math.pi / 4))

    def test_legendre_exact_for_polynomials(self):
        rule = legendre_rule(6, 0.0, 2.0)
        # degree 11 is the exactness limit of a 6-point rule
        vals = rule.nodes ** 11
        assert_allclose(rule.integrate(vals), 2.0 ** 12 / 12.0, rtol=1e-13)

    def test_laguerre_moments(self):
        rule = laguerre_rule(10, 0.5)
        for k in range(5):
            want = math.gamma(k + 1.5)
            assert_allclose(rule.integrate(rule.nodes ** k), want, rtol=1e-12)

    def test_scale_factor(self):
        rule = periodic_rule(16, 1.0 / math.pi)
        assert_allclose(rule.integrate(np.ones(16)), 2.0, rtol=1e-14)

    def test_gauss_rule_budget_admits_the_matrix_that_fills_it(self, monkeypatch):
        # Golub-Welsch builds a dense n x n Jacobi matrix: n = 512 at the real budget
        monkeypatch.setattr(numerics, "MAX_RULE_NODES", 12 * 12)
        assert legendre_rule(12, -1.0, 1.0).size == laguerre_rule(12).size == 12
        for build in (lambda n: legendre_rule(n, -1.0, 1.0), laguerre_rule):
            with pytest.raises(DomainError, match="13 x 13 Jacobi matrix exceeds the budget"
                                                  " of 144"):
                build(13)

    def test_periodic_node_budget_admits_the_rule_that_fills_it(self, monkeypatch):
        monkeypatch.setattr(numerics, "MAX_RULE_NODES", 12)
        assert periodic_rule(12, 1.0).size == 12
        with pytest.raises(DomainError, match="13 nodes exceed the budget of 12"):
            periodic_rule(13, 1.0)

    @pytest.mark.parametrize("build", [
        lambda n: periodic_rule(n, 1.0),
        lambda n: legendre_rule(n, -1.0, 1.0),
        laguerre_rule,
    ], ids=["periodic", "legendre", "laguerre"])
    def test_empty_rule_raises(self, build):
        with pytest.raises(DomainError):
            build(0)

    @pytest.mark.parametrize("build", [
        lambda n: periodic_rule(n, 1.0),
        lambda n: legendre_rule(n, -1.0, 1.0),
        laguerre_rule,
    ], ids=["periodic", "legendre", "laguerre"])
    @pytest.mark.parametrize("n", [0, 2.5, math.nan, 8.0], ids=["zero", "2.5", "nan", "8.0"])
    def test_node_count_must_be_an_integer(self, build, n):
        # every 1-D builder raises one DomainError for a count that is not a
        # positive integer (0 included), and builds an integral float's rule
        # bit for bit
        if n == 8.0:
            rule, ref = build(n), build(8)
            assert np.array_equal(rule.nodes, ref.nodes)
            assert np.array_equal(rule.weights, ref.weights)
            return
        with pytest.raises(DomainError,
                           match=rf"^node count must be an integer >= 1, got {n}$"):
            build(n)

    def test_bad_inputs(self):
        for alpha in (-1.0, -2.0):
            with pytest.raises(DomainError):
                laguerre_rule(4, alpha)
        for n in (10.5, math.nan):
            with pytest.raises(DomainError):
                laguerre_rule(n)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf])
    def test_laguerre_rule_nonfinite_alpha(self, alpha):
        with pytest.raises(DomainError, match="Gauss-Laguerre rule needs alpha > -1"):
            laguerre_rule(4, alpha)

    def test_legendre_integral_float_node_count(self):
        rule, ref = legendre_rule(10.0, 0.0, 1.0), legendre_rule(10, 0.0, 1.0)
        assert np.array_equal(rule.nodes, ref.nodes)
        assert np.array_equal(rule.weights, ref.weights)

    @pytest.mark.parametrize("n, a, b", [
        (10.5, 0.0, 1.0), (math.nan, 0.0, 1.0), (4, 0.0, math.inf),
        (4, -math.inf, 0.0), (4, math.nan, 1.0), (4, 1.0, 0.0), (4, 1.0, 1.0),
    ], ids=["fractional-n", "nan-n", "inf-b", "inf-a", "nan-a", "reversed", "empty"])
    def test_legendre_bad_inputs(self, n, a, b):
        with pytest.raises(DomainError):
            legendre_rule(n, a, b)

    def test_product_rule_tensor_integral(self):
        ra = legendre_rule(5, 0.0, 1.0)
        rb = periodic_rule(6, 1.0)
        rule = product_rule(ra, rb)
        assert rule.nodes.shape == (30, 2)
        vals = rule.nodes[:, 0] ** 2 * np.cos(rule.nodes[:, 1]) ** 2
        assert_allclose(rule.integrate(vals), (1.0 / 3.0) * math.pi, rtol=1e-13)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rule_weights_must_be_finite(self, bad):
        with pytest.raises(DomainError, match="quadrature weights must be finite"):
            QuadratureRule(np.zeros(2), np.array([1.0, bad]))

    def test_product_rule_rejects_2d_factor(self):
        ra = legendre_rule(3, -1.0, 1.0)
        rule = product_rule(ra, ra)
        with pytest.raises(DomainError):
            product_rule(rule, ra)

    def test_integrate_broadcasts_over_matrices(self):
        rule = periodic_rule(8, 1.0)
        mats = np.stack([np.eye(2) * math.cos(t) ** 2 for t in rule.nodes])
        assert_allclose(rule.integrate(mats), math.pi * np.eye(2), rtol=1e-13)


def mpmath_laguerre_weights(n, alpha, nodes):
    """Gauss-Laguerre weights Gamma(n+a+1) x / (n! (n+1)^2 L_{n+1}(x)^2) at
    the nodes refined by Newton steps in 50-digit arithmetic."""
    with mpmath.workdps(50):
        a, out = mpmath.mpf(alpha), []
        for x0 in nodes:
            x = mpmath.mpf(x0)
            for _ in range(6):  # L_n' = -L_{n-1}^(a+1)
                x += mpmath.laguerre(n, a, x) / mpmath.laguerre(n - 1, a + 1, x)
            out.append(float(mpmath.gamma(n + a + 1) * x / (
                mpmath.factorial(n) * (n + 1) ** 2 * mpmath.laguerre(n + 1, a, x) ** 2)))
    return np.array(out)


class TestLaguerreRule:
    @pytest.mark.parametrize("alpha", [-0.5, 0.0, 0.5, 1.0, 2.0, 3.5])
    def test_matches_scipy(self, alpha):
        # from n = 200 the weight's two factors overflow a double when
        # multiplied uncentred, and the overflow warning fails the test
        for n in (1, 2, 3, 16, 20, 56, 64, 100, 150, 200, 256):
            rule = laguerre_rule(n, alpha)
            x, w = roots_genlaguerre(n, alpha)
            assert_allclose(rule.nodes, x, rtol=1e-15, atol=0)
            # weights below the normal range (n >= 200) carry no relative digits
            assert_allclose(rule.weights, w, rtol=5e-12, atol=np.finfo(float).tiny)

    @pytest.mark.parametrize("n, alpha", [(64, 0.0), (56, 0.5), (20, 2.0)])
    def test_weights_match_mpmath(self, n, alpha):
        rule = laguerre_rule(n, alpha)
        assert_allclose(rule.weights, mpmath_laguerre_weights(n, alpha, rule.nodes),
                        rtol=1e-13, atol=0)

    def test_integral_float_node_count(self):
        # scipy's roots_genlaguerre took an integral float too
        rule, ref = laguerre_rule(10.0), laguerre_rule(10)
        assert_allclose(rule.nodes, ref.nodes, rtol=0, atol=0)
        assert_allclose(rule.weights, ref.weights, rtol=0, atol=0)


def mpmath_legendre_rule(n, nodes):
    """Gauss-Legendre nodes refined by Newton steps in 40-digit arithmetic from
    ``nodes``, and the weights 2 / ((1 - x^2) P_n'(x)^2) at the refined nodes."""
    with mpmath.workdps(40):
        xs, ws = [], []
        for x0 in nodes:
            x = mpmath.mpf(x0)
            for _ in range(4):
                p = mpmath.legendre(n, x)
                dp = n * (mpmath.legendre(n - 1, x) - x * p) / (1 - x * x)
                x -= p / dp
            dp = n * (mpmath.legendre(n - 1, x) - x * mpmath.legendre(n, x)) / (1 - x * x)
            xs.append(float(x))
            ws.append(float(2 / ((1 - x * x) * dp * dp)))
    return np.array(xs), np.array(ws)


class TestLegendreRule:
    # (n, node bound, relative weight bound); numpy's leggauss, which the rule
    # replaced, misses the weight bounds from n = 16 (7e-15 to 2.2e-11), and
    # weights without the move of 1 - x^2 to the root miss them at 48 to 200
    BOUNDS = [(1, 0.0, 0.0), (2, 1.2e-16, 5e-16), (16, 1.2e-16, 3e-15),
              (48, 1.2e-16, 3e-14), (64, 1.2e-16, 3e-14), (200, 1.2e-16, 2e-13)]

    @pytest.mark.parametrize("n, node_tol, weight_tol", BOUNDS, ids=[str(b[0]) for b in BOUNDS])
    def test_matches_mpmath(self, n, node_tol, weight_tol):
        rule = legendre_rule(n, -1.0, 1.0)
        # symmetric by construction, so the nonnegative half carries every error
        assert np.array_equal(rule.nodes, -rule.nodes[::-1])
        assert np.array_equal(rule.weights, rule.weights[::-1])
        half = slice(n // 2, None)
        x, w = mpmath_legendre_rule(n, rule.nodes[half])
        assert np.max(np.abs(rule.nodes[half] - x)) <= node_tol
        assert np.max(np.abs(rule.weights[half] / w - 1.0)) <= weight_tol
