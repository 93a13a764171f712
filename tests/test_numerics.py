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

from povmint.numerics import (DomainError, PoleError, bessel_i,
                              bessel_i_scaled, hyp2f1_terminating, laguerre,
                              laguerre_rule, laguerre_table, legendre_rule,
                              periodic_rule, product_rule)


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

    def test_validated_range_guard(self):
        with pytest.raises(DomainError):
            laguerre(300, 0.0, 1.0)
        with pytest.raises(DomainError):
            laguerre(3, 0.0, 1e4)

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

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            bessel_i(0.0, -1.0)
        with pytest.raises(DomainError):
            bessel_i(-1.0, 1.0)


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

    @pytest.mark.parametrize("build", [
        lambda n: periodic_rule(n, 1.0),
        lambda n: legendre_rule(n, -1.0, 1.0),
        laguerre_rule,
    ], ids=["periodic", "legendre", "laguerre"])
    def test_empty_rule_raises(self, build):
        with pytest.raises(DomainError):
            build(0)

    def test_bad_inputs(self):
        for alpha in (-1.0, -2.0):
            with pytest.raises(DomainError):
                laguerre_rule(4, alpha)
        for n in (10.5, math.nan):
            with pytest.raises(DomainError):
                laguerre_rule(n)

    def test_product_rule_tensor_integral(self):
        ra = legendre_rule(5, 0.0, 1.0)
        rb = periodic_rule(6, 1.0)
        rule = product_rule(ra, rb)
        assert rule.nodes.shape == (30, 2)
        vals = rule.nodes[:, 0] ** 2 * np.cos(rule.nodes[:, 1]) ** 2
        assert_allclose(rule.integrate(vals), (1.0 / 3.0) * math.pi, rtol=1e-13)

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
