"""Sphere geometry: quaternion calculus, SU(2) transport, closed forms."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from povmint import core, operators, sphere
from povmint.numerics import DomainError

import oracles

RNG = np.random.default_rng(777)


class TestQuaternions:
    def test_basis_multiplication_table(self):
        e1, e2, e3 = oracles.QUAT_E
        assert (e1 * e2).qv == pytest.approx(e3.qv)
        assert (e2 * e3).qv == pytest.approx(e1.qv)
        assert (e1 * e1).q0 == pytest.approx(-1.0)

    def test_norm_multiplicative(self):
        for _ in range(20):
            a = oracles.Quaternion(RNG.standard_normal(),
                                   tuple(RNG.standard_normal(3)))
            b = oracles.Quaternion(RNG.standard_normal(),
                                   tuple(RNG.standard_normal(3)))
            assert_allclose((a * b).norm(), a.norm() * b.norm(), rtol=1e-12)

    def test_inverse(self):
        a = oracles.Quaternion(0.3, (1.0, -2.0, 0.5))
        prod = a * a.inverse()
        assert_allclose(prod.q0, 1.0, rtol=1e-12)
        assert_allclose(prod.qv, (0.0, 0.0, 0.0), atol=1e-12)

    def test_zero_has_no_inverse(self):
        with pytest.raises(ZeroDivisionError):
            oracles.Quaternion(0.0, (0.0, 0.0, 0.0)).inverse()

    def test_matrix_map_is_homomorphism(self):
        for _ in range(20):
            a = oracles.Quaternion(RNG.standard_normal(),
                                   tuple(RNG.standard_normal(3)))
            b = oracles.Quaternion(RNG.standard_normal(),
                                   tuple(RNG.standard_normal(3)))
            assert_allclose((a * b).to_matrix(),
                            a.to_matrix() @ b.to_matrix(), atol=1e-12)

    def test_unit_quaternion_maps_to_su2(self):
        xi = oracles.xi_north(1.1, 0.4)
        m = xi.to_matrix()
        assert_allclose(m @ m.conj().T, np.eye(2), atol=1e-13)
        assert_allclose(np.linalg.det(m), 1.0, atol=1e-13)


class TestRotations:
    def test_xi_north_sends_pole_to_direction(self):
        theta, phi = 0.9, 2.2
        xi = oracles.xi_north(theta, phi)
        out = xi * oracles.Quaternion(0.0, (0.0, 0.0, 1.0)) * xi.conjugate()
        assert_allclose(out.qv, sphere.direction(theta, phi), atol=1e-12)


class TestDensity:
    def test_closed_form_matches_transport(self):
        for _ in range(25):
            r = RNG.uniform(0, 1)
            theta = RNG.uniform(0, math.pi)
            phi = RNG.uniform(0, 2 * math.pi)
            assert_allclose(sphere.rho_sphere(r, theta, phi),
                            oracles.rho_sphere_transport(r, theta, phi),
                            atol=1e-13)

    def test_is_density(self):
        assert operators.is_density(sphere.rho_sphere(0.7, 1.2, 0.4)).ok

    def test_pure_case_is_spin_projector(self):
        theta, phi = 1.1, 2.5
        ket = oracles.spin_state(theta, phi)
        assert_allclose(sphere.rho_sphere(1.0, theta, phi),
                        np.outer(ket, ket.conj()), atol=1e-13)

    def test_rejects_bad_r(self):
        with pytest.raises(ValueError):
            sphere.rho_sphere(1.2, 0.1, 0.1)

    @pytest.mark.parametrize("r", [[0.5, 1.2], [0.5, -0.1], [0.5, math.nan], math.nan])
    def test_rejects_any_bad_entry_of_r(self, r):
        with pytest.raises(DomainError, match=r"r must lie in \[0, 1\]"):
            sphere.rho_sphere(np.array(r), 0.1, 0.1)

    def test_array_r_broadcasts_with_the_angles(self):
        r, theta, phi = np.array([0.0, 0.4, 1.0]), np.array([0.3, 1.2, 2.9]), 0.7
        want = [sphere.rho_sphere(rk, tk, phi) for rk, tk in zip(r, theta)]
        assert np.array_equal(sphere.rho_sphere(r, theta, phi), want)


class TestQuantization:
    def test_resolution(self):
        for r in (0.0, 0.5, 1.0):
            fam = sphere.sphere_family(r)
            assert core.check_resolution(fam).defect < 1e-13

    def test_quantized_azimuth_closed_form(self):
        for r in (0.2, 0.6, 1.0):
            assert_allclose(sphere.quantize_azimuth(r), sphere.aq_matrix(r),
                            atol=1e-12)

    def test_quantized_polar_momentum(self):
        r = 0.8
        fam = sphere.sphere_family(r)
        ap = core.quantize(fam, lambda nd: nd[0])  # p = cos(theta) = u
        assert_allclose(ap, sphere.ap_matrix(r), atol=1e-12)

    def test_commutator_closed_form(self):
        r = 0.8
        comm = (sphere.aq_matrix(r) @ sphere.ap_matrix(r)
                - sphere.ap_matrix(r) @ sphere.aq_matrix(r))
        want = 1.0j * math.pi * r * r / 6.0 * sphere.SIGMA[0]
        assert_allclose(comm, want, atol=1e-13)

    def test_lower_symbol_azimuth(self):
        r, theta, phi = 0.7, 1.0, 0.8
        fam = sphere.sphere_family(r)
        low = core.lower_symbol(fam, sphere.aq_matrix(r),
                                (math.cos(theta), phi)).real
        want = math.pi - (math.pi * r * r / 4.0) * math.sin(theta) * math.sin(phi)
        assert_allclose(low, want, atol=1e-12)

    def test_lower_symbol_momentum(self):
        r, theta, phi = 0.7, 1.0, 0.8
        fam = sphere.sphere_family(r)
        low = core.lower_symbol(fam, sphere.ap_matrix(r),
                                (math.cos(theta), phi)).real
        assert_allclose(low, (r * r / 3.0) * math.cos(theta), atol=1e-12)

    @pytest.mark.xfail(strict=True, reason="published lower symbol of the "
                       "quantized momentum carries a spurious factor pi; see "
                       "the decisions ledger")
    def test_published_lower_symbol_momentum_variant(self):
        r, theta, phi = 0.7, 1.0, 0.8
        fam = sphere.sphere_family(r)
        low = core.lower_symbol(fam, sphere.ap_matrix(r),
                                (math.cos(theta), phi)).real
        printed = (math.pi * r * r / 3.0) * math.cos(theta)
        assert_allclose(low, printed, atol=1e-12)


class TestKernelsAndDistances:
    def test_prob_kernel_closed_form(self):
        r = 0.7
        for _ in range(20):
            t0, t1 = RNG.uniform(0, math.pi, size=2)
            p0, p1 = RNG.uniform(0, 2 * math.pi, size=2)
            got = float(np.trace(sphere.rho_sphere(r, t0, p0)
                                 @ sphere.rho_sphere(r, t1, p1)).real)
            want = sphere.sphere_prob(r, sphere.direction(t0, p0),
                                      sphere.direction(t1, p1))
            assert_allclose(got, want, atol=1e-13)

    def test_uniform_limit(self):
        d0 = sphere.direction(0.3, 0.1)
        d1 = sphere.direction(2.0, 3.0)
        assert_allclose(sphere.sphere_prob(0.0, d0, d1), 0.5, rtol=1e-14)

    def test_hs_distance_closed_form(self):
        r = 0.7
        for _ in range(20):
            t0, t1 = RNG.uniform(0, math.pi, size=2)
            p0, p1 = RNG.uniform(0, 2 * math.pi, size=2)
            got = operators.hs_distance(sphere.rho_sphere(r, t0, p0),
                                        sphere.rho_sphere(r, t1, p1))
            want = sphere.sphere_hs_distance(r, sphere.direction(t0, p0),
                                             sphere.direction(t1, p1))
            assert_allclose(got, want, atol=1e-13)

    def test_pseudo_distance_closed_form(self):
        r = 0.7
        for _ in range(20):
            t0, t1 = RNG.uniform(0, math.pi, size=2)
            p0, p1 = RNG.uniform(0, 2 * math.pi, size=2)
            got = operators.pseudo_distance(sphere.rho_sphere(r, t0, p0),
                                            sphere.rho_sphere(r, t1, p1))
            want = sphere.sphere_pseudo_distance(
                r, sphere.direction(t0, p0), sphere.direction(t1, p1))
            assert_allclose(got, want, atol=1e-12)

    def test_pseudo_distance_antipodal_pure_is_infinite(self):
        assert sphere.sphere_pseudo_distance(1.0, (0.0, 0.0, 1.0), (0.0, 0.0, -1.0)) == math.inf

    def test_small_separation_slope(self):
        # delta ~ r / sqrt(2 (1+r^2)) * separation as the points merge
        r, theta, eps = 0.8, 1.1, 1e-3
        d = sphere.sphere_pseudo_distance(r, sphere.direction(theta, 0.4),
                                          sphere.direction(theta + eps, 0.4))
        want = r / math.sqrt(2.0 * (1.0 + r * r))
        assert abs(d / eps / want - 1.0) < 1e-2

    @pytest.mark.xfail(strict=True, reason="published small-separation "
                       "constant r/sqrt(1+r^2) overshoots by sqrt(2); see "
                       "the decisions ledger")
    def test_published_small_separation_variant(self):
        r, theta, eps = 0.8, 1.1, 1e-3
        d = sphere.sphere_pseudo_distance(r, sphere.direction(theta, 0.4),
                                          sphere.direction(theta + eps, 0.4))
        printed = r / math.sqrt(1.0 + r * r)
        assert abs(d / eps / printed - 1.0) < 1e-2
