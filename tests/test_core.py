"""Geometry-independent engine: resolution, quantization, coherent states,
group orbits.  The circle family doubles as the workhorse fixture because its
integrands are trigonometric polynomials (trapezoid rules are exact)."""

import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from povmint import circle, core, operators
from povmint.numerics import QuadratureRule, make_rule


@pytest.fixture
def fam():
    return circle.circle_family(0.7, 0.3, n=16)


class TestDensityFamily:
    def test_node_matrices_shape(self, fam):
        mats = fam.node_matrices()
        assert mats.shape == (16, 2, 2)

    def test_validate_nodes(self, fam):
        assert fam.validate_nodes()

    def test_validate_nodes_catches_bad_family(self, fam):
        bad = core.DensityFamily(2, lambda th: np.diag([2.0, -1.0]), fam.rule)
        assert not bad.validate_nodes()


    def test_weighted_sum_replaces_the_node_loop(self, fam):
        # the engine hands the family weight * coefficient per node
        seen = []

        def weighted_sum(coeffs):
            seen.append(np.asarray(coeffs))
            return np.einsum("k,kij->ij", coeffs, fam.node_matrices())

        fast = dataclasses.replace(fam, weighted_sum=weighted_sum)
        f = lambda th: math.cos(th) + 2.0
        assert_allclose(core.quantize(fast, f), core.quantize(fam, f), atol=1e-14)
        want = fam.rule.weights * np.array([f(th) for th in fam.rule.nodes])
        assert_allclose(seen[0], want, rtol=0, atol=0)


class TestResolution:
    def test_exact_on_circle(self, fam):
        rep = core.check_resolution(fam)
        assert rep.ok
        assert rep.defect < 1e-14

    def test_reports_defect_of_scaled_family(self, fam):
        scaled = core.DensityFamily(2, lambda th: 1.1 * fam.evaluate(th),
                                    fam.rule)
        rep = core.check_resolution(scaled)
        assert not rep.ok
        assert_allclose(rep.defect, 0.1, rtol=1e-10)

    def test_block_restriction(self, fam):
        rep = core.check_resolution(fam, block=1)
        assert rep.operator.shape == (1, 1)


class TestPovmAndKernel:
    def test_region_complementarity(self, fam):
        left = core.povm_region(fam, lambda th: th < math.pi)
        right = core.povm_region(fam, lambda th: th >= math.pi)
        assert_allclose(left + right, np.eye(2), atol=1e-14)

    def test_region_positive(self, fam):
        left = core.povm_region(fam, lambda th: th < math.pi)
        assert np.linalg.eigvalsh(left).min() > -1e-12

    def test_prob_kernel_matches_closed_form(self, fam):
        got = core.prob_kernel(fam, 0.4, 1.9)
        assert_allclose(got, circle.circle_prob(0.7, 0.4, 1.9), rtol=1e-13)

    def test_kernel_rows_normalize(self, fam):
        for th0 in (0.0, 1.2, 4.4):
            vals = np.array([core.prob_kernel(fam, th0, th)
                             for th in fam.rule.nodes])
            assert_allclose(fam.rule.integrate(vals), 1.0, rtol=1e-13)


class TestQuantize:
    def test_quantize_constant_gives_identity(self, fam):
        assert_allclose(core.quantize(fam, lambda th: 1.0), np.eye(2),
                        atol=1e-14)

    def test_linearity(self, fam):
        f = lambda th: math.cos(2 * th)
        g = lambda th: math.sin(2 * th) + 0.25
        lhs = core.quantize(fam, lambda th: 2.0 * f(th) - 3.0 * g(th))
        rhs = 2.0 * core.quantize(fam, f) - 3.0 * core.quantize(fam, g)
        assert_allclose(lhs, rhs, atol=1e-13)

    def test_rejects_non_finite_symbol(self, fam):
        with pytest.raises(ValueError):
            core.quantize(fam, lambda th: math.nan)

    def test_lower_symbol_bounded_by_sup(self, fam):
        af = core.quantize(fam, lambda th: math.cos(2 * th))
        sup = max(abs(core.lower_symbol(fam, af, th).real)
                  for th in np.linspace(0, 2 * math.pi, 64))
        assert sup <= 1.0 + 1e-12

    def test_lower_symbol_dimension_check(self, fam):
        with pytest.raises(ValueError):
            core.lower_symbol(fam, np.eye(3), 0.1)

    def test_measurement_two_routes(self, fam):
        rho_m = np.array([[0.6, 0.1], [0.1, 0.4]], dtype=complex)
        f = lambda th: math.sin(2 * th)
        lhs = core.measurement_expectation(rho_m, fam, f)
        vals = np.array([f(th) * np.trace(rho_m @ fam.evaluate(th)).real
                         for th in fam.rule.nodes])
        assert_allclose(lhs.real, fam.rule.integrate(vals), atol=1e-13)


def fourier_basis(size, n_nodes=64):
    """Orthonormal exponentials e^{i n theta} / sqrt(2 pi) on the circle."""
    rule = make_rule("periodic-trapezoid", n_nodes)

    def phi(theta):
        return np.exp(1j * np.arange(size) * theta) / math.sqrt(2 * math.pi)

    return core.CsBasis(phi, size, rule)


class TestCoherentStates:
    def test_gram_defect(self):
        assert fourier_basis(5).gram_defect() < 1e-13

    def test_norm_function_constant(self):
        basis = fourier_basis(5)
        assert_allclose(core.cs_norm(basis, 0.3), 5 / (2 * math.pi), rtol=1e-13)

    def test_state_normalized(self):
        vec, norm = core.cs_state(fourier_basis(4), 1.1)
        assert_allclose(np.linalg.norm(vec), 1.0, rtol=1e-13)
        assert norm > 0

    def test_reproducing_kernel_diagonal(self):
        basis = fourier_basis(4)
        assert_allclose(core.reproducing_kernel(basis, 0.7, 0.7), 1.0,
                        rtol=1e-13)

    def test_kernel_hermitian(self):
        basis = fourier_basis(4)
        k01 = core.reproducing_kernel(basis, 0.2, 1.5)
        k10 = core.reproducing_kernel(basis, 1.5, 0.2)
        assert_allclose(k01, np.conj(k10), rtol=1e-13)

    def test_cs_family_resolves_identity(self):
        cs_fam = core.cs_family(fourier_basis(4))
        rep = core.check_resolution(cs_fam)
        assert rep.defect < 1e-12


def torus_orbit_spec(r=0.6, n=32):
    """Circle family recast as a group orbit of the torus action."""
    rule = make_rule("periodic-trapezoid", n)
    fiducial = circle.rho_circle(r, 0.0)

    def unitary(theta):
        return circle.rotation2(theta).astype(complex)

    probe = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    return core.GroupOrbitSpec(unitary, fiducial, rule, probe,
                               translate=lambda g0, g: g - g0)


class TestGroupOrbit:
    def test_orbit_density_is_density(self):
        spec = torus_orbit_spec()
        assert operators.is_density(spec.orbit_density(1.3)).ok

    def test_admissibility_constant(self):
        # tr(probe rho(theta)) integrates to pi for any r on this orbit
        c = core.covariant_c_rho(torus_orbit_spec())
        assert_allclose(c, math.pi, rtol=1e-13)

    def test_orbit_family_resolves(self):
        spec = torus_orbit_spec()
        fam = core.orbit_family(spec)
        assert core.check_resolution(fam).defect < 1e-12

    def test_covariance_defect_small(self):
        spec = torus_orbit_spec()
        fam = core.orbit_family(spec)
        defect = core.covariance_check(spec, fam,
                                       lambda th: math.cos(2 * th), 0.9)
        assert defect < 1e-12

    def test_covariance_requires_translate(self):
        spec = torus_orbit_spec()
        spec.translate = None
        fam = core.orbit_family(spec)
        with pytest.raises(ValueError):
            core.covariance_check(spec, fam, lambda th: 1.0, 0.5)

    def test_rejects_nonpositive_admissibility(self):
        spec = torus_orbit_spec()
        spec.probe = np.zeros((2, 2), dtype=complex)
        with pytest.raises(ValueError):
            core.covariant_c_rho(spec)
