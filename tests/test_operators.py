"""Density-matrix checks, eigensolver guard, distances, mixtures, the max-norm
defect."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from povmint.operators import (MixtureSpec, eig_hermitian, hs_distance,
                               is_density, max_defect, mix, pseudo_distance,
                               purity)


def diag_density(*populations):
    return np.diag(np.array(populations, dtype=complex))


class TestIsDensity:
    def test_accepts_valid(self):
        chk = is_density(diag_density(0.25, 0.75))
        assert chk.ok
        assert chk.herm_defect == 0.0
        assert chk.trace_defect == 0.0

    def test_rejects_non_hermitian(self):
        m = np.array([[0.5, 0.3], [0.1, 0.5]])
        assert not is_density(m).ok

    def test_rejects_wrong_trace(self):
        assert not is_density(diag_density(0.6, 0.6)).ok

    def test_rejects_negative_eigenvalue(self):
        assert not is_density(diag_density(1.2, -0.2)).ok

    def test_positivity_slack(self):
        # tiny quadrature noise below the slack must pass
        m = diag_density(1.0 + 5e-13, -5e-13)
        assert is_density(m, tol=1e-11).ok

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            is_density(np.ones((2, 3)))


class TestEig:
    def test_eigenpairs_sorted(self):
        m = np.array([[1.0, 1.0j], [-1.0j, 1.0]])
        vals, vecs = eig_hermitian(m)
        assert_allclose(vals, [0.0, 2.0], atol=1e-12)
        assert_allclose(vecs.conj().T @ vecs, np.eye(2), atol=1e-12)
        for k in range(2):
            assert_allclose(m @ vecs[:, k], vals[k] * vecs[:, k], atol=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestDistances:
    def test_purity_range(self):
        assert_allclose(purity(diag_density(1.0, 0.0)), 1.0)
        assert_allclose(purity(diag_density(0.5, 0.5)), 0.5)

    def test_hs_distance_bound(self):
        # orthogonal pure states realize the sqrt(2) bound
        d = hs_distance(diag_density(1.0, 0.0), diag_density(0.0, 1.0))
        assert_allclose(d, math.sqrt(2.0), rtol=1e-14)

    def test_hs_distance_zero(self):
        rho = diag_density(0.3, 0.7)
        assert hs_distance(rho, rho) == 0.0

    def test_pseudo_distance_symmetry(self):
        r1 = diag_density(0.8, 0.2)
        r2 = np.array([[0.6, 0.2], [0.2, 0.4]], dtype=complex)
        assert_allclose(pseudo_distance(r1, r2), pseudo_distance(r2, r1),
                        rtol=1e-14)
        assert pseudo_distance(r1, r1) == 0.0

    def test_pseudo_distance_orthogonal_is_inf(self):
        d = pseudo_distance(diag_density(1.0, 0.0), diag_density(0.0, 1.0))
        assert d == math.inf

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            hs_distance(np.eye(2), np.eye(3))
        with pytest.raises(ValueError):
            pseudo_distance(np.eye(2) / 2, np.eye(3) / 3)


class TestMixture:
    def test_mix_projectors(self):
        spec = MixtureSpec(np.array([0.25, 0.75]),
                           np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex))
        assert_allclose(mix(spec), diag_density(0.25, 0.75), atol=1e-15)

    def test_mix_is_density(self):
        rng = np.random.default_rng(0)
        states = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        states /= np.linalg.norm(states, axis=1)[:, None]
        w = np.array([0.2, 0.3, 0.5])
        assert is_density(mix(MixtureSpec(w, states))).ok

    def test_validate_rejects_bad_weights(self):
        spec = MixtureSpec(np.array([0.7, 0.7]),
                           np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex))
        with pytest.raises(ValueError):
            spec.validate()

    def test_validate_rejects_non_unit_states(self):
        spec = MixtureSpec(np.array([0.5, 0.5]),
                           np.array([[2.0, 0.0], [0.0, 1.0]], dtype=complex))
        with pytest.raises(ValueError):
            spec.validate()


class TestMaxDefect:
    RNG = np.random.default_rng(7)
    CASES = {
        "real": (RNG.standard_normal((5, 5)), np.eye(5)),
        "complex": (RNG.standard_normal((4, 4)) + 1j * RNG.standard_normal((4, 4)),
                    1.0j * np.eye(4)),
        "list": ([0.5 * (7 - math.sqrt(25)), 6.0], [1.0, 6.0]),
        "broadcast": (RNG.standard_normal(6) + 1.0, 1.0),
        "complex-scalar": (0.3 - 0.7j, 0.25),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_bit_identical_to_spelled_out_form(self, name):
        a, b = self.CASES[name]
        want = float(np.max(np.abs(np.asarray(a) - np.asarray(b))))
        got = max_defect(a, b)
        assert type(got) is float
        assert got == want

    def test_default_compares_with_zero(self):
        m = np.array([[-2.5, 1.0], [0.5j, 0.0]])
        assert max_defect(m) == float(np.max(np.abs(m))) == 2.5

    def test_nan_propagates(self):
        got = max_defect([0.0, math.nan], 0.0)
        assert math.isnan(got)
        assert not got <= 1e300
