"""Geometry-independent engine: resolution, quantization, coherent states,
group orbits.  The circle family doubles as the workhorse fixture because its
integrands are trigonometric polynomials (trapezoid rules are exact)."""

import dataclasses
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose

from povmint import circle, core, halfplane, numerics, operators, plane, sphere
from povmint.numerics import QuadratureRule, periodic_rule


@pytest.fixture
def fam():
    return circle.circle_family(0.7, 0.3, n=16)


class TestDensityFamily:
    def test_nodes_are_densities(self, fam):
        assert all(operators.is_density(rho, tol=1e-9).ok
                   for rho in fam.evaluate(fam.rule.nodes))

    def test_weighted_sum_replaces_the_node_loop(self, fam):
        # the engine hands the family weight * coefficient per node
        seen = []

        def weighted_sum(coeffs):
            seen.append(np.asarray(coeffs))
            return np.einsum("k,kij->ij", coeffs, fam.evaluate(fam.rule.nodes))

        fast = dataclasses.replace(fam, weighted_sum=weighted_sum)
        f = lambda th: math.cos(th) + 2.0
        assert_allclose(core.quantize(fast, f), core.quantize(fam, f), atol=1e-14)
        want = fam.rule.weights * np.array([f(th) for th in fam.rule.nodes])
        assert_allclose(seen[0], want, rtol=0, atol=0)


class TestResolution:
    def test_exact_on_circle(self, fam):
        rep = core.check_resolution(fam)
        assert rep.defect < 1e-14

    def test_reports_defect_of_scaled_family(self, fam):
        scaled = core.DensityFamily(2, lambda th: 1.1 * fam.evaluate(th),
                                    fam.rule)
        rep = core.check_resolution(scaled)
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

    def test_lower_symbol_over_nodes_matches_each_node_bit_for_bit(self, fam):
        af = core.quantize(fam, lambda th: math.cos(2 * th) + 0.3 * math.sin(th))
        thetas = np.linspace(0, 2 * math.pi, 50)
        lows = core.lower_symbol(fam, af, thetas)
        assert lows.shape == (50,)
        singles = [core.lower_symbol(fam, af, th) for th in thetas]
        assert all(type(low) is complex for low in singles)
        assert np.array_equal(lows, singles)
        sph = sphere.sphere_family(0.7)
        a = sphere.aq_matrix(0.7) + 0.2j * sphere.ap_matrix(0.7)
        nodes = np.stack(np.meshgrid(np.linspace(-1, 1, 7), np.linspace(0, 6, 5)), -1)
        lows = core.lower_symbol(sph, a, nodes)
        assert lows.shape == (5, 7)
        assert np.array_equal(lows, [[core.lower_symbol(sph, a, nd) for nd in row]
                                     for row in nodes])

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

    def test_measurement_dimension_mismatch(self, fam):
        with pytest.raises(ValueError, match="dimension mismatch"):
            core.measurement_expectation(np.eye(3), fam, lambda th: 1.0)


def _per_node(fam):
    """The family without its weighted sum: core's per-batch path reduces it."""
    return dataclasses.replace(fam, weighted_sum=None)


QUANTIZE_VALUE_FAMILIES = {
    # (family, symbol written once as an array expression over the nodes;
    # + and * only, so it rounds the same on one node as on all of them)
    "circle": (lambda: _per_node(circle.circle_family(0.7, 0.3, n=16)),
               lambda th: th * th - 0.5 * th + 1j * th),
    "sphere": (lambda: _per_node(sphere.sphere_family(0.8, 6, 7)),
               lambda nd: nd[..., 0] * nd[..., 1] + 1j * nd[..., 0]),
    "plane-grid": (lambda: _plane_grid(), lambda nd: nd[..., 0] * nd[..., 1] - 1j * nd[..., 0]),
    "plane-scattered": (lambda: _plane_composed("shuffled"),
                        lambda nd: nd[..., 0] * nd[..., 1] - 1j * nd[..., 0]),
}


REAL_VALUE_FAMILIES = {
    "plane": lambda: plane.plane_family(plane.ThermalParams(t=0.2, dim=48)),
    # dim 16: one GEMM over [Re c; Im c] and one over Re c alone round differently here
    "plane-dim16": lambda: plane.plane_family(plane.ThermalParams(t=0.5, dim=16)),
    "circle": lambda: circle.circle_family(0.7, 0.3, n=16),
    "sphere": lambda: sphere.sphere_family(0.8, 6, 7),
    "halfplane-orbit": lambda: _affine_family(),
}


class TestQuantizeValues:
    @pytest.mark.parametrize("name", sorted(QUANTIZE_VALUE_FAMILIES))
    def test_quantize_is_quantize_values_of_the_node_values(self, name):
        make, f = QUANTIZE_VALUE_FAMILIES[name]
        fam = make()
        assert (fam.weighted_sum is not None) == (name == "plane-grid")
        assert_allclose(core.quantize_values(fam, f(fam.rule.nodes)),
                        core.quantize(fam, f), rtol=0, atol=0)

    @pytest.mark.parametrize("name", sorted(REAL_VALUE_FAMILIES))
    def test_real_values_sum_as_their_complex_copies(self, name):
        # real values take the family's real route; only the signs of zeros may differ
        fam = REAL_VALUE_FAMILIES[name]()
        rng = np.random.default_rng(31)
        vals = rng.standard_normal(fam.rule.size)
        real, cplx = core.quantize_values(fam, vals), core.quantize_values(fam, vals + 0j)
        assert real.dtype == cplx.dtype == complex
        assert np.array_equal(real, cplx)
        ints = rng.integers(-3, 4, fam.rule.size)
        for other in (ints, ints > 0):
            assert np.array_equal(core.quantize_values(fam, other),
                                  core.quantize_values(fam, other.astype(float)))

    def test_real_values_reach_the_family_as_float(self):
        fam = _plane_grid()
        seen = []

        def weighted_sum(coeffs):
            seen.append((coeffs.dtype, coeffs.flags.c_contiguous))
            return fam.weighted_sum(coeffs)

        fast = dataclasses.replace(fam, weighted_sum=weighted_sum)
        ones = np.ones(fam.rule.size)
        for vals in (ones, ones.astype(int), ones.astype(bool), ones.tolist(), ones + 0j):
            core.quantize_values(fast, vals)
        # complex values reach the family as two contiguous float parts, Re c and Im c
        assert seen == [(np.float64, True)] * 6

    def test_real_symbol_reaches_the_family_as_one_float_call(self):
        # quantize sums a real callable's values once, as float, with no zero Im part
        fam = _plane_grid()
        seen = []

        def weighted_sum(coeffs):
            seen.append(coeffs.dtype)
            return fam.weighted_sum(coeffs)

        fast = dataclasses.replace(fam, weighted_sum=weighted_sum)
        core.quantize(fast, lambda node: node[0] * math.cos(node[1]))
        assert seen == [np.float64]

    @pytest.mark.parametrize("wrap", [mpmath.mpmathify, mpmath.mpc, np.asarray],
                             ids=["mpf-or-mpc", "mpc", "0-d-array"])
    def test_symbol_values_are_any_complex_convertible_number(self, wrap):
        # quantize takes complex(f(x)), so a number type numpy cannot cast still works
        fam = _plane_grid()
        for f in (lambda node: node[0] * math.cos(node[1]),
                  lambda node: node[0] * complex(math.cos(node[1]), math.sin(node[1]))):
            expected = core.quantize(fam, f)
            assert_allclose(core.quantize(fam, lambda node: wrap(f(node))), expected,
                            rtol=0, atol=0)

    @pytest.mark.parametrize("vals", [np.ones(15), np.ones(17), np.ones((16, 1)),
                                      np.ones((1, 16)), 1.0, np.float64(2.0)],
                             ids=["short", "long", "column", "row", "float", "scalar"])
    def test_rejects_wrong_shape(self, fam, vals):
        with pytest.raises(ValueError, match=r"need shape \(16,\)"):
            core.quantize_values(fam, vals)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)])
    def test_rejects_non_finite_values(self, fam, bad):
        vals = np.ones(16, dtype=complex)
        vals[3] = bad
        with pytest.raises(ValueError, match="finite at every quadrature node"):
            core.quantize_values(fam, vals)


def fourier_basis(size, n_nodes=64):
    """Orthonormal exponentials e^{i n theta} / sqrt(2 pi) on the circle."""
    rule = periodic_rule(n_nodes, 1.0)

    def phi(theta):
        theta = np.asarray(theta)[..., None]
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

    def test_state_rejects_vanishing_norm(self):
        basis = core.CsBasis(lambda x: np.zeros(np.shape(x) + (3,)), 3, periodic_rule(4, 1.0))
        with pytest.raises(ValueError, match="N\\(x\\) vanishes"):
            core.cs_state(basis, 0.5)

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
    rule = periodic_rule(n, 1.0)
    fiducial = circle.rho_circle(r, 0.0)

    def unitary(theta):
        c, s = np.cos(theta), np.sin(theta)
        return np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2) + 0j

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

    def test_covariance_needs_the_full_unitary(self):
        spec = halfplane.affine_orbit_spec(halfplane.AffineParams(2.0, 0.2, 16),
                                           halfplane.affine_group_rule(8), rows=4)
        fam = core.orbit_family(spec)
        with pytest.raises(ValueError, match="covariance needs the full unitary"):
            core.covariance_check(spec, fam, lambda g: 1.0, (1.5, 0.3))

    @pytest.mark.parametrize("fiducial", ["own", "random-hermitian"])
    @pytest.mark.parametrize("build", [
        lambda: torus_orbit_spec(),
        lambda: halfplane.affine_orbit_spec(halfplane.AffineParams(2.0, 0.2, 16), rows=3),
        lambda: halfplane.affine_orbit_spec(halfplane.AffineParams(2.0, 0.2, 16), rows=16),
    ], ids=["torus", "halfplane-rows3", "halfplane-rows16"])
    def test_orbit_density_matches_stacked_products(self, build, fiducial):
        # U F as one GEMM over all rows equals the per-node products bit for bit
        spec = build()
        if fiducial == "random-hermitian":
            rng = np.random.default_rng(20)
            dim = spec.fiducial.shape[0]
            h = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            spec = dataclasses.replace(spec, fiducial=h + h.conj().T)
        nodes = spec.group_rule.nodes
        u = np.asarray(spec.unitary(nodes), dtype=complex)
        want = np.conj(np.conj(u @ spec.fiducial) @ np.swapaxes(u, -1, -2))
        assert np.array_equal(spec.orbit_density(nodes), want)

    def test_rejects_nonpositive_admissibility(self):
        spec = torus_orbit_spec()
        spec.probe = np.zeros((2, 2), dtype=complex)
        with pytest.raises(ValueError):
            core.covariant_c_rho(spec)


# ---------------------------------------------------------------------------
# The node-array contract: evaluate broadcasts over node arrays, and the
# batched reduction matches the per-node loop it replaced.


def loop_accumulate(fam, coeffs=None):
    """The former per-node reduction: one evaluate call per nonzero node."""
    total = np.zeros((fam.dim, fam.dim), dtype=complex)
    for k, x in enumerate(fam.rule.nodes):
        c = fam.rule.weights[k] if coeffs is None else fam.rule.weights[k] * coeffs[k]
        if c != 0.0:
            total += c * np.asarray(fam.evaluate(x), dtype=complex)
    return total


def _plane_grid():
    """A dim-12 plane family on 10 radii x 16 angles."""
    return plane.plane_family(plane.ThermalParams(t=0.2, dim=12),
                              numerics.laguerre_dx_rule(10, 0.0, 1.0 - 0.2),
                              periodic_rule(16, 1.0 / (2.0 * math.pi)))


def _plane_composed(kind):
    """The plane's densities on a shuffled grid or hand-placed nodes, composed
    as a plain DensityFamily: core's per-batch path reduces it."""
    params = plane.ThermalParams(t=0.2, dim=12)
    if kind == "shuffled":
        rule = _plane_grid().rule
        order = np.random.default_rng(3).permutation(rule.size)
        rule = QuadratureRule(rule.nodes[order], rule.weights[order])
    else:
        nodes = np.array([[0.5, 0.0], [0.5, 1.0], [1.5, 0.3], [2.5, 4.0]])
        rule = QuadratureRule(nodes, np.array([0.2, 0.3, 0.4, 0.1]))
    return core.DensityFamily(
        params.dim, lambda nd: plane.thermal_density(nd[..., 0], nd[..., 1], params), rule)


def _affine_family():
    params = halfplane.AffineParams(alpha=2.0, t=0.25, dim=6)
    spec = halfplane.affine_orbit_spec(params, halfplane.affine_group_rule(8, 6.0))
    c_rho = halfplane.affine_resolution_check(params, 1, spec.group_rule)[0]
    return core.orbit_family(spec, c_rho)


CLOSED_FORM_FAMILIES = {
    "circle": lambda: circle.circle_family(0.7, 0.3, n=16),
    "sphere": lambda: sphere.sphere_family(0.8, 6, 7),
}


GEOMETRIES = {
    "circle": lambda: _per_node(CLOSED_FORM_FAMILIES["circle"]()),
    "sphere": lambda: _per_node(CLOSED_FORM_FAMILIES["sphere"]()),
    "fourier-cs": lambda: core.cs_family(fourier_basis(4)),
    "torus-orbit": lambda: _per_node(core.orbit_family(torus_orbit_spec())),
    "affine": lambda: _per_node(_affine_family()),
    "plane-shuffled": lambda: _plane_composed("shuffled"),
    "plane-hand": lambda: _plane_composed("hand"),
}


def _coeffs(fam):
    """Seeded complex coefficients with a few exact zeros."""
    rng = np.random.default_rng(11)
    c = rng.standard_normal(fam.rule.size) + 1j * rng.standard_normal(fam.rule.size)
    c[::5] = 0.0
    return c


@pytest.mark.parametrize("name", sorted(GEOMETRIES))
class TestNodeArrayContract:
    TOL = 1e-12  # absolute, on every entry

    def test_batch_matches_single_nodes(self, name):
        fam = GEOMETRIES[name]()
        assert fam.weighted_sum is None
        nodes = fam.rule.nodes
        batch = fam.evaluate(nodes)
        assert batch.shape == (len(nodes), fam.dim, fam.dim)
        for k in range(len(nodes)):
            assert_allclose(batch[k], fam.evaluate(nodes[k]), rtol=0, atol=1e-15)
        # leading axes broadcast: a (2, 2)-block of nodes gives (2, 2, dim, dim)
        block = nodes[:4].reshape((2, 2) + nodes.shape[1:])
        assert_allclose(fam.evaluate(block).reshape(4, fam.dim, fam.dim),
                        batch[:4], rtol=0, atol=1e-15)

    def test_accumulate_matches_the_loop(self, name):
        fam = GEOMETRIES[name]()
        c = _coeffs(fam)
        for coeffs in (None, c):
            got = core._accumulate(fam, coeffs)
            assert np.max(np.abs(got - loop_accumulate(fam, coeffs))) < self.TOL

    def test_small_batch_budget_crosses_chunks(self, name, monkeypatch):
        fam = GEOMETRIES[name]()
        calls = []
        counted = dataclasses.replace(
            fam, evaluate=lambda x: calls.append(len(x)) or fam.evaluate(x))
        # three node matrices per batch
        monkeypatch.setattr(core, "NODE_BATCH_BYTES", 3 * 16 * fam.dim ** 2)
        c = _coeffs(fam)
        got = core._accumulate(counted, c)
        assert calls and max(calls) == 3 and sum(calls) == np.count_nonzero(c)
        assert np.max(np.abs(got - loop_accumulate(fam, c))) < self.TOL


class TestNodeBatchMemory:
    def test_one_batch_lives_at_a_time(self, monkeypatch):
        # a family with no weighted_sum is reduced one batch of node matrices at a time,
        # and each batch is freed before the next is evaluated: a batch kept across the
        # next evaluate call would put the peak at two batches
        dim, batch_nodes = 16, 400
        monkeypatch.setattr(core, "NODE_BATCH_BYTES", batch_nodes * 16 * dim * dim)
        rule = QuadratureRule(np.arange(3.0 * batch_nodes), np.ones(3 * batch_nodes))
        fam = core.DensityFamily(dim, lambda x: np.ones((len(x), dim, dim), complex), rule)
        core._accumulate(fam)
        tracemalloc.start()
        try:
            total = core._accumulate(fam)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(total, np.full((dim, dim), 3.0 * batch_nodes + 0j))
        assert peak <= 1.5 * core.NODE_BATCH_BYTES


@pytest.mark.parametrize("name", sorted(CLOSED_FORM_FAMILIES))
class TestClosedFormSums:
    """The circle and sphere families sum sum_k c_k rho(x_k) from a feature table."""

    def test_matches_the_loop(self, name):
        fam = CLOSED_FORM_FAMILIES[name]()
        assert fam.weighted_sum is not None
        c = _coeffs(fam)
        for coeffs in (None, c, c.real, c.imag):
            got = core._accumulate(fam, coeffs)
            assert got.dtype == complex
            assert np.max(np.abs(got - loop_accumulate(fam, coeffs))) < TestNodeArrayContract.TOL

    def test_builds_no_node_matrix(self, name):
        fam = CLOSED_FORM_FAMILIES[name]()
        blind = dataclasses.replace(fam, evaluate=lambda x: pytest.fail("evaluate called"))
        c = _coeffs(fam)
        assert np.array_equal(core._accumulate(blind, c), core._accumulate(fam, c))
        assert np.array_equal(core.check_resolution(blind).operator,
                              core.check_resolution(fam).operator)

    @pytest.mark.parametrize("r", [1.5, -0.1, math.nan, np.array([0.5, 0.6])],
                             ids=["1.5", "-0.1", "nan", "array"])
    def test_r_is_checked_when_the_family_is_built(self, name, r):
        # the closed-form sum never evaluates a density, so the build checks r; an
        # array r would broadcast into the basis matrices and sum without an error
        build = {"circle": circle.circle_family, "sphere": sphere.sphere_family}[name]
        if np.ndim(r):
            with pytest.raises(TypeError):
                build(r)
            return
        with pytest.raises(numerics.DomainError, match=r"^r must lie in \[0, 1\], got "):
            build(r)


def _affine_rows(rows, fiducial=None):
    """The dim-16 thermal orbit on 64 group nodes through its first `rows` overlap rows,
    with the thermal fiducial or the one given."""
    params = halfplane.AffineParams(alpha=2.0, t=0.25, dim=16)
    spec = halfplane.affine_orbit_spec(params, halfplane.affine_group_rule(8, 6.0), rows=rows)
    return spec if fiducial is None else dataclasses.replace(spec, fiducial=fiducial)


def _positive_fiducial(dim, seed):
    """A seeded full-rank density with no zero entry: the orbit sum takes the eigh route."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


ORBIT_SPECS = {
    "torus": torus_orbit_spec,  # fiducial diag(0.8, 0.2), real unitaries
    "affine-rows3": lambda: _affine_rows(3),
    "affine-rows16": lambda: _affine_rows(16),
    "affine-non-diagonal": lambda: _affine_rows(3, _positive_fiducial(16, 5)),
}


@pytest.mark.parametrize("name", sorted(ORBIT_SPECS))
class TestOrbitSums:
    """Orbit families sum sum_k c_k U_k F U_k^dag one fiducial eigencolumn of the
    overlap rows at a time, with no per-node density."""

    def test_matches_the_loop(self, name):
        fam = core.orbit_family(ORBIT_SPECS[name]())
        assert fam.weighted_sum is not None
        c = _coeffs(fam)
        for coeffs in (None, c.real, c):
            got = core._accumulate(fam, coeffs)
            assert np.max(np.abs(got - loop_accumulate(fam, coeffs))) < TestNodeArrayContract.TOL

    def test_small_budget_covers_each_node_once(self, name, monkeypatch):
        spec = ORBIT_SPECS[name]()
        seen = []
        fam = core.orbit_family(dataclasses.replace(
            spec, unitary=lambda g: seen.append(g) or spec.unitary(g)), c_rho=1.0)
        # a node budgets its (rows, width) overlap rows twice: three nodes per batch
        monkeypatch.setattr(core, "NODE_BATCH_BYTES", 3 * 32 * fam.dim * len(spec.fiducial))
        c = _coeffs(fam).real
        got = core._accumulate(fam, c)
        assert max(map(len, seen)) == 3
        assert np.array_equal(np.concatenate(seen), fam.rule.nodes[np.flatnonzero(c)])
        assert np.max(np.abs(got - loop_accumulate(fam, c))) < TestNodeArrayContract.TOL


def _compressed_thermal(z, params):
    """The displaced thermal state compressed to dim Fock states, entry by entry:
    <m|rho|n> = (1-t)^{k+1} t^n sqrt(n!/m!) z^k e^{-(1-t)|z|^2}
    L_n^{(k)}(-|z|^2 (1-t)^2 / t) for k = m - n >= 0 (Cahill & Glauber 1969)."""
    t, x = params.t, abs(z) ** 2
    rho = np.zeros((params.dim, params.dim), dtype=complex)
    for m in range(params.dim):
        for n in range(m + 1):
            k = m - n
            rho[m, n] = ((1 - t) ** (k + 1) * t ** n * z ** k * math.exp(-(1 - t) * x)
                         * math.sqrt(math.factorial(n) / math.factorial(m))
                         * numerics.laguerre(n, k, -x * (1 - t) ** 2 / t))
            rho[n, m] = rho[m, n].conjugate()
    return rho


class TestPlaneBatches:
    def test_on_and_off_rule_nodes_in_one_batch(self):
        fam = _plane_composed("hand")
        params = plane.ThermalParams(t=0.2, dim=12)
        nodes = np.array([[0.5, 0.7], [2.345, 0.678], [1.5, -0.2],
                          [0.0, 0.1], [3.0, 2.0]])
        batch = fam.evaluate(nodes)
        for k, (j, gamma) in enumerate(nodes):
            # J = 3.0 sits on the dim/4 guard of displaced_thermal
            want = _compressed_thermal(math.sqrt(j) * np.exp(1j * gamma), params)
            assert_allclose(batch[k], want, atol=1e-13)
            assert_allclose(batch[k], fam.evaluate(nodes[k]), rtol=0, atol=1e-15)

    def test_negative_radius_in_a_batch_raises(self):
        fam = _plane_composed("hand")
        with pytest.raises(numerics.DomainError):
            fam.evaluate(np.array([[0.5, 0.0], [-0.5, 0.0]]))

    def test_off_rule_node_leaves_the_radial_stack_alone(self):
        # evaluating off-rule nodes must not change what later calls on rule
        # nodes return, nor the radial stack the grid's weighted sum shares
        fam = _plane_grid()
        radii = np.unique(fam.rule.nodes[:, 0])
        neighbour = np.array([radii[np.searchsorted(radii, 2.345)], 0.3])
        f = lambda x: x[0] * math.cos(x[1]) + 0.5
        before = fam.evaluate(neighbour), core.quantize(fam, f)
        for off in ((2.345, 0.678), np.array([2.345, 0.678]), [2.345, 0.678]):
            fam.evaluate(off)
        core.prob_kernel(fam, fam.rule.nodes[0], (2.345, 0.678))
        core.lower_symbol(fam, before[1], (2.345, 0.678))
        assert_allclose(fam.evaluate(neighbour), before[0], rtol=0, atol=0)
        assert_allclose(core.quantize(fam, f), before[1], rtol=0, atol=0)


class TestNonBroadcastingCallables:
    """Callables written one node at a time fail loudly on node arrays."""

    def test_evaluate_returning_one_matrix(self, fam):
        bad = core.DensityFamily(2, lambda th: circle.rho_circle(0.5, 0.0), fam.rule)
        for call in (lambda: core.check_resolution(bad),
                     lambda: core.quantize(bad, lambda th: 1.0)):
            with pytest.raises(ValueError, match="broadcast over node arrays"):
                call()

    def test_indicator_written_for_one_node(self):
        # on a 2-D rule nd[0] reads the first node, not every node's first
        # coordinate, and gives one value per coordinate
        fam = sphere.sphere_family(0.8, 6, 7)
        for indicator in (lambda nd: nd[0] > 0.0, lambda nd: True):
            with pytest.raises(ValueError, match="broadcast over node arrays"):
                core.povm_region(fam, indicator)

    def test_phi_without_a_trailing_axis(self):
        # np.exp(1j * n * theta) with as many nodes as functions multiplies
        # elementwise instead of giving one row per node
        rule = periodic_rule(4, 1.0)
        basis = core.CsBasis(
            lambda th: np.exp(1j * np.arange(4) * th) / math.sqrt(2 * math.pi), 4, rule)
        with pytest.raises(ValueError, match="broadcast over node arrays"):
            basis.gram_defect()
        with pytest.raises(ValueError, match="broadcast over node arrays"):
            core.cs_family(basis)

    def test_unitary_returning_one_matrix(self):
        spec = torus_orbit_spec(n=8)
        one = dataclasses.replace(spec, unitary=lambda g: circle.rotation2(0.3) + 0j)
        with pytest.raises(ValueError, match="broadcast over node arrays"):
            core.covariant_c_rho(one)


class TestGeometryDomainErrors:
    @pytest.mark.parametrize("build, message", [
        (lambda: plane.ThermalParams(1.0, 8), r"t must lie in \[0, 1\)"),
        (lambda: plane.ThermalParams(0.2, 0), "dim must be >= 1"),
        (lambda: halfplane.AffineParams(0.0, 0.2, 4), "resolution requires 0 < alpha"),
        (lambda: halfplane.AffineParams(2.0, 1.0, 4), r"t must lie in \[0, 1\)"),
        (lambda: halfplane.AffineParams(2.0, 0.2, 0), "dim must be >= 1"),
        (lambda: circle.CircleDensityParams(1.5, 0.0), r"r must lie in \[0, 1\]"),
        (lambda: circle.rho_circle(1.5, 0.0), r"r must lie in \[0, 1\]"),
        (lambda: sphere.rho_sphere(1.2, 0.1, 0.1), r"r must lie in \[0, 1\]"),
        (lambda: plane.displaced_thermal(1.5, plane.ThermalParams(0.2, 8)),
         "exceeds the dim/4 truncation threshold"),
    ], ids=["thermal-t", "thermal-dim", "affine-alpha", "affine-t", "affine-dim",
            "circle-params-r", "rho-circle-r", "rho-sphere-r", "displaced-thermal-dim4"])
    def test_out_of_domain_raises_domain_error(self, build, message):
        with pytest.raises(numerics.DomainError, match=message):
            build()
