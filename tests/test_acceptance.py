"""Acceptance gate: one test (and one printed pass/fail line) per criterion.

Criteria whose published closed forms contain defects are asserted in their
corrected form here, with a strict-xfail companion exercising the published
variant; every such deviation is documented in the decisions ledger.
"""

import contextlib
import io
import math
import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

from povmint import circle, core, finite, halfplane, operators, plane, sphere
from povmint.cli import main as cli_main
from povmint.numerics import legendre_rule, periodic_rule

import oracles

RNG = np.random.default_rng(20260823)


@contextlib.contextmanager
def criterion(label):
    try:
        yield
    except Exception:
        print(f"[criterion {label}] FAIL")
        raise
    print(f"[criterion {label}] PASS")


def quantize_cached(weights, mats, fvals):
    """A_f over precomputed node matrices."""
    return np.einsum("k,k,kij->ij", weights, np.asarray(fvals, dtype=float),
                     mats)


def test_criterion_01_circle_resolution_and_runtime():
    with criterion("1: circle resolution < 1e-13, runtime < 1 ms"):
        for r in (0.0, 0.3, 0.7, 1.0):
            fam = circle.circle_family(r, 0.0)
            assert core.check_resolution(fam).defect < 1e-13
        fam = circle.circle_family(0.7, 0.0)
        core.check_resolution(fam)  # warm
        best = min(
            (lambda t0: (core.check_resolution(fam),
                         time.perf_counter() - t0)[1])(time.perf_counter())
            for _ in range(10))
        assert best < 1e-3


def test_criterion_02_angle_operator_eigensystem():
    with criterion("2: angle operator eigenvalues pi +/- r/2, eigenvectors "
                   "|phi -/+ pi/4>"):
        for r in np.linspace(0.1, 1.0, 10):
            phi = 0.3
            vals, vecs = operators.eig_hermitian(circle.angle_operator(r, phi))
            assert_allclose(vals, [math.pi - r / 2, math.pi + r / 2],
                            atol=1e-10)
            for col, ang in ((0, phi + math.pi / 4), (1, phi - math.pi / 4)):
                overlap = abs(vecs[:, col].conj() @ oracles.angle_ket(ang))
                assert_allclose(overlap, 1.0, atol=1e-10)


def test_criterion_03_circle_algebra_and_marginals():
    with criterion("3: product/commutator on 100 draws to 1e-13, four "
                   "marginals to 1e-12"):
        for _ in range(100):
            p1 = circle.CircleDensityParams(RNG.uniform(0, 1),
                                            RNG.uniform(0, 2 * math.pi),
                                            RNG.uniform(0, 2 * math.pi))
            p2 = circle.CircleDensityParams(RNG.uniform(0, 1),
                                            RNG.uniform(0, 2 * math.pi),
                                            RNG.uniform(0, 2 * math.pi))
            m1 = circle.rho_circle(p1.r, p1.phi, p1.theta)
            m2 = circle.rho_circle(p2.r, p2.phi, p2.theta)
            prod, comm, _ = circle.product_and_algebra(p1, p2)
            assert np.max(np.abs(m1 @ m2 - prod)) < 1e-13
            assert np.max(np.abs(m1 @ m2 - m2 @ m1 - comm)) < 1e-13
        big_r = lambda r, bp: circle.rho_circle(r, 0.0, 0.5 * bp)
        trap = periodic_rule(16, 1.0 / math.pi)
        total = trap.integrate(np.stack([big_r(0.7, t) for t in trap.nodes]))
        assert np.max(np.abs(total - np.eye(2))) < 1e-12
        theta = 0.9
        total = trap.integrate(np.stack([big_r(0.7, theta + 2 * w)
                                         for w in trap.nodes]))
        assert np.max(np.abs(total - np.eye(2))) < 1e-12
        gl = legendre_rule(8, 0.0, 1.0)
        total = gl.integrate(np.stack([r * big_r(r, theta)
                                       for r in gl.nodes]))
        want = big_r(1.0, theta) / 3.0 + np.eye(2) / 12.0
        assert np.max(np.abs(total - want)) < 1e-12
        ang = periodic_rule(16, 2.0 / math.pi)
        total = sum(wr * wt * r * big_r(r, t)
                    for r, wr in zip(gl.nodes, gl.weights)
                    for t, wt in zip(ang.nodes, ang.weights))
        assert np.max(np.abs(total - np.eye(2))) < 1e-12


@pytest.mark.xfail(strict=True, reason="published commutator closed form "
                   "omits the factor 1/2; see the decisions ledger")
def test_criterion_03_published_commutator():
    p1 = circle.CircleDensityParams(0.8, 0.3)
    p2 = circle.CircleDensityParams(0.6, 1.1)
    m1 = circle.rho_circle(p1.r, p1.phi)
    m2 = circle.rho_circle(p2.r, p2.phi)
    printed = (-1.0j * p1.r * p2.r * math.sin(2 * (p1.phi - p2.phi))
               * circle.SIGMA2)
    assert np.max(np.abs(m1 @ m2 - m2 @ m1 - printed)) < 1e-13


def test_criterion_04_sphere_closed_forms():
    with criterion("4: sphere A_q, A_p, commutator, lower symbol to 1e-10; "
                   "resolution < 1e-12"):
        s1, s2, s3 = sphere.SIGMA
        for r in (0.2, 0.6, 1.0):
            aq_closed = math.pi * np.eye(2) + (math.pi * r / 4.0) * s2
            ap_closed = (r / 3.0) * s3
            assert np.max(np.abs(sphere.quantize_azimuth(r)
                                 - aq_closed)) < 1e-10
            fam = sphere.sphere_family(r)
            ap = core.quantize(fam, lambda nd: nd[0])
            assert np.max(np.abs(ap - ap_closed)) < 1e-10
            comm = aq_closed @ ap_closed - ap_closed @ aq_closed
            assert np.max(np.abs(
                comm - 1.0j * math.pi * r * r / 6.0 * s1)) < 1e-10
            theta, phi = 1.1, 0.7
            low = core.lower_symbol(fam, aq_closed,
                                    (math.cos(theta), phi)).real
            want = (math.pi - math.pi * r * r / 4.0
                    * math.sin(theta) * math.sin(phi))
            assert abs(low - want) < 1e-10
            assert core.check_resolution(fam).defect < 1e-12


def test_criterion_05_kernels_and_distances():
    with criterion("5: kernels/distances to 1e-12, small-separation laws "
                   "within 1% at 1e-3"):
        r = 0.7
        fam = circle.circle_family(r, 0.0)
        for _ in range(20):
            t0, t1 = RNG.uniform(0, 2 * math.pi, size=2)
            assert abs(core.prob_kernel(fam, t0, t1)
                       - circle.circle_prob(r, t0, t1)) < 1e-12
            got = operators.hs_distance(circle.rho_circle(r, 0.0, t0),
                                        circle.rho_circle(r, 0.0, t1))
            assert abs(got - circle.circle_hs_distance(r, t0, t1)) < 1e-12
            got = operators.pseudo_distance(circle.rho_circle(r, 0.0, t0),
                                            circle.rho_circle(r, 0.0, t1))
            assert abs(got - circle.circle_pseudo_distance(r, t0, t1)) < 1e-12
            th0, th1 = RNG.uniform(0, math.pi, size=2)
            ph0, ph1 = RNG.uniform(0, 2 * math.pi, size=2)
            d0, d1 = sphere.direction(th0, ph0), sphere.direction(th1, ph1)
            got = float(np.trace(sphere.rho_sphere(r, th0, ph0)
                                 @ sphere.rho_sphere(r, th1, ph1)).real)
            assert abs(got - sphere.sphere_prob(r, d0, d1)) < 1e-12
            got = operators.hs_distance(sphere.rho_sphere(r, th0, ph0),
                                        sphere.rho_sphere(r, th1, ph1))
            assert abs(got - sphere.sphere_hs_distance(r, d0, d1)) < 1e-12
            got = operators.pseudo_distance(sphere.rho_sphere(r, th0, ph0),
                                            sphere.rho_sphere(r, th1, ph1))
            assert abs(got - sphere.sphere_pseudo_distance(r, d0, d1)) < 1e-12
        eps = 1e-3
        slope = circle.circle_pseudo_distance(r, 0.4, 0.4 + eps) / eps
        assert abs(slope / (math.sqrt(2) * r / math.sqrt(1 + r * r))
                   - 1.0) < 1e-2
        d = sphere.sphere_pseudo_distance(r, sphere.direction(1.1, 0.4),
                                          sphere.direction(1.1 + eps, 0.4))
        assert abs(d / eps / (r / math.sqrt(2 * (1 + r * r))) - 1.0) < 1e-2


@pytest.mark.xfail(strict=True, reason="published small-separation constants "
                   "overshoot by sqrt(2) on both geometries; see the "
                   "decisions ledger")
def test_criterion_05_published_small_separation():
    r, eps = 0.7, 1e-3
    slope = circle.circle_pseudo_distance(r, 0.4, 0.4 + eps) / eps
    assert abs(slope / (2.0 * r / math.sqrt(1 + r * r)) - 1.0) < 1e-2


def test_criterion_06_plane_identities_and_runtime(tmp_path):
    with criterion("6: plane purity/Bessel/CCR/quadratic shift/energy gap; "
                   "suite < 60 s at dim 48"):
        for t in (0.1, 0.3, 0.5):
            p64 = plane.ThermalParams(t, 64)
            rho = plane.displaced_thermal(0.8 + 0.3j, p64)
            assert abs(operators.purity(rho) - (1 - t) / (1 + t)) < 1e-9
        for t, x in [(0.1, 0.5), (0.3, 1.3)]:
            assert abs(plane.laguerre_square_sum(t, x)
                       - plane.laguerre_square_closed(t, x)) < 1e-10
        t0 = time.perf_counter()
        code = cli_main(["verify", "plane", "--dim", "48",
                         "--out", str(tmp_path / "plane.json")])
        elapsed = time.perf_counter() - t0
        assert code == 0
        assert elapsed < 60.0
        params = plane.ThermalParams(0.2, 48)
        fam = plane.plane_family(params)
        blk = 24
        aq = core.quantize(fam, lambda nd: math.sqrt(2 * nd[0])
                           * math.cos(nd[1]))
        ap = core.quantize(fam, lambda nd: math.sqrt(2 * nd[0])
                           * math.sin(nd[1]))
        comm = (aq @ ap - ap @ aq)[:blk, :blk]
        assert np.max(np.abs(comm - 1.0j * np.eye(blk))) < 1e-8
        aq2 = core.quantize(fam, lambda nd: 2 * nd[0] * math.cos(nd[1]) ** 2)
        q2 = np.linalg.matrix_power(plane.q_matrix(48), 2)
        # A_{q^2} - Q^2 = -s/2 I with s = -(1+t)/(1-t)
        shift = 0.5 * (1 + params.t) / (1 - params.t)
        assert_allclose(plane.quadratic_shift(params), shift, rtol=1e-12)
        diff = (aq2 - q2 - shift * np.eye(48))[:blk, :blk]
        assert np.max(np.abs(diff)) < 1e-5
        assert plane.energy_gap() == 0.5


def test_criterion_07_plane_covariance_convergence():
    with criterion("7: plane covariance defects < 1e-5 at dim 48, improving "
                   "(or at floor) at dim 64"):
        p48, p64 = plane.ThermalParams(0.2, 48), plane.ThermalParams(0.2, 64)
        d48 = plane.covariance_defects(p48, plane.plane_family(p48))
        d64 = plane.covariance_defects(p64, plane.plane_family(p64))
        for name in ("translation", "rotation", "parity", "conjugation"):
            assert d48[name] < 1e-5, name
            # floor rule: strict decrease, unless already at round-off
            assert d64[name] < d48[name] or d64[name] < 1e-12, name


def test_criterion_08_phase_operator_routes(tmp_path, capsys):
    with criterion("8: phase route comparison emitted; route B "
                   "Hermitian/diag-pi to 1e-6, covariance < 1e-6 at dim 32"):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli_main(["verify", "plane", "--dim", "32"])
        assert code == 0
        assert "phase-route-comparison" in buf.getvalue()
        p32 = plane.ThermalParams(0.2, 32)
        ph = plane.phase_operator(p32)
        assert np.max(np.abs(ph - ph.conj().T)) < 1e-6
        assert np.max(np.abs(np.diag(ph)[:16].real - math.pi)) < 1e-6
        assert plane.phase_covariance_defect(ph, 0.9) < 1e-6


def test_criterion_09_halfplane_admissibility_and_runtime(tmp_path):
    with criterion("9: half-plane c_rho to 1e-8 (corrected form), kernel "
                   "factors (1-t)t^n to 1e-8, resolution diagonal < 1e-3, "
                   "suite < 120 s"):
        t0 = time.perf_counter()
        code = cli_main(["verify", "halfplane",
                         "--out", str(tmp_path / "hp.json")])
        elapsed = time.perf_counter() - t0
        assert code == 0
        assert elapsed < 120.0
        params = halfplane.AffineParams(alpha=2.0, t=0.2, dim=16)
        c_quad = halfplane.affine_resolution_check(params, 1)[0]
        assert abs(c_quad - halfplane.c_rho_derived(2.0)) < 1e-8
        for n in range(5):
            ratio = halfplane.kernel_eigen_ratio(n, params, x=2.1)
            assert abs(ratio - 0.8 * 0.2 ** n) < 1e-8
        _, coarse = halfplane.affine_resolution_check(
            params, block=3, rule=halfplane.affine_group_rule(32, 12.0))
        _, fine = halfplane.affine_resolution_check(
            params, block=3, rule=halfplane.affine_group_rule(64, 14.0))
        d_fine = float(np.max(np.abs(np.diag(fine).real - 1.0)))
        assert d_fine < 1e-3
        assert d_fine <= float(np.max(np.abs(np.diag(coarse).real - 1.0)))


@pytest.mark.xfail(strict=True, reason="published admissibility constant "
                   "2 pi (1-t)/alpha carries a spurious (1-t); the quadrature "
                   "gives 2 pi / alpha; see the decisions ledger")
def test_criterion_09_published_c_rho():
    params = halfplane.AffineParams(alpha=2.0, t=0.2, dim=16)
    c_quad = halfplane.affine_resolution_check(params, 1)[0]
    assert abs(c_quad - halfplane.c_rho_printed(2.0, 0.2)) < 1e-8


def test_criterion_10_finite_reconstruction():
    with criterion("10: feasibility N <= 2n^2-2; round trips N in {3,4} "
                   "residual < 1e-6; N=n=2 commutes to 1e-8"):
        for n in (2, 3, 5):
            assert finite.feasibility_bounds(n).n_max == 2 * n * n - 2
        bloch = lambda a: (0.5 * np.eye(2)
                           + 0.5 * (a[0] * np.array([[0, 1], [1, 0]])
                                    + a[1] * np.array([[0, -1j], [1j, 0]])
                                    + a[2] * np.diag([1, -1]))).astype(complex)
        configs = [
            ([(0.6, 0, 0), (-0.3, 0.4, 0), (-0.3, -0.4, 0)],
             np.full(3, 2 / 3)),
            ([(0.4, 0, 0), (-0.4, 0, 0), (0, 0.5, 0), (0, -0.5, 0)],
             np.full(4, 0.5)),
        ]
        for vecs, nu in configs:
            rhos = [bloch(a) for a in vecs]
            table = finite.gram_probabilities(rhos,
                                              finite.FiniteMeasure(nu))
            out = finite.reconstruct(table, seed=5, restarts=8)
            assert out.converged
            assert out.residual < 1e-6
        rho1 = bloch((0.3, 0.2, 0.4))
        table = finite.gram_probabilities(
            [rho1, np.eye(2) - rho1], finite.FiniteMeasure(np.ones(2)))
        out = finite.reconstruct(table, seed=0)
        assert out.converged
        a, b = out.rhos
        assert np.max(np.abs(a @ b - b @ a)) < 1e-8


def test_criterion_11_core_properties_every_geometry():
    with criterion("11: linearity, quantize(1)=I, row normalization, "
                   "lower-symbol contraction, two-route measurement on all "
                   "four geometries, >= 50 draws each"):
        geoms = []
        fam_c = circle.circle_family(0.7, 0.0, n=32)
        geoms.append(("circle", fam_c, 2, 1e-12, 1e-12, 1e-12,
                      lambda: RNG.uniform(0, 2 * math.pi),
                      lambda x: math.cos(2 * x), lambda x: math.sin(2 * x)))
        fam_s = sphere.sphere_family(0.7)
        geoms.append(("sphere", fam_s, 2, 1e-12, 1e-12, 1e-12,
                      lambda: (RNG.uniform(-1, 1),
                               RNG.uniform(0, 2 * math.pi)),
                      lambda nd: nd[0], lambda nd: math.sin(nd[1])))
        fam_p = plane.plane_family(plane.ThermalParams(0.2, 8))
        geoms.append(("plane", fam_p, 4, 1e-5, 1e-2, 1e-2,
                      lambda: (RNG.uniform(0.0, 1.5),
                               RNG.uniform(0, 2 * math.pi)),
                      lambda nd: math.cos(nd[1]),
                      lambda nd: math.tanh(nd[0]) * math.sin(nd[1])))
        # draws stay near the group identity: the basis truncation sheds
        # weight rapidly for strong modulations |p| > 1
        params_h = halfplane.AffineParams(alpha=2.0, t=0.25, dim=8)
        spec_h = halfplane.affine_orbit_spec(params_h, halfplane.affine_group_rule(32, 10.0))
        fam_h = core.orbit_family(
            spec_h, halfplane.affine_resolution_check(params_h, 1, spec_h.group_rule)[0])
        geoms.append(("halfplane", fam_h, 3, 1e-2, 5e-2, 1e-1,
                      lambda: (math.exp(RNG.uniform(-0.4, 0.4)),
                               RNG.uniform(-0.6, 0.6)),
                      lambda nd: math.cos(nd[1]),
                      lambda nd: math.tanh(math.log(nd[0]))))
        for (name, fam, blk, tol_id, tol_row, tol_sup, draw, f, g) in geoms:
            mats = fam.evaluate(fam.rule.nodes).astype(complex)
            w = fam.rule.weights
            fvals = np.array([f(x) for x in fam.rule.nodes])
            gvals = np.array([g(x) for x in fam.rule.nodes])
            af = quantize_cached(w, mats, fvals)
            ag = quantize_cached(w, mats, gvals)
            one = quantize_cached(w, mats, np.ones_like(fvals))
            for _ in range(50):
                # quantize(c * 1) = c I on the protected block
                c = RNG.uniform(-2, 2)
                assert np.max(np.abs((c * one - c * np.eye(fam.dim))
                                     [:blk, :blk])) < 2 * tol_id, name
                # linearity
                a1, b1 = RNG.standard_normal(2)
                lhs = quantize_cached(w, mats, a1 * fvals + b1 * gvals)
                assert np.max(np.abs(lhs - a1 * af - b1 * ag)) < 1e-10, name
                # row normalization of the probability kernel
                rho0 = fam.evaluate(draw())
                vals = np.einsum("ij,kji->k", rho0, mats).real
                assert abs(float(w @ vals) - 1.0) < tol_row, name
                # lower-symbol sup-norm contraction (|f| <= 1)
                low = np.trace(rho0 @ af).real
                assert abs(low) <= 1.0 + tol_sup, name
                # two-route measurement identity
                bmat = RNG.standard_normal((fam.dim, fam.dim)) \
                    + 1j * RNG.standard_normal((fam.dim, fam.dim))
                rho_m = bmat @ bmat.conj().T
                rho_m = rho_m / np.trace(rho_m).real
                route1 = np.trace(rho_m @ af).real
                probs = np.einsum("ij,kji->k", rho_m, mats).real
                route2 = float(w @ (probs * fvals))
                assert abs(route1 - route2) < 1e-8, name
