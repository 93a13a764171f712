"""Affine half-plane: Laguerre basis, group action, admissibility, kernel."""

import cmath
import math

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose

from povmint import core, halfplane
from povmint.numerics import DomainError, bessel_i, legendre_rule

PARAMS = halfplane.AffineParams(alpha=2.0, t=0.25, dim=6)


def overlap_oracle(q, p, alpha, rows, cols, n_nodes=400, x_max=120.0):
    """Direct quadrature of <e_i | U(q,p) | e_n> over the half-line."""
    rule = legendre_rule(n_nodes, 0.0, x_max)
    out = np.empty((rows, cols), dtype=complex)
    phase = np.exp(1j * p * rule.nodes) / math.sqrt(q)
    for i in range(rows):
        ei = halfplane.basis_fn(i, alpha, rule.nodes)
        for n in range(cols):
            en = halfplane.basis_fn(n, alpha, rule.nodes / q)
            out[i, n] = rule.integrate(ei * phase * en)
    return out


def _monomial_coeffs(n, alpha):
    """Coefficients c_a of L_n^{(alpha)}(x) = sum_a c_a x^a."""
    c = np.empty(n + 1)
    for a in range(n + 1):
        c[a] = ((-1.0) ** a * math.exp(
            math.lgamma(n + alpha + 1) - math.lgamma(a + alpha + 1)
            - math.lgamma(n - a + 1) - math.lgamma(a + 1)))
    return c


def overlap_block_monomial(q, p, alpha, rows, cols):
    """Cross-check route for the overlap block via monomial expansion.

    Expanding both Laguerre polynomials in monomials reduces each element to
    sum_{a,b} c_a d_b q^{-b} Gamma(alpha+a+b+1) / (sigma - ip)^{alpha+a+b+1}
    with sigma = (1 + 1/q)/2, times q^{-alpha/2 - 1/2} and the norms.  The
    alternating double sum loses roughly max(rows, cols) bits to
    cancellation, so it is only trustworthy for indices up to ~16.
    """
    sigma = 0.5 * (1.0 + 1.0 / q)
    log_base = complex(np.log(complex(sigma, -p)))
    nmax = max(rows, cols)
    coeffs = [_monomial_coeffs(n, alpha) for n in range(nmax)]
    norms = np.array([halfplane.basis_norm(n, alpha) for n in range(nmax)])
    powers = np.arange(rows + cols - 1)
    gam = np.exp(np.array([math.lgamma(alpha + k + 1) for k in powers])
                 - (alpha + powers + 1) * log_base)
    # G[a, b] = Gamma(alpha+a+b+1) (sigma - ip)^{-(alpha+a+b+1)}
    g = gam[np.add.outer(np.arange(rows), np.arange(cols))]
    cr = np.zeros((rows, rows))
    for i in range(rows):
        cr[i, : i + 1] = coeffs[i]
    cc = np.zeros((cols, cols))
    qb = q ** (-np.arange(cols, dtype=float))
    for n in range(cols):
        cc[n, : n + 1] = coeffs[n]
    pref = q ** (-0.5 * alpha - 0.5)
    return (pref * norms[:rows, None] * norms[None, :cols]
            * np.einsum("ia,ab,nb,b->in", cr, g, cc, qb))


def overlap_block_scalar(q, p, alpha, rows, cols):
    """The per-element route of the batched overlap block, one node at a
    time in complex scalars with exactly rounded 2F1 sums."""

    def f21_tracked(m, b, c, x):
        term, re, im, biggest = complex(1.0), [1.0], [0.0], 1.0
        for k in range(m):
            term = term * (k - m) * (b + k) * x / ((c + k) * (k + 1))
            re.append(term.real)
            im.append(term.imag)
            biggest = max(biggest, abs(term))
        return complex(math.fsum(re), math.fsum(im)), biggest

    s = complex(0.5 * (1.0 + 1.0 / q), -p)
    log_s, log_s1, log_sq = cmath.log(s), cmath.log(s - 1.0), cmath.log(s - 1.0 / q)
    zeta = (1.0 / q) / ((s - 1.0) * (s - 1.0 / q))
    lf = [math.lgamma(k + 1.0) for k in range(rows + cols)]
    lg = [math.lgamma(k + alpha + 1.0) for k in range(rows + cols)]
    lga1 = math.lgamma(alpha + 1.0)
    base = -math.log(q) * (0.5 * alpha + 0.5)
    out = np.empty((rows, cols), dtype=complex)
    for i in range(rows):
        for n in range(cols):
            lo, hi = min(i, n), max(i, n)
            powers = (base + i * log_s1 + n * log_sq
                      - (i + n + alpha + 1.0) * log_s)
            half = 0.5 * (lg[i] - lf[i] + lg[n] - lf[n])
            f21, big = f21_tracked(lo, -float(hi), alpha + 1.0, zeta)
            val = f21 * cmath.exp(half - lga1 + powers)
            err_a = math.log(big) + half - lga1 + powers.real
            if big > 1e6 * max(abs(f21), 1e-300):
                f21b, bigb = f21_tracked(lo, -float(hi), -(i + n + alpha), 1.0 - zeta)
                err_b = math.log(bigb) + lg[i + n] - half + powers.real
                if err_b < err_a:
                    val = f21b * cmath.exp(lg[i + n] - half + powers)
            out[i, n] = val
    return out


def overlap_block_mpmath(q, p, alpha, rows, cols, dps=40):
    """The closed form of the overlap block (see halfplane.overlap_block)
    with mpmath's 2F1, at dps significant digits."""
    out = np.empty((rows, cols), dtype=complex)
    with mpmath.workdps(dps):
        q, a = mpmath.mpf(q), mpmath.mpf(alpha)
        s = mpmath.mpc((1 + 1 / q) / 2, -p)
        zeta = (1 / q) / ((s - 1) * (s - 1 / q))
        for i in range(rows):
            for n in range(cols):
                norm = mpmath.sqrt(
                    mpmath.gamma(i + a + 1) * mpmath.gamma(n + a + 1)
                    / (mpmath.factorial(i) * mpmath.factorial(n))) / mpmath.gamma(a + 1)
                out[i, n] = complex(
                    norm * q ** (-a / 2 - 0.5) * (s - 1) ** i * (s - 1 / q) ** n
                    * s ** (-(i + n + a + 1)) * mpmath.hyp2f1(-i, -n, a + 1, zeta))
    return out


def c_rho_first_row(params, rule):
    """Admissibility constant as the first-row sum
    sum_k w_k sum_n W_n |<e_0|U(q_k,p_k)|e_n>|^2."""
    row = halfplane.overlap_block(rule.nodes[:, 0], rule.nodes[:, 1],
                                  params.alpha, 1, params.dim)[:, 0]
    return float(rule.integrate(np.abs(row) ** 2 @ params.weights()))


def resolution_block_einsum(params, block, rule, c_rho):
    """Leading block of sum_k w_k M_k W M_k^dag / c_rho, with M_k the first
    ``block`` overlap rows, as one four-operand einsum over the real and
    imaginary parts of M."""
    m = halfplane.overlap_block(rule.nodes[:, 0], rule.nodes[:, 1],
                                params.alpha, block, params.dim)
    parts = m.view(float).reshape(m.shape + (2,))
    g = np.einsum("k,n,kinc,kjnd->cdij", rule.weights, params.weights(),
                  parts, parts)
    return (g[0, 0] + g[1, 1] + 1j * (g[1, 0] - g[0, 1])) / c_rho


def central_nodes(count=20, seed=5):
    """Seeded nodes of the default group rule with |log q| < 3 and
    |arctan p| < 1.2, where the 16 x 16 blocks are not negligible."""
    nodes = halfplane.affine_group_rule().nodes
    central = np.flatnonzero((np.abs(np.log(nodes[:, 0])) < 3.0)
                             & (np.abs(np.arctan(nodes[:, 1])) < 1.2))
    return nodes[np.random.default_rng(seed).choice(central, count, replace=False)]


class TestBasis:
    def test_params_guards(self):
        with pytest.raises(ValueError):
            halfplane.AffineParams(alpha=0.0, t=0.1, dim=4)
        with pytest.raises(ValueError):
            halfplane.AffineParams(alpha=1.0, t=1.0, dim=4)
        with pytest.raises(ValueError):
            halfplane.AffineParams(alpha=1.0, t=0.1, dim=0)

    @pytest.mark.parametrize("alpha", [0.0, -1.0, math.nan, math.inf])
    def test_alpha_must_be_positive_and_finite(self, alpha):
        with pytest.raises(ValueError, match="0 < alpha < inf"):
            halfplane.AffineParams(alpha=alpha, t=0.1, dim=4)

    def test_basis_domain(self):
        with pytest.raises(ValueError):
            halfplane.basis_fn(0, 1.5, -0.1)

    def test_gram_orthonormal(self):
        assert halfplane.gram_defect(2.0, 12) < 1e-12
        assert halfplane.gram_defect(0.5, 12) < 1e-12

    def test_inverse_moment_is_one_over_alpha(self):
        for alpha in (0.7, 2.0, 5.0):
            for n in (0, 3, 9):
                assert_allclose(halfplane.inverse_moment(n, alpha),
                                1.0 / alpha, rtol=1e-12)

    def test_inverse_moment_guard(self):
        with pytest.raises(ValueError):
            halfplane.inverse_moment(2, 0.0)


class TestGroup:
    def test_product_and_inverse(self):
        g, h = (2.0, 0.7), (0.4, -1.1)
        gh = halfplane.group_product(g, h)
        back = halfplane.group_product(halfplane.group_inverse(g), gh)
        assert_allclose(back, h, atol=1e-14)

    def test_action_composition(self):
        # U(g) U(h) psi = U(gh) psi pointwise
        g, h = (1.7, 0.4), (0.6, -0.9)
        psi = lambda x: np.exp(-np.asarray(x))
        x = np.linspace(0.1, 5.0, 17)
        lhs = halfplane.affine_action(*g, halfplane.affine_action(*h, psi))(x)
        rhs = halfplane.affine_action(*halfplane.group_product(g, h), psi)(x)
        assert_allclose(lhs, rhs, atol=1e-14)

    def test_action_rejects_bad_q(self):
        with pytest.raises(ValueError):
            halfplane.affine_action(0.0, 0.0, lambda x: x)


class TestOverlap:
    def test_identity_element(self):
        assert_allclose(halfplane.overlap_block(1.0, 0.0, 2.0, 5, 8),
                        np.eye(5, 8), atol=1e-15)

    def test_matches_quadrature_oracle(self):
        for q, p in [(0.5, 0.0), (2.3, 1.4), (0.8, -3.0)]:
            got = halfplane.overlap_block(q, p, 2.0, 8, 8)
            want = overlap_oracle(q, p, 2.0, 8, 8)
            assert_allclose(got, want, atol=5e-9)

    def test_matches_monomial_route(self):
        got = halfplane.overlap_block(1.9, 0.8, 1.5, 10, 10)
        want = overlap_block_monomial(1.9, 0.8, 1.5, 10, 10)
        assert_allclose(got, want, atol=1e-7)

    def test_rows_unitary(self):
        # row norms of the infinite matrix are 1; truncation costs the
        # early rows almost nothing
        m = halfplane.overlap_block(1.8, 1.3, 2.0, 8, 200)
        assert_allclose(np.sum(np.abs(m) ** 2, axis=1), 1.0, atol=1e-6)

    def test_group_law_on_matrix_elements(self):
        # M(g) M(h) ~ M(gh) once the intermediate sum is long enough
        g, h = (1.6, 0.5), (0.7, -0.8)
        gh = halfplane.group_product(g, h)
        lhs = (halfplane.overlap_block(*g, 2.0, 6, 200)
               @ halfplane.overlap_block(*h, 2.0, 200, 6))
        assert_allclose(lhs, halfplane.overlap_block(*gh, 2.0, 6, 6),
                        atol=1e-8)

    def test_rejects_bad_q(self):
        with pytest.raises(ValueError):
            halfplane.overlap_block(-1.0, 0.0, 2.0, 4, 4)


class TestBatchedOverlap:
    def test_matches_mpmath_closed_form(self):
        nodes = central_nodes()
        got = halfplane.overlap_block(nodes[:, 0], nodes[:, 1], 2.0, 16, 16)
        for (q, p), block in zip(nodes, got):
            assert_allclose(block, overlap_block_mpmath(q, p, 2.0, 16, 16),
                            rtol=0, atol=1e-12)

    def test_matches_scalar_route(self):
        nodes = central_nodes()
        got = halfplane.overlap_block(nodes[:, 0], nodes[:, 1], 1.5, 16, 16)
        for (q, p), block in zip(nodes, got):
            assert_allclose(block, overlap_block_scalar(q, p, 1.5, 16, 16),
                            rtol=0, atol=1e-12)

    def test_batch_equals_per_node_calls(self):
        nodes = central_nodes()
        got = halfplane.overlap_block(nodes[:, 0], nodes[:, 1], 2.0, 6, 9)
        assert got.shape == (len(nodes), 6, 9)
        for (q, p), block in zip(nodes, got):
            assert_allclose(block, halfplane.overlap_block(q, p, 2.0, 6, 9),
                            rtol=0, atol=1e-15)

    def test_partner_route_nodes(self, monkeypatch):
        # at these nodes of the default rule some 16 x 16 elements at alpha 2
        # fail the primary route's cancellation test; batched with central
        # nodes, the partner 2F1 runs on those nodes only
        fallback = [1881, 1894, 1935, 1968, 2133, 2136, 2142, 2145, 2151, 2154]
        nodes = np.concatenate([halfplane.affine_group_rule().nodes[fallback],
                                central_nodes(6)])
        partner_sizes, f21 = [], halfplane._f21_tracked

        def recording(m, b, c, x):
            if c < 0:
                partner_sizes.append(np.size(x))
            return f21(m, b, c, x)

        monkeypatch.setattr(halfplane, "_f21_tracked", recording)
        got = halfplane.overlap_block(nodes[:, 0], nodes[:, 1], 2.0, 16, 16)
        assert partner_sizes and max(partner_sizes) <= len(fallback)
        for (q, p), block in zip(nodes[:len(fallback)], got):
            assert_allclose(block, overlap_block_mpmath(q, p, 2.0, 16, 16),
                            rtol=0, atol=1e-12)
        for (q, p), block in zip(nodes, got):
            assert_allclose(block, halfplane.overlap_block(q, p, 2.0, 16, 16),
                            rtol=0, atol=1e-15)

    def test_broadcast_shape(self):
        q = np.array([[0.5], [2.0]])
        p = np.array([-1.0, 0.0, 1.0])
        got = halfplane.overlap_block(q, p, 2.0, 3, 4)
        assert got.shape == (2, 3, 3, 4)
        assert_allclose(got[1, 2], halfplane.overlap_block(2.0, 1.0, 2.0, 3, 4),
                        rtol=0, atol=1e-15)

    def test_identity_element_inside_batch(self):
        got = halfplane.overlap_block(np.array([0.7, 1.0, 1.0]),
                                      np.array([0.3, 0.0, 0.3]), 2.0, 5, 8)
        assert_allclose(got[1], np.eye(5, 8), atol=0)
        assert np.max(np.abs(got[2] - np.eye(5, 8))) > 0.01

    def test_rejects_bad_q_anywhere(self):
        with pytest.raises(ValueError):
            halfplane.overlap_block(np.array([0.5, 2.0, 0.0]), 0.1, 2.0, 4, 4)

    def test_wide_block_raises_no_warning(self):
        # the partner route overflows at some of these nodes, where it is
        # never chosen
        nodes = central_nodes(8)
        got = halfplane.overlap_block(nodes[:, 0], nodes[:, 1], 2.0, 8, 200)
        assert np.all(np.isfinite(got))
        got = halfplane.overlap_block(1.8, 1.3, 2.0, 8, 200)
        assert_allclose(np.sum(np.abs(got) ** 2, axis=1), 1.0, atol=1e-6)


class TestAdmissibility:
    def test_c_rho_matches_derived(self):
        for t in (0.0, 0.25):
            # dim large enough that the thermal tail t^dim is negligible
            params = halfplane.AffineParams(alpha=2.0, t=t, dim=24)
            got = halfplane.c_rho_quadrature(params)
            assert_allclose(got, halfplane.c_rho_derived(2.0), rtol=1e-8)

    @pytest.mark.xfail(strict=True, reason="published constant carries a "
                       "spurious (1-t) factor; the per-state integrals are "
                       "t-independent, so the thermal weights sum to 1; see "
                       "the decisions ledger")
    def test_published_c_rho_variant(self):
        params = halfplane.AffineParams(alpha=2.0, t=0.25, dim=12)
        got = halfplane.c_rho_quadrature(params)
        assert_allclose(got, halfplane.c_rho_printed(2.0, 0.25), rtol=1e-6)

    def test_resolution_block_refines(self):
        coarse = halfplane.affine_resolution_check(
            PARAMS, block=3, rule=halfplane.affine_group_rule(24, 10.0, 24))
        fine = halfplane.affine_resolution_check(
            PARAMS, block=3, rule=halfplane.affine_group_rule(64, 14.0, 64))
        d_coarse = np.max(np.abs(coarse - np.eye(3)))
        d_fine = np.max(np.abs(fine - np.eye(3)))
        assert d_fine < 1e-3
        assert d_fine < d_coarse

    def test_affine_family_density_nodes(self):
        rule = halfplane.affine_group_rule(16, 8.0, 16)
        fam = halfplane.affine_family(PARAMS, rule)
        assert fam.dim == PARAMS.dim
        # evaluate near the identity element, where the basis truncation
        # loses almost no weight; extreme-q nodes leak out of the block
        nodes = fam.rule.nodes
        k = int(np.argmin(np.abs(np.log(nodes[:, 0])) + np.abs(nodes[:, 1])))
        rho = fam.evaluate(nodes[k])
        tr = np.trace(rho).real
        assert 0.95 < tr <= 1.0 + 1e-9  # deficit is pure truncation loss
        assert_allclose(rho, rho.conj().T, atol=1e-12)
        assert np.linalg.eigvalsh(rho).min() > -1e-12


class TestOrbitEngine:
    """c_rho and the resolution block run on core's orbit engine; the
    first-row sum and the einsum above are their references."""

    @pytest.mark.parametrize("t", [0.0, 0.2, 0.5])
    @pytest.mark.parametrize("alpha", [1.0, 2.0, 3.5])
    def test_matches_reference_reductions(self, alpha, t):
        params = halfplane.AffineParams(alpha, t, dim=16)
        for grid in (32, 64):
            rule = halfplane.affine_group_rule(n_u=grid, n_v=grid)
            c_rho = halfplane.c_rho_quadrature(params, rule)
            assert abs(c_rho - c_rho_first_row(params, rule)) < 1e-12
            for block in (1, 3, 6):
                got = halfplane.affine_resolution_check(params, block, rule, c_rho)
                want = resolution_block_einsum(params, block, rule, c_rho)
                assert got.shape == (block, block)
                assert np.max(np.abs(got - want)) < 1e-12

    def test_rows_family_is_leading_block(self):
        rule = halfplane.affine_group_rule(12, 8.0, 12)
        c_rho = halfplane.c_rho_quadrature(PARAMS, rule)
        full = core.orbit_family(halfplane.affine_orbit_spec(PARAMS, rule), c_rho)
        part = core.orbit_family(
            halfplane.affine_orbit_spec(PARAMS, rule, rows=3), c_rho)
        assert (full.dim, part.dim) == (PARAMS.dim, 3)
        assert_allclose(core.check_resolution(part).operator,
                        core.check_resolution(full).operator[:3, :3],
                        rtol=0, atol=1e-14)
        nodes = central_nodes(5)
        u = halfplane.overlap_block(nodes[:, 0], nodes[:, 1], PARAMS.alpha,
                                    PARAMS.dim, PARAMS.dim)
        want = u @ np.diag(PARAMS.weights()) @ np.swapaxes(u.conj(), -1, -2)
        assert_allclose(full.evaluate(nodes), want, rtol=0, atol=1e-15)
        assert_allclose(part.evaluate(nodes), want[:, :3, :3], rtol=0, atol=1e-15)

    def test_suite_defaults_run_the_primary_route_only(self, monkeypatch):
        # no node of the default rule falls back at the suite's parameters,
        # so each of the 16 + 48 overlap elements is one 2F1 over 4,096 nodes
        sizes, f21 = [], halfplane._f21_tracked

        def counting(m, b, c, x):
            sizes.append(np.size(x))
            return f21(m, b, c, x)

        monkeypatch.setattr(halfplane, "_f21_tracked", counting)
        params = halfplane.AffineParams(2.0, 0.2, 16)
        rule = halfplane.affine_group_rule(64, 14.0, 64)
        c = halfplane.c_rho_quadrature(params, rule)
        halfplane.affine_resolution_check(params, block=3, rule=rule, c_rho=c)
        assert sum(sizes) == 64 * 4096

    def test_c_rho_needs_one_row(self):
        rule = halfplane.affine_group_rule(12, 8.0, 12)
        one = core.covariant_c_rho(halfplane.affine_orbit_spec(PARAMS, rule, rows=1))
        full = core.covariant_c_rho(halfplane.affine_orbit_spec(PARAMS, rule))
        assert abs(one - full) < 1e-13


class TestThermalKernel:
    def test_trace_is_one(self):
        assert_allclose(halfplane.kernel_trace(PARAMS), 1.0, rtol=1e-10)

    @pytest.mark.xfail(strict=True, reason="published kernel prefactor and "
                       "exponent break normalization; see the decisions "
                       "ledger")
    def test_published_kernel_trace_variant(self):
        assert_allclose(halfplane.kernel_trace(PARAMS, printed=True), 1.0,
                        rtol=1e-6)

    @pytest.mark.xfail(strict=True, reason="published kernel is no eigen-"
                       "kernel of the basis: ratios 32.2, -124, -1254 at "
                       "alpha 2, t 0.2, x 2.1; see the decisions ledger")
    def test_published_kernel_eigenvalue_variant(self):
        params = halfplane.AffineParams(alpha=2.0, t=0.2, dim=6)
        for n in range(3):
            assert_allclose(halfplane.kernel_eigen_ratio(n, params, 2.1, printed=True),
                            0.8 * 0.2 ** n, rtol=1e-6)

    def test_eigenfunctions_geometric(self):
        for n in range(5):
            ratio = halfplane.kernel_eigen_ratio(n, PARAMS, x=2.3)
            assert_allclose(ratio, (1 - PARAMS.t) * PARAMS.t ** n, rtol=1e-8)

    @pytest.mark.parametrize("printed", [False, True])
    def test_array_kernel_matches_scalar(self, printed):
        xs = np.linspace(0.0, 12.0, 7)
        got = halfplane.thermal_kernel(xs[:, None], xs[None, :], PARAMS, printed)
        assert got.shape == (7, 7)
        for i, x in enumerate(xs):
            for j, y in enumerate(xs):
                want = halfplane.thermal_kernel(float(x), float(y), PARAMS, printed)
                assert isinstance(want, float)
                assert_allclose(got[i, j], want, rtol=1e-15, atol=0)

    def test_array_guards(self):
        with pytest.raises(ValueError):
            halfplane.thermal_kernel(np.array([0.5, -1e-3]), 0.5, PARAMS)
        with pytest.raises(ValueError):
            halfplane.thermal_kernel(0.5, np.array([[1.0], [-2.0]]), PARAMS)
        with pytest.raises(DomainError):
            bessel_i(1.0, np.array([0.1, -0.1, 3.0]))
        with pytest.raises(OverflowError):
            bessel_i(1.0, np.array([1.0, 700.5, 2.0]))
        assert isinstance(bessel_i(1.0, 2.0), float)
        assert bessel_i(1.0, np.array([2.0, 700.0])).shape == (2,)

    def test_kernel_guards(self):
        with pytest.raises(ValueError):
            halfplane.thermal_kernel(-1.0, 0.5, PARAMS)
        with pytest.raises(ValueError):
            halfplane.thermal_kernel(
                0.5, 0.5, halfplane.AffineParams(alpha=2.0, t=0.0, dim=4))
