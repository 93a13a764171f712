"""Affine-group (half-plane) construction: Laguerre basis, UIR, admissibility.

The Hilbert space is L^2(R+, dx) with the orthonormal basis
e_n(x) = sqrt(n!/Gamma(n+alpha+1)) e^{-x/2} x^{alpha/2} L_n^{(alpha)}(x),
and the affine group Aff+(R) = {(q, p): q > 0} acts by
(U(q,p) psi)(x) = e^{ipx} psi(x/q) / sqrt(q).

Matrix elements of U(q,p) in this basis reduce to finite sums of Gamma
integrals, so the group quadrature only has to resolve the (smooth) group
variables: q through the substitution q = e^u, p through p = tan(v).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (CsBasis, DensityFamily, GroupOrbitSpec, check_resolution,
                   covariant_c_rho, orbit_family)
# hyp2f1_terminating is unused here; perfbench/tracer.py rebinds it (ROADMAP item 1)
from .numerics import (QuadratureRule, _f21_terms, bessel_i, hyp2f1_terminating,
                       laguerre, laguerre_rule, laguerre_table, legendre_rule,
                       product_rule)


@dataclass(frozen=True)
class AffineParams:
    """Basis parameter alpha > 0, Boltzmann factor t, basis truncation."""

    alpha: float
    t: float
    dim: int

    def __post_init__(self):
        if not 0.0 < self.alpha < math.inf:
            raise ValueError(f"resolution requires 0 < alpha < inf, got {self.alpha}")
        if not 0.0 <= self.t < 1.0:
            raise ValueError(f"t must lie in [0, 1), got {self.t}")
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")

    def weights(self) -> np.ndarray:
        return (1.0 - self.t) * self.t ** np.arange(self.dim)


def basis_norm(n: int, alpha: float) -> float:
    return math.exp(0.5 * (math.lgamma(n + 1) - math.lgamma(n + alpha + 1)))


def basis_fn(n: int, alpha: float, x) -> np.ndarray:
    """Laguerre basis function e_n(x) on the half-line."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("basis functions live on x >= 0")
    return (basis_norm(n, alpha) * np.exp(-0.5 * x) * x ** (0.5 * alpha)
            * laguerre(n, alpha, x))


def gram_defect(alpha: float, dim: int) -> float:
    """Max-norm defect of the basis Gram matrix under a Gauss-Laguerre rule.

    The integrand e_n e_n' is (polynomial) * x^alpha e^{-x}, so the rule is
    exact with its dim + 4 nodes (any count above dim).
    """
    rule = laguerre_rule(dim + 4, alpha)
    norms = np.array([basis_norm(n, alpha) for n in range(dim)])
    return CsBasis(lambda x: norms * np.moveaxis(laguerre_table(dim - 1, alpha, x), 0, -1),
                   dim, rule).gram_defect()


def inverse_moment(n: int, alpha: float) -> float:
    """int e_n(x)^2 dx / x = 1/alpha, independent of n.

    Term-by-term the Gauss-Laguerre(alpha-1) integral of the squared basis
    polynomial telescopes to Gamma(alpha)/Gamma(alpha+1) for every degree.
    """
    if alpha <= 0.0:
        raise ValueError("the inverse moment diverges for alpha <= 0")
    rule = laguerre_rule(n + 4, alpha - 1.0)
    vals = laguerre(n, alpha, rule.nodes)
    return basis_norm(n, alpha) ** 2 * float(rule.weights @ vals ** 2)


def affine_action(q: float, p: float, psi: Callable) -> Callable:
    """The UIR action (U(q,p) psi)(x) = e^{ipx} psi(x/q) / sqrt(q)."""
    if q <= 0.0:
        raise ValueError(f"q must be positive, got {q}")

    def out(x):
        x = np.asarray(x, dtype=float)
        return np.exp(1.0j * p * x) * np.asarray(psi(x / q)) / math.sqrt(q)

    return out


def group_product(g: tuple[float, float], g0: tuple[float, float]):
    """Affine multiplication (q, p)(q0, p0) = (q q0, p0/q + p)."""
    q, p = g
    q0, p0 = g0
    return (q * q0, p0 / q + p)


def group_inverse(g: tuple[float, float]):
    q, p = g
    return (1.0 / q, -p * q)


def _f21_tracked(m: int, b: float, c: float, x: np.ndarray):
    """Terminating 2F1(-m, b; c; x) over an array x, plus the largest term
    magnitude at each x.

    The max term bounds the cancellation suffered by the alternating sum,
    so the caller can pick the better-conditioned of two representations.
    """
    terms = _f21_terms(m, b, c, x)
    # summed term by term, so a 0-d x and a node array round alike
    return sum(terms[1:], terms[0]), np.abs(np.array(terms)).max(axis=0)


def overlap_block(q, p, alpha: float, rows: int, cols: int) -> np.ndarray:
    """Matrix elements M[i, n] = <e_i | U(q,p) | e_n>, evaluated analytically.

    Each element is a Laplace transform of a product of two Laguerre
    polynomials, which collapses to a terminating hypergeometric sum of
    min(i, n)+1 terms: with s = (1 + 1/q)/2 - ip and
    zeta = (1/q) / ((s-1)(s-1/q)),

        M[i, n] = sqrt(Gamma(i+a+1) Gamma(n+a+1) / (i! n! Gamma(a+1)^2))
                  q^{-a/2-1/2} (s-1)^i (s-1/q)^n s^{-(i+n+a+1)}
                  2F1(-i, -n; a+1; zeta),      a = alpha,

    with the connection-formula partner 2F1(-i, -n; -i-n-a; 1-zeta) (carrying
    Gamma(i+n+a+1)/sqrt(...) in place of the Gamma ratio above) as a fallback:
    the two sums lose accuracy in complementary (q, p) regions. The partner is
    evaluated only at nodes where the primary sum's largest term exceeds 1e6
    times the sum, and there each element keeps whichever route cancelled less.

    q and p may be arrays (broadcast together): the result then has shape
    q.shape + (rows, cols), and each element runs over all nodes at once.
    """
    q, p = np.broadcast_arrays(np.asarray(q, dtype=float),
                               np.asarray(p, dtype=float))
    if np.any(q <= 0.0):
        raise ValueError(f"q must be positive, got {np.min(q)}")
    identity = (q == 1.0) & (p == 0.0)
    q = np.where(identity, 2.0, q)  # s - 1 vanishes there; block set below
    s = 0.5 * (1.0 + 1.0 / q) - 1j * p
    log_s, log_s1, log_sq = np.log(s), np.log(s - 1.0), np.log(s - 1.0 / q)
    zeta = (1.0 / q) / ((s - 1.0) * (s - 1.0 / q))
    lf = np.array([math.lgamma(k + 1.0) for k in range(rows + cols)])
    lg = np.array([math.lgamma(k + alpha + 1.0) for k in range(rows + cols)])
    lga1 = math.lgamma(alpha + 1.0)
    base = -np.log(q) * (0.5 * alpha + 0.5)
    out = np.empty(q.shape + (rows, cols), dtype=complex)
    for i in range(rows):
        for n in range(cols):
            lo, hi = (i, n) if i <= n else (n, i)
            powers = (base + i * log_s1 + n * log_sq
                      - (i + n + alpha + 1.0) * log_s)
            half = 0.5 * (lg[i] - lf[i] + lg[n] - lf[n])
            f21, big = _f21_tracked(lo, -float(hi), alpha + 1.0, zeta)
            elem = out[..., i, n]
            elem[...] = f21 * np.exp(half - lga1 + powers)
            fb = big > 1e6 * np.maximum(np.abs(f21), 1e-300)
            if not fb.any():
                continue
            # predicted cancellation error = max term * route amplitude
            err_a = np.log(big[fb]) + half - lga1 + powers.real[fb]
            # the partner route may overflow at nodes that do not take it
            with np.errstate(over="ignore", invalid="ignore"):
                f21b, bigb = _f21_tracked(lo, -float(hi), -(i + n + alpha), 1.0 - zeta[fb])
                err_b = np.log(bigb) + lg[i + n] - half + powers.real[fb]
                elem[fb] = np.where(err_b < err_a,
                                    f21b * np.exp(lg[i + n] - half + powers[fb]), elem[fb])
    out[identity] = np.eye(rows, cols)
    return out


def affine_group_rule(n_u: int = 64, u_max: float = 14.0,
                      n_v: int = 64) -> QuadratureRule:
    """Rule for dq dp on the half-plane; nodes are (q, p) pairs.

    q = e^u with Gauss-Legendre in u over [-u_max, u_max]; p = tan(v) with
    Gauss-Legendre in v over (-pi/2, pi/2).  Weights carry the Jacobians.
    """
    ru = legendre_rule(n_u, -u_max, u_max)
    rv = legendre_rule(n_v, -0.5 * math.pi, 0.5 * math.pi)
    qs = np.exp(ru.nodes)
    return product_rule(QuadratureRule(qs, ru.weights * qs),
                        QuadratureRule(np.tan(rv.nodes),
                                       rv.weights / np.cos(rv.nodes) ** 2))


def affine_orbit_spec(params: AffineParams, rule: QuadratureRule | None = None,
                      rows: int | None = None) -> GroupOrbitSpec:
    """Group-orbit description of the thermal family for the core engine.

    The unitary map returns the leading ``rows`` rows (default all ``dim``)
    of the truncated overlap block, so the orbit densities are the
    compressions of rho_T(q,p) onto e_0..e_{rows-1}, and the probe is the
    rows x rows projector on e_0. The block is exactly unitary only in the
    infinite-basis limit; the admissibility integral needs only its first
    row (rows=1), which is exact up to the thermal tail t^dim.
    """
    if rule is None:
        rule = affine_group_rule()
    dim, alpha = params.dim, params.alpha
    rows = dim if rows is None else rows
    fiducial = np.diag(params.weights()).astype(complex)
    probe = np.zeros((rows, rows), dtype=complex)
    probe[0, 0] = 1.0

    def unitary(node):
        node = np.asarray(node, dtype=float)
        return overlap_block(node[..., 0], node[..., 1], alpha, rows, dim)

    def translate(g0, g):
        return group_product(group_inverse(tuple(g0)), tuple(g))

    return GroupOrbitSpec(unitary, fiducial, rule, probe, translate)


def c_rho_quadrature(params: AffineParams,
                     rule: QuadratureRule | None = None) -> float:
    """Admissibility constant by direct group quadrature.

    Only the first overlap row enters, so this is exact in the basis
    truncation up to the thermal tail t^dim.
    """
    return covariant_c_rho(affine_orbit_spec(params, rule, rows=1))


def c_rho_derived(alpha: float) -> float:
    """2 pi / alpha: each basis state has the same admissibility integral."""
    return 2.0 * math.pi / alpha


def c_rho_printed(alpha: float, t: float) -> float:
    """The published closed form 2 pi (1-t) / alpha, kept for comparison.

    It coincides with the derived constant only at t = 0: the thermal
    weights (1-t) t^n multiply identical per-state integrals 2 pi / alpha,
    so their sum carries no (1-t) factor.
    """
    return 2.0 * math.pi * (1.0 - t) / alpha


def thermal_kernel(x, y, params: AffineParams, printed: bool = False):
    """Integral kernel of rho_T on L^2(R+); x and y broadcast, and scalars
    give a float.

    Corrected form (from the Hille-Hardy bilinear sum):
        K_T(x,y) = t^{-alpha/2} e^{-(1+t)(x+y)/(2(1-t))}
                   I_alpha(2 sqrt(t x y)/(1-t)).
    The printed variant keeps a (1-t) prefactor and the exponent
    -t(x+y)/(2(1-t)); it fails the trace and eigenfunction checks.
    """
    t, alpha = params.t, params.alpha
    if not 0.0 < t < 1.0:
        raise ValueError("thermal kernel needs t in (0, 1)")
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if np.any(x < 0) or np.any(y < 0):
        raise ValueError("kernel arguments must be nonnegative")
    arg = 2.0 * np.sqrt(t * x * y) / (1.0 - t)
    pre, decay = (1.0 - t, t) if printed else (1.0, 1.0 + t)
    out = (pre * t ** (-0.5 * alpha) * np.exp(-0.5 * decay * (x + y) / (1.0 - t))
           * bessel_i(alpha, arg))
    return out if out.ndim else float(out)


# the kernel checks' 200-node rule for dx on [0, 160], built once at import
KERNEL_RULE = legendre_rule(200, 0.0, 160.0)


def kernel_trace(params: AffineParams, printed: bool = False) -> float:
    """Quadrature of int K_T(x, x) dx under KERNEL_RULE; equals tr rho_T = 1
    for the corrected kernel."""
    x = KERNEL_RULE.nodes
    return float(KERNEL_RULE.integrate(thermal_kernel(x, x, params, printed)))


def kernel_eigen_ratio(n: int, params: AffineParams, x: float,
                       printed: bool = False) -> float:
    """(int K_T(x, y) e_n(y) dy) / e_n(x) under KERNEL_RULE; equals
    (1-t) t^n for the corrected kernel."""
    y = KERNEL_RULE.nodes
    vals = thermal_kernel(x, y, params, printed) * basis_fn(n, params.alpha, y)
    return float(KERNEL_RULE.integrate(vals)) / basis_fn(n, params.alpha, x)


def affine_family(params: AffineParams,
                  rule: QuadratureRule | None = None) -> DensityFamily:
    """The thermal orbit family rho_T(q,p) with measure dq dp / c_rho."""
    spec = affine_orbit_spec(params, rule)
    return orbit_family(spec, c_rho_quadrature(params, spec.group_rule))


def affine_resolution_check(params: AffineParams, block: int = 4,
                            rule: QuadratureRule | None = None,
                            c_rho: float | None = None) -> np.ndarray:
    """Leading block of int rho_T(q,p) dq dp / c_rho; should be the identity.

    Each element is a double group integral; only the first `block` overlap
    rows are computed per node.
    """
    spec = affine_orbit_spec(params, rule, rows=block)
    if c_rho is None:
        c_rho = c_rho_quadrature(params, spec.group_rule)
    return check_resolution(orbit_family(spec, c_rho)).operator
