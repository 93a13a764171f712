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

import numpy as np

from .core import CsBasis, GroupOrbitSpec, orbit_integral
# hyp2f1_terminating is unused here; perfbench/tracer.py rebinds it (ROADMAP item 1)
from .numerics import (BESSEL_OVERFLOW_X, DomainError, QuadratureRule, _f21_terms,
                       bessel_i_scaled, hyp2f1_terminating, laguerre, laguerre_dx_rule,
                       laguerre_rule, laguerre_table, legendre_rule, MAX_RULE_NODES, product_rule)


@dataclass(frozen=True)
class AffineParams:
    """Basis parameter alpha > 0, Boltzmann factor t, basis truncation."""

    alpha: float
    t: float
    dim: int

    def __post_init__(self):
        if not 0.0 < self.alpha < math.inf:
            raise DomainError(f"resolution requires 0 < alpha < inf, got {self.alpha}")
        if not 0.0 <= self.t < 1.0:
            raise DomainError(f"t must lie in [0, 1), got {self.t}")
        if isinstance(self.dim, bool) or not isinstance(self.dim, (int, np.integer)):
            raise DomainError(f"dim must be an integer, got {self.dim!r}")
        if self.dim < 1:
            raise DomainError(f"dim must be >= 1, got {self.dim}")


def basis_norm(n: int, alpha: float) -> float:
    return math.exp(0.5 * (math.lgamma(n + 1) - math.lgamma(n + alpha + 1)))


def basis_fn(n: int, alpha: float, x) -> np.ndarray:
    """Laguerre basis function e_n(x) on the half-line."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise DomainError("basis functions live on x >= 0")
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
        raise DomainError("the inverse moment diverges for alpha <= 0")
    rule = laguerre_rule(n + 4, alpha - 1.0)
    vals = laguerre(n, alpha, rule.nodes)
    return basis_norm(n, alpha) ** 2 * float(rule.weights @ vals ** 2)


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
    # summed term by term, so a 0-d x and a node array round alike; the first term is 1
    return sum(terms[1:], terms[0]), np.abs(terms[1:]).max(axis=0, initial=1.0)


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

    The prefactor is q^{-a/2-1/2} s^{-a-1} x^i y^n, x = (s-1)/s, y = (s-1/q)/s,
    by running products in x and y; row 0 and column 0 need no 2F1 sum.

    q and p may be arrays (broadcast together): the result then has shape
    q.shape + (rows, cols), and each element runs over all nodes at once. It is
    a transposed view of a (rows, cols) + q.shape buffer: out[..., i, n] is contiguous.
    Raises DomainError unless 0 < alpha < inf, q > 0, and p and 1/q are finite.
    """
    if not 0.0 < alpha < math.inf:
        raise DomainError(f"alpha must lie in (0, inf), got {alpha}")
    q, p = np.broadcast_arrays(np.asarray(q, dtype=float),
                               np.asarray(p, dtype=float))
    with np.errstate(divide="ignore", over="ignore"):
        if not np.all((q > 0.0) & np.isfinite(q + 1.0 / q) & np.isfinite(p)):
            raise DomainError("q must be positive with q, 1/q and p finite")
    identity = (q == 1.0) & (p == 0.0)
    q = np.where(identity, 2.0, q)  # s - 1 vanishes there; block set below
    s = 0.5 * (1.0 + 1.0 / q) - 1j * p
    log_s, base = np.log(s), -np.log(q) * (0.5 * alpha + 0.5)
    zeta = (1.0 / q) / ((s - 1.0) * (s - 1.0 / q))
    lf = np.array([math.lgamma(k + 1.0) for k in range(rows + cols)])
    lg = np.array([math.lgamma(k + alpha + 1.0) for k in range(rows + cols)])
    lga1 = math.lgamma(alpha + 1.0)
    half = 0.5 * (lg - lf)
    out = np.empty((rows, cols) + q.shape, dtype=complex).transpose([*range(2, q.ndim + 2), 0, 1])
    if rows and cols:
        out[..., 0, 0] = np.exp(base - (alpha + 1.0) * log_s)
        y = (s - 1.0 / q) / s
        for n in range(1, cols):
            np.multiply(out[..., 0, n - 1], y, out=out[..., 0, n])
        x = ((s - 1.0) / s)[..., None]
        for i in range(1, rows):
            np.multiply(out[..., i - 1, :], x, out=out[..., i, :])
        out *= np.exp(half[:rows, None] + half[:cols] - lga1)
    for i in range(1, rows):
        for n in range(1, cols):
            lo, hi = (i, n) if i <= n else (n, i)
            f21, big = _f21_tracked(lo, -float(hi), alpha + 1.0, zeta)
            elem = out[..., i, n]
            elem *= f21
            fb = big > 1e6 * np.maximum(np.abs(f21), 1e-300)
            if not fb.any():
                continue
            s_fb, amp = s[fb], half[i] + half[n]
            powers = (base[fb] + i * np.log(s_fb - 1.0) + n * np.log(s_fb - 1.0 / q[fb])
                      - (i + n + alpha + 1.0) * log_s[fb])
            # predicted cancellation error = max term * route amplitude
            err_a = np.log(big[fb]) + amp - lga1 + powers.real
            # the partner route may overflow at nodes that do not take it
            with np.errstate(over="ignore", invalid="ignore"):
                f21b, bigb = _f21_tracked(lo, -float(hi), -(i + n + alpha), 1.0 - zeta[fb])
                err_b = np.log(bigb) + lg[i + n] - amp + powers.real
                elem[fb] = np.where(err_b < err_a,
                                    f21b * np.exp(lg[i + n] - amp + powers), elem[fb])
    out[identity] = np.eye(rows, cols)
    return out


def affine_group_rule(n: int = 64, u_max: float = 14.0) -> QuadratureRule:
    """Rule for dq dp on the half-plane; nodes are n x n (q, p) pairs.

    q = e^u and p = tan(v), with u and v on one Gauss-Legendre rule for [-1, 1]
    scaled to [-u_max, u_max] and (-pi/2, pi/2).  Weights carry the Jacobians.
    DomainError unless 0 < u_max < inf and n^2 <= MAX_RULE_NODES.
    """
    if not 0.0 < u_max < math.inf:
        raise DomainError(f"u_max must lie in (0, inf), got {u_max}")
    if n * n > MAX_RULE_NODES:
        raise DomainError(f"{n} x {n} nodes exceed the budget of {MAX_RULE_NODES}")
    r = legendre_rule(n, -1.0, 1.0)
    qs, v = np.exp(u_max * r.nodes), 0.5 * math.pi * r.nodes
    return product_rule(QuadratureRule(qs, u_max * r.weights * qs),
                        QuadratureRule(np.tan(v), 0.5 * math.pi * r.weights / np.cos(v) ** 2))


def affine_orbit_spec(params: AffineParams, rule: QuadratureRule | None = None,
                      rows: int | None = None) -> GroupOrbitSpec:
    """Group-orbit description of the thermal family for the core engine.

    The unitary map returns the leading ``rows`` rows (default all ``dim``)
    of the truncated overlap block, so the orbit densities are the
    compressions of rho_T(q,p) onto e_0..e_{rows-1}, and the probe is the
    rows x rows projector on e_0. The block is exactly unitary only in the
    infinite-basis limit; the admissibility integral needs only its first
    row (rows=1), which is exact up to the thermal tail t^dim; rows must be an integer >= 1.
    """
    if rule is None:
        rule = affine_group_rule()
    dim, alpha = params.dim, params.alpha
    rows = dim if rows is None else rows
    if isinstance(rows, bool) or not isinstance(rows, (int, np.integer)) or rows < 1:
        raise DomainError(f"rows must be an integer >= 1, got {rows!r}")
    fiducial = np.diag((1.0 - params.t) * params.t ** np.arange(dim)).astype(complex)
    probe = np.zeros((rows, rows), dtype=complex)
    probe[0, 0] = 1.0

    def unitary(node):
        node = np.asarray(node, dtype=float)
        return overlap_block(node[..., 0], node[..., 1], alpha, rows, dim)

    def translate(g0, g):
        return group_product(group_inverse(tuple(g0)), tuple(g))

    return GroupOrbitSpec(unitary, fiducial, rule, probe, translate)


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
    -t(x+y)/(2(1-t)); it fails the trace and eigenfunction checks, and
    raises OverflowError where its exponent passes a double's range.
    """
    t, alpha = params.t, params.alpha
    if not 0.0 < t < 1.0:
        raise DomainError("thermal kernel needs t in (0, 1)")
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if not np.all((x >= 0) & (x < math.inf) & (y >= 0) & (y < math.inf)):  # NaN fails too
        raise DomainError("kernel arguments must be nonnegative and finite")
    arg = 2.0 * np.sqrt(t * x * y) / (1.0 - t)
    pre, decay = (1.0 - t, t) if printed else (1.0, 1.0 + t)
    # I_alpha(arg) e^{-arg} times e^expo: the corrected form's expo is <= 0
    expo = arg - 0.5 * decay * (x + y) / (1.0 - t)
    if np.any(expo > BESSEL_OVERFLOW_X):
        raise OverflowError(f"the kernel exponent {np.max(expo):.6g} overflows a double")
    out = pre * t ** (-0.5 * alpha) * np.exp(expo) * bessel_i_scaled(alpha, arg)[0]
    return out if out.ndim else float(out)


def kernel_rule(alpha: float) -> QuadratureRule:
    return laguerre_dx_rule(40, alpha)  # the kernel checks' rule for dx (DECISIONS.md entry 34)


def kernel_trace(params: AffineParams, printed: bool = False,
                 rule: QuadratureRule | None = None) -> float:
    """int K_T(x, x) dx = tr rho_T on rule (default kernel_rule(alpha)); 1 for the corrected K_T."""
    rule = kernel_rule(params.alpha) if rule is None else rule
    return float(rule.integrate(thermal_kernel(rule.nodes, rule.nodes, params, printed)))


def kernel_eigen_ratio(n: int | list[int], params: AffineParams, x: float, printed: bool = False,
                       rule: QuadratureRule | None = None) -> float | list[float]:
    """(int K_T(x, y) e_n(y) dy) / e_n(x) under rule (default kernel_rule(alpha)), (1-t) t^n for
    the corrected kernel, DomainError where e_n(x) = 0; a list of orders shares one K_T(x, .)."""
    rule = kernel_rule(params.alpha) if rule is None else rule
    kern, ratios = thermal_kernel(x, rule.nodes, params, printed), []
    for m in n if np.ndim(n) else [n]:
        if not (at_x := basis_fn(m, params.alpha, x)):
            raise DomainError(f"e_{m} vanishes at x = {x}: no eigenvalue ratio there")
        ratios.append(float(rule.integrate(kern * basis_fn(m, params.alpha, rule.nodes))) / at_x)
    return ratios if np.ndim(n) else ratios[0]


def affine_resolution_check(params: AffineParams, block: int,
                            rule: QuadratureRule | None = None) -> tuple[float, np.ndarray]:
    """(c_rho, leading block of int rho_T(q,p) dq dp / c_rho); the block should
    be the identity. One orbit reduction over the first `block` overlap rows
    per node gives both: c_rho is the (0, 0) entry of the integral it normalises.

    rho_T(q, -p) = conj rho_T(q, p) bit for bit, so the reduction runs over the
    p >= 0 nodes (p = 0 at half weight) and adds the conjugate. DomainError
    unless the rule's nodes pair as (q, p), (q, -p) with equal weights.
    """
    rule = affine_group_rule() if rule is None else rule
    (q, p), w = rule.nodes.T, rule.weights
    order, mirror = np.lexsort((p, q)), np.lexsort((-p, q))
    if not (np.array_equal(q[order], q[mirror]) and np.array_equal(p[order], -p[mirror])
            and np.array_equal(w[order], w[mirror])):
        raise DomainError("the group rule must pair (q, p) with (q, -p) at equal weights")
    keep = p >= 0
    half = QuadratureRule(rule.nodes[keep], np.where(p == 0, 0.5 * w, w)[keep])
    c_half, total = orbit_integral(affine_orbit_spec(params, half, rows=block))
    return 2.0 * c_half, (total + total.conj()) / (2.0 * c_half)
