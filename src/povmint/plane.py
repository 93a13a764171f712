"""Weyl-Heisenberg quantization on a truncated Fock space.

Displaced thermal states rho_T(z) = D(z) rho_T D(z)^dag over the complex
plane with measure d^2 z / pi = dJ dgamma / (2 pi) in action-angle
coordinates z = sqrt(J) e^{i gamma}.  The densities are the exact
compressions of rho_T(z) to dim Fock states, in closed form (associated
Laguerre polynomials), short of the thermal tail t^dim of the trace.

Every entry of rho_T(sqrt(J)) is (polynomial) * e^{-(1-t)J} (times sqrt(J)
for odd-parity entries), so radial Gauss-Laguerre rules in x = (1-t)J with
plain-dJ weights integrate the resolution of identity and polynomial
symbols exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DensityFamily, quantize_values
# hyp2f1_terminating is unused here; perfbench/tracer.py rebinds it (ROADMAP item 1)
from .numerics import (DomainError, QuadratureRule, _f21_terms, bessel_i,
                       hyp2f1_terminating, laguerre, laguerre_dx_rule, laguerre_table,
                       periodic_rule, product_rule)
from .operators import max_defect


@dataclass(frozen=True)
class ThermalParams:
    """Boltzmann factor t = exp(-hbar omega / k_B T) and Fock truncation."""

    t: float
    dim: int

    def __post_init__(self):
        if not 0.0 <= self.t < 1.0:
            raise DomainError(f"t must lie in [0, 1), got {self.t}")
        if isinstance(self.dim, bool) or not isinstance(self.dim, (int, np.integer)):
            raise DomainError(f"dim must be an integer, got {self.dim!r}")
        if not 1 <= self.dim <= 256:  # radial_density's validated range
            raise DomainError(f"dim must be >= 1 and <= 256, got {self.dim}")

    @property
    def truncation_deficit(self) -> float:
        """Thermal mass beyond the truncation: t^dim."""
        return self.t ** self.dim

    @property
    def s(self) -> float:
        """s = -coth(hbar omega / 2 k_B T) = -(1+t)/(1-t)."""
        return -(1.0 + self.t) / (1.0 - self.t)


def fock_ladder(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Lowering and raising matrices a, a^dag with a|e_n> = sqrt(n)|e_{n-1}>."""
    a = np.diag(np.sqrt(np.arange(1, dim)), k=1).astype(complex)
    return a, a.conj().T


def _displacement_scaled_real(x, dim: int) -> np.ndarray:
    """e^{x/2} D(sqrt(x)) for an array of x, shape x.shape + (dim, dim): entry (n + k, n)
    sqrt(n!/(n+k)!) x^{k/2} L_n^{(k)}(x) from the diagonal recurrence at head 1, s = x, t = 1
    and y = -x; entry (n, n + k) adds (-1)^k.  DomainError outside the validated range
    dim <= 256, 0 <= x <= 600, and for a NaN x."""
    x = np.asarray(x, dtype=float)
    flat = x.reshape(1, -1)
    if not (dim in range(1, 257) and np.all((flat >= 0.0) & (flat <= 600.0))):  # NaN fails too
        raise DomainError(f"dim = {dim}, |z|^2 in [{np.min(x)}, {np.max(x)}] is outside"
                          " the validated range dim <= 256, 0 <= |z|^2 <= 600")
    k = np.arange(dim)
    square = _square(_diagonal_recurrence(1.0, flat, 1.0, -flat, dim).transpose(2, 1, 0))
    return np.where(np.triu(k - k[:, None]) % 2, -square, square).reshape(x.shape + (dim, dim))


def displacement(z: complex, dim: int) -> np.ndarray:
    """Truncated displacement operator D(z): D_mn(z) = sqrt(n!/m!) z^{m-n} e^{-|z|^2/2}
    L_n^{(m-n)}(|z|^2) for m >= n and D_nm(z) = conj(D_mn(-z)), the real D(|z|) rotated
    by arg z."""
    x = abs(complex(z)) ** 2
    return _rotate(_displacement_scaled_real(x, dim) * math.exp(-0.5 * x), np.angle(complex(z)))


def displaced_thermal(z: complex, params: ThermalParams) -> np.ndarray:
    """Displaced thermal density D(z) rho_T D(z)^dag, compressed to dim states.

    The displacement is rejected once |z|^2 >= dim/4: past it the displaced
    state's photon number reaches the truncation, and the compression
    silently loses trace.
    """
    z = complex(z)
    if abs(z) ** 2 >= params.dim / 4.0:
        raise DomainError(
            f"|z|^2 = {abs(z) ** 2:.3g} exceeds the dim/4 truncation threshold")
    return thermal_density(abs(z) ** 2, np.angle(z), params)


def _diagonal_recurrence(head, s, t, y, dim: int) -> np.ndarray:
    """Columns n of the diagonals k of a dim x dim Fock matrix, packed[n, k, i], zero past
    the corner n + k >= dim, from column 0 head prod_{j<=k} sqrt(s/j) by the stable forward
    recurrence sqrt((n+1)(n+k+1)) Q_{n+1} = (t(2n+k+1) + y) Q_n - t^2 sqrt(n(n+k)) Q_{n-1}
    (s and y of shape (1, size), head broadcasting to it): Q_n / Q_0 = sqrt(k! n!/(n+k)!)
    t^n L_n^{(k)}(-y/t)."""
    k, n = np.ogrid[:dim, :dim]
    packed = np.zeros((dim, dim, s.shape[-1]))  # [n, k, i]: column n of diagonal k at i
    packed[0] = np.cumprod(np.vstack([np.broadcast_to(head, s.shape), np.sqrt(s / k[1:])]), 0)
    h = 1.0 / np.sqrt((n + 1.0) * (n + k + 1.0))
    c, g = t * (2 * n + k + 1) * h, -t * t * np.sqrt(n * (n + k)) * h
    for n in range(1, dim):  # column n from n - 1 and n - 2 (g = 0 at n = 1), rows k < dim - n
        new = np.multiply(packed[n - 2, :dim - n], g[:dim - n, n - 1:n], out=packed[n, :dim - n])
        new += (y * h[:dim - n, n - 1:n] + c[:dim - n, n - 1:n]) * packed[n - 1, :dim - n]
    return packed


def _square(diagonals) -> np.ndarray:
    """The symmetric squares [..., m, n] = diagonals[..., |m - n|, min(m, n)]."""
    m, n = np.ogrid[:diagonals.shape[-1], :diagonals.shape[-1]]
    return diagonals[..., abs(m - n), np.minimum(m, n)]


def _rotate(square, gamma) -> np.ndarray:
    """P square P^dag, P = diag(e^{i n gamma}): square[..., m, n] e^{i(m-n) gamma}."""
    phases = np.exp(1.0j * np.arange(square.shape[-1]) * np.asarray(gamma)[..., None])
    return phases[..., :, None] * square * phases.conj()[..., None, :]


def _radial_packed(j, params: ThermalParams) -> np.ndarray:
    """Diagonals of rho_T(sqrt(J)): packed[k, i, n] = [n + k, n] = [n, n + k] at
    J = j.flat[i], zero past the corner n + k >= dim; a (dim, j.size, dim) view of
    memory ordered [n, k, i].  Entries (Cahill & Glauber 1969) (1-t)^{k+1} sqrt(n!/(n+k)!)
    J^{k/2} e^{-x} t^n L_n^{(k)}(-y/t), at most 1, with x = (1-t)J and y = (1-t)x: the
    diagonal recurrence at head (1-t) e^{-x}, s = y, t and y.  Validated
    for dim <= 256 (ThermalParams holds it) and 0 <= x <= 700, where e^{-x} stays normal;
    outside it, or for a NaN J, it raises DomainError."""
    j = np.asarray(j, dtype=float)
    t, dim = params.t, params.dim
    x = (1.0 - t) * j.reshape(1, -1)
    if not np.all((x >= 0.0) & (x <= 700.0)):  # NaN fails too
        raise DomainError(f"J in [{np.min(j)}, {np.max(j)}] is outside the"
                          " validated range 0 <= (1-t) J <= 700")
    y = (1.0 - t) * x
    return _diagonal_recurrence((1.0 - t) * np.exp(-x), y, t, y, dim).transpose(1, 2, 0)


def radial_density(j, params: ThermalParams) -> np.ndarray:
    """rho_T(sqrt(J)) compressed to dim Fock states, shape j.shape + (dim, dim): the
    real, symmetric squares of _radial_packed."""
    square = _square(np.moveaxis(_radial_packed(j, params), 0, -2))
    return np.ascontiguousarray(square).reshape(np.shape(j) + (params.dim,) * 2)


def thermal_density(j, gamma, params: ThermalParams) -> np.ndarray:
    """rho_T(sqrt(J) e^{i gamma}) for arrays j and gamma that broadcast together:
    radial_density(J) once per distinct J in the call, rotated by gamma."""
    j = np.asarray(j, dtype=float)
    radii, inverse = np.unique(j, return_inverse=True)
    return _rotate(radial_density(radii, params)[inverse.reshape(j.shape)], gamma)


def purity_closed(t: float) -> float:
    """tr rho_T(z)^2 = (1-t)/(1+t), independent of z."""
    return (1.0 - t) / (1.0 + t)


# ---------------------------------------------------------------------------
# Probability kernel: the series route and the Bessel compact form.


def plane_prob_series(z0: complex, z: complex, t: float,
                      printed: bool = False) -> float:
    """Double Laguerre series for the probability kernel, to n = 40.

    The cross-term weight is n!/n'! (the ratio printed as n/n' is a typo:
    it must reproduce |D_{n'n}|^2, whose prefactor is factorial).  Pass
    printed=True to evaluate the typo variant for comparison.
    """
    x = abs(complex(z) - complex(z0)) ** 2
    n_max = 40
    total = sum(t ** (2 * n) * laguerre(n, 0, x) ** 2 for n in range(n_max + 1))
    lf = np.concatenate([[0.0], np.cumsum(np.log(np.arange(1, n_max + 1)))])
    for n in range(n_max + 1):
        for np_ in range(n + 1, n_max + 1):
            ratio = n / np_ if printed else math.exp(lf[n] - lf[np_])
            total += (2.0 * t ** (n + np_) * ratio * x ** (np_ - n)
                      * laguerre(n, np_ - n, x) ** 2)
    return (1.0 - t) ** 2 * math.exp(-x) * total


def laguerre_square_sum(t: float, x: float) -> float:
    """Partial sum sum_{n<=200} t^{2n} (L_n(x))^2 (the diagonal part of the kernel)."""
    rows = laguerre_table(200, 0.0, x).tolist()
    return math.fsum(t ** (2 * n) * row ** 2 for n, row in enumerate(rows))


def laguerre_square_closed(t: float, x: float, printed: bool = False) -> float:
    """Closed form of sum_n t^{2n} L_n(x)^2 via a modified Bessel function.

    The exponent is -2 x t^2/(1-t^2); the printed variant -x t^2/(1-t^2)
    (missing the factor 2) is kept for comparison.
    """
    u = t * t / (1.0 - t * t)
    expo = -x * u if printed else -2.0 * x * u
    return math.exp(expo) / (1.0 - t * t) * bessel_i(0, 2.0 * t * x / (1.0 - t * t))


def plane_hs_closed(t: float, prob: float, printed: bool = False) -> float:
    """Hilbert-Schmidt distance from the kernel value: sqrt(2((1-t)/(1+t) - p)).

    The printed variant squares the purity term; the definition
    tr((rho - rho')^2) = 2(tr rho_T^2 - p) has it unsquared.
    """
    pur = purity_closed(t)
    gap = (pur * pur if printed else pur) - prob
    return math.sqrt(2.0 * max(gap, 0.0))


# ---------------------------------------------------------------------------
# Quadrature over the plane and the POVM family.


def _radial_rule(n: int, t: float, alpha: float = 0.0) -> QuadratureRule:
    """laguerre_dx_rule in x = (1-t)J: a rule for dJ, exact for polynomial(x) x^alpha e^{-x}."""
    if not 0.0 <= t < 1.0:  # NaN fails too
        raise DomainError(f"t must lie in [0, 1), got {t}")
    return laguerre_dx_rule(n, alpha, 1.0 - t)


def _exact_radii(dim: int) -> int:
    """Gauss-Laguerre nodes in x = (1-t)J exact to degree dim (2n - 1 >= dim) with a margin."""
    return dim // 2 + 8


def sized_rules(params: ThermalParams) -> tuple[QuadratureRule, QuadratureRule]:
    """`verify plane`'s rules (DECISIONS.md entry 32): dim + 8 angles, and _exact_radii(dim)
    radii plus ceil(4t/(1-t)) for the covariance rows' Gaussian bump, at most dim + 16."""
    t, dim = params.t, params.dim
    n_j = min(dim + 16, _exact_radii(dim) + math.ceil(4.0 * t / (1.0 - t)))
    return _radial_rule(n_j, t), periodic_rule(dim + 8, 1.0 / (2.0 * math.pi))


def plane_family(params: ThermalParams, radial: QuadratureRule | None = None,
                 angular: QuadratureRule | None = None) -> DensityFamily:
    """The displaced-thermal POVM family on the (J, gamma) nodes of
    product_rule(radial, angular), for dJ dgamma / (2 pi).

    By default radially min(dim + 16, 182) Gauss-Laguerre nodes in x = (1-t)J (182 end at
    x = 696.9, in radial_density's validated x <= 700) with plain-dJ weights, exact for the
    family's (polynomial)*e^{-(1-t)J} radial profiles up to dim 256, and angularly a trapezoid
    of max(2 dim + 32, 64) nodes; `verify plane` passes the smaller sized_rules(params).
    ``evaluate`` calls thermal_density when asked.  The weighted sum of real c
    contracts the harmonics sum_gamma c(J_j, gamma) e^{+-i d gamma} with the
    diagonals d = m - n of the real, symmetric rho(J_j, 0), as _radial_packed
    builds them: one GEMM with cos and sin(d gamma) for d < dim, one matmul per
    diagonal and two writes, RC + i RS below the diagonal and RC - i RS above it.
    """
    dim = params.dim
    if radial is None:
        radial = _radial_rule(min(dim + 16, 182), params.t)
    if angular is None:
        angular = periodic_rule(max(2 * dim + 32, 64), 1.0 / (2.0 * math.pi))
    rule = product_rule(radial, angular)
    packed = _radial_packed(radial.nodes, params)
    # rows 2d, 2d + 1: cos and sin(d gamma) on the rule's own angles, a matmul
    # and not an FFT, so any angle set (offset, odd count) is summed exactly
    angles = np.outer(np.arange(dim), angular.nodes)
    trig = np.stack([np.cos(angles), np.sin(angles)], axis=1).reshape(2 * dim, -1)
    # [RC, RS] of diagonal d at flat (2d + q) dim + n of the [d, (RC, RS), n] product;
    # (n + d, n) gets RC + i RS and (n, n + d) RC - i RS, written through flat indices too
    m, n = np.tril_indices(dim)
    picks = (2 * (m - n) + np.arange(2)[:, None]) * dim + n
    lower, upper = m * dim + n, n * dim + m

    def evaluate(node):
        j, gamma = np.moveaxis(np.asarray(node, dtype=float), -1, 0)
        return thermal_density(j, gamma, params)

    def weighted_sum(coeffs):
        h = (trig @ np.reshape(coeffs, (radial.size, -1)).T).reshape(dim, 2, radial.size)
        rc, rs = (h @ packed).ravel()[picks]
        out = np.empty(dim * dim, dtype=complex)
        out[lower], out[upper] = rc + 1j * rs, rc - 1j * rs
        return out.reshape(dim, dim)

    return DensityFamily(dim, evaluate, rule, weighted_sum=weighted_sum)


# ---------------------------------------------------------------------------
# Closed-form quantized operators.


def q_matrix(dim: int) -> np.ndarray:
    a, adag = fock_ladder(dim)
    return (a + adag) / math.sqrt(2.0)


def p_matrix(dim: int) -> np.ndarray:
    a, adag = fock_ladder(dim)
    return (a - adag) / (1.0j * math.sqrt(2.0))


def quadratic_shift(params: ThermalParams) -> float:
    """A_{q^2} - Q^2 = -s/2 with s = -(1+t)/(1-t)."""
    return -params.s / 2.0


def oscillator_expected(params: ThermalParams) -> np.ndarray:
    """A_{|z|^2} = a^dag a + (1-s)/2."""
    a, adag = fock_ladder(params.dim)
    return adag @ a + (1.0 - params.s) / 2.0 * np.eye(params.dim)


def energy_gap() -> float:
    """E_0 - E_m = (1-s)/2 - (-s/2) = 1/2, independent of temperature."""
    return 0.5


def torus_unitary(theta: float, dim: int) -> np.ndarray:
    """Diagonal torus representation e^{i n theta}."""
    return np.diag(np.exp(1.0j * np.arange(dim) * theta))


def parity_op(dim: int) -> np.ndarray:
    return np.diag((-1.0) ** np.arange(dim)).astype(complex)


# ---------------------------------------------------------------------------
# Phase operator.


def _radial_integrals(params: ThermalParams) -> np.ndarray:
    """R[m, m'] = int_0^inf [rho_T(sqrt(J))]_{mm'} dJ in closed form (DECISIONS.md entry 35):
    for m <= m' = m + d, Gamma(m + d/2 + 1)/sqrt(m! m'!) (1-t)^{d/2} 2F1(-m, d/2; -m - d/2; t),
    mirrored below the diagonal.  The prefactor, <= 1, is a product down each diagonal d from
    Gamma(d/2 + 1)/sqrt(d!), itself a product in steps of 2 from 1 and sqrt(pi)/2, so nothing
    overflows up to dim 256; c + k < 0 for k < m, so every 2F1 term is >= 0."""
    t, dim = params.t, params.dim
    k = np.arange(dim)
    head = np.where(k % 2, math.sqrt(math.pi) / 2.0, 1.0)  # in steps of (d/2)/sqrt(d(d-1))
    ratio = 0.5 * k[2:] / np.sqrt(k[2:] * (k[2:] - 1.0))
    head[2::2] *= np.cumprod(ratio[0::2])
    head[3::2] *= np.cumprod(ratio[1::2])
    n = k[1:, None]  # [n, d]: down diagonal d in steps of (n + d/2)/sqrt(n(n + d))
    pre = np.cumprod(np.vstack([head, (n + 0.5 * k) / np.sqrt(n * (n + k))]), axis=0)
    m, mp = np.triu_indices(dim)
    d = mp - m
    with np.errstate(invalid="ignore"):  # the masked steps past each degree divide 0 by 0
        f21 = sum(_f21_terms(m, d / 2.0, -m - d / 2.0, t))  # in term order
    r = np.empty((dim, dim))
    r[mp, m] = r[m, mp] = pre[m, d] * (1.0 - t) ** (d / 2.0) * f21
    return r


def phase_operator(params: ThermalParams) -> np.ndarray:
    """Quantized angle via exact angular integrals (the normative route).

    int_0^{2pi} gamma e^{i k gamma} dgamma equals 2 pi^2 at k=0 and
    -2 pi i / k otherwise, so A_g = pi diag(R_mm) + i R_mm' / (m'-m), with R
    from the closed form of _radial_integrals (the corrected F_mm', entry 10).
    """
    r = _radial_integrals(params)
    idx = np.arange(params.dim)
    # the identity only keeps the diagonal finite; it is overwritten below
    out = 1.0j * r / (idx[None, :] - idx[:, None] + np.eye(params.dim))
    np.fill_diagonal(out, math.pi * np.diag(r))
    return out


def phase_operator_printed(params: ThermalParams) -> np.ndarray:
    """The published matrix route, evaluated verbatim.

    F_mm'(t) = (1-t) Gamma((m+m')/2 + 1) / sqrt(m m') * (1-t)^{(m'-m)/2}
               * 2F1(-m, (m'-m)/2; -(m+m')/2; t).
    The sqrt(m m') denominator diverges at index 0, so rows/columns at
    m = 0 are left as NaN; hypergeometric pole cases are NaN as well.
    phase_operator is the normative route.  DomainError past dim 172, where
    Gamma((m+m')/2 + 1) overflows off the diagonal (DECISIONS.md entry 10).
    """
    t, dim = params.t, params.dim
    if dim > 172:
        raise DomainError(f"the printed route is evaluated for dim <= 172, got {dim}")
    m, mp = np.indices((dim, dim))
    b, c = (mp - m) / 2.0, -(m + mp) / 2.0
    # at a pole b is a negative integer, so an exact 0 / 0 makes the entry NaN
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        terms = np.array([np.broadcast_to(e, (dim, dim)) for e in _f21_terms(m, b, c, t)])
        # row m sums its m + 1 terms; fsum of the zero padding past them adds nothing
        f21 = np.array([[math.fsum(e) for e in terms[:row + 1, row].T.tolist()]
                        for row in range(dim)])
        # Gamma((m+m')/2 + 1); m + m' = 2 dim - 2 falls on the diagonal only and is not
        # evaluated; the guard keeps the first off-diagonal's Gamma(dim - 1/2) finite
        gam = [math.gamma(s / 2.0 + 1.0) for s in range(2 * dim - 2)] + [math.nan]
        pw = [(1.0 - t) ** (d / 2.0) for d in range(1 - dim, dim)]
        f = ((1.0 - t) * np.take(gam, m + mp) / np.sqrt(m * mp)
             * np.take(pw, mp - m + dim - 1) * f21)
        # f / d before 1j: numpy divides a complex by a real via a reciprocal
        out = 1j * (f / (mp - m))
    out[0, :] = out[:, 0] = complex(math.nan, math.nan)
    np.fill_diagonal(out, math.pi)
    return out


def phase_covariance_defect(phase_op: np.ndarray, theta0: float) -> float:
    """Defect of U_T(theta0) A_g U_T(-theta0) = A_{g(. - theta0 mod 2pi)}
    for the phase operator A_g = phase_operator(params).

    The translated angle function has the same analytic angular integrals
    up to the phase e^{i(m-m') theta0}, so its operator is A_g times it.
    """
    u = torus_unitary(theta0, len(phase_op))
    idx = np.arange(len(phase_op))
    rhs = phase_op * np.exp(1.0j * np.subtract.outer(idx, idx) * theta0)
    return max_defect(u @ phase_op @ u.conj().T, rhs)


# ---------------------------------------------------------------------------
# Covariance suite.


def covariance_defects(params: ThermalParams, fam: DensityFamily) -> dict[str, float]:
    """Defects of the four covariance identities on test functions.

    Translation by z0 = 0.5 and rotation by 0.7 use a displaced Gaussian
    bump, parity an even pairing of the same bump, conjugation a complex
    mixture.  Defects are max-norm on the protected top-left dim/2 block.
    ``fam`` is a plane family of ``params`` already built by the caller.
    """
    dim = params.dim
    z0, theta, block = 0.5, 0.7, dim // 2
    j, gamma = fam.rule.nodes.T
    z = np.sqrt(j) * np.exp(1.0j * gamma)
    center = 0.3 + 0.2j

    def bump(z):
        return np.exp(-np.abs(z - center) ** 2)

    a_f = quantize_values(fam, bump(z))
    out: dict[str, float] = {}
    for name, u, moved in [("translation", displacement(complex(z0), dim), z - z0),
                           ("rotation", torus_unitary(theta, dim), np.exp(-1.0j * theta) * z),
                           ("parity", parity_op(dim), -z)]:
        lhs = u @ a_f @ u.conj().T
        out[name] = max_defect((lhs - quantize_values(fam, bump(moved)))[:block, :block])
    cf = z ** 2 + 1.0j * np.exp(-np.abs(z) ** 2)
    rhs = quantize_values(fam, np.conj(cf))
    out["conjugation"] = max_defect((quantize_values(fam, cf).conj().T - rhs)[:block, :block])
    return out
