"""Weyl-Heisenberg quantization on a truncated Fock space.

Displaced thermal states rho_T(z) = D(z) rho_T D(z)^dag over the complex
plane with measure d^2 z / pi = dJ dgamma / (2 pi) in action-angle
coordinates z = sqrt(J) e^{i gamma}.  Displacement matrix elements are
analytic (associated Laguerre polynomials), so the truncated density is
exact entrywise up to the thermal tail t^dim.

The default radial rule converts Gauss-Laguerre nodes to plain-dJ weights;
since every matrix element of rho_T(sqrt(J)) is (polynomial) * e^{-J} (times
sqrt(J) for odd-parity entries), these rules integrate the resolution of
identity and polynomial symbols essentially exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DensityFamily
from .numerics import (DomainError, PoleError, QuadratureRule, bessel_i,
                       hyp2f1_terminating, laguerre, laguerre_rule, laguerre_table,
                       periodic_rule, product_rule)
from .operators import max_defect


@dataclass(frozen=True)
class ThermalParams:
    """Boltzmann factor t = exp(-hbar omega / k_B T) and Fock truncation."""

    t: float
    dim: int

    def __post_init__(self):
        if not 0.0 <= self.t < 1.0:
            raise ValueError(f"t must lie in [0, 1), got {self.t}")
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")

    @property
    def truncation_deficit(self) -> float:
        """Thermal mass beyond the truncation: t^dim."""
        return self.t ** self.dim

    @property
    def s(self) -> float:
        """s = -coth(hbar omega / 2 k_B T) = -(1+t)/(1-t)."""
        return -(1.0 + self.t) / (1.0 - self.t)

    def weights(self) -> np.ndarray:
        return (1.0 - self.t) * self.t ** np.arange(self.dim)


def fock_ladder(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Lowering and raising matrices a, a^dag with a|e_n> = sqrt(n)|e_{n-1}>."""
    a = np.diag(np.sqrt(np.arange(1, dim)), k=1).astype(complex)
    return a, a.conj().T


def _real_displacements(x, dim: int) -> np.ndarray:
    """e^{x/2} D(sqrt(x)) for an array of x >= 0, shape x.shape + (dim, dim).

    Entry (m, n), m >= n: sqrt(n!/m!) x^{(m-n)/2} L_n^{(m-n)}(x) from one
    Laguerre table, its prefactor in log space; entry (n, m) adds (-1)^{m-n}.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise DomainError(f"|z|^2 must be nonnegative, got {np.min(x)}")
    flat = x.reshape(-1, 1)
    m, n = np.tril_indices(dim)
    lf = np.concatenate([[0.0], np.cumsum(np.log(np.arange(1, dim)))])
    vals = laguerre_table(dim - 1, np.arange(dim), flat)[n, :, m - n].T
    with np.errstate(divide="ignore", invalid="ignore"):  # log 0 = -inf at x = 0
        power = np.where(m == n, 0.0, 0.5 * (m - n) * np.log(flat))  # x^0 = 1 at x = 0
    vals *= np.exp(0.5 * (lf[n] - lf[m]) + power)
    out = np.zeros((flat.shape[0], dim, dim))
    out[:, m, n] = vals
    out[:, n, m] = vals * (-1.0) ** (m - n)
    return out.reshape(x.shape + (dim, dim))


def displacement(z: complex, dim: int) -> np.ndarray:
    """Truncated displacement operator D(z) with analytic matrix elements.

    D_mn(z) = sqrt(n!/m!) z^{m-n} e^{-|z|^2/2} L_n^{(m-n)}(|z|^2) for m >= n,
    and D_mn(z) = conj(D_nm(-z)) below the diagonal; D(|z| e^{i phi}) is
    P D(|z|) P^dag with P = diag(e^{i n phi}).
    """
    z = complex(z)
    phases = np.exp(1.0j * np.arange(dim) * np.angle(z))
    x = abs(z) ** 2
    real = _real_displacements(x, dim) * math.exp(-0.5 * x)
    return phases[:, None] * real * phases.conj()[None, :]


# a separate name only so perfbench/tracer.py can time it (ROADMAP item 1)
def _displacement_scaled_real(sqrt_j_squared: float, dim: int) -> np.ndarray:
    """D(sqrt(J)) without its e^{-J/2} factor (entries in _real_displacements)."""
    return _real_displacements(sqrt_j_squared, dim)


def displaced_thermal(z: complex, params: ThermalParams) -> np.ndarray:
    """Displaced thermal density D(z) rho_T D(z)^dag.

    The displacement is rejected once |z|^2 >= dim/4, where truncation
    visibly corrupts the state.
    """
    z = complex(z)
    if abs(z) ** 2 >= params.dim / 4.0:
        raise ValueError(
            f"|z|^2 = {abs(z) ** 2:.3g} exceeds the dim/4 truncation threshold")
    return thermal_density(abs(z) ** 2, np.angle(z), params)


def rho_scaled_real(j, params: ThermalParams) -> np.ndarray:
    """rho_T(sqrt(J)) * e^J: every entry is a polynomial in J (times sqrt(J)
    for odd-parity entries), which makes Gauss-Laguerre radial rules exact.
    An array of J gives shape j.shape + (dim, dim)."""
    d = _displacement_scaled_real(j, params.dim)
    return (d * params.weights()) @ np.swapaxes(d, -1, -2)


def thermal_density(j, gamma, params: ThermalParams) -> np.ndarray:
    """rho_T(sqrt(J) e^{i gamma}) for arrays j and gamma that broadcast together:
    rho_scaled_real(J) e^{-J} once per distinct J in the call, times the
    rotation phases rho(J, gamma)_mn = rho(J, 0)_mn e^{i(m-n) gamma}."""
    j = np.asarray(j, dtype=float)
    radii, inverse = np.unique(j, return_inverse=True)
    radial = rho_scaled_real(radii, params) * np.exp(-radii)[:, None, None]
    phases = np.exp(1.0j * np.arange(params.dim) * np.asarray(gamma)[..., None])
    return (phases[..., :, None] * radial[inverse.reshape(j.shape)]
            * phases.conj()[..., None, :])


def purity_closed(t: float) -> float:
    """tr rho_T(z)^2 = (1-t)/(1+t), independent of z."""
    return (1.0 - t) / (1.0 + t)


# ---------------------------------------------------------------------------
# Probability kernel: matrix route, series route, and the Bessel compact form.


def plane_prob_matrix(z0: complex, z: complex, params: ThermalParams) -> float:
    """tr(rho_T(z0) rho_T(z)) on the truncated space."""
    r0 = displaced_thermal(z0, params)
    r1 = displaced_thermal(z, params)
    return float(np.trace(r0 @ r1).real)


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


def plane_rule(dim: int, n_j: int | None = None,
               n_gamma: int | None = None) -> QuadratureRule:
    """Product rule for dJ dgamma / (2 pi); nodes are (J, gamma) pairs.

    The radial factor converts Gauss-Laguerre nodes/weights to a plain-dJ
    rule on [0, inf), exact for the (polynomial)*e^{-J} radial profiles of
    the thermal family.
    """
    if n_j is None:
        n_j = dim + 16
    if n_gamma is None:
        n_gamma = max(2 * dim + 32, 64)
    base = laguerre_rule(n_j)
    # convert weights to plain dJ in log space: w * e^J overflows at the
    # outermost nodes even though the product is moderate
    radial = QuadratureRule(base.nodes, np.exp(np.log(base.weights) + base.nodes))
    return product_rule(radial, periodic_rule(n_gamma, 1.0 / (2.0 * math.pi)))


def _grid_angles(nodes: np.ndarray) -> np.ndarray | None:
    """The shared angle set when the (J, gamma) nodes are, in row-major order,
    a grid of strictly ascending radii times one angle set; else None."""
    if len(nodes) == 0:
        return None
    n_gamma = int(np.argmax(nodes[:, 0] != nodes[0, 0])) or len(nodes)
    if len(nodes) % n_gamma:
        return None
    grid = nodes.reshape(-1, n_gamma, 2)
    radii, angles = grid[:, 0, 0], grid[0, :, 1]
    if (np.any(grid[..., 0] != radii[:, None]) or np.any(grid[..., 1] != angles)
            or np.any(np.diff(radii) <= 0)):
        return None
    return angles


def plane_family(params: ThermalParams,
                 rule: QuadratureRule | None = None) -> DensityFamily:
    """The displaced-thermal POVM family on (J, gamma) nodes.

    ``evaluate`` calls thermal_density when asked; the family stores no node
    matrix, except on a tensor-grid rule: there the weighted sum reduces each
    radius's coefficients to angular harmonics
    S_j(m-n) = sum_gamma c(J_j, gamma) e^{i(m-n) gamma} and contracts them
    with rho(J_j, 0), one matrix per radius built at construction.
    """
    if rule is None:
        rule = plane_rule(params.dim)
    dim = params.dim

    def evaluate(node):
        j, gamma = np.moveaxis(np.asarray(node, dtype=float), -1, 0)
        return thermal_density(j, gamma, params)

    weighted_sum = None
    angles = _grid_angles(rule.nodes)
    if angles is not None:
        stack = thermal_density(rule.nodes[::len(angles), 0], 0.0, params)
        # harmonic column m - n + dim - 1 holds e^{i(m-n) gamma}; a matmul, not
        # an FFT, so any angle set (offset, odd count) is summed exactly
        harmonics = np.exp(1.0j * np.outer(angles, np.arange(1 - dim, dim)))
        column = np.subtract.outer(np.arange(dim), np.arange(dim)) + dim - 1

        def weighted_sum(coeffs):
            s = np.reshape(coeffs, (len(stack), -1)) @ harmonics
            return np.einsum("jmn,jmn->mn", stack, s[:, column])

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
    """R[m, m'] = int_0^inf [rho_T(sqrt(J))]_{mm'} dJ, exactly per parity.

    Even-parity entries are polynomial * e^{-J} (Gauss-Laguerre alpha=0
    exact); odd-parity entries carry an extra sqrt(J) (alpha=1/2 exact);
    dim + 8 nodes each.
    """
    n_j = params.dim + 8
    rule0 = laguerre_rule(n_j)
    rule_h = laguerre_rule(n_j, 0.5)
    rho = rho_scaled_real(np.concatenate([rule0.nodes, rule_h.nodes]), params)
    acc0 = rule0.integrate(rho[:n_j])
    acc_h = rule_h.integrate(rho[n_j:] / np.sqrt(rule_h.nodes)[:, None, None])
    parity = (np.add.outer(np.arange(params.dim), np.arange(params.dim)) % 2)
    return np.where(parity == 0, acc0, acc_h)


def phase_operator(params: ThermalParams) -> np.ndarray:
    """Quantized angle via exact angular integrals (the quadrature route).

    int_0^{2pi} gamma e^{i k gamma} dgamma equals 2 pi^2 at k=0 and
    -2 pi i / k otherwise, so A_g = pi diag(R_mm) + i R_mm' / (m'-m).
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
    The quadrature route is the normative one.
    """
    t, dim = params.t, params.dim
    out = (math.pi * np.eye(dim)).astype(complex)
    for m in range(dim):
        for mp in range(dim):
            if m == mp:
                continue
            if m == 0 or mp == 0:
                out[m, mp] = complex(math.nan, math.nan)
                continue
            try:
                f21 = hyp2f1_terminating(m, (mp - m) / 2.0, -(m + mp) / 2.0, t)
            except PoleError:
                out[m, mp] = complex(math.nan, math.nan)
                continue
            f = ((1.0 - t) * math.gamma((m + mp) / 2.0 + 1.0)
                 / math.sqrt(m * mp) * (1.0 - t) ** ((mp - m) / 2.0) * f21)
            out[m, mp] = 1.0j * f / (mp - m)
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


def covariance_defects(params: ThermalParams,
                       fam: DensityFamily | None = None) -> dict[str, float]:
    """Defects of the four covariance identities on test functions.

    Translation by z0 = 0.5 and rotation by 0.7 use a displaced Gaussian
    bump, parity an even pairing of the same bump, conjugation a complex
    mixture.  Defects are max-norm on the protected top-left dim/2 block.
    ``fam`` is a plane family of ``params`` already built by the caller;
    by default one is built on the default rule.
    """
    from .core import quantize_values

    if fam is None:
        fam = plane_family(params)
    dim = params.dim
    z0, theta, block = 0.5, 0.7, dim // 2
    j, gamma = fam.rule.nodes.T
    z = np.sqrt(j) * np.exp(1.0j * gamma)
    center = 0.3 + 0.2j

    def bump(z):
        return np.exp(-np.abs(z - center) ** 2)

    def sub(m):
        return m[:block, :block]

    out: dict[str, float] = {}

    a_f = quantize_values(fam, bump(z))

    d0 = displacement(complex(z0), dim)
    lhs = d0 @ a_f @ d0.conj().T
    rhs = quantize_values(fam, bump(z - z0))
    out["translation"] = max_defect(sub(lhs - rhs))

    u = torus_unitary(theta, dim)
    lhs = u @ a_f @ u.conj().T
    rhs = quantize_values(fam, bump(np.exp(-1.0j * theta) * z))
    out["rotation"] = max_defect(sub(lhs - rhs))

    p = parity_op(dim)
    lhs = p @ a_f @ p
    rhs = quantize_values(fam, bump(-z))
    out["parity"] = max_defect(sub(lhs - rhs))

    cf = z ** 2 + 1.0j * np.exp(-np.abs(z) ** 2)
    a_c = quantize_values(fam, cf)
    rhs = quantize_values(fam, np.conj(cf))
    out["conjugation"] = max_defect(sub(a_c.conj().T - rhs))
    return out
