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

from .core import DensityFamily
# hyp2f1_terminating is unused here; perfbench/tracer.py rebinds it (ROADMAP item 1)
from .numerics import (DomainError, QuadratureRule, _f21_terms, bessel_i,
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
            raise DomainError(f"t must lie in [0, 1), got {self.t}")
        if not isinstance(self.dim, (int, np.integer)):
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

    def weights(self) -> np.ndarray:
        return (1.0 - self.t) * self.t ** np.arange(self.dim)


def fock_ladder(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Lowering and raising matrices a, a^dag with a|e_n> = sqrt(n)|e_{n-1}>."""
    a = np.diag(np.sqrt(np.arange(1, dim)), k=1).astype(complex)
    return a, a.conj().T


def _displacement_scaled_real(x, dim: int) -> np.ndarray:
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
    real = _displacement_scaled_real(x, dim) * math.exp(-0.5 * x)
    return phases[:, None] * real * phases.conj()[None, :]


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


def radial_density(j, params: ThermalParams) -> np.ndarray:
    """rho_T(sqrt(J)) compressed to dim Fock states, shape j.shape + (dim, dim).

    Entries (n + k, n) and (n, n + k) are (Cahill & Glauber 1969)
    (1-t)^{k+1} sqrt(n!/(n+k)!) J^{k/2} e^{-x} P_n with x = (1-t)J, y = (1-t)x
    and P_n = t^n L_n^{(k)}(-y/t), from the stable forward recurrence
    (n+1) P_{n+1} = (t(2n+k+1) + y) P_n - t^2 (n+k) P_{n-1} over n + k < dim.
    Each step carries the prefactor, so it yields the entries themselves (at
    most 1), from column n = 0: (1-t) e^{-x} prod_{i<=k} sqrt(y/i).  Validated
    for dim <= 256 (ThermalParams holds that bound) and 0 <= x <= 700, where
    e^{-x} stays normal: no overflow, no NaN.  For x outside it, or a NaN J,
    it raises DomainError.
    """
    j = np.asarray(j, dtype=float)
    t, dim = params.t, params.dim
    x = (1.0 - t) * j.reshape(-1, 1)
    if not np.all((x >= 0.0) & (x <= 700.0)):  # NaN fails too
        raise DomainError(f"J in [{np.min(j)}, {np.max(j)}] is outside the"
                          " validated range 0 <= (1-t) J <= 700")
    y = (1.0 - t) * x.T
    k, n = np.ogrid[:dim, :dim]
    s = 1.0 / np.sqrt((n + 1.0) * (n + k + 1.0))
    c, g = t * (2 * n + k + 1) * s, -t * t * np.sqrt(n * (n + k)) * s
    cur, prev = np.zeros((2, dim, len(x)))
    np.sqrt(y / np.maximum(k, 1), out=cur)
    cur[0] = (1.0 - t) * np.exp(-x[:, 0])
    np.cumprod(cur, axis=0, out=cur)
    out = np.empty((len(x), dim, dim))
    out[:, :, 0] = out[:, 0, :] = cur.T
    for n in range(1, dim):  # column n from n - 1 and n - 2, rows k < dim - n
        new = prev[:dim - n]
        new *= g[:dim - n, n - 1:n]
        new += (y * s[:dim - n, n - 1:n] + c[:dim - n, n - 1:n]) * cur[:dim - n]
        cur, prev = prev, cur
        out[:, n:, n] = out[:, n, n:] = new.T
    return out.reshape(j.shape + (dim, dim))


def thermal_density(j, gamma, params: ThermalParams) -> np.ndarray:
    """rho_T(sqrt(J) e^{i gamma}) for arrays j and gamma that broadcast together:
    radial_density(J) once per distinct J in the call, times the rotation
    phases rho(J, gamma)_mn = rho(J, 0)_mn e^{i(m-n) gamma}."""
    j = np.asarray(j, dtype=float)
    radii, inverse = np.unique(j, return_inverse=True)
    radial = radial_density(radii, params)
    phases = np.exp(1.0j * np.arange(params.dim) * np.asarray(gamma)[..., None])
    return (phases[..., :, None] * radial[inverse.reshape(j.shape)]
            * phases.conj()[..., None, :])


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
    """n-point Gauss-Laguerre rule for x^alpha e^{-x} dx in x = (1-t)J, as a
    rule for plain dJ on [0, inf): exact for polynomial(x) x^alpha e^{-x}."""
    if not 0.0 <= t < 1.0:  # NaN fails too
        raise DomainError(f"t must lie in [0, 1), got {t}")
    base = laguerre_rule(n, alpha)
    # in log space: w e^x overflows at the outermost nodes, the product does not
    log_w = np.log(base.weights) + base.nodes - alpha * np.log(base.nodes)
    return QuadratureRule(base.nodes / (1.0 - t), np.exp(log_w) / (1.0 - t))


def plane_family(params: ThermalParams, radial: QuadratureRule | None = None,
                 angular: QuadratureRule | None = None) -> DensityFamily:
    """The displaced-thermal POVM family on the (J, gamma) nodes of
    product_rule(radial, angular), for dJ dgamma / (2 pi).

    By default radially dim + 16 Gauss-Laguerre nodes in x = (1-t)J with
    plain-dJ weights, exact for the family's (polynomial)*e^{-(1-t)J} radial
    profiles, and angularly a trapezoid of max(2 dim + 32, 64) nodes.
    ``evaluate`` calls thermal_density when asked.  The weighted sum contracts
    the harmonics sum_gamma c(J_j, gamma) e^{+-i d gamma} with the diagonals
    d = m - n of the real, symmetric rho(J_j, 0): one real GEMM of [Re c; Im c]
    with cos and sin(d gamma) for d < dim, one matmul per diagonal against the
    lower triangle packed by diagonal at construction, and one scatter.
    """
    dim = params.dim
    if radial is None:
        radial = _radial_rule(dim + 16, params.t)
    if angular is None:
        angular = periodic_rule(max(2 * dim + 32, 64), 1.0 / (2.0 * math.pi))
    rule = product_rule(radial, angular)
    d, n = np.ogrid[:dim, :dim]
    corner = n + d < dim
    # packed[d, j, n] = rho(J_j, 0)[n + d, n] from one gather; past the corner
    # it repeats row dim - 1, and the products there are never picked
    flat = radial_density(radial.nodes, params).reshape(radial.size, -1)
    packed = flat[:, np.minimum(n + d, dim - 1) * dim + n].transpose(1, 0, 2)
    # rows 2d, 2d + 1: cos and sin(d gamma) on the rule's own angles, a matmul
    # and not an FFT, so any angle set (offset, odd count) is summed exactly
    angles = np.outer(np.arange(dim), angular.nodes)
    trig = np.stack([np.cos(angles), np.sin(angles)], axis=1).reshape(2 * dim, -1)
    # [RC, IC, RS, IS][d, n] sit at (4 d + q) dim + n of the product; entry (n + d, n) is
    # RC - IS + i(RS + IC) and (n, n + d) RC + IS + i(IC - RS), equal at d = 0 (RS = IS = 0)
    picks = ((4 * d + np.arange(4)[:, None, None]) * dim + n)[:, corner]
    lower, upper = 2 * ((n + d) * dim + n)[corner], 2 * (n * dim + n + d)[corner]
    slots = np.concatenate([lower, lower + 1, upper, upper + 1])

    def evaluate(node):
        j, gamma = np.moveaxis(np.asarray(node, dtype=float), -1, 0)
        return thermal_density(j, gamma, params)

    def weighted_sum(coeffs):
        c = np.reshape(coeffs, (radial.size, -1))
        h = (trig @ np.concatenate([c.real, c.imag]).T).reshape(dim, 4, radial.size)
        rc, ic, rs, is_ = np.take(h @ packed, picks)
        out = np.empty(2 * dim * dim)
        out[slots] = np.concatenate([rc - is_, rs + ic, rc + is_, ic - rs])
        return out.view(complex).reshape(dim, dim)

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

    In x = (1-t)J the entries are polynomials of degree <= dim - 1 times e^{-x}
    (even parity: Gauss-Laguerre alpha = 0) or sqrt(x) e^{-x} (odd: alpha = 1/2),
    so dim // 2 + 8 nodes per parity are exact.
    """
    n_j = params.dim // 2 + 8
    rule0, rule_h = (_radial_rule(n_j, params.t, alpha) for alpha in (0.0, 0.5))
    rho = radial_density(np.concatenate([rule0.nodes, rule_h.nodes]), params)
    parity = np.add.outer(np.arange(params.dim), np.arange(params.dim)) % 2
    return np.where(parity == 0, rule0.integrate(rho[:n_j]), rule_h.integrate(rho[n_j:]))


def phase_operator(params: ThermalParams) -> np.ndarray:
    """Quantized angle via exact angular integrals (the quadrature route).

    int_0^{2pi} gamma e^{i k gamma} dgamma equals 2 pi^2 at k=0 and
    -2 pi i / k otherwise, so A_g = pi diag(R_mm) + i R_mm' / (m'-m), with R
    from _radial_integrals (exact on dim // 2 + 8 nodes per parity).
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
    m, mp = np.indices((dim, dim))
    b, c = (mp - m) / 2.0, -(m + mp) / 2.0
    # at a pole b is a negative integer, so an exact 0 / 0 makes the entry NaN
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        terms = np.array([np.broadcast_to(e, (dim, dim)) for e in _f21_terms(m, b, c, t)])
        # row m sums its m + 1 terms; fsum of the zero padding past them adds nothing
        f21 = np.array([[math.fsum(e) for e in terms[:row + 1, row].T.tolist()]
                        for row in range(dim)])
        # Gamma((m+m')/2 + 1); m + m' = 2 dim - 2 falls on the diagonal only, so
        # it is not evaluated (math.gamma(dim) overflows from dim 172 on)
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
    from .core import quantize_values

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
