"""Reference oracles that tests compare the library against.

Each one builds by a second route what the library computes in closed form or
in batched arrays: the sphere density by SU(2) transport through quaternions,
the pure circle and sphere densities as projectors, the circle density from
its matrix entries (a, b), the half-plane UIR acting on functions, the plane
probability kernel as a trace of two matrices, the plane family's weighted sum
by Toeplitz windows, the phase operator's radial integrals by Gauss-Laguerre
quadrature, the Laguerre table by its literal three-term recurrence, and the
finite free-parameter ledger. pytest imports this module but collects
no tests from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from povmint.circle import CircleDensityParams, rho_circle
from povmint.numerics import DomainError, QuadratureRule, laguerre_dx_rule
from povmint.plane import ThermalParams, displaced_thermal, radial_density
from povmint.sphere import _signed_pauli

# ---------------------------------------------------------------------------
# Sphere: quaternions and SU(2) transport.


@dataclass(frozen=True)
class Quaternion:
    """Real quaternion (scalar, 3-vector) with the Hamilton product."""

    q0: float
    qv: tuple[float, float, float]

    def __mul__(self, other: "Quaternion") -> "Quaternion":
        a0, av = self.q0, np.asarray(self.qv)
        b0, bv = other.q0, np.asarray(other.qv)
        s = a0 * b0 - float(av @ bv)
        v = a0 * bv + b0 * av + np.cross(av, bv)
        return Quaternion(s, tuple(v))

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.q0, tuple(-c for c in self.qv))

    def norm(self) -> float:
        return math.sqrt(self.q0 ** 2 + sum(c * c for c in self.qv))

    def inverse(self) -> "Quaternion":
        n2 = self.q0 ** 2 + sum(c * c for c in self.qv)
        if n2 == 0.0:
            raise ZeroDivisionError("zero quaternion has no inverse")
        c = self.conjugate()
        return Quaternion(c.q0 / n2, tuple(v / n2 for v in c.qv))

    def to_matrix(self) -> np.ndarray:
        """2x2 image under e_a -> (-1)^(a+1) i sigma_a."""
        return self.q0 * np.eye(2) + 1.0j * _signed_pauli(self.qv)


QUAT_E = [Quaternion(0.0, tuple(np.eye(3)[a])) for a in range(3)]


def xi_north(theta: float, phi: float) -> Quaternion:
    """Unit quaternion rotating the north pole k to direction (theta, phi).

    The rotation axis is u_phi = (-sin phi, cos phi, 0), the angle theta.
    """
    axis = (-math.sin(phi), math.cos(phi), 0.0)
    return Quaternion(math.cos(0.5 * theta),
                      tuple(math.sin(0.5 * theta) * c for c in axis))


def rho_sphere_transport(r: float, theta: float, phi: float) -> np.ndarray:
    """The sphere density via SU(2) transport of the polar diagonal matrix."""
    xi = xi_north(theta, phi).to_matrix()
    polar = np.diag([(1.0 + r) / 2.0, (1.0 - r) / 2.0]).astype(complex)
    return xi @ polar @ xi.conj().T


def spin_state(theta: float, phi: float) -> np.ndarray:
    """Spin-1/2 coherent state (cos(theta/2), sin(theta/2) e^{-i phi})."""
    return np.array([math.cos(0.5 * theta),
                     math.sin(0.5 * theta) * complex(math.cos(phi), -math.sin(phi))])


# ---------------------------------------------------------------------------
# Circle: angle kets and the (a, b) parametrization.


def angle_ket(angle: float) -> np.ndarray:
    """Unit vector (cos angle, sin angle); rho at r=1 is its projector."""
    return np.array([math.cos(angle), math.sin(angle)])


def from_ab(a: float, b: float) -> tuple[CircleDensityParams, float]:
    """Parameters (r, phi) and top eigenvalue lambda of M(a,b)=[[a,b],[b,1-a]]."""
    if not 0.0 <= a <= 1.0:
        raise ValueError(f"a must lie in [0, 1], got {a}")
    delta = a * (1.0 - a) - b * b
    if delta < -1e-14:
        raise ValueError(f"det constraint violated: a(1-a) - b^2 = {delta} < 0")
    lam = 0.5 * (1.0 + math.sqrt(max(1.0 - 4.0 * delta, 0.0)))
    r = 2.0 * lam - 1.0
    phi = 0.0 if r < 1e-14 else 0.5 * math.atan2(2.0 * b, 2.0 * a - 1.0)
    return CircleDensityParams(r, phi), lam


def to_ab(params: CircleDensityParams) -> tuple[float, float]:
    """Inverse of from_ab (theta folded into the orientation)."""
    m = rho_circle(params.r, params.phi, params.theta)
    return float(m[0, 0]), float(m[0, 1])


# ---------------------------------------------------------------------------
# Half-plane, plane and finite sets.


def affine_action(q: float, p: float, psi: Callable) -> Callable:
    """The UIR action (U(q,p) psi)(x) = e^{ipx} psi(x/q) / sqrt(q); DomainError
    unless 0 < q < inf and p is finite."""
    if not (0.0 < q < math.inf and math.isfinite(p)):
        raise DomainError(f"q must be positive and q, p finite, got q={q}, p={p}")

    def out(x):
        x = np.asarray(x, dtype=float)
        return np.exp(1.0j * p * x) * np.asarray(psi(x / q)) / math.sqrt(q)

    return out


def plane_prob_matrix(z0: complex, z: complex, params: ThermalParams) -> float:
    """tr(rho_T(z0) rho_T(z)) on the truncated space."""
    r0 = displaced_thermal(z0, params)
    r1 = displaced_thermal(z, params)
    return float(np.trace(r0 @ r1).real)


def plane_toeplitz_sum(params: ThermalParams, radial: QuadratureRule,
                       angular: QuadratureRule, coeffs) -> np.ndarray:
    """sum_k c_k rho(J_k, gamma_k) over the grid product_rule(radial, angular),
    by all 2 dim - 1 harmonics S_j(m - n) = sum_gamma c(J_j, gamma) e^{i(m-n) gamma}:
    a Toeplitz window of each radius's harmonic row, contracted with the full
    rho(J_j, 0) by one einsum for the real part and one for the imaginary part."""
    dim = params.dim
    stack = radial_density(radial.nodes, params)
    harmonics = np.exp(1.0j * np.outer(angular.nodes, np.arange(1 - dim, dim)))
    s = np.reshape(coeffs, (len(stack), -1)) @ harmonics
    # toeplitz[j, m, n] = s[j, m - n + dim - 1]
    re, im = (sliding_window_view(part[:, ::-1].copy(), dim, axis=1)[:, ::-1]
              for part in (s.real, s.imag))
    return (np.einsum("jmn,jmn->mn", stack, re)
            + 1j * np.einsum("jmn,jmn->mn", stack, im))


def radial_integrals_quadrature(params: ThermalParams) -> np.ndarray:
    """R[m, m'] = int_0^inf [rho_T(sqrt(J))]_{mm'} dJ, exactly per parity: in x = (1-t)J
    the entries are polynomials of degree <= dim - 1 times e^{-x} (m + m' even:
    Gauss-Laguerre alpha = 0) or sqrt(x) e^{-x} (odd: alpha = 1/2), so dim // 2 + 8
    nodes per parity are exact.  16 radii at a time keep dim 256 to 8 MB per block."""
    dim = params.dim
    odd = np.add.outer(np.arange(dim), np.arange(dim)) % 2 == 1
    out = np.zeros((dim, dim))
    for alpha, keep in ((0.0, ~odd), (0.5, odd)):
        rule = laguerre_dx_rule(dim // 2 + 8, alpha, 1.0 - params.t)
        for start in range(0, rule.size, 16):
            part = slice(start, start + 16)
            block = np.tensordot(rule.weights[part], radial_density(rule.nodes[part], params), 1)
            out[keep] += block[keep]
    return out


def laguerre_table_recurrence(n_max: int, alpha, x) -> np.ndarray:
    """L_n^(alpha)(x) for n = 0..n_max by the three-term recurrence
    k L_k = (2k - 1 + alpha - x) L_{k-1} - (k - 1 + alpha) L_{k-2},
    its coefficients formed afresh at each step."""
    alpha, x = np.asarray(alpha, dtype=float), np.asarray(x, dtype=float)
    table = np.ones((n_max + 1,) + np.broadcast_shapes(alpha.shape, x.shape))
    if n_max >= 1:
        table[1] = 1.0 + alpha - x
    for k in range(2, n_max + 1):
        table[k] = ((2 * k - 1 + alpha - x) * table[k - 1]
                    - (k - 1 + alpha) * table[k - 2]) / k
    return table


def count_free_parameters(n: int, size: int, rank_one: bool = False) -> int:
    """Free-variable ledger after the resolution constraint."""
    if rank_one:
        return 2 * size * (n - 1) - (n * n - 1)
    return (size - 1) * (n * n - 1)
