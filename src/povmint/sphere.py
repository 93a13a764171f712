"""Sphere POVM of spin-1/2 densities, in closed form.

The family rho_r(theta, phi) is the SU(2) transport of diag((1+r)/2, (1-r)/2)
to the direction (theta, phi), carried by the measure sin(theta) dtheta dphi
/ (2 pi) on the 2-sphere (total measure 2).  The library evaluates its closed
form (I + r n.sigma) / 2; the tests check it against the transport.
"""

from __future__ import annotations

import math

import numpy as np

from .core import DensityFamily, affine_weighted_sum
from .numerics import (DomainError, QuadratureRule, legendre_rule, periodic_rule,
                       MAX_RULE_NODES, product_rule, unit_radius)

SIGMA = np.array([[[0.0, 1.0], [1.0, 0.0]],
                  [[0.0, -1.0j], [1.0j, 0.0]],
                  [[1.0, 0.0], [0.0, -1.0]]])


def _signed_pauli(v) -> np.ndarray:
    """v_x sigma_1 - v_y sigma_2 + v_z sigma_3 over the trailing axis of v."""
    return np.tensordot(np.multiply(v, (1.0, -1.0, 1.0)), SIGMA, axes=1)


def direction(theta, phi) -> np.ndarray:
    """Unit vector with spherical coordinates (theta, phi); array angles
    broadcast, giving shape theta.shape + (3,)."""
    theta, phi = np.broadcast_arrays(np.asarray(theta, dtype=float), phi)
    st = np.sin(theta)
    return np.stack([st * np.cos(phi), st * np.sin(phi), np.cos(theta)], axis=-1)


def rho_sphere(r, theta, phi) -> np.ndarray:
    """Closed-form sphere density (I + r _signed_pauli(n)) / 2, n = direction:
    entry (0, 1) is r sin(theta) e^{i phi} / 2; array r and angles broadcast.
    DomainError unless every r lies in [0, 1]."""
    r = unit_radius(r)
    return 0.5 * (np.eye(2) + r[..., None, None] * _signed_pauli(direction(theta, phi)))


def sphere_rule(n_theta: int, n_phi: int) -> QuadratureRule:
    """Product rule for sin(theta) dtheta dphi / (2 pi): Gauss-Legendre in cos(theta)
    times a trapezoid in phi, nodes (u = cos theta, phi); DomainError past MAX_RULE_NODES."""
    if n_theta * n_phi > MAX_RULE_NODES:
        raise DomainError(f"{n_theta} x {n_phi} nodes exceed the budget of {MAX_RULE_NODES}")
    return product_rule(legendre_rule(n_theta, -1.0, 1.0),
                        periodic_rule(n_phi, 1.0 / (2.0 * math.pi), offset=0.5))


def sphere_family(r: float, n_theta: int = 8, n_phi: int = 8) -> DensityFamily:
    """The sphere POVM family on (cos theta, phi) nodes, 0 <= r <= 1."""
    r, rule = float(unit_radius(r)), sphere_rule(n_theta, n_phi)

    def evaluate(node):
        u, phi = np.moveaxis(np.asarray(node, dtype=float), -1, 0)
        return rho_sphere(r, np.arccos(np.clip(u, -1.0, 1.0)), phi)

    feats = np.column_stack([np.ones(rule.size), direction(np.arccos(rule.nodes[:, 0]),
                                                           rule.nodes[:, 1])])
    basis = 0.5 * np.stack([np.eye(2), r * SIGMA[0], -r * SIGMA[1], r * SIGMA[2]])
    return DensityFamily(2, evaluate, rule, affine_weighted_sum(feats, basis))


def quantize_azimuth(r: float) -> np.ndarray:
    """Quantized azimuthal angle with the angular integral done analytically.

    The sawtooth phi aliases any equispaced angular rule at first order, so
    the phi moments int phi e^{ik phi} dphi (= 2 pi^2 at k=0, -2 pi i / k
    else) are inserted exactly; the residual u-integrals are handled by
    Gauss-Legendre (diagonal, polynomial) and Gauss-Chebyshev of the second
    kind (off-diagonal, weight sqrt(1-u^2)), 16 nodes each.
    """
    n_u = 16
    gl = legendre_rule(n_u, -1.0, 1.0)
    diag_plus = float(gl.integrate(0.5 * (1.0 + r * gl.nodes)))
    diag_minus = float(gl.integrate(0.5 * (1.0 - r * gl.nodes)))
    j = np.arange(1, n_u + 1)
    cheb_w = math.pi / (n_u + 1) * np.sin(j * math.pi / (n_u + 1)) ** 2
    i_u = float(cheb_w.sum())  # int sqrt(1-u^2) du, Gauss-Chebyshev II
    off = (1.0 / (2.0 * math.pi)) * (-2.0j * math.pi) * (0.5 * r) * i_u
    return np.array([[math.pi * diag_plus, off],
                     [off.conjugate(), math.pi * diag_minus]])


def aq_matrix(r: float) -> np.ndarray:
    """Quantized azimuthal angle: pi I + (pi r / 4) sigma_2."""
    return math.pi * np.eye(2, dtype=complex) + (math.pi * r / 4.0) * SIGMA[1]


def ap_matrix(r: float) -> np.ndarray:
    """Quantized p = cos theta: (r/3) sigma_3."""
    return (r / 3.0) * SIGMA[2]


def sphere_prob(r: float, dir0, dir1) -> float:
    """Probability kernel (1/2)(1 + r^2 n0.n1) for unit directions n0, n1."""
    return 0.5 * (1.0 + r * r * float(np.asarray(dir0) @ np.asarray(dir1)))


def sphere_hs_distance(r: float, dir0, dir1) -> float:
    """Hilbert-Schmidt distance ||r n0 - r n1|| / sqrt(2)."""
    d = r * (np.asarray(dir0, dtype=float) - np.asarray(dir1, dtype=float))
    return float(np.linalg.norm(d)) / math.sqrt(2.0)


def sphere_pseudo_distance(r: float, dir0, dir1) -> float:
    """Pseudo-distance sqrt(-ln[(1 + r^2 n0.n1)/(1 + r^2)])."""
    num = 1.0 + r * r * float(np.asarray(dir0) @ np.asarray(dir1))
    if num <= 0.0:
        return math.inf
    return math.sqrt(max(-math.log(num / (1.0 + r * r)), 0.0))
