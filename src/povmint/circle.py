"""Real 2x2 density matrices on the unit circle.

The family is rho_{r,phi}(theta) = (1/2)(I + r S(2(phi+theta))) with
S(F) = [[cos F, sin F], [sin F, -cos F]], carried by the measure dtheta/pi
on [0, 2pi).  Everything here is a trigonometric polynomial of degree two,
so small trapezoid rules are exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DensityFamily, affine_weighted_sum
from .numerics import periodic_rule, unit_radius

SIGMA2 = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])
_SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]])
_ROT90 = np.array([[0.0, -1.0], [1.0, 0.0]])


@dataclass(frozen=True)
class CircleDensityParams:
    """Disk radius r in [0,1], orientation phi mod pi, transport angle theta;
    the fields may be arrays, one parameter set per (broadcast) entry."""

    r: float
    phi: float
    theta: float = 0.0

    def __post_init__(self):
        r = unit_radius(self.r)
        phi = np.where(r == 0.0, 0.0, np.mod(self.phi, math.pi))[()]
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "theta", np.mod(self.theta, 2.0 * math.pi))


def rotation2(omega) -> np.ndarray:
    """Plane rotation matrix by angle omega; an array omega gives shape
    omega.shape + (2, 2)."""
    omega = np.asarray(omega, dtype=float)[..., None, None]
    return np.cos(omega) * np.eye(2) + np.sin(omega) * _ROT90


def rho_circle(r, phi, theta=0.0) -> np.ndarray:
    """2x2 real density (1/2)(I + r S(2(phi+theta))).  r, phi and theta may be
    arrays; they broadcast, giving shape broadcast.shape + (2, 2).  DomainError
    unless every r lies in [0, 1]."""
    r = unit_radius(r)
    big_phi = 2.0 * (phi + np.asarray(theta, dtype=float))[..., None, None]
    return 0.5 * (np.eye(2) + r[..., None, None]
                  * (np.cos(big_phi) * _SIGMA_Z + np.sin(big_phi) * _SIGMA_X))


def product_and_algebra(p1: CircleDensityParams, p2: CircleDensityParams):
    """Closed-form product, commutator and anticommutator of two densities.

    With F = 2(phi+theta) the product is
        rho rho' = (1/2)[rho + rho' + (r r'/2) Rot(F - F') - I/2],
    the commutator is -i (r r'/2) sin(F - F') sigma_2 and the anticommutator
    is rho + rho' + ((r r'/2) cos(F - F') - 1/2) I.  Array parameters give
    one pair per broadcast entry: each result has shape broadcast.shape + (2, 2),
    entry for entry the same bits as the pair on its own.
    """
    rr = (0.5 * np.multiply(p1.r, p2.r))[..., None, None]
    rho1 = rho_circle(p1.r, p1.phi, p1.theta)
    rho2 = rho_circle(p2.r, p2.phi, p2.theta)
    delta = 2.0 * (p1.phi + p1.theta) - 2.0 * (p2.phi + p2.theta)
    product = 0.5 * (rho1 + rho2 + rr * rotation2(delta) - 0.5 * np.eye(2))
    sin, cos = np.sin(delta)[..., None, None], np.cos(delta)[..., None, None]
    commutator = -1.0j * rr * sin * SIGMA2
    anticommutator = rho1 + rho2 + (rr * cos - 0.5) * np.eye(2)
    return product, commutator, anticommutator


def circle_rule(n: int):
    """Trapezoid rule on [0, 2pi) with weight 1/pi (total measure 2).

    The half-spacing offset keeps nodes away from the angle function's jump
    at theta = 0.
    """
    return periodic_rule(n, 1.0 / math.pi, offset=0.5)


def circle_family(r: float, phi: float = 0.0, n: int = 16) -> DensityFamily:
    """The circle POVM family theta -> rho_{r,phi}(theta) with dtheta/pi, 0 <= r <= 1."""
    r, rule = float(unit_radius(r)), circle_rule(n)
    big_phi = 2.0 * (phi + rule.nodes)
    feats = np.stack([np.ones(rule.size), np.cos(big_phi), np.sin(big_phi)], axis=-1)
    basis = 0.5 * np.stack([np.eye(2), r * _SIGMA_Z, r * _SIGMA_X])
    return DensityFamily(2, lambda theta: rho_circle(r, phi, theta), rule,
                         affine_weighted_sum(feats, basis))


def fourier_quantize(mean: float, cc: float, cs: float, r: float, phi: float) -> np.ndarray:
    """Quantized operator from doubled-angle Fourier data of f.

    mean = (1/2pi) int f dtheta, cc = (1/pi) int f cos 2theta dtheta,
    cs = (1/pi) int f sin 2theta dtheta.  The orientation phi rotates the
    coefficient pair before it enters the matrix.
    """
    c2, s2 = math.cos(2.0 * phi), math.sin(2.0 * phi)
    cc_phi = cc * c2 - cs * s2
    cs_phi = cs * c2 + cc * s2
    return mean * np.eye(2) + 0.5 * r * np.array([[cc_phi, cs_phi],
                                                  [cs_phi, -cc_phi]])


def angle_operator(r: float, phi: float) -> np.ndarray:
    """Quantization of the angle function g(theta) = theta on [0, 2pi).

    The Fourier data (mean pi, cc 0, cs -1) is analytic; trapezoid sums
    converge only at first order across the jump, so the closed form is
    the accurate route.
    """
    return fourier_quantize(math.pi, 0.0, -1.0, r, phi)


def circle_prob(r: float, theta0: float, theta: float) -> float:
    """Probability kernel (1/2)(1 + r^2 cos 2(theta - theta0))."""
    return 0.5 * (1.0 + r * r * math.cos(2.0 * (theta - theta0)))


def circle_hs_distance(r: float, theta: float, thetap: float) -> float:
    """Hilbert-Schmidt distance sqrt(2) r |sin(theta - theta')|."""
    return math.sqrt(2.0) * r * abs(math.sin(theta - thetap))


def circle_pseudo_distance(r: float, theta: float, thetap: float) -> float:
    """Pseudo-distance sqrt(-ln[(1 + r^2 cos 2(theta-theta'))/(1 + r^2)])."""
    num = 1.0 + r * r * math.cos(2.0 * (theta - thetap))
    if num <= 0.0:
        return math.inf
    return math.sqrt(max(-math.log(num / (1.0 + r * r)), 0.0))
