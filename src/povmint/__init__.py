"""POVM integral quantization of measure spaces.

Density-operator families resolving the identity, probability kernels and
distances, quantization maps and lower symbols, covariant group
constructions, four worked geometries (circle, sphere, plane, half-plane)
and the finite-set inverse problem.
"""

from .core import (CsBasis, DensityFamily, GroupOrbitSpec, ResolutionReport,
                   check_resolution, covariance_check, covariant_c_rho,
                   cs_family, cs_norm, cs_state, lower_symbol,
                   measurement_expectation, orbit_family, povm_region,
                   prob_kernel, quantize, quantize_values, reproducing_kernel)
from .numerics import (DomainError, PoleError, QuadratureRule, bessel_i,
                       bessel_i_scaled, hyp2f1_terminating, laguerre,
                       laguerre_rule, legendre_rule, periodic_rule, product_rule)
from .operators import (DensityCheck, MixtureSpec, eig_hermitian, hs_distance,
                        is_density, mix, pseudo_distance, purity)

__all__ = [
    "CsBasis", "DensityCheck", "DensityFamily", "DomainError",
    "GroupOrbitSpec", "MixtureSpec", "PoleError", "QuadratureRule",
    "ResolutionReport", "bessel_i", "bessel_i_scaled", "check_resolution",
    "covariance_check", "covariant_c_rho", "cs_family", "cs_norm", "cs_state",
    "eig_hermitian", "hs_distance", "hyp2f1_terminating", "is_density",
    "laguerre", "laguerre_rule", "legendre_rule", "lower_symbol",
    "measurement_expectation", "mix", "orbit_family", "periodic_rule",
    "povm_region", "prob_kernel", "product_rule", "pseudo_distance", "purity",
    "quantize", "quantize_values", "reproducing_kernel",
]

__version__ = "0.1.0"
