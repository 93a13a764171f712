"""Geometry-independent quantization engine.

A :class:`DensityFamily` bundles a map x -> density matrix with a quadrature
rule realizing the measure; everything else (resolution checks, POVMs of
regions, probability kernels, quantization of functions, lower symbols,
coherent-state construction, covariant orbits) is built on top of it by
weighted sums over the rule nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .numerics import QuadratureRule
from .operators import is_density

Array = np.ndarray


@dataclass
class DensityFamily:
    """Map x -> density matrix together with a rule for the measure dnu."""

    dim: int
    evaluate: Callable[[object], Array]
    rule: QuadratureRule
    label: str = ""
    tol: float = 1e-12
    # optional fast route: coeffs -> sum_k coeffs_k rho(x_k) over rule.nodes
    weighted_sum: Callable[[Array], Array] | None = None

    def node_matrices(self) -> Array:
        """Stack of rho(x_k) over the rule nodes, shape (n_nodes, dim, dim)."""
        return np.stack([np.asarray(self.evaluate(x), dtype=complex)
                         for x in self.rule.nodes])

    def validate_nodes(self, sample: int | None = 16) -> bool:
        """Spot-check that evaluate() yields densities at (a sample of) nodes."""
        nodes = self.rule.nodes
        idx = range(len(nodes))
        if sample is not None and len(nodes) > sample:
            idx = np.linspace(0, len(nodes) - 1, sample).astype(int)
        return all(is_density(self.evaluate(nodes[i]), tol=1e-9).ok for i in idx)


@dataclass(frozen=True)
class ResolutionReport:
    defect: float
    worst_entry: tuple[int, int]
    operator: Array
    ok: bool


def _accumulate(fam: DensityFamily, coeffs=None) -> Array:
    """Weighted sum of rho over nodes: the family's own weighted_sum when it
    has one, else a streaming per-node loop (avoids stacking large grids)."""
    weights = fam.rule.weights
    if fam.weighted_sum is not None:
        return fam.weighted_sum(weights if coeffs is None else weights * coeffs)
    total = np.zeros((fam.dim, fam.dim), dtype=complex)
    for k, x in enumerate(fam.rule.nodes):
        c = weights[k] if coeffs is None else weights[k] * coeffs[k]
        if c != 0.0:
            total += c * np.asarray(fam.evaluate(x), dtype=complex)
    return total


def check_resolution(fam: DensityFamily, block: int | None = None) -> ResolutionReport:
    """Max-norm defect of sum_k w_k rho(x_k) - I, optionally on a leading block."""
    total = _accumulate(fam)
    if block is not None:
        total = total[:block, :block]
    diff = np.abs(total - np.eye(total.shape[0]))
    worst = np.unravel_index(np.argmax(diff), diff.shape)
    defect = float(diff[worst])
    return ResolutionReport(defect, (int(worst[0]), int(worst[1])), total,
                            defect < fam.tol)


def povm_region(fam: DensityFamily, indicator: Callable) -> Array:
    """POVM element of a region: integral of rho over nodes where indicator=1."""
    mask = np.array([bool(indicator(x)) for x in fam.rule.nodes], dtype=float)
    return _accumulate(fam, mask)


def prob_kernel(fam: DensityFamily, x0, x) -> float:
    """Probability kernel tr(rho(x0) rho(x))."""
    r0 = np.asarray(fam.evaluate(x0), dtype=complex)
    r1 = np.asarray(fam.evaluate(x), dtype=complex)
    return float(np.trace(r0 @ r1).real)


def quantize(fam: DensityFamily, f: Callable) -> Array:
    """Quantized operator A_f = sum_k w_k f(x_k) rho(x_k)."""
    vals = np.array([complex(f(x)) for x in fam.rule.nodes])
    if not np.all(np.isfinite(vals)):
        raise ValueError("f must be finite at every quadrature node")
    return _accumulate(fam, vals)


def lower_symbol(fam: DensityFamily, a: Array, x) -> complex:
    """Lower (Berezin) symbol tr(rho(x) A)."""
    a = np.asarray(a, dtype=complex)
    rho = np.asarray(fam.evaluate(x), dtype=complex)
    if rho.shape != a.shape:
        raise ValueError("dimension mismatch")
    val = complex(np.trace(rho @ a))
    return val


def measurement_expectation(rho_m: Array, fam: DensityFamily, f: Callable) -> complex:
    """Expectation tr(rho_m A_f) of the quantized observable in state rho_m."""
    rho_m = np.asarray(rho_m, dtype=complex)
    if rho_m.shape != (fam.dim, fam.dim):
        raise ValueError("dimension mismatch")
    return complex(np.trace(rho_m @ quantize(fam, f)))


# ---------------------------------------------------------------------------
# Coherent states from an orthonormal function set.


@dataclass
class CsBasis:
    """Orthonormal functions phi_n on (X, mu), realized on a base rule.

    phi(x) must return the length-N vector (phi_0(x), ..., phi_{N-1}(x)).
    """

    phi: Callable[[object], Array]
    size: int
    base_rule: QuadratureRule
    tol: float = 1e-10

    def gram_defect(self) -> float:
        """Max-norm distance of the Gram matrix from the identity."""
        samples = np.stack([np.asarray(self.phi(x), dtype=complex)
                            for x in self.base_rule.nodes])
        gram = np.einsum("k,kn,km->nm", self.base_rule.weights,
                         samples.conj(), samples)
        return float(np.max(np.abs(gram - np.eye(self.size))))


def cs_norm(basis: CsBasis, x) -> float:
    """Normalization N(x) = sum_n |phi_n(x)|^2 (must be positive)."""
    v = np.asarray(basis.phi(x), dtype=complex)
    return float(np.sum(np.abs(v) ** 2))


def cs_state(basis: CsBasis, x) -> tuple[Array, float]:
    """Coherent state |x> = N(x)^{-1/2} sum_n conj(phi_n(x)) |e_n>, plus N(x)."""
    v = np.asarray(basis.phi(x), dtype=complex)
    norm = float(np.sum(np.abs(v) ** 2))
    if norm <= 0.0:
        raise ValueError(f"N(x) vanishes at x={x!r}")
    return v.conj() / math.sqrt(norm), norm


def reproducing_kernel(basis: CsBasis, x, xp) -> complex:
    """Overlap K(x, x') = <x|x'> of two coherent states."""
    vx, _ = cs_state(basis, x)
    vxp, _ = cs_state(basis, xp)
    return complex(vx.conj() @ vxp)


def cs_family(basis: CsBasis, label: str = "", tol: float = 1e-10) -> DensityFamily:
    """Rank-one family rho(x) = |x><x| with measure dnu = N(x) dmu."""
    weights = basis.base_rule.weights * np.array(
        [cs_norm(basis, x) for x in basis.base_rule.nodes])
    rule = QuadratureRule(basis.base_rule.nodes, weights, "cs-weighted",
                          {"base": basis.base_rule.kind})

    def evaluate(x):
        v, _ = cs_state(basis, x)
        return np.outer(v, v.conj())

    return DensityFamily(basis.size, evaluate, rule, label=label, tol=tol)


# ---------------------------------------------------------------------------
# Covariant (group-orbit) constructions.


@dataclass
class GroupOrbitSpec:
    """Group orbit of a fiducial density under a unitary representation.

    ``unitary(g)`` maps a group node to a unitary matrix; ``group_rule``
    realizes the invariant measure dmu(g); ``probe`` is the fixed density
    entering the admissibility integral; ``translate(g0, g)`` returns
    g0^{-1} g for the covariance check.
    """

    unitary: Callable[[object], Array]
    fiducial: Array
    group_rule: QuadratureRule
    probe: Array
    translate: Callable[[object, object], object] | None = None

    def orbit_density(self, g) -> Array:
        u = np.asarray(self.unitary(g), dtype=complex)
        return u @ self.fiducial @ u.conj().T


def covariant_c_rho(spec: GroupOrbitSpec) -> float:
    """Admissibility constant c_rho = integral of tr(probe * rho(g)) dmu(g)."""
    probe = np.asarray(spec.probe, dtype=complex)
    vals = np.array([np.trace(probe @ spec.orbit_density(g)).real
                     for g in spec.group_rule.nodes])
    c = float(spec.group_rule.integrate(vals))
    if not math.isfinite(c) or c <= 0.0:
        raise ValueError(f"admissibility constant must be positive, got {c}")
    return c


def orbit_family(spec: GroupOrbitSpec, c_rho: float | None = None,
                 label: str = "", tol: float = 1e-10) -> DensityFamily:
    """Orbit family with measure dnu = dmu / c_rho, normalized to resolve I."""
    if c_rho is None:
        c_rho = covariant_c_rho(spec)
    rule = QuadratureRule(spec.group_rule.nodes, spec.group_rule.weights / c_rho,
                          spec.group_rule.kind + "/c_rho",
                          dict(spec.group_rule.params))
    dim = np.asarray(spec.fiducial).shape[0]
    return DensityFamily(dim, spec.orbit_density, rule, label=label, tol=tol)


def covariance_check(spec: GroupOrbitSpec, fam: DensityFamily,
                     f: Callable, g0) -> float:
    """Defect of U(g0) A_f U(g0)^dag = A_{f(g0^{-1} .)} in max norm."""
    if spec.translate is None:
        raise ValueError("GroupOrbitSpec.translate is required for covariance")
    u0 = np.asarray(spec.unitary(g0), dtype=complex)
    lhs = u0 @ quantize(fam, f) @ u0.conj().T
    rhs = quantize(fam, lambda g: f(spec.translate(g0, g)))
    return float(np.max(np.abs(lhs - rhs)))
