"""Dense complex-matrix layer: density-matrix checks, eigensolvers, distances."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Quadrature-built densities carry O(1e-12) noise, so positivity is checked
# with this slack on the smallest eigenvalue.
POSITIVITY_SLACK = 1e-10


@dataclass(frozen=True)
class DensityCheck:
    ok: bool
    herm_defect: float
    trace_defect: float
    min_eigenvalue: float


def max_defect(a, b=0.0) -> float:
    """Max-norm distance max |a - b| (NaN if any entry is NaN)."""
    return float(np.max(np.abs(np.subtract(a, b))))


def _as_square(m) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def is_density(m, tol: float = 1e-12, eig_slack: float = POSITIVITY_SLACK) -> DensityCheck:
    """Check Hermiticity, unit trace and positivity; diagnostics always returned."""
    m = _as_square(m)
    herm = max_defect(m, m.conj().T)
    trace = float(abs(np.trace(m).real - 1.0) + abs(np.trace(m).imag))
    sym = 0.5 * (m + m.conj().T)
    min_eig = float(np.linalg.eigvalsh(sym)[0])
    ok = herm <= tol and trace <= tol and min_eig >= -eig_slack
    return DensityCheck(ok, herm, trace, min_eig)


def eig_hermitian(m):
    """Eigenvalues (ascending) and orthonormal eigenvector columns of a Hermitian matrix."""
    m = _as_square(m)
    if max_defect(m, m.conj().T) > 1e-10 * max(1.0, max_defect(m)):
        raise ValueError("matrix is not Hermitian within tolerance")
    return np.linalg.eigh(0.5 * (m + m.conj().T))


def purity(rho) -> float:
    """tr(rho^2), in (0, 1] with equality iff rank one."""
    rho = _as_square(rho)
    return float(np.trace(rho @ rho).real)


def hs_distance(r1, r2) -> float:
    """Hilbert-Schmidt distance sqrt(tr (r1 - r2)^2); bounded by sqrt(2) for densities."""
    r1, r2 = _as_square(r1), _as_square(r2)
    if r1.shape != r2.shape:
        raise ValueError("dimension mismatch")
    d = r1 - r2
    return math.sqrt(max(float(np.trace(d @ d).real), 0.0))


def pseudo_distance(r1, r2) -> float:
    """Overlap pseudo-distance sqrt(-ln tr(r1 r2)/sqrt(tr r1^2 tr r2^2)).

    Returns +inf when the overlap vanishes (orthogonal states); this is the
    limit value, not an error.
    """
    r1, r2 = _as_square(r1), _as_square(r2)
    if r1.shape != r2.shape:
        raise ValueError("dimension mismatch")
    overlap = float(np.trace(r1 @ r2).real)
    if overlap <= 0.0:
        return math.inf
    norm = math.sqrt(purity(r1) * purity(r2))
    return math.sqrt(max(-math.log(overlap / norm), 0.0))


@dataclass(frozen=True)
class MixtureSpec:
    """Statistical mixture: probabilities summing to 1 over unit vectors."""

    weights: np.ndarray
    states: np.ndarray  # shape (k, dim), one unit vector per row

    def validate(self, tol: float = 1e-12):
        w = np.asarray(self.weights, dtype=float)
        if np.any(w < -tol) or abs(w.sum() - 1.0) > tol:
            raise ValueError("mixture weights must lie in [0,1] and sum to 1")
        s = np.asarray(self.states, dtype=complex)
        norms = np.linalg.norm(s, axis=1)
        if max_defect(norms, 1.0) > tol:
            raise ValueError("mixture states must be unit vectors")


def mix(spec: MixtureSpec) -> np.ndarray:
    """Density matrix sum_i p_i |psi_i><psi_i| of a statistical mixture."""
    spec.validate()
    states = np.asarray(spec.states, dtype=complex)
    weights = np.asarray(spec.weights, dtype=float)
    dim = states.shape[1]
    rho = np.zeros((dim, dim), dtype=complex)
    for p, psi in zip(weights, states):
        rho += p * np.outer(psi, psi.conj())
    return rho
