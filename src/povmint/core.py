"""Geometry-independent quantization engine.

A :class:`DensityFamily` bundles a map x -> density matrix with a quadrature
rule realizing the measure; everything else (resolution checks, POVMs of
regions, probability kernels, quantization of functions, lower symbols,
coherent-state construction, covariant orbits) is built on top of it by
weighted sums over the rule nodes: the family's ``weighted_sum`` (a group orbit's forms
no density) or one einsum per batch of node densities.  A symbol is quantized from its values on
the rule nodes (:func:`quantize_values`) or, as a scalar callable, one call
per node (:func:`quantize`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .numerics import QuadratureRule
from .operators import max_defect

Array = np.ndarray


# Bytes of node matrices stacked per evaluate call in a reduction (8,192
# dim-48 plane densities evaluated at once would take ~300 MB).
NODE_BATCH_BYTES = 1 << 23


@dataclass
class DensityFamily:
    """Map x -> density matrix together with a rule for the measure dnu.

    ``evaluate`` takes a node or an array of nodes and broadcasts: shape
    nodes.shape[:-1] + (dim, dim) on 2-D rules, nodes.shape + (dim, dim) on 1-D."""

    dim: int
    evaluate: Callable[[object], Array]
    rule: QuadratureRule
    # optional fast route: real coeffs -> sum_k coeffs_k rho(x_k) over rule.nodes, linear in
    # coeffs; _accumulate passes Re c and Im c of complex c as contiguous float arrays, as real
    # c is, so a real symbol and its complex copy run the same BLAS calls
    weighted_sum: Callable[[Array], Array] | None = None


def affine_weighted_sum(feats: Array, basis: Array) -> Callable[[Array], Array]:
    """weighted_sum (c @ feats) @ basis of real c for a qubit family rho(x_k) = feats[k] @ basis:
    no node matrix built."""
    basis4 = basis.reshape(len(basis), 4)
    return lambda c: (c[None] @ feats @ basis4).reshape(2, 2) + 0j


@dataclass(frozen=True)
class ResolutionReport:
    defect: float
    operator: Array


def _on_nodes(fn: Callable, nodes: Array, tail: tuple) -> Array:
    """fn on a node array, checked to broadcast to shape (len(nodes),) + tail."""
    out = np.asarray(fn(nodes))
    if out.shape != (len(nodes),) + tail:
        raise ValueError(f"node callables must broadcast over node arrays:"
                         f" {len(nodes)} nodes gave shape {out.shape}")
    return out


def _slices(idx: Array, node_bytes: int):
    """Consecutive slices of idx, each of at most NODE_BATCH_BYTES at node_bytes per node."""
    step = max(1, NODE_BATCH_BYTES // node_bytes)
    for start in range(0, len(idx), step):
        yield idx[start:start + step]


def _batches(fam: DensityFamily, idx: Array):
    """Yield (part, rho(rule.nodes[part])) over _slices of idx, a dim x dim matrix per node."""
    for part in _slices(idx, 16 * fam.dim ** 2):
        yield part, _on_nodes(fam.evaluate, fam.rule.nodes[part], (fam.dim,) * 2)


def _accumulate(fam: DensityFamily, coeffs=None) -> Array:
    """Weighted sum of rho over nodes: the family's own weighted_sum when it has one, of complex
    c as ws(Re c) + i ws(Im c); else one einsum per batch of the nodes with nonzero coefficient."""
    c = fam.rule.weights if coeffs is None else fam.rule.weights * coeffs
    if fam.weighted_sum is not None and np.iscomplexobj(c):
        re, im = np.stack([c.real, c.imag])
        return fam.weighted_sum(re) + 1j * fam.weighted_sum(im)
    if fam.weighted_sum is not None:
        return fam.weighted_sum(c)
    total = np.zeros((fam.dim, fam.dim), dtype=complex)
    for part, mats in _batches(fam, np.flatnonzero(c)):
        total += np.einsum("k,kij->ij", c[part], mats)
    return total


def check_resolution(fam: DensityFamily, block: int | None = None) -> ResolutionReport:
    """Max-norm defect of sum_k w_k rho(x_k) - I, optionally on a leading block."""
    total = _accumulate(fam)
    if block is not None:
        total = total[:block, :block]
    return ResolutionReport(max_defect(total, np.eye(total.shape[0])), total)


def povm_region(fam: DensityFamily, indicator: Callable) -> Array:
    """POVM element of a region: rho integrated where indicator(nodes) holds."""
    mask = _on_nodes(indicator, fam.rule.nodes, ()).astype(bool).astype(float)
    return _accumulate(fam, mask)


def prob_kernel(fam: DensityFamily, x0, x) -> float:
    """Probability kernel tr(rho(x0) rho(x))."""
    r0, r1 = np.asarray(fam.evaluate(np.array([x0, x])), dtype=complex)
    return float(np.trace(r0 @ r1).real)


def quantize_values(fam: DensityFamily, vals: Array) -> Array:
    """A_f = sum_k w_k f(x_k) rho(x_k) from the values f(x_k), summed as float unless complex."""
    vals = np.asarray(vals, dtype=complex if np.iscomplexobj(vals) else float)
    if vals.shape != (fam.rule.size,):
        raise ValueError(f"values need shape ({fam.rule.size},), got {vals.shape}")
    if not np.all(np.isfinite(vals)):
        raise ValueError("f must be finite at every quadrature node")
    return _accumulate(fam, vals)


def quantize(fam: DensityFamily, f: Callable) -> Array:
    """A_f of a scalar symbol f: complex(f(x)) at each node, summed as float when all real."""
    vals = np.array([complex(f(x)) for x in fam.rule.nodes])
    return quantize_values(fam, vals if vals.imag.any() else vals.real)


def lower_symbol(fam: DensityFamily, a: Array, x) -> complex | Array:
    """Lower (Berezin) symbol tr(rho(x) A): a complex for one node, and for a
    node array an array shaped like DensityFamily.evaluate's without the matrix
    axes, each entry the same bits as that node on its own."""
    a = np.asarray(a, dtype=complex)
    rho = np.asarray(fam.evaluate(x), dtype=complex)
    if rho.shape[-2:] != a.shape:
        raise ValueError("dimension mismatch")
    low = np.trace(rho @ a, axis1=-2, axis2=-1)
    return complex(low) if low.ndim == 0 else low


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

    phi(x) returns the length-N vector (phi_0(x), ..., phi_{N-1}(x)) and
    broadcasts over nodes like DensityFamily.evaluate (trailing axis N).
    """

    phi: Callable[[object], Array]
    size: int
    base_rule: QuadratureRule

    def gram_defect(self) -> float:
        """Max-norm distance of the Gram matrix from the identity."""
        samples = _on_nodes(self.phi, self.base_rule.nodes, (self.size,))
        gram = np.einsum("k,kn,km->nm", self.base_rule.weights,
                         samples.conj(), samples)
        return max_defect(gram, np.eye(self.size))


def cs_norm(basis: CsBasis, x) -> Array:
    """Normalization N(x) = sum_n |phi_n(x)|^2 (must be positive)."""
    v = np.asarray(basis.phi(x), dtype=complex)
    return np.sum(np.abs(v) ** 2, axis=-1)


def cs_state(basis: CsBasis, x) -> tuple[Array, Array]:
    """Coherent state |x> = N(x)^{-1/2} sum_n conj(phi_n(x)) |e_n>, plus N(x)."""
    v = np.asarray(basis.phi(x), dtype=complex)
    norm = np.sum(np.abs(v) ** 2, axis=-1)
    if np.any(norm <= 0.0):
        raise ValueError(f"N(x) vanishes at x={x!r}")
    return v.conj() / np.sqrt(norm)[..., None], norm


def reproducing_kernel(basis: CsBasis, x, xp) -> complex:
    """Overlap K(x, x') = <x|x'> of two coherent states."""
    vx, _ = cs_state(basis, x)
    vxp, _ = cs_state(basis, xp)
    return complex(vx.conj() @ vxp)


def cs_family(basis: CsBasis) -> DensityFamily:
    """Rank-one family rho(x) = |x><x| with measure dnu = N(x) dmu."""
    weights = basis.base_rule.weights * _on_nodes(
        lambda x: cs_norm(basis, x), basis.base_rule.nodes, ())
    rule = QuadratureRule(basis.base_rule.nodes, weights)

    def evaluate(x):
        v, _ = cs_state(basis, x)
        return v[..., :, None] * v[..., None, :].conj()

    return DensityFamily(basis.size, evaluate, rule)


# ---------------------------------------------------------------------------
# Covariant (group-orbit) constructions.


@dataclass
class GroupOrbitSpec:
    """Group orbit of a fiducial density under a unitary representation.

    ``unitary(g)`` maps a group node, or an array of them, to unitary
    matrices with the same broadcasting as DensityFamily.evaluate; it may
    return only their leading r rows, shape (..., r, dim), and the orbit
    densities are then the compressions of U F U^dag onto the first r basis
    states. ``group_rule`` realizes the invariant measure dmu(g); ``probe``
    is the fixed density entering the admissibility integral, acting on the
    same r-dimensional space as the orbit densities; ``translate(g0, g)``
    returns g0^{-1} g for the covariance check.
    """

    unitary: Callable[[object], Array]
    fiducial: Array
    group_rule: QuadratureRule
    probe: Array
    translate: Callable[[object, object], object] | None

    def orbit_density(self, g) -> Array:
        # U F U^dag as conj(conj(U F) U^T), U F one GEMM: two (..., r, dim) arrays live
        u = np.asarray(self.unitary(g), dtype=complex)
        uf = (u.reshape(-1, u.shape[-1]) @ self.fiducial).reshape(u.shape)
        rho = np.conjugate(uf, out=uf) @ np.swapaxes(u, -1, -2)
        return np.conjugate(rho, out=rho)


def orbit_integral(spec: GroupOrbitSpec) -> tuple[float, Array]:
    """(c_rho, int rho(g) dmu(g)) from one reduction over the group rule, with
    the admissibility constant c_rho = tr(probe * integral) finite and positive."""
    total = _accumulate(orbit_family(spec, c_rho=1.0))
    c = float(np.trace(np.asarray(spec.probe, dtype=complex) @ total).real)
    if not math.isfinite(c) or c <= 0.0:
        raise ValueError(f"admissibility constant must be positive, got {c}")
    return c, total


def covariant_c_rho(spec: GroupOrbitSpec) -> float:
    """Admissibility constant c_rho = integral of tr(probe * rho(g)) dmu(g)."""
    return orbit_integral(spec)[0]


def orbit_family(spec: GroupOrbitSpec, c_rho: float | None = None) -> DensityFamily:
    """Orbit family with measure dnu = dmu / c_rho, normalized to resolve I.  Its weighted sum
    takes the Hermitian fiducial F = V diag(lam) V^dag (no V if F is diagonal) and W = U V:
    sum_k c_k U_k F U_k^dag = sum_n lam_n (c o W[:, :, n])^T conj(W[:, :, n]), one r x r GEMM
    per column and node batch, whose rows count twice against NODE_BATCH_BYTES (temporaries)."""
    if c_rho is None:
        c_rho = covariant_c_rho(spec)
    rule = QuadratureRule(spec.group_rule.nodes, spec.group_rule.weights / c_rho)
    dim = np.asarray(spec.probe).shape[0]
    fid = np.asarray(spec.fiducial)
    lam, vecs = ((np.diagonal(fid).real, None) if np.array_equal(fid, np.diag(np.diagonal(fid)))
                 else np.linalg.eigh(fid))

    def add_batch(total, cw, nodes):
        u = _on_nodes(spec.unitary, nodes, (dim, len(lam)))
        if vecs is not None:
            u = u @ vecs
        for n in np.flatnonzero(lam):
            col = u[:, :, n]
            total += (col * (lam[n] * cw)[:, None]).T @ col.conj()

    def weighted_sum(c):
        total = np.zeros((dim, dim), dtype=complex)
        for part in _slices(np.flatnonzero(c), 32 * dim * len(lam)):
            add_batch(total, c[part], rule.nodes[part])  # its rows die before the next batch's
        return total

    return DensityFamily(dim, spec.orbit_density, rule, weighted_sum)


def covariance_check(spec: GroupOrbitSpec, fam: DensityFamily,
                     f: Callable, g0) -> float:
    """Defect of U(g0) A_f U(g0)^dag = A_{f(g0^{-1} .)} in max norm."""
    if spec.translate is None:
        raise ValueError("GroupOrbitSpec.translate is required for covariance")
    u0 = np.asarray(spec.unitary(g0), dtype=complex)
    if u0.shape != (fam.dim, fam.dim):
        raise ValueError(f"covariance needs the full unitary, got U(g0) of shape {u0.shape}")
    lhs = u0 @ quantize(fam, f) @ u0.conj().T
    rhs = quantize(fam, lambda g: f(spec.translate(g0, g)))
    return max_defect(lhs, rhs)
