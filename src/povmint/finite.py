"""Finite measure spaces: counting constraints, frames, and reconstruction
of a density family from its classical probability table p_ij = tr(rho_i rho_j)."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .operators import is_density, max_defect


def least_squares(fun, x0, jac, max_nfev: int = 4000):
    """Levenberg-Marquardt minimization of ||fun(x)||^2 from x0, Jacobian
    jac(x): steps solve (J^T J + lam D^2) dx = -J^T r with More's scaling D
    (LNM 630, 1978); update and stopping rules in DECISIONS.md entry 17."""
    x = np.array(x0, dtype=float)
    r = fun(x)
    cost, nfev, njev, lam, grow, d, jm = r @ r, 1, 0, 1e-3, 2.0, 0.0, None
    while cost > 0 and nfev < max_nfev:
        if jm is None:  # first pass, or a step was accepted
            jm = jac(x)
            njev += 1
            d = np.maximum(d, np.linalg.norm(jm, axis=0))
            a, g, d2 = jm.T @ jm, jm.T @ r, np.where(d > 0, d * d, 1.0)
        step = np.linalg.solve(a + np.diag(lam * d2), -g)
        if step @ (d2 * step) <= 1e-24 * (x @ (d2 * x)):
            break
        r_new = fun(x + step)
        nfev += 1
        new = r_new @ r_new
        rho = (cost - new) / (step @ (a @ step) + 2.0 * lam * step @ (d2 * step))
        if not rho > 0:  # rejected, a NaN residual included
            lam, grow = lam * grow, 2.0 * grow
            continue
        x, r, cost, drop, jm, grow = x + step, r_new, new, cost - new, None, 2.0
        if drop <= 1e-12 * (cost + drop):
            break
        lam *= max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
    return SimpleNamespace(x=x, nfev=nfev, njev=njev)


@dataclass(frozen=True)
class FiniteMeasure:
    """Point weights nu_i > 0; resolution forces sum nu_i = n."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or not np.all((w > 0) & (w < math.inf)):  # NaN fails too
            raise ValueError("weights must be a 1-D array of finite positives")
        object.__setattr__(self, "weights", w)

    @property
    def count(self) -> int:
        return len(self.weights)

    def total(self) -> float:
        return float(self.weights.sum())


@dataclass(frozen=True)
class ProbTable:
    """Symmetric table p_ij with the row-sum constraint sum_j nu_j p_ij = 1."""

    p: np.ndarray
    measure: FiniteMeasure
    n: int

    def validate(self, tol: float = 1e-8):
        p = np.asarray(self.p, dtype=float)
        nn = self.measure.count
        if p.shape != (nn, nn):
            raise ValueError(f"table must be {nn}x{nn}, got {p.shape}")
        if not np.all((p >= -tol) & (p <= 1 + tol)):  # NaN fails too
            raise ValueError("probabilities must lie in [0, 1]")
        if max_defect(p, p.T) > tol:
            raise ValueError("table must be symmetric")
        worst = max_defect(p @ self.measure.weights, 1.0)
        if worst > tol:
            raise ValueError(
                f"row sums sum_j nu_j p_ij must equal 1 (worst defect {worst:.3g})")
        if abs(self.measure.total() - self.n) > tol:
            raise ValueError("weights must sum to the Hilbert dimension n")

    def to_json(self) -> str:
        return json.dumps({
            "p": np.asarray(self.p, dtype=float).ravel().tolist(),
            "nu": self.measure.weights.tolist(),
            "n": self.n,
        })

    @classmethod
    def from_json(cls, text: str) -> "ProbTable":
        """The table written by to_json; ValueError (KeyError for a missing
        key) on any other shape or type."""
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("the table must be a JSON object with keys p, nu and n")
        if type(data["n"]) is not int:  # bool, float and null fail too
            raise ValueError(f"n must be an integer, got {data['n']!r}")
        try:
            nu, p = (np.asarray(data[key], dtype=float) for key in ("nu", "p"))
        except TypeError as exc:  # a JSON object where a number belongs
            raise ValueError(f"p and nu must hold numbers: {exc}") from None
        measure = FiniteMeasure(nu)
        return cls(p.reshape(measure.count, measure.count), measure, data["n"])


@dataclass(frozen=True)
class FeasibilityReport:
    n_min: int
    n_max: float
    notes: str = ""


def feasibility_bounds(n: int, rank_one: bool = False) -> FeasibilityReport:
    """Allowed number of points N for a resolving family in dimension n.

    Full-rank: 1 <= N <= 2n^2 - 2 with (N-1)(n^2-1) free parameters.
    Rank-one: the quadratic N^2 - N(4n-1) + 2n^2 - n <= 0 brackets N
    (discriminant 8n^2 - 4n + 1), together with the frame requirement N >= n.
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    if n == 1:
        return FeasibilityReport(1, 0, "degenerate: n^2 - 1 = 0, only trivial families")
    if not rank_one:
        return FeasibilityReport(1, 2 * n * n - 2)
    disc = math.sqrt(8 * n * n - 4 * n + 1)
    lo = 0.5 * ((4 * n - 1) - disc)
    hi = 0.5 * ((4 * n - 1) + disc)
    return FeasibilityReport(
        max(int(math.ceil(lo)), n), hi,
        "upper root carries +sqrt; both printed bounds share the -sqrt sign")


def parseval_check(vectors, weights) -> float:
    """Max-norm defect of sum_i nu_i |x_i><x_i| = I for unit vectors x_i."""
    vecs = np.asarray(vectors, dtype=complex)
    w = np.asarray(weights, dtype=float)
    if max_defect(np.linalg.norm(vecs, axis=1), 1.0) > 1e-10:
        raise ValueError("frame vectors must be unit")
    n = vecs.shape[1]
    frame = np.einsum("i,ij,ik->jk", w, vecs, vecs.conj())
    return max_defect(frame, np.eye(n))


def resolution_defect(rhos, measure: FiniteMeasure) -> float:
    total = sum(w * np.asarray(r, dtype=complex)
                for w, r in zip(measure.weights, rhos))
    return max_defect(total, np.eye(total.shape[0]))


def gram_probabilities(rhos, measure: FiniteMeasure,
                       tol: float = 1e-10) -> ProbTable:
    """Table p_ij = tr(rho_i rho_j) of a resolving family."""
    defect = resolution_defect(rhos, measure)
    if defect > tol:
        raise ValueError(f"family does not resolve the identity "
                         f"(defect {defect:.3g})")
    rho = np.asarray(rhos, dtype=complex)
    table = ProbTable(_gram(rho), measure, rho.shape[1])
    table.validate(tol=max(tol * 100, 1e-8))
    return table


@dataclass
class ReconstructionResult:
    rhos: list
    residual: float
    resolution: float
    converged: bool
    restarts_used: int


def _gram(rho: np.ndarray) -> np.ndarray:
    """p_ij = tr(rho_i rho_j) of a stack of Hermitian matrices (size, n, n)."""
    return np.einsum("iab,jba->ij", rho, rho).real


def _params_to_rhos(x: np.ndarray, size: int, n: int, k: int):
    """Unpack optimizer variables into densities rho = B B^dag / s.

    Each point's 2nk variables are the real then the imaginary part of its
    n x k factor B, row-major.  Returns the density stack (size, n, n), the
    traces s_i = ||B_i||_F^2 and the factor stack B (size, n, k).
    """
    xr = x.reshape(size, 2, n, k)
    b = xr[:, 0] + 1.0j * xr[:, 1]
    s = np.einsum("ixab,ixab->i", xr, xr)
    rho = b @ b.conj().transpose(0, 2, 1) / s[:, None, None]
    return rho, s, b


def _objective(target: np.ndarray, nu: np.ndarray, n: int, k: int,
               penalty: float):
    """Residual function of `reconstruct` and its closed-form Jacobian.

    Residuals are the upper-triangle table mismatches p_ij - target_ij, then
    `penalty` times the resolution defect sum_i nu_i rho_i - I (real upper
    triangle, imaginary strict upper triangle).  With B = X + iY, rho =
    B B^dag / s and s = ||B||_F^2:
      dp_ij/dX_l = d_il 2Re(rho_j B_i - p_ij B_i)/s_i + (i <-> j), Im for Y_l;
      d(rho_i)_ab/d(X_i)_cd = (d_ac conj(B)_bd + B_ad d_bc - 2 rho_ab X_cd)/s_i,
      d(rho_i)_ab/d(Y_i)_cd = (i d_ac conj(B)_bd - i B_ad d_bc - 2 rho_ab Y_cd)/s_i.
    Jacobian columns follow the layout of x: point, real/imaginary part,
    row, column.
    """
    size = len(nu)
    iu, re, im = np.triu_indices(size), np.triu_indices(n), np.triu_indices(n, k=1)
    idn = np.eye(n)
    eye = np.eye(size)[:, :, None, None, None]

    def residuals(x):
        rho, _, _ = _params_to_rhos(x, size, n, k)
        total = np.einsum("i,iab->ab", nu, rho) - idn
        return np.concatenate([(_gram(rho) - target)[iu],
                               penalty * total.real[re],
                               penalty * total.imag[im]])

    def jacobian(x):
        rho, s, b = _params_to_rhos(x, size, n, k)
        p = _gram(rho)
        # dp_ij/dB_i: real part for X_i, imaginary part for Y_i
        dp = 2.0 * (np.einsum("jab,ibk->ijak", rho, b)
                    - p[:, :, None, None] * b[:, None]) / s[:, None, None, None]
        dp = np.stack([dp.real, dp.imag], axis=2)
        # rows (i, j), columns l: delta_il dp_ij + delta_jl dp_ji
        pairs = (eye[:, None] * dp[:, :, None]
                 + eye[None] * dp.swapaxes(0, 1)[:, :, None])
        sym = np.einsum("ac,ibd->iabcd", idn, b.conj())
        swap = np.einsum("iad,bc->iabcd", b, idn)
        dx = sym + swap - 2.0 * np.einsum("iab,icd->iabcd", rho, b.real)
        dy = 1.0j * (sym - swap) - 2.0 * np.einsum("iab,icd->iabcd", rho, b.imag)
        dt = (np.stack([dx, dy], axis=3)
              * (penalty * nu / s)[:, None, None, None, None, None])
        rows = [pairs[iu], dt.real[:, re[0], re[1]].swapaxes(0, 1),
                dt.imag[:, im[0], im[1]].swapaxes(0, 1)]
        return np.concatenate([r.reshape(len(r), -1) for r in rows])

    return residuals, jacobian


def reconstruct(table: ProbTable, rank_one: bool = False, seed: int = 0,
                restarts: int = 8, tol: float = 1e-8) -> ReconstructionResult:
    """Recover densities reproducing the table, up to unitary gauge freedom.

    Qubit tables (n = 2) try classical multidimensional scaling first
    (Torgerson 1952): rho_i = (I + r_i.sigma)/2 has r_i.r_j = 2 p_ij - 1, so
    the top min(3, N) eigenpairs of that Gram matrix give the Bloch vectors
    up to O(3) (a rotation is a unitary, a reflection a transpose).  The
    resolution holds: validate() gives sum nu_j = 2 and sum_j nu_j p_ij = 1,
    so s = sum_j nu_j r_j has r_i.s = 0 for every i, and s, in the span of
    the r_i, is 0.  That result (``restarts_used`` 0) stands if its residual
    is below ``tol``, its resolution defect below 100 ``tol``, every matrix
    is a density and, for ``rank_one``, every |r_i| = 1 within ``tol``.

    Otherwise penalized nonlinear least squares runs over the factorized
    parametrization rho_i = B_i B_i^dag / tr(B_i B_i^dag): residuals are the
    upper-triangle trace mismatches plus 10 times the resolution defect
    entries, with the closed-form Jacobian of `_objective` and at most 4000
    evaluations per restart.
    Restarts are deterministic per (seed, restart index); the winner has the
    lowest residual, ties broken by resolution defect.  ``converged`` needs
    the residual below ``tol`` and every recovered matrix a density.
    """
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    table.validate()
    size, n = table.measure.count, table.n
    bounds = feasibility_bounds(n, rank_one)
    if not bounds.n_min <= size <= bounds.n_max:
        raise ValueError(
            f"infeasible configuration: N={size} outside "
            f"[{bounds.n_min}, {bounds.n_max}] for n={n}"
            + (" (rank one)" if rank_one else ""))
    target = np.asarray(table.p, dtype=float)

    def score(rho):
        return (float(np.sqrt(np.sum((_gram(rho) - target)[np.triu_indices(size)] ** 2))),
                resolution_defect(rho, table.measure))

    def densities(rhos):
        return all(is_density(r, tol=1e-8, eig_slack=1e-7).ok for r in rhos)

    if n == 2:
        w, v = np.linalg.eigh(2.0 * target - 1.0, UPLO="U")
        # rounding-level eigenvalues count as 0; zero columns pad N < 3
        r = np.pad(v * np.sqrt(np.where(w > 1e-12, w, 0.0)), ((0, 0), (3, 0)))[:, :-4:-1]
        x, y, z = r.T
        rho = 0.5 * np.array([[1 + z, x - 1j * y], [x + 1j * y, 1 - z]]).transpose(2, 0, 1)
        table_res, defect = score(rho)
        if (table_res < tol and defect < 100 * tol and densities(rho) and not
                (rank_one and max_defect(np.linalg.norm(r, axis=1), 1.0) > tol)):
            return ReconstructionResult(list(rho), table_res, defect, True, 0)

    k = 1 if rank_one else n
    residuals, jacobian = _objective(target, table.measure.weights, n, k, 10.0)
    rng = np.random.default_rng(seed)
    best = None
    for attempt in range(restarts):
        x0 = rng.standard_normal(size * 2 * n * k)
        sol = least_squares(residuals, x0, jac=jacobian, max_nfev=4000)
        rho, _, _ = _params_to_rhos(sol.x, size, n, k)
        used = attempt + 1
        cand = (*score(rho), list(rho))
        if best is None or cand[:2] < best[:2]:
            best = cand
        if best[0] < tol and best[1] < 100 * tol:
            break
    table_res, defect, rhos = best
    return ReconstructionResult(rhos, table_res, defect,
                                table_res < tol and densities(rhos), used)
