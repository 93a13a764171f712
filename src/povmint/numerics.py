"""Special functions and quadrature rules shared by every geometry."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class DomainError(ValueError):
    """Argument outside the supported domain of an operation."""


class PoleError(ValueError):
    """A denominator Pochhammer factor vanished before the series terminated."""


# Largest argument for which I_nu(x) still fits in a double.
BESSEL_OVERFLOW_X = 700.0

# Validated range of the upward Laguerre recurrence.
LAGUERRE_MAX_N = 256
LAGUERRE_MAX_X = 600.0


def laguerre_table(n_max: int, alpha, x) -> np.ndarray:
    """Table L[n] = L_n^(alpha)(x), n = 0..n_max, by upward recurrence in n.

    ``alpha`` and ``x`` broadcast, so one pass covers every order and argument.
    Raises DomainError outside the validated range n <= 256, |x| <= 600, and
    for alpha <= -1 unless it is an integer (the reflection identity
    L_n^(m-n)(t) = (m!/n!)(-t)^(n-m) L_m^(n-m)(t) needs those)."""
    if n_max < 0 or int(n_max) != n_max:
        raise DomainError(f"degree must be a nonnegative integer, got {n_max}")
    alpha, x = np.asarray(alpha, dtype=float), np.asarray(x, dtype=float)
    if np.any((alpha <= -1.0) & (alpha != np.round(alpha))):
        raise DomainError(f"alpha must be > -1 or a negative integer, got {alpha}")
    if n_max > LAGUERRE_MAX_N or np.any(np.abs(x) > LAGUERRE_MAX_X):
        raise DomainError(f"n = {n_max}, max |x| = {np.max(np.abs(x), initial=0.0):.6g}"
                          " is outside the validated range n <= 256, |x| <= 600")
    table = np.ones((n_max + 1,) + np.broadcast_shapes(alpha.shape, x.shape))
    if n_max >= 1:
        table[1] = 1.0 + alpha - x
    for k in range(2, n_max + 1):
        table[k] = ((2 * k - 1 + alpha - x) * table[k - 1]
                    - (k - 1 + alpha) * table[k - 2]) / k
    return table


def laguerre(n: int, alpha: float, x):
    """Associated Laguerre polynomial L_n^(alpha)(x): the last row of
    :func:`laguerre_table`.  Scalar x gives a float."""
    row = laguerre_table(n, float(alpha), x)[-1]
    return row if row.ndim else float(row)


def bessel_i(nu: float, x):
    """Modified Bessel function I_nu(x) for nu >= 0, x >= 0, elementwise over
    an array x; a scalar x gives a float.

    Raises OverflowError beyond x = 700; use :func:`bessel_i_scaled` there.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise DomainError(f"argument must be nonnegative, got {np.min(x)}")
    if nu < 0:
        raise DomainError(f"order must be nonnegative, got {nu}")
    if np.any(x > BESSEL_OVERFLOW_X):
        raise OverflowError(
            f"I_nu({np.max(x)}) overflows a double; use bessel_i_scaled instead"
        )
    from scipy.special import ive  # deferred: scipy.special costs ~0.3 s of import

    out = ive(nu, x) * np.exp(x)
    return out if out.ndim else float(out)


def bessel_i_scaled(nu: float, x: float) -> tuple[float, float]:
    """Overflow-safe Bessel evaluation: returns (m, e) with I_nu(x) = m * exp(e)."""
    if x < 0:
        raise DomainError(f"argument must be nonnegative, got {x}")
    if nu < 0:
        raise DomainError(f"order must be nonnegative, got {nu}")
    from scipy.special import ive

    return float(ive(nu, x)), float(x)


def _f21_terms(m: int, b: float, c: float, x) -> list:
    """The terms of the terminating series 2F1(-m, b; c; x).

    The first parameter -m (m a nonnegative integer) makes the series a
    polynomial with m+1 terms.  x may be a real or complex scalar or an
    array; each term then has its type or shape.  Raises PoleError when a
    denominator Pochhammer factor (c)_k vanishes before the series
    terminates.
    """
    if m < 0 or int(m) != m:
        raise DomainError(f"m must be a nonnegative integer, got {m}")
    terms = [1.0 * x ** 0]
    term = terms[0]
    for k in range(m):
        if c + k == 0.0:
            raise PoleError(
                f"(c)_k vanishes at k={k} before the series terminates (c={c})"
            )
        term = term * (k - m) * (b + k) * x / ((c + k) * (k + 1))
        terms.append(term)
    return terms


def hyp2f1_terminating(m: int, b: float, c: float, x):
    """Terminating Gauss hypergeometric sum 2F1(-m, b; c; x) for a real or
    complex scalar x: the terms of :func:`_f21_terms`, summed exactly rounded."""
    terms = _f21_terms(m, b, c, x)
    if isinstance(terms[0], complex):
        return complex(math.fsum(t.real for t in terms),
                       math.fsum(t.imag for t in terms))
    return math.fsum(terms)


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights realizing a measure on a 1-D or 2-D domain.

    ``nodes`` has shape (n,) for 1-D rules and (n, 2) for product rules.
    The weights carry the full measure (including any density factor), so
    ``weights @ f(nodes)`` approximates the integral of f.
    """

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if not np.all(np.isfinite(self.weights)):
            raise DomainError("quadrature weights must be finite")

    @property
    def size(self) -> int:
        return len(self.weights)

    def integrate(self, values: np.ndarray):
        """Weighted sum of per-node values (values indexed along axis 0)."""
        values = np.asarray(values)
        w = self.weights.reshape((-1,) + (1,) * (values.ndim - 1))
        return (w * values).sum(axis=0)


def periodic_rule(n: int, scale: float, offset: float = 0.0) -> QuadratureRule:
    """Trapezoid rule for scale * dtheta on [0, 2pi): n equispaced nodes,
    shifted by ``offset`` in units of the spacing."""
    if n < 1:
        raise DomainError(f"node count must be >= 1, got {n}")
    h = 2.0 * math.pi / n
    return QuadratureRule((np.arange(n) + offset) * h, np.full(n, h * scale))


def legendre_rule(n: int, a: float, b: float) -> QuadratureRule:
    """n-point Gauss-Legendre rule for dx on [a, b]."""
    if n < 1:
        raise DomainError(f"node count must be >= 1, got {n}")
    x, w = np.polynomial.legendre.leggauss(n)
    return QuadratureRule(0.5 * (b - a) * x + 0.5 * (b + a), 0.5 * (b - a) * w)


def _normalized_laguerre(n: int, alpha: float, x: np.ndarray):
    """(p_{n-1}, p_n, d_n = p_n - p_{n-1}) at x, p_k = L_k^(alpha)(x) / C(k+alpha, k),
    by scipy's difference recurrence: near the roots ~400x more accurate than
    :func:`laguerre_table`'s three-term recurrence."""
    p, d = np.ones_like(x), np.zeros_like(x)
    for k in range(n):
        prev = p
        d = -x / (k + alpha + 1) * p + k / (k + alpha + 1) * d
        p = p + d
    return prev, p, d


def laguerre_rule(n: int, alpha: float = 0.0) -> QuadratureRule:
    """n-point Gauss-Laguerre rule for x^alpha e^(-x) dx on [0, inf), alpha > -1.

    Golub-Welsch: Jacobi-matrix eigenvalues, each polished by one Newton step;
    weights x / (p_{n-1} d_n) at the polished nodes (DECISIONS.md entry 15)."""
    if n < 1 or n % 1:  # an integral float is accepted, as scipy did
        raise DomainError(f"node count must be an integer >= 1, got {n}")
    if alpha <= -1:
        raise DomainError(f"Gauss-Laguerre rule needs alpha > -1, got {alpha}")
    n = int(n)
    k = np.arange(n, dtype=float)
    jacobi = np.diag(2.0 * k + alpha + 1.0) + np.diag(np.sqrt(k[1:] * (k[1:] + alpha)), -1)
    x = np.linalg.eigvalsh(jacobi)
    _, p, d = _normalized_laguerre(n, alpha, x)
    x -= x * p / (n * d)  # Newton: L_n / L_n' = x p_n / (n d_n)
    prev, _, d = _normalized_laguerre(n, alpha, x)
    # their product overflows from n = 200: centre each factor in log space
    for f in (prev, d):
        log_f = np.log(np.abs(f))
        f /= np.exp(0.5 * (log_f.max() + log_f.min()))
    w = x / (prev * d)
    w *= math.gamma(alpha + 1.0) / w.sum()
    return QuadratureRule(x, w)


def product_rule(rule_a: QuadratureRule, rule_b: QuadratureRule) -> QuadratureRule:
    """Tensor product of two 1-D rules; nodes are (a, b) pairs."""
    if rule_a.nodes.ndim != 1 or rule_b.nodes.ndim != 1:
        raise DomainError("product_rule composes 1-D rules only")
    na, nb = rule_a.size, rule_b.size
    nodes = np.column_stack([
        np.repeat(rule_a.nodes, nb),
        np.tile(rule_b.nodes, na),
    ])
    weights = np.repeat(rule_a.weights, nb) * np.tile(rule_b.weights, na)
    return QuadratureRule(nodes, weights)
