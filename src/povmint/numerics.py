"""Special functions and quadrature rules shared by every geometry."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ive, roots_genlaguerre


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


def bessel_i(nu: float, x: float) -> float:
    """Modified Bessel function I_nu(x) for nu >= 0, x >= 0.

    Raises OverflowError beyond x = 700; use :func:`bessel_i_scaled` there.
    """
    if x < 0:
        raise DomainError(f"argument must be nonnegative, got {x}")
    if nu < 0:
        raise DomainError(f"order must be nonnegative, got {nu}")
    if x > BESSEL_OVERFLOW_X:
        raise OverflowError(
            f"I_nu({x}) overflows a double; use bessel_i_scaled instead"
        )
    return float(ive(nu, x) * math.exp(x))


def bessel_i_scaled(nu: float, x: float) -> tuple[float, float]:
    """Overflow-safe Bessel evaluation: returns (m, e) with I_nu(x) = m * exp(e)."""
    if x < 0:
        raise DomainError(f"argument must be nonnegative, got {x}")
    if nu < 0:
        raise DomainError(f"order must be nonnegative, got {nu}")
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
    kind: str
    params: dict = field(default_factory=dict)

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


def make_rule(kind: str, n: int, **params) -> QuadratureRule:
    """Build a quadrature rule.

    kinds:
      * ``periodic-trapezoid``: equispaced nodes on [a, b) (default [0, 2pi)),
        optional midpoint ``offset`` in units of the spacing and a constant
        density ``scale`` multiplying the weights.
      * ``gauss-legendre``: n-point rule on [a, b] (default [-1, 1]), optional
        constant density ``scale``.
      * ``gauss-laguerre``: integrates f(x) x^alpha e^(-x) on [0, inf).
    """
    if n < 1:
        raise DomainError(f"node count must be >= 1, got {n}")
    scale = params.get("scale", 1.0)
    if kind == "periodic-trapezoid":
        a = params.get("a", 0.0)
        b = params.get("b", 2.0 * math.pi)
        offset = params.get("offset", 0.0)
        h = (b - a) / n
        nodes = a + (np.arange(n) + offset) * h
        weights = np.full(n, h * scale)
    elif kind == "gauss-legendre":
        a = params.get("a", -1.0)
        b = params.get("b", 1.0)
        x, w = np.polynomial.legendre.leggauss(n)
        nodes = 0.5 * (b - a) * x + 0.5 * (b + a)
        weights = 0.5 * (b - a) * w * scale
    elif kind == "gauss-laguerre":
        alpha = params.get("alpha", 0.0)
        if alpha <= -1:
            raise DomainError(f"gauss-laguerre needs alpha > -1, got {alpha}")
        nodes, weights = roots_genlaguerre(n, alpha)
        weights = weights * scale
    else:
        raise ValueError(f"unsupported rule kind: {kind!r}")
    return QuadratureRule(nodes, weights, kind, dict(params))


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
    return QuadratureRule(nodes, weights, "product",
                          {"factors": (rule_a.kind, rule_b.kind)})
