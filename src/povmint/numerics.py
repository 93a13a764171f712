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
# Largest order of the validated Bessel routine: x_h(nu) passes 700 above it.
BESSEL_MAX_NU = 60.0

# Validated range of the upward Laguerre recurrence.
LAGUERRE_MAX_N = 256
LAGUERRE_MAX_X = 600.0

# Node budget of a circle rule and of a sphere or half-plane product rule (--grid 512, < 1 s).
MAX_RULE_NODES = 2 ** 18


def unit_radius(r) -> np.ndarray:
    """r as an array; DomainError unless every entry lies in [0, 1] (NaN fails)."""
    r = np.asarray(r)
    if not ((0.0 <= r) & (r <= 1.0)).all():
        raise DomainError(f"r must lie in [0, 1], got {r}")
    return r


def laguerre_table(n_max: int, alpha, x) -> np.ndarray:
    """Table L[n] = L_n^(alpha)(x), n = 0..n_max, by upward recurrence in n.

    ``alpha`` and ``x`` broadcast, so one pass covers every order and argument.
    Raises DomainError outside the validated range n <= 256, |x| <= 600, and
    for alpha NaN, infinite or <= -1 and not an integer (the reflection identity
    L_n^(m-n)(t) = (m!/n!)(-t)^(n-m) L_m^(n-m)(t) needs those)."""
    if not 0 <= n_max < math.inf or n_max % 1:  # NaN fails too
        raise DomainError(f"degree must be a nonnegative integer, got {n_max}")
    n_max, alpha, x = int(n_max), np.asarray(alpha, dtype=float), np.asarray(x, dtype=float)
    if not np.all(np.isfinite(alpha) & ((alpha > -1.0) | (alpha == np.round(alpha)))):
        raise DomainError(f"alpha must be > -1 or a negative integer, got {alpha}")
    if n_max > LAGUERRE_MAX_N or not np.all(np.abs(x) <= LAGUERRE_MAX_X):  # NaN fails too
        raise DomainError(f"n = {n_max}, max |x| = {np.max(np.abs(x), initial=0.0):.6g}"
                          " is outside the validated range n <= 256, |x| <= 600")
    table = np.ones((n_max + 1,) + np.broadcast_shapes(alpha.shape, x.shape))
    if n_max >= 1:
        table[1] = 1.0 + alpha - x
    ks = np.arange(2, n_max + 1).reshape((-1,) + (1,) * (table.ndim - 1))
    a, b = 2 * ks - 1 + alpha - x, ks - 1 + alpha  # in the loop's operation order
    for k in range(2, n_max + 1):
        table[k] = (a[k - 2] * table[k - 1] - b[k - 2] * table[k - 2]) / k
    return table


def laguerre(n: int, alpha: float, x):
    """Associated Laguerre polynomial L_n^(alpha)(x): the last row of
    :func:`laguerre_table`.  Scalar x gives a float."""
    row = laguerre_table(n, float(alpha), x)[-1]
    return row if row.ndim else float(row)


def bessel_i(nu: float, x):
    """Modified Bessel function I_nu(x) for 0 <= nu <= 60, x >= 0, elementwise
    over an array x; a scalar x gives a float.

    Raises OverflowError beyond x = 700; use :func:`bessel_i_scaled` there.
    """
    m, x = bessel_i_scaled(nu, x)
    if np.any(x > BESSEL_OVERFLOW_X):
        raise OverflowError(
            f"I_nu({np.max(x)}) overflows a double; use bessel_i_scaled instead"
        )
    out = m * np.exp(x)
    return out if np.ndim(out) else float(out)


def _bessel_plan(nu: float):
    """Hankel coefficients (-1)^k a_k(nu), threshold x_h and series divisors
    k(k + nu).  From x_h on the first omitted coefficient is below 2^-54 and
    every kept one below 4; the series terms fall below 2^-54 of the sum at x_h."""
    c = [1.0]
    for k in range(1, 22 + int(nu) // 2):
        c.append(-c[-1] * (4.0 * nu * nu - (2 * k - 1) ** 2) / (8.0 * k))
    omitted = abs(c.pop())
    x_h = max([20.0, (omitted * 2.0 ** 54) ** (1.0 / len(c))]
              + [(abs(a) / 4.0) ** (1.0 / k) for k, a in enumerate(c[1:], 1)])
    y, t, s, n = 0.25 * x_h * x_h, 1.0, 1.0, 0
    while t >= 2.0 ** -54 * s or n * (n + nu) < y:
        n += 1
        t *= y / (n * (n + nu))
        s += t
    k = np.arange(1.0, n + 1.0)
    return c, x_h, k * (k + nu)


def bessel_i_scaled(nu: float, x):
    """Overflow-safe Bessel evaluation: (m, e) with I_nu(x) = m * exp(e),
    elementwise over an array x; a scalar x gives two floats.  m = e^-x I_nu(x)
    is the Hankel expansion (DLMF 10.40.1) from x_h(nu) >= 20 on and the power
    series (DLMF 10.25.2) below, both of a length fixed by nu, so an array
    element equals the scalar call (DECISIONS.md entry 17).  nu <= 60."""
    x = np.asarray(x, dtype=float)
    if not np.all((x >= 0) & (x < math.inf)):  # NaN fails too
        raise DomainError(f"argument must be nonnegative and finite, got [{np.min(x)}, {np.max(x)}]")
    if not 0 <= nu <= BESSEL_MAX_NU:
        raise DomainError(f"order must lie in [0, {BESSEL_MAX_NU:g}], got {nu}")
    c, x_h, div = _bessel_plan(float(nu))
    m = np.empty_like(x)
    big = x >= x_h
    xb = x[big]
    acc = np.full_like(xb, c[-1])
    for a in c[-2::-1]:
        acc /= xb
        acc += a
    m[big] = acc / np.sqrt(2.0 * math.pi * xb)
    xs = x[~big]
    lead = np.exp(-xs) * (0.5 * xs) ** nu / math.gamma(nu + 1.0)
    terms = np.cumprod((0.25 * xs * xs)[:, None] / div, axis=1)
    m[~big] = lead * (1.0 + terms.sum(axis=1))
    return (m, x) if m.ndim else (float(m), float(x))


def _f21_terms(m, b, c, x) -> list:
    """The terms k = 0..max(m) of the terminating series 2F1(-m, b; c; x).

    The degrees m (nonnegative integers) broadcast with b, c and x, and each
    term after the first has their broadcast type or shape; the series of
    degree m has m+1 terms and is zero-padded past them.  A vanishing (c)_k
    is not checked: it makes the terms inf or NaN, or raises ZeroDivisionError
    on Python scalars.
    """
    degrees = set(np.ravel(m).tolist())
    if any(d < 0 or d % 1 for d in degrees):  # NaN and inf fail too
        raise DomainError(f"m must be a nonnegative integer, got {m}")
    # ones, not x ** 0: a complex power per node; scalars keep Python types
    terms = [np.ones_like(x, np.result_type(x, 1.0)) if np.ndim(x) else 1.0 * x ** 0]
    for k in range(int(max(degrees))):
        term = terms[-1] * (k - m) * (b + k) * x / ((c + k) * (k + 1))
        # a scalar m ends the loop at k = m - 1, so only arrays need the mask
        terms.append(np.where(k < m, term, 0.0) if np.ndim(m) else term)
    return terms


def hyp2f1_terminating(m: int, b: float, c: float, x):
    """Terminating Gauss hypergeometric sum 2F1(-m, b; c; x) for a real or
    complex scalar x: the terms of :func:`_f21_terms`, summed exactly rounded.
    Raises PoleError when a denominator Pochhammer factor (c)_k vanishes
    before the series terminates, that is c = -k for some k < m."""
    if float(c).is_integer() and 0 <= -c < m:
        raise PoleError(f"(c)_k vanishes at k={-c:g} before the series terminates (c={c})")
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
    shifted by ``offset`` in units of the spacing; DomainError past MAX_RULE_NODES."""
    if n < 1 or n % 1:  # an integral float is accepted; NaN fails
        raise DomainError(f"node count must be an integer >= 1, got {n}")
    if n > MAX_RULE_NODES:
        raise DomainError(f"{n} nodes exceed the budget of {MAX_RULE_NODES}")
    h = 2.0 * math.pi / n
    return QuadratureRule((np.arange(n) + offset) * h, np.full(int(n), h * scale))


def _golub_welsch(diag: np.ndarray, off: np.ndarray, recurrence) -> tuple:
    """Gauss nodes and weights by Golub-Welsch: the Jacobi matrix's eigenvalues, each polished
    by one Newton step, and the weights there; recurrence(x) gives (Newton step, weights).
    DomainError when the dense n x n matrix has more than MAX_RULE_NODES entries (n > 512)."""
    if len(diag) ** 2 > MAX_RULE_NODES:
        n = len(diag)
        raise DomainError(f"{n} x {n} Jacobi matrix exceeds the budget of {MAX_RULE_NODES}")
    x = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, -1))
    x -= recurrence(x)[0]
    return x, recurrence(x)[1]


def legendre_rule(n: int, a: float, b: float) -> QuadratureRule:
    """n-point Gauss-Legendre rule for dx on [a, b], a < b finite (DECISIONS.md entry 26)."""
    if n < 1 or n % 1:  # an integral float is accepted; NaN fails
        raise DomainError(f"node count must be an integer >= 1, got {n}")
    if not -math.inf < a < b < math.inf:
        raise DomainError(f"interval needs finite bounds a < b, got [{a}, {b}]")
    n, k = int(n), np.arange(1.0, n)

    def recurrence(x):
        prev, p = np.ones_like(x), x
        for j in range(1, n):
            prev, p = p, ((2 * j + 1) * x * p - j * prev) / (j + 1)
        one_x2, dp = (1.0 - x) * (1.0 + x), n * (prev - x * p)  # dp = (1 - x^2) P_n'
        step = p * one_x2 / dp
        # dp is flat at a root (dp' = -n(n + 1) P_n): move only 1 - x^2 to the root, x - step
        return step, 2.0 * (one_x2 + 2.0 * x * step) / (dp * dp)

    x, w = _golub_welsch(np.zeros(n), k / np.sqrt(4.0 * k * k - 1.0), recurrence)
    x, w = 0.5 * (x - x[::-1]), 0.5 * (w + w[::-1])
    return QuadratureRule(0.5 * (b - a) * x + 0.5 * (b + a), 0.5 * (b - a) * w)


def laguerre_rule(n: int, alpha: float = 0.0) -> QuadratureRule:
    """n-point Gauss-Laguerre rule for x^alpha e^(-x) dx on [0, inf), alpha > -1, by
    Golub-Welsch with weights x / (p_{n-1} d_n) at the polished nodes (DECISIONS.md entry 15)."""
    if n < 1 or n % 1:  # an integral float is accepted, as scipy did
        raise DomainError(f"node count must be an integer >= 1, got {n}")
    if not -1 < alpha < math.inf:  # NaN fails too
        raise DomainError(f"Gauss-Laguerre rule needs alpha > -1, got {alpha}")
    n, k = int(n), np.arange(n, dtype=float)

    def recurrence(x):
        # p_j = L_j^(alpha)(x) / C(j+alpha, j), d_j = p_j - p_{j-1}, by scipy's difference
        # recurrence: near the roots ~400x more accurate than laguerre_table's three-term one
        p, d = np.ones_like(x), np.zeros_like(x)
        for j in range(n):
            prev = p
            d = -x / (j + alpha + 1) * p + j / (j + alpha + 1) * d
            p = p + d
        step = x * p / (n * d)  # Newton: L_n / L_n' = x p_n / (n d_n)
        # their product overflows from n = 200: centre each factor in log space
        for f in (prev, d):
            log_f = np.log(np.abs(f))
            f /= np.exp(0.5 * (log_f.max() + log_f.min()))
        w = x / (prev * d)
        return step, w * (math.gamma(alpha + 1.0) / w.sum())

    return QuadratureRule(*_golub_welsch(2.0 * k + alpha + 1.0,
                                         np.sqrt(k[1:] * (k[1:] + alpha)), recurrence))


def laguerre_dx_rule(n: int, alpha: float, rate: float = 1.0) -> QuadratureRule:
    """laguerre_rule(n, alpha) as a rule for dJ in x = rate J: exact on poly(x) x^alpha e^-x."""
    base = laguerre_rule(n, alpha)  # w times e^x x^-alpha, in log space: w e^x overflows
    with np.errstate(divide="ignore"):  # a w that underflowed to 0 (n >= 200) stays 0
        log_w = np.log(base.weights) + base.nodes - alpha * np.log(base.nodes)
    return QuadratureRule(base.nodes / rate, np.exp(log_w) / rate)


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
