"""The one y <-> dz map, closed-form references for narrow (small-variance)
noise, and the reversed variable's exponential tail for any noise.

The narrow-noise results are leading order in the noise variance, used to
size grids, to cross-check the exact engine, and to form the
exact-vs-approximation ratio. ``tail_exponent`` is exact for every noise
with exponential moments. Each function raises ``DomainError`` outside its
validity domain instead of extrapolating silently.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

__all__ = [
    "dz_of_y",
    "ybar",
    "var_logZ_saddle",
    "var_dz_saddle",
    "sigma_y_fixed_point",
    "tail_exponent",
]


def dz_of_y(y):
    """-log(1 - e^{-y}) elementwise for y >= 0, +inf at 0 and 0 at +inf: the
    involution between y and dz, within an ulp at every y as -log(-expm1(-y))
    up to ln 2 and -log1p(-exp(-y)) above it, each form on its own elements
    (Maechler, "Accurately computing log(1 - exp(-|a|))", 2012)."""
    y = np.asarray(y, dtype=float)
    out = np.empty_like(y)
    small = y <= math.log(2.0)
    with np.errstate(divide="ignore"):
        out[small] = -np.log(-np.expm1(-y[small]))
        out[~small] = -np.log1p(-np.exp(-y[~small]))
    return out[()]


def ybar(g: float, t) -> float:
    """log sum_{j=0..t} exp(-j*g); with t = inf, -log(1 - exp(-g)) for g > 0."""
    if t == math.inf:
        if not g > 0.0:
            raise DomainError("ybar at t = inf requires g > 0 (divergent sum otherwise)")
        return float(dz_of_y(g))
    t = int(t)
    if t < 0:
        raise DomainError("ybar requires t >= 0")
    with np.errstate(over="ignore"):
        exponents = -g * np.arange(t + 1, dtype=float)
    value = float(np.logaddexp.reduce(exponents))
    if not math.isfinite(value):
        raise DomainError(f"ybar({g:g}, {t}) overflows float64")
    return value


def var_logZ_saddle(g: float, sigma_a: float, t: int) -> float:
    """Large-t asymptote of leading-order Var(log Z_t): sigma_a^2 ((2 e^g + 1)/(1 - e^{2g}) + t).

    The leading-order (narrow-noise) variance at finite t is
    sigma_a^2 sum_{i=1..t} c_i^2 with c_i = (1 - e^{-g(t+1-i)})/(1 - e^{-g(t+1)});
    for g > 0 this affine form differs from it by O(sigma_a^2 t e^{-g t}), not
    O(sigma_a^4), so it is a variance only at large t. It is negative for
    t < (2 e^g + 1)/(e^{2g} - 1), which is why grid sizing clamps it at 0.
    Singular at g = 0, and its e^{2g} overflows float64 above g ~ 354.9.
    """
    if g == 0.0:
        raise DomainError("var_logZ_saddle is singular at g = 0")
    try:
        shape = (2.0 * math.exp(g) + 1.0) / (-math.expm1(2.0 * g))
    except OverflowError:
        raise DomainError(f"var_logZ_saddle overflows float64 at g={g:g}") from None
    return sigma_a * sigma_a * (shape + t)


def var_dz_saddle(g: float, sigma_a: float) -> float:
    """Leading-order steady-state volatility sigma_a^2 tanh(g/2), g > 0.

    Always below sigma_a^2: one-step changes of the cumulative total are
    steadier than the per-step noise itself.
    """
    if not g > 0.0:
        raise DomainError("var_dz_saddle requires g > 0")
    return sigma_a * sigma_a * math.tanh(0.5 * g)


def sigma_y_fixed_point(g: float, sigma_a: float) -> float:
    """Fixed-point width of the reversed recursion: sqrt(sigma_a^2/(e^{2g}-1))."""
    if not g > 0.0:
        raise DomainError("sigma_y_fixed_point requires g > 0")
    return sigma_a / math.sqrt(math.expm1(2.0 * g))


def _segment_weights(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """int_0^1 (1 - t) e^{u t} dt and int_0^1 t e^{u t} dt for u <= 0: the
    weights of a linear segment's end values in its exponential moment."""
    small = np.abs(u) < 0.1
    us = np.where(small, u, 0.0)
    # Taylor series where the closed forms cancel: sum_k u^k/(k + 2)! and
    # sum_k u^k/(k! (k + 2)), to within 1e-15 at |u| = 0.1
    left = np.zeros_like(u)
    right = np.zeros_like(u)
    power = np.ones_like(u)
    for k in range(9):
        left += power / math.factorial(k + 2)
        right += power / (math.factorial(k) * (k + 2))
        power = power * us
    with np.errstate(divide="ignore", invalid="ignore"):
        em1 = np.expm1(u)
        left = np.where(small, left, (em1 - u) / (u * u))
        right = np.where(small, right, (u * np.exp(u) - em1) / (u * u))
    return left, right


def _log_table_moment(xs: np.ndarray, ys: np.ndarray, s: float) -> float:
    """log E[e^{s a}] of the piecewise-linear density through (xs, ys), s <= 0."""
    width = np.diff(xs)
    left, right = _segment_weights(s * width)
    mix = ys[:-1] * left + ys[1:] * right
    live = mix > 0.0
    logs = np.log(width[live] * mix[live]) + s * xs[:-1][live]
    return float(np.logaddexp.reduce(logs))


def tail_exponent(noise, g: float) -> float | None:
    """The rate kappa > 0 of the reversed variable's stationary upper tail
    C e^{-kappa y}, or None when the tail is not exponential.

    For y >> 1 the reversed step is y' = y - g - a up to
    log(1 + e^{-(y - g - a)}), a random walk with drift, so kappa is the
    positive root of E[e^{-kappa (g + a)}] = 1 for the noise a (Kesten,
    Acta Math. 131, 1973; Goldie, Ann. Appl. Probab. 1, 1991): 2g/sigma^2
    for Gaussian noise (inf where that overflows), and found by bisection
    on the closed-form moment of a table's piecewise-linear density.
    Lorentzian noise has no exponential moments, and a table has no
    positive root when g + a is never negative or its mean g + E[a] (of the
    interpolated density) is not positive: each gives None.
    """
    if not g > 0.0:
        raise DomainError("tail_exponent requires g > 0")
    if noise.kind == "gaussian":
        return 2.0 * g / noise.sigma / noise.sigma  # inf once it overflows
    if noise.kind != "tabulated":
        return None
    xs, ys = noise.xs, noise.ys
    live = np.flatnonzero((ys[:-1] > 0.0) | (ys[1:] > 0.0))
    if not (xs[live[0]] < -g and g + noise.mean() > 0.0):
        return None

    def excess(kappa):  # log E[e^{-kappa (g + a)}], convex in kappa, 0 at kappa = 0
        return _log_table_moment(xs, ys, -kappa) - kappa * g

    lo, hi = 0.0, 1.0 / (xs[-1] - xs[0])
    while not excess(hi) > 0.0:
        lo, hi = hi, 2.0 * hi
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return hi
        if excess(mid) > 0.0:
            hi = mid
        else:
            lo = mid
