"""Closed-form references for narrow (small-variance) noise.

These are leading-order results in the noise variance, used to size grids,
to cross-check the exact engine, and to form the exact-vs-approximation
ratio. Each function raises ``DomainError`` outside its validity domain
instead of extrapolating silently.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

__all__ = [
    "ybar",
    "var_logZ_saddle",
    "var_dz_saddle",
    "sigma_y_fixed_point",
    "sigma_recursion_step",
    "sigma_dz_narrow",
]


def ybar(g: float, t) -> float:
    """log sum_{j=0..t} exp(-j*g); with t = inf, -log(1 - exp(-g)) for g > 0."""
    if t == math.inf:
        if not g > 0.0:
            raise DomainError("ybar at t = inf requires g > 0 (divergent sum otherwise)")
        return -math.log1p(-math.exp(-g))
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


def sigma_recursion_step(sigma_t: float, sigma_a: float, g: float, t) -> float:
    """One step of the narrow-width recursion.

    The convolution adds variances, then the coordinate change divides by the
    Jacobian e^x/(e^x - 1) evaluated at x = ybar(g, t). Pass t = inf to use
    the fixed-point location.
    """
    if sigma_t < 0.0 or sigma_a < 0.0:
        raise DomainError("widths must be non-negative")
    x = ybar(g, t)
    # 1/J = (e^x - 1)/e^x = 1 - e^{-x}; zero at t = 0 where x = 0
    return math.sqrt(sigma_t * sigma_t + sigma_a * sigma_a) * (-math.expm1(-x))


def sigma_dz_narrow(g: float, sigma_a: float) -> float:
    """Steady-state volatility width sqrt(tanh(g/2)) * sigma_a, g > 0.

    Equal to (e^g - 1) * sigma_y_fixed_point(g, sigma_a): the coordinate
    change from the reversed variable evaluated at its long-time location
    x = g, which ties the fixed-point width to the volatility width.
    """
    if not g > 0.0:
        raise DomainError("sigma_dz_narrow requires g > 0")
    return math.sqrt(math.tanh(0.5 * g)) * sigma_a
