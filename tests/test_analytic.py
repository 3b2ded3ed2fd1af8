import math

import numpy as np
import pytest

from cumvol import (DomainError, gaussian, lorentzian, sigma_y_fixed_point, tabulated,
                    tail_exponent, var_dz_saddle, var_logZ_saddle, ybar)
from helpers import sigma_dz_narrow, sigma_recursion_step


def test_ybar_values():
    assert ybar(0.37, 0) == pytest.approx(0.0, abs=1e-15)
    assert ybar(0.2, math.inf) == pytest.approx(-math.log1p(-math.exp(-0.2)), abs=1e-13)
    assert ybar(0.2, math.inf) == pytest.approx(1.70777, abs=1e-5)
    assert ybar(0.2, 1) == pytest.approx(math.log(1.0 + math.exp(-0.2)), abs=1e-12)
    assert ybar(0.2, 1) == pytest.approx(0.59814, abs=1e-5)
    # finite sums converge to the closed-form limit
    assert ybar(0.3, 400) == pytest.approx(ybar(0.3, math.inf), abs=1e-12)
    # negative drift is fine at finite t (used for sizing the forward grids)
    assert ybar(-0.2, 2) == pytest.approx(math.log(1 + math.e**0.2 + math.e**0.4), abs=1e-12)


def test_ybar_of_a_drift_whose_exp_rounds_to_one():
    # below g ~ 5.6e-17 exp(-g) rounds to 1 and log1p(-1) raised "math domain
    # error"; there 1 - exp(-g) = g to double precision
    for g in (1e-17, 1e-300, 5e-324):
        assert ybar(g, math.inf) == -math.log(g)
    # every drift whose exp(-g) is below 1 keeps the log1p form bit for bit
    for g in (5.6e-17, 1e-16, 1e-9, 0.1, 0.2, 1.0, 30.0, 700.0):
        assert ybar(g, math.inf) == -math.log1p(-math.exp(-g))


def test_ybar_domain():
    with pytest.raises(DomainError):
        ybar(0.0, math.inf)
    with pytest.raises(DomainError):
        ybar(-0.1, math.inf)
    with pytest.raises(DomainError):
        ybar(0.2, -1)
    # a log sum beyond float64 is a domain error, not inf
    with pytest.raises(DomainError, match="overflows"):
        ybar(-1e308, 3)
    assert ybar(1e308, 3) == 0.0


def test_var_logZ_saddle():
    assert var_logZ_saddle(0.2, 0.0, 10) == 0.0
    assert var_logZ_saddle(0.2, 0.1, 10) == pytest.approx(0.0300, abs=1e-4)
    # linear growth in t with slope sigma_a^2
    v10 = var_logZ_saddle(0.2, 0.1, 10)
    v11 = var_logZ_saddle(0.2, 0.1, 11)
    assert v11 - v10 == pytest.approx(0.01, rel=1e-12)
    with pytest.raises(DomainError):
        var_logZ_saddle(0.0, 0.1, 10)
    # e^{2g} overflows float64 above g ~ 354.9: a domain error, not OverflowError
    for g in (400.0, 1e308):
        with pytest.raises(DomainError, match="overflows"):
            var_logZ_saddle(g, 0.1, 10)


def test_var_dz_saddle():
    assert var_dz_saddle(0.2, 1.0) == pytest.approx(0.099668, abs=1e-6)
    for g in (0.01, 0.1, 0.5, 2.0, 10.0):
        assert var_dz_saddle(g, 1.0) < 1.0
    assert var_dz_saddle(50.0, 1.0) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(DomainError):
        var_dz_saddle(0.0, 1.0)
    with pytest.raises(DomainError):
        var_dz_saddle(-0.3, 1.0)


def test_sigma_y_fixed_point():
    assert sigma_y_fixed_point(0.2, 1.0) == pytest.approx(1.42592, abs=1e-5)
    assert sigma_y_fixed_point(0.2, 0.0) == 0.0
    with pytest.raises(DomainError):
        sigma_y_fixed_point(-0.2, 1.0)


def test_sigma_recursion_reaches_fixed_point():
    for g in (0.05, 0.2, 1.0):
        sigma = 0.0
        for t in range(4000):
            sigma = sigma_recursion_step(sigma, 0.3, g, t)
        assert sigma == pytest.approx(sigma_y_fixed_point(g, 0.3), abs=1e-10)


def test_sigma_recursion_noiseless_and_monotone():
    assert sigma_recursion_step(0.0, 0.0, 0.2, 5) == 0.0
    lo = sigma_recursion_step(0.1, 0.2, 0.3, 7)
    hi = sigma_recursion_step(0.2, 0.2, 0.3, 7)
    assert hi > lo
    with pytest.raises(DomainError):
        sigma_recursion_step(-0.1, 0.2, 0.3, 7)


def test_sigma_dz_narrow_values_and_consistency():
    assert sigma_dz_narrow(0.2, 1.0) == pytest.approx(0.315702, abs=1e-6)
    assert sigma_dz_narrow(0.2, 0.0) == 0.0
    # the fixed-point route reproduces the closed form
    route = (math.exp(0.2) - 1.0) * sigma_y_fixed_point(0.2, 1.0)
    assert route == pytest.approx(0.315702, abs=1e-6)
    assert route == pytest.approx(sigma_dz_narrow(0.2, 1.0), abs=1e-12)
    with pytest.raises(DomainError):
        sigma_dz_narrow(0.0, 1.0)


def test_fixed_point_identity_over_g():
    # (e^g - 1)^2 / (e^{2g} - 1) == tanh(g/2)
    for g in np.linspace(0.01, 5.0, 97):
        lhs = (math.exp(g) - 1.0) ** 2 / (math.exp(2 * g) - 1.0)
        assert lhs == pytest.approx(math.tanh(0.5 * g), abs=1e-12)
        tie = (math.exp(g) - 1.0) * sigma_y_fixed_point(g, 0.7)
        assert tie == pytest.approx(sigma_dz_narrow(g, 0.7), abs=1e-12)


def test_ratio_monotone_in_g_and_bounded():
    ratios = [var_dz_saddle(g, 1.0) for g in np.linspace(0.05, 5.0, 60)]
    assert all(b > a for a, b in zip(ratios, ratios[1:]))
    assert all(r < 1.0 for r in ratios)


def test_recursion_contracts_from_any_start():
    for g in (0.05, 0.3, 1.5):
        targets = []
        for start in (0.0, 0.5, 3.0):
            sigma = start
            for t in range(6000):
                sigma = sigma_recursion_step(sigma, 0.4, g, t)
            targets.append(sigma)
        assert max(targets) - min(targets) < 1e-12
        assert targets[0] == pytest.approx(sigma_y_fixed_point(g, 0.4), abs=1e-10)


def test_gaussian_tail_exponent_is_two_g_over_variance():
    for g, sigma in ((0.1, 1.0), (0.03, 2.0), (1.0, 0.2)):
        assert tail_exponent(gaussian(sigma), g) == pytest.approx(2.0 * g / sigma**2, rel=1e-15)
    # noise so narrow that the rate overflows has no tail at all
    assert tail_exponent(gaussian(1e-162), 0.2) == math.inf
    with pytest.raises(DomainError):
        tail_exponent(gaussian(1.0), 0.0)


def _moment_by_quadrature(noise, g, kappa):
    """E[e^{-kappa (g + a)}] by a fine trapezoid of the interpolated density."""
    x = np.linspace(noise.xs[0], noise.xs[-1], 400_001)
    return float(np.trapezoid(np.interp(x, noise.xs, noise.ys) * np.exp(-kappa * (g + x)), x))


@pytest.mark.parametrize("points, g", [
    ([(-0.8, 0.5), (-0.6, 1.0), (0.2, 0.8), (0.8, 0.9)], 0.03),
    ([(-0.8, 0.5), (-0.6, 1.0), (0.2, 0.8), (0.8, 0.9)], 0.1),
    ([(-0.5, 0.4), (0.0, 1.0), (0.4, 0.6)], 0.25),
    ([(-3.0, 0.0), (-1.0, 0.2), (0.0, 1.0), (2.0, 0.0)], 0.05),  # zero-density ends
])
def test_table_tail_exponent_solves_the_moment_equation(points, g):
    # the closed-form moment of the piecewise-linear density, checked by
    # quadrature at the root and either side of it
    noise = tabulated(points)
    kappa = tail_exponent(noise, g)
    assert kappa > 0.0
    assert _moment_by_quadrature(noise, g, kappa) == pytest.approx(1.0, abs=1e-9)
    assert _moment_by_quadrature(noise, g, 0.5 * kappa) < 1.0 < _moment_by_quadrature(
        noise, g, 1.5 * kappa)


def test_finely_tabulated_gaussian_has_the_gaussian_tail_exponent():
    x = np.linspace(-10.0, 10.0, 4001)
    noise = tabulated(zip(x, np.exp(-0.5 * x * x)))
    assert tail_exponent(noise, 0.1) == pytest.approx(0.2, rel=1e-5)


def test_tail_exponent_is_none_without_an_exponential_tail():
    # Cauchy noise has no exponential moments
    assert tail_exponent(lorentzian(1.0), 0.2) is None
    # g + a is never negative: the reversed variable never climbs
    assert tail_exponent(tabulated([(-0.1, 1.0), (0.3, 1.0)]), 0.2) is None
    # only zero density reaches below -g
    assert tail_exponent(tabulated([(-1.0, 0.0), (-0.2, 0.0), (0.3, 1.0)]), 0.2) is None
    # g + E[a] <= 0: no stationary law
    assert tail_exponent(tabulated([(-2.0, 1.0), (0.0, 1.0)]), 0.2) is None
