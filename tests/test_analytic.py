import math

import numpy as np
import pytest

from cumvol import (
    DomainError,
    sigma_dz_narrow,
    sigma_recursion_step,
    sigma_y_fixed_point,
    var_dz_saddle,
    var_logZ_saddle,
    ybar,
)


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
