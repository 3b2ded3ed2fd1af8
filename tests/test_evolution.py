import math
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

import cumvol as cv
import cumvol.evolution as evolution
from cumvol import (
    ConvergenceError,
    DomainError,
    MassDefectError,
    cell_grid,
    default_y_grid,
    default_z_grid,
    gaussian,
    lorentzian,
    power_volatility,
    sigma_y_fixed_point,
    steady_state_volatility,
    tabulated,
    tail_exponent,
    volatility_pdf,
    y_steps,
    ybar,
    z_steps,
)
from cumvol.cli import DEFAULT_GRID_POINTS
from cumvol.evolution import (_ARNOLDI_NCV, _KERNEL_MARGIN, _RESTART_BLOCK, StepOperator, _assemble,
                              _fast_len, _node_cdf, _perron_density, _RITZ_TOL,
                              _stationary, _TailClosure)
from cumvol.noise import TAIL_TOL, NoiseModel
from cumvol.pdfgrid import GriddedPdf
from helpers import interp_at, means, normalized, pdf_at, variances, warp_step, y_inputs

SPIKE = gaussian(1e-12)  # deterministic sigma -> 0 limit


def first_step(noise, g, grid):
    """The exact density one step from z_0 = 0: step 1 of a run."""
    return next(z_steps(g, noise, grid, 1)).pdf


def softplus(x):
    return math.log1p(math.exp(x))


def test_first_step_spike_noise_lands_on_softplus_of_drift():
    grid = cell_grid(3.0, 3000)
    p = first_step(SPIKE, 0.0, grid)
    assert p.mean() == pytest.approx(math.log(2.0), abs=grid.h)
    p2 = first_step(SPIKE, 0.2, grid)
    assert p2.mean() == pytest.approx(0.79814, abs=grid.h)
    # all mass in one cell
    assert p2.node_masses().max() == pytest.approx(1.0, abs=1e-9)


def test_first_step_mean_approaches_deterministic_limit():
    grid = cell_grid(3.0, 6000)
    target = softplus(0.2)
    means = [first_step(gaussian(s), 0.2, grid).mean() for s in (0.2, 0.05, 0.01)]
    errs = [abs(m - target) for m in means]
    assert errs[0] > errs[1] > errs[2] or errs[2] < 1e-4
    assert errs[2] < 1e-4


def test_first_step_matches_pointwise_density():
    # stored values realise the change-of-variables formula: tight relative
    # agreement in the bulk, small-versus-peak deviation everywhere else
    # (near 0 the warp compresses cells, where cell averages are the point)
    noise = gaussian(1.0)
    g = 0.2
    grid = cell_grid(8.0, 1600)
    p = first_step(noise, g, grid)
    x = grid.points()[1:-1]
    w = x + np.log1p(-np.exp(-x)) - g
    direct = pdf_at(noise, w) / (1.0 - np.exp(-x))
    assert np.max(np.abs(p.values[1:-1] - direct)) < 2e-4 * direct.max()
    bulk = direct > 0.05 * direct.max()
    assert np.max(np.abs(p.values[1:-1][bulk] - direct[bulk]) / direct[bulk]) < 1e-3


def test_first_step_mass_accounting_is_tight():
    grid = default_z_grid(0.2, gaussian(1.0), 1)
    p = first_step(gaussian(1.0), 0.2, grid)
    assert abs(p.integral() - 1.0) < 1e-9
    assert p.truncated_mass < 1e-6


def test_warp_step_moves_interior_spike_through_softplus():
    grid = cell_grid(6.0, 6000)
    h = grid.h
    values = np.zeros(grid.n_points)
    loc = 2.0
    i = int(round((loc - grid.x_min) / h))
    values[i] = 1.0
    p = normalized(GriddedPdf(grid, values))
    out = warp_step(p, SPIKE, 0.3)
    target = softplus(0.3 + grid.points()[i])
    assert out.mean() == pytest.approx(target, abs=2 * h)


def test_warp_step_requires_normalised_input_and_zero_based_grid():
    grid = cell_grid(4.0, 1000)
    p = GriddedPdf(grid, np.ones(grid.n_points))  # integral 4, not 1
    with pytest.raises(ValueError):
        warp_step(p, gaussian(0.5), 0.2)
    # a grid must start exactly half a cell above 0: one ulp off is refused
    for x_min in (1.0, math.nextafter(grid.x_min, 1.0)):
        off_grid = cv.GridSpec(x_min, grid.h, grid.n_points)
        q = normalized(GriddedPdf(off_grid, np.full(grid.n_points, 0.25)))
        with pytest.raises(DomainError):
            warp_step(q, gaussian(0.5), 0.2)


def test_assemble_raises_on_mass_defect():
    grid = cell_grid(1.0, 64)
    cells = np.full(64, 0.5 / 64)  # half the mass vanished, none truncated
    with pytest.raises(MassDefectError):
        _assemble(grid, cells, 0.0, 0.0)


def test_evolve_z_deterministic_means_match_geometric_sum():
    g = 0.2
    grid = default_z_grid(g, gaussian(0.01), 10)
    tr = list(z_steps(g, SPIKE, grid, 10))
    for t, mean in enumerate(means(tr), start=1):
        exact = math.log(sum(math.exp(g * j) for j in range(t + 1)))
        assert mean == pytest.approx(exact, abs=5 * grid.h)


def test_evolve_z_variance_tracks_monte_carlo():
    g, sig = 0.2, 0.1
    noise = gaussian(sig)
    tr = list(z_steps(g, noise, default_z_grid(g, noise, 10), 10))
    var_z = cv.simulate_stream(g, noise, t_max=10, n_paths=400_000, seed=91).summary["var_z"]
    for t in (1, 5, 10):
        mc = var_z[t - 1]
        assert variances(tr)[t - 1] == pytest.approx(mc, rel=6e-3)


def test_evolve_z_variance_reaches_closed_form_asymptote():
    # the leading-order variance formula is a large-t asymptote
    g, sig = 0.2, 0.1
    noise = gaussian(sig)
    tr = list(z_steps(g, noise, default_z_grid(g, noise, 40), 40))
    assert variances(tr)[-1] == pytest.approx(cv.var_logZ_saddle(g, sig, 40), rel=0.01)


def test_evolve_z_mean_increment_approaches_drift():
    g = 0.2
    noise = gaussian(0.1)
    m = means(list(z_steps(g, noise, default_z_grid(g, noise, 40), 40)))
    assert m[-1] - m[-2] == pytest.approx(g, abs=1e-3)


def test_evolve_y_equals_mirrored_negated_evolve_z():
    noise = tabulated([(-0.5, 0.2), (0.1, 1.0), (0.8, 0.4)])
    grid = cell_grid(6.0, 2000)
    ty = list(y_steps(0.25, noise, grid, 12, tol=1e-300))
    tz = list(z_steps(-0.25, noise.mirror(), grid, 12))
    for a, b in zip(ty, tz):
        assert np.array_equal(a.pdf.values, b.pdf.values)


def test_evolve_y_spike_noise_fixed_point_location():
    g = 0.2
    target = -math.log1p(-math.exp(-g))  # 1.70777
    grid = cell_grid(3.0, 3000)
    tr = list(y_steps(g, SPIKE, grid, 300, tol=1e-10))
    assert tr[-1].converged
    final = tr[-1].pdf
    assert final.mean() == pytest.approx(target, abs=0.01)


def test_evolve_y_fixed_point_variance_matches_narrow_formula():
    g, sig = 0.2, 0.05
    tr = list(y_steps(*y_inputs(g, gaussian(sig)), tol=1e-9))
    assert tr[-1].converged
    target = sig**2 / math.expm1(2 * g)
    assert tr[-1].pdf.variance() == pytest.approx(target, rel=0.02)


def test_densities_are_normalised_and_supported_on_positive_axis():
    noise = lorentzian(1.0)
    tr = list(z_steps(0.2, noise, default_z_grid(0.2, noise, 8), 8))
    for rec in tr:
        assert rec.pdf.integral() == pytest.approx(1.0, abs=1e-6)
        assert np.all(rec.pdf.values >= 0.0)
        assert rec.pdf.grid.x_min > 0.0
        assert interp_at(rec.pdf, -0.5) == 0.0
        assert rec.mass_defect < 1e-3
    truncs = [rec.pdf.truncated_mass for rec in tr]
    assert all(b >= a for a, b in zip(truncs, truncs[1:]))


def test_volatility_pdf_spike_maps_fixed_point_to_drift():
    g = 0.2
    ybar_inf = ybar(g, math.inf)
    grid = cell_grid(3.0, 3000)
    values = np.zeros(grid.n_points)
    i = int(round((ybar_inf - grid.x_min) / grid.h))
    values[i] = 1.0
    p_y = normalized(GriddedPdf(grid, values))
    dz = volatility_pdf(p_y)
    assert dz.mean() == pytest.approx(g, abs=0.01)
    assert dz.quantiles([0.5])[0] == pytest.approx(g, abs=0.01)


def test_volatility_pdf_narrow_noise_variance():
    g, sig = 0.2, 0.01
    tr = list(y_steps(*y_inputs(g, gaussian(sig)), tol=1e-9))
    dz = volatility_pdf(tr[-1].pdf)
    assert dz.variance() == pytest.approx(sig**2 * math.tanh(g / 2), rel=0.01)
    assert dz.grid.x_min > 0.0


def test_volatility_pdf_wide_noise_diverges_integrably_at_zero():
    tr = list(y_steps(*y_inputs(0.2, gaussian(1.0)), tol=1e-9))
    dz = volatility_pdf(tr[-1].pdf)
    # density rises toward the origin but the total mass stays 1
    assert dz.values[0] > interp_at(dz, 0.05) > 0.0
    assert dz.integral() == pytest.approx(1.0, abs=1e-6)


def test_steady_state_volatility_report_gaussian():
    rep = steady_state_volatility(0.1, gaussian(0.05))
    assert rep.solver["method"] == "arnoldi" and rep.solver["applications"] > 0
    assert rep.ratio_to_narrow == pytest.approx(1.0, abs=0.02)
    q = rep.quantiles
    assert q["q75"] > q["q25"] and q["q95"] - q["q05"] > q["q75"] - q["q25"]
    assert rep.sigma_a_sq == pytest.approx(0.0025)


@pytest.mark.parametrize("g, noise", [
    (0.2, lorentzian(1.0)),
    (0.1, tabulated([(-0.65, 1.0), (0.35, 1.0)])),  # g + E[a] = -0.05
    (0.15, tabulated([(-0.65, 1.0), (0.35, 1.0)])),  # g + E[a] = 0 to roundoff
], ids=["lorentzian", "table-negative-drift", "table-zero-drift"])
def test_steady_state_refuses_noise_with_no_stationary_law(monkeypatch, g, noise):
    # y is stationary exactly when g + E[a] > 0 and the noise variance is
    # finite; Lorentzian noise used to report its grid's quasi-stationary law,
    # and the table at g + E[a] = -0.05 a variance of 3e-8. Both routes to a
    # report refuse before they solve anything.
    def no_solve(*args):
        raise AssertionError("the eigensolve started")

    monkeypatch.setattr(evolution, "_perron_density", no_solve)
    with pytest.raises(DomainError, match="y has no stationary law"):
        steady_state_volatility(g, noise)
    trace = list(y_steps(g, noise, cell_grid(20.0, 256), 50, tol=0.5))
    assert trace[-1].converged
    with pytest.raises(DomainError, match="y has no stationary law"):
        power_volatility(g, noise, trace[-1])


@pytest.mark.parametrize("g, m", [(0.2, -0.15), (0.05, 0.15), (0.2, 0.15)])
def test_a_tables_mean_is_drift(g, m):
    # the reversed step sees only g + a: the uniform table of mean m at g has
    # the report of the centred table at g + m, ratio included. The narrow
    # reference used to be taken at g, giving ratios 0.2485 (g = 0.2,
    # m = -0.15) and 3.947 (g = 0.05, m = 0.15) for 0.9911 and 0.9898.
    shifted = steady_state_volatility(g, tabulated([(m - 0.5, 1.0), (m + 0.5, 1.0)]))
    centred = steady_state_volatility(g + m, tabulated([(-0.5, 1.0), (0.5, 1.0)]))
    for field in ("variance", "narrow_variance", "ratio_to_narrow", "truncated_mass"):
        assert getattr(shifted, field) == pytest.approx(getattr(centred, field), rel=1e-9)
    for q in shifted.quantiles:
        assert shifted.quantiles[q] == pytest.approx(centred.quantiles[q], rel=1e-9)
    assert shifted.g == g and shifted.ratio_to_narrow == pytest.approx(1.0, abs=0.02)


@pytest.mark.parametrize("g, points", [
    (0.2, [(-0.65, 1.0), (0.35, 1.0)]),
    (0.1, [(-0.3, 0.2), (0.1, 1.0), (0.6, 0.4)]),
], ids=["uniform", "asymmetric"])
def test_steady_growth_increment_mean_is_the_drift(monkeypatch, g, points):
    # z_t - z_{t-1} averages g + E[a] at the steady state, whatever E[a] is
    densities = []

    def kept(p_y, grid=None):
        densities.append(volatility_pdf(p_y, grid))
        return densities[-1]

    monkeypatch.setattr(evolution, "volatility_pdf", kept)
    noise = tabulated(points)
    assert abs(noise.mean()) > 0.1
    steady_state_volatility(g, noise)
    assert densities[0].mean() == pytest.approx(g + noise.mean(), abs=1e-5)


def test_steady_state_volatility_domain_and_convergence_errors(monkeypatch):
    with pytest.raises(DomainError):
        steady_state_volatility(-0.2, gaussian(0.1), grid=default_y_grid(0.2, gaussian(0.1)))
    with pytest.raises(ValueError, match="tol must be positive"):
        y_steps(*y_inputs(0.2, gaussian(0.1), horizon=3), tol=0.0)
    monkeypatch.setattr(evolution, "_MAX_APPLICATIONS", 3)
    with pytest.raises(ConvergenceError):
        steady_state_volatility(0.2, gaussian(0.1))


@pytest.mark.parametrize("g", [100.0, 1e308])
def test_hand_built_grid_keeps_drift_cap(g):
    # the growth increment sits near g, past the dz grid's cap of 60, whether
    # the reversed variable's grid was defaulted or given
    noise, grid = gaussian(1.0), cell_grid(10.0, 1000)
    with pytest.raises(DomainError, match="beyond the dz grid's cap of 60"):
        y_steps(g, noise, grid, 2)
    with pytest.raises(DomainError, match="beyond the dz grid's cap of 60"):
        steady_state_volatility(g, noise, grid=grid)


def test_hand_built_grid_must_resolve_steady_centre():
    # ybar(3, inf) = 0.051 spans 0.5 cells of width 0.1 above y = 0: the y
    # density falls into the first cell and dz would read about log(2/h), so
    # every route to dz refuses the grid; 200 cells of width 2.5e-4 resolve it
    g, noise, grid = 3.0, gaussian(1.0), cell_grid(10.0, 100)
    with pytest.raises(DomainError, match="dz is not resolved there"):
        y_steps(g, noise, grid, 3)
    with pytest.raises(DomainError, match="dz is not resolved there"):
        steady_state_volatility(g, noise, grid=grid)
    dz = volatility_pdf(list(y_steps(g, noise, cell_grid(10.0, 40_000), 3))[2].pdf)
    assert dz.mean() == pytest.approx(3.0, abs=0.01)


@pytest.mark.parametrize("g, builds, refused", [
    (0.1, gaussian(1e-4), gaussian(1e-5)),
    (0.2, gaussian(1e-4), gaussian(1e-5)),
    (1.0, gaussian(1e-4), gaussian(1e-5)),
    (0.2, lorentzian(1e-4), lorentzian(1e-5)),
], ids=["gaussian-g0.1", "gaussian-g0.2", "gaussian-g1", "lorentzian-g0.2"])
def test_default_y_grid_refuses_noise_that_needs_more_than_its_points(g, builds, refused):
    # cells of 1/80 of the fixed point's width (gamma/40) need 0.70-1.94 M
    # points at sigma_a^2 = 1e-8 (gamma = 1e-4) and more than 2^21 at 1e-10
    # (1e-5); an explicit point count is kept
    assert 500_000 < default_y_grid(g, builds).n_points <= 1 << 21
    with pytest.raises(DomainError, match="more than the y grid's 2097152 points"):
        default_y_grid(g, refused)
    assert default_y_grid(g, refused, n_points=4096).n_points == 4096


@pytest.mark.parametrize("g, sigma, refused", [
    (0.1, 10.0, False), (0.1, 100.0, True), (1e-5, 0.1, False), (1e-6, 0.1, True),
], ids=["wide-noise-builds", "wide-noise", "small-drift-builds", "small-drift"])
def test_default_y_grid_refuses_what_it_would_have_to_coarsen(g, sigma, refused):
    # the spacing is capped at 0.005, and the refusal is judged at that
    # spacing: gaussian(100) at g = 0.1 and gaussian(0.1) at g = 1e-6 used to
    # be clipped to 2^21 points of width 0.046 or more; 1.96 M points of width
    # 0.005 still build
    if refused:
        with pytest.raises(DomainError, match="2097152 points: cells of width 0.005 over"):
            default_y_grid(g, gaussian(sigma))
    else:
        grid = default_y_grid(g, gaussian(sigma))
        assert 1_900_000 < grid.n_points <= 1 << 21 and grid.h <= 0.005


@pytest.mark.parametrize("noise", [gaussian(1e200), tabulated([(-1e200, 1.0), (1e200, 1.0)])],
                         ids=["gaussian", "table"])
def test_default_grid_whose_extent_overflows_is_a_domain_error(noise):
    # the sizing's upper end is inf: math.ceil raised a bare OverflowError, and
    # cell_grid a ValueError that blamed a grid no one gave (a y grid with no
    # point count was already refused by its point limit)
    for n_points in (None, DEFAULT_GRID_POINTS):
        with pytest.raises(DomainError, match="upper end overflows float64"):
            default_z_grid(0.2, noise, 5, n_points=n_points)
    with pytest.raises(DomainError, match="upper end overflows float64"):
        default_y_grid(0.2, noise, n_points=DEFAULT_GRID_POINTS)


def test_per_step_runs_take_their_inputs_and_need_a_step():
    noise, grid = gaussian(0.3), cell_grid(10.0, 500)
    for run in (z_steps, y_steps):
        assert [rec.t for rec in run(0.2, noise, grid, 2)] == [1, 2]
        with pytest.raises(ValueError, match="horizon must be >= 1"):
            run(0.2, noise, grid, 0)


@pytest.mark.parametrize("run", [z_steps, y_steps], ids=["z", "y"])
@pytest.mark.parametrize("grid, match", [
    (cv.GridSpec(0.1, 0.02, 500), r"must tile \[0, upper\]"),
    (cell_grid(1e-8, 16), "needs a kernel of"),
], ids=["grid-not-from-0", "kernel-over-cap"])
def test_per_step_runs_check_their_inputs_when_called(run, grid, match):
    # the stream checks its inputs and builds its step operator when called,
    # not at the first record; the horizon, tol, drift-cap and steady-centre
    # tests above call the streams bare too
    with pytest.raises(DomainError, match=match):
        run(0.2, gaussian(1.0), grid, 2)


def test_default_z_grid_follows_a_tables_mean():
    # the uniform density on [0.5, 1.5] moves z at 1.2 a step, not at g = 0.2
    g, noise, t = 0.2, tabulated([(0.5, 1.0), (1.5, 1.0)]), 30
    tr = list(z_steps(g, noise, default_z_grid(g, noise, t), t))
    final = tr[-1].pdf
    assert final.truncated_mass < 1e-6
    summary = cv.simulate_stream(g, noise, t_max=t, n_paths=20_000, seed=25).summary
    stderr = math.sqrt(summary["var_z"][t - 1] / 20_000)
    assert abs(final.mean() - summary["mean_z"][t - 1]) < 3.0 * stderr


def test_default_y_grid_sizes_a_tables_tail_at_its_own_rate():
    # the uniform density on [-0.65, 0.35] at g = 0.2 has tail rate 1.21,
    # where the Gaussian rule 2g/sigma^2 reads 4.8
    g, noise = 0.2, tabulated([(-0.65, 1.0), (0.35, 1.0)])
    solved = steady_state_volatility(g, noise)
    assert solved.solver["eigenvalue"] > 1.0 - 1e-9
    assert solved.truncated_mass < 1e-9

def test_contraction_volatility_below_noise_variance():
    for g in (0.1, 0.5):
        for sig in (0.05, 0.3):
            rep = steady_state_volatility(g, gaussian(sig))
            assert rep.variance < sig**2


def test_small_sigma_ratio_converges_to_one():
    # |ratio - 1| at the engine's resolution floor; the deviation crosses zero
    # near sigma_a^2 ~ 0.01, so enforce decay down to that floor
    floor = 5e-4
    gaps = []
    for sig in (0.2, 0.1, 0.05, 0.025):
        rep = steady_state_volatility(0.1, gaussian(sig))
        gaps.append(abs(rep.ratio_to_narrow - 1.0))
    clipped = [max(gap, floor) for gap in gaps]
    assert all(b <= a for a, b in zip(clipped, clipped[1:]))
    assert gaps[-1] < 2e-3


def test_ratio_crossover_location_at_small_drift():
    # discovered empirically: at g=0.1 the exact-to-narrow ratio sits above 1
    # for very small noise and dips below 1 before sigma_a^2 reaches 0.04
    above = steady_state_volatility(0.1, gaussian(0.05))
    below = steady_state_volatility(0.1, gaussian(0.2))
    assert above.ratio_to_narrow > 1.0
    assert below.ratio_to_narrow < 1.0


def test_per_step_reporting():
    tr = list(y_steps(*y_inputs(0.2, gaussian(0.1), horizon=500), tol=1e-6))
    rep = power_volatility(0.2, gaussian(0.1), tr[-1])[0]
    assert tr[-1].converged and tr[-1].t == len(tr)
    l1 = [rec.l1_prev for rec in tr if rec.l1_prev is not None]
    # early steps change a lot, later steps barely at all
    assert l1[0] > 10 * l1[-1]
    solver = rep.solver
    assert solver["method"] == "power"
    assert solver["applications"] == len(tr) - 1
    assert solver["residual_l1"] == pytest.approx(tr[-1].l1_prev, rel=1e-6)


def test_evolve_z_runs_every_step():
    # z has no fixed point: the run does not stop when the later steps' L1
    # gaps are small
    noise = gaussian(0.3)
    tr = list(z_steps(0.3, noise, default_z_grid(0.3, noise, 12), 12))
    assert not tr[-1].converged
    assert [rec.t for rec in tr] == list(range(1, 13))
    assert tr[-1].l1_prev < 0.5


# ----------------------------------------------------------------------
# step operator and steady-state eigensolve
# ----------------------------------------------------------------------


@pytest.mark.parametrize("noise", [gaussian(0.4), lorentzian(1.0)], ids=["gaussian", "lorentzian"])
def test_step_operator_is_linear(noise):
    # any clipping inside the step (the old np.maximum) breaks linearity and
    # gives the eigensolve spurious eigenvalues above 1
    op = StepOperator(-0.2, noise.mirror(), cell_grid(40.0, 800))
    assert op.kernel.capped == (noise.kind == "lorentzian")
    rng = np.random.default_rng(5)
    x, y = rng.random(800), rng.random(800) - 0.5
    a, b = 0.7, -1.3
    (cx, tx), (cy, ty) = op.apply(x), op.apply(y)
    cz, tz = op.apply(a * x + b * y)
    scale = np.abs(a * cx).sum() + np.abs(b * cy).sum()
    assert np.abs(cz - (a * cx + b * cy)).sum() <= 1e-13 * scale
    assert abs(tz - (a * tx + b * ty)) <= 1e-13 * scale
    # mass accounting: output cells plus new truncation equal the input mass
    assert cx.sum() + tx == pytest.approx(x.sum(), rel=1e-12)


def test_fast_len_matches_scipy_next_fast_len():
    from scipy.fft import next_fast_len

    assert [_fast_len(n) for n in range(1, 2**16 + 1)] == [
        next_fast_len(n, real=True) for n in range(1, 2**16 + 1)]
    big = np.random.default_rng(13).integers(1, 2**23 + 2**22, size=2000, endpoint=True)
    assert [_fast_len(int(n)) for n in big] == [next_fast_len(int(n), real=True) for n in big]


def _scipy_apply(op, masses):
    """``StepOperator.apply`` with the scipy.fft transforms it used to call."""
    from scipy.fft import irfft, next_fast_len, rfft

    kern = op.kernel
    n = next_fast_len(op._conv_len, real=True)
    total_in = float(masses.sum())
    conv = irfft(rfft(masses, n) * rfft(kern.masses, n), n)[:op._conv_len]
    cells = np.diff(_node_cdf(conv, op._nodes, op._warped))
    leak = float(np.dot(conv[op._leak_from:], op._leak_share))
    if kern.capped:
        cells[0] += kern.clip_left * total_in
    return cells, (kern.clip_right + (0.0 if kern.capped else kern.clip_left)) * total_in + leak


@pytest.mark.parametrize("noise, g, grid", [
    (gaussian(0.4).mirror(), -0.2, cell_grid(40.0, 800)),
    (gaussian(1.0), 0.2, cell_grid(30.0, 2048)),
    (lorentzian(1.0), 0.2, cell_grid(60.0, 1999)),
    (tabulated([(-0.5, 0.4), (0.0, 1.0), (0.4, 0.6)]).mirror(), -0.25, cell_grid(12.0, 1500)),
], ids=["gaussian-mirrored", "gaussian", "lorentzian", "tabulated-asymmetric"])
def test_step_operator_matches_scipy_fft_bit_for_bit(noise, g, grid):
    op = StepOperator(g, noise, grid)
    x = first_step(noise, g, grid).node_masses()
    for _ in range(3):
        (cells, trunc), (ref_cells, ref_trunc) = op.apply(x), _scipy_apply(op, x)
        assert np.array_equal(cells, ref_cells) and trunc == ref_trunc
        x = cells


@pytest.mark.parametrize("noise, g, grid", [
    (gaussian(1.0), 0.2, cell_grid(8.0, 1200)),
    (gaussian(0.4).mirror(), -0.2, cell_grid(10.0, 1000)),
    (lorentzian(1.0), 0.2, cell_grid(30.0, 1500)),
    (tabulated([(-0.5, 0.4), (0.0, 1.0), (0.4, 0.6)]), 0.25, cell_grid(2.5, 1000)),
], ids=["gaussian", "gaussian-mirrored", "lorentzian", "tabulated"])
def test_step_leak_is_the_fsum_of_the_mass_past_the_top_edge(noise, g, grid):
    # The convolved nodes above the top warped edge w leak whole; the two
    # around w leak the share the interpolated CDF puts past w. Summed with
    # math.fsum, this is the reference that 1 - CDF(w) misses by roundoff of
    # the whole mass: up to 1e-7 relative where the leak is ~1e-8.
    op = StepOperator(g, noise, grid)
    kern, nodes, w, h = op.kernel, op._nodes, op._warped[-1], grid.h
    j = int(np.searchsorted(nodes, w, side="right")) - 1
    assert 0 <= j < nodes.size - 2
    f = (w - nodes[j]) / h
    x = first_step(noise, g, grid).node_masses()
    for _ in range(4):
        cells, trunc = op.apply(x)
        conv = np.fft.irfft(np.fft.rfft(x, op._fft_len) * op._kernel_fft,
                            op._fft_len)[:op._conv_len]
        total = float(x.sum())
        terms = [*conv[j + 2:], conv[j + 1] * (1.0 - 0.5 * f), conv[j] * 0.5 * (1.0 - f),
                 kern.clip_right * total, 0.0 if kern.capped else kern.clip_left * total]
        ref = math.fsum(terms)
        assert ref > 0.0
        assert abs(trunc - ref) <= 1e-13 * math.fsum(abs(v) for v in terms)
        x = cells


def test_no_leak_when_the_top_edge_is_past_the_last_convolved_node():
    # the interpolated CDF is the whole mass past the last node, so a top
    # warped edge half a cell beyond it leaks nothing through the top
    noise, grid = gaussian(0.05), cell_grid(10.0, 1000)
    h, m = grid.h, StepOperator(0.0, noise, grid).kernel.halfcells
    op = StepOperator(math.log1p(-math.exp(-10.0)) - m * h, noise, grid)
    assert op._nodes[-1] < op._warped[-1] < op._nodes[-1] + h
    x = np.random.default_rng(3).random(grid.n_points)
    cells, trunc = op.apply(x)
    total = float(x.sum())
    assert trunc == (op.kernel.clip_right + op.kernel.clip_left) * total
    assert cells.sum() + trunc == pytest.approx(total, rel=1e-14)


def test_kernel_halfcells_on_benchmark_grids_match_scipy_quantile():
    from scipy.special import ndtri

    n = DEFAULT_GRID_POINTS
    # the Gaussian steps of the benchmark's commands: evolve and volatility at
    # g = 0.2 over 30 steps, and the compare-saddle sweep at g = 0.1
    cases = [(0.2, gaussian(s), default_z_grid(0.2, gaussian(s), 30, n_points=n))
             for s in (1.0, 0.1)]
    cases += [(-0.2, gaussian(s).mirror(), default_y_grid(0.2, gaussian(s), n_points=n))
              for s in (1.0, 0.1)]
    cases += [(-0.1, gaussian(math.sqrt(v)).mirror(), default_y_grid(0.1, gaussian(math.sqrt(v))))
              for v in (0.01, 0.04, 0.16, 0.64, 1.0)]
    for g, noise, grid in cases:
        kern = StepOperator(g, noise, grid).kernel
        halfwidth = noise.sigma * float(ndtri(1.0 - 0.5 * TAIL_TOL))
        assert not kern.capped
        assert kern.halfcells == max(1, math.ceil(halfwidth / grid.h - 0.5))


_SOLVER_CASES = {
    "gaussian-0.01": (0.2, gaussian(0.1), default_y_grid(0.2, gaussian(0.1), n_points=1500)),
    "gaussian-0.16": (0.2, gaussian(0.4), default_y_grid(0.2, gaussian(0.4), n_points=1500)),
    "lorentzian-coarse": (0.2, lorentzian(1.0), cell_grid(60.0, 600)),
    "tabulated-asymmetric": (0.25, tabulated([(-0.5, 0.4), (0.0, 1.0), (0.4, 0.6)]),
                             cell_grid(12.0, 1500)),
}


@pytest.mark.parametrize("case", sorted(_SOLVER_CASES))
def test_eigensolve_matches_power_iteration(case):
    # The eigensolve runs on the drift g + E[a] and the centred noise, so the
    # table's power iteration does too. Lorentzian noise gives y no
    # stationary law, but its step on a finite grid still has a Perron
    # vector: the solver is checked on it directly.
    g, noise, grid = _SOLVER_CASES[case]
    if noise.kind != "lorentzian":
        g, noise = _stationary(g, noise)
    tr = list(y_steps(g, noise, grid, 5000, tol=1e-12))
    assert tr[-1].converged
    p_y, solver = _perron_density(g, noise, grid)
    solved, power = volatility_pdf(p_y), volatility_pdf(tr[-1].pdf)
    assert solved.variance() == pytest.approx(power.variance(), rel=1e-6)
    iqr = [np.subtract(*dz.quantiles((0.75, 0.25))) for dz in (solved, power)]
    assert iqr[0] == pytest.approx(iqr[1], rel=1e-6)
    assert solver["method"] == "arnoldi"
    assert solver["applications"] < tr[-1].t
    assert solver["eigenvalue"] == pytest.approx(1.0 - tr[-1].new_truncation, abs=1e-10)
    assert solver["residual_l1"] < 1e-9
    # 1 - lambda is the per-step leak: none for the compact table, but
    # positive through the grid's edges for the other noises
    leak = 1.0 - solver["eigenvalue"]
    assert -1e-12 < leak < 0.02
    assert (leak > 1e-9) == (noise.kind != "tabulated")


def _arpack_reference(g, noise, grid, closure=None, tol=1e-9):
    """ARPACK's Perron pair of the reversed step, with the eigensolve's Krylov
    size and tolerance, on the full grid's operator from the full grid's first
    step or on the eigensolve's bulk-plus-tail ``closure`` from the
    eigensolve's own start vector: the dz variance of its unit-mass
    eigenvector v, extended onto the full grid, after one more step; its
    eigenvalue; its operator applications with that step (and the closure's
    tail image); and a bound on the full-grid L1 residual of v. ARPACK's
    stopping rule bounds the 2-norm residual of the unit 2-norm Ritz vector
    by tol |theta|, so the 1-norm residual of its unit-mass vector u by
    tol |theta| sqrt(n) ||u||_2. On the full grid that is the bound. A
    closure adds what the full grid's step of v leaves outside it,
    ||P ext(u) - ext(M u)||_1, measured (0 without a tail)."""
    from scipy.sparse.linalg import LinearOperator, eigs

    noise, g = noise.mirror(), -g
    full = StepOperator(g, noise, grid)
    step, extend = full.apply, (lambda v: v)
    v0 = first_step(noise, g, grid).node_masses()
    applications = 1
    if closure is not None:
        step, extend, v0 = closure.step, closure.extend, closure.start()
        applications += closure.tail is not None

    def matvec(v):
        nonlocal applications
        applications += 1
        return step(np.ravel(v))[0]

    n = v0.size
    values, vectors = eigs(LinearOperator((n, n), matvec=matvec, dtype=float), k=1, ncv=40,
                           tol=tol, v0=v0)
    eigenvalue = float(values[0].real)
    u = np.maximum((vectors[:, 0] / vectors[:, 0].sum()).real, 0.0)
    u /= u.sum()
    vec = extend(u)
    p_y = warp_step(GriddedPdf(grid, vec / grid.node_weights()), noise, g)
    allowed = tol * eigenvalue * math.sqrt(n) * float(np.linalg.norm(u))
    gap = float(np.abs(full.apply(vec)[0] - extend(step(u)[0])).sum())
    return volatility_pdf(p_y).variance(), eigenvalue, applications, allowed + gap


# A restart that fed both members of a conjugate Ritz pair to the QR and cut
# trailing columns breaks the Arnoldi relation: on the first case its vector
# carries negative mass, on the Lorentzian one its eigenvalue is 2e-9 off.
@pytest.mark.parametrize("g, noise", [
    (0.03, gaussian(0.1)),
    (0.03, tabulated([(-0.8, 0.5), (-0.6, 1.0), (0.2, 0.8), (0.8, 0.9)])),  # mean 0
    (0.5, lorentzian(0.3)),
    (0.1, gaussian(1.0)),
], ids=["gaussian-0.1-g0.03", "table-g0.03", "lorentzian-0.3-g0.5", "gaussian-1-g0.1"])
def test_eigensolve_matches_arpack(g, noise):
    # the solver itself, on the grids and noises it was given: Lorentzian
    # noise has no stationary law, yet its finite grid's step has a Perron
    # vector, and its solve caught a restart bug that steady_state_volatility
    # now refuses to reach
    grid = default_y_grid(g, noise)
    p_y, solver = _perron_density(g, noise, grid)
    variance = _arpack_reference(g, noise, grid)[0]
    assert volatility_pdf(p_y).variance() == pytest.approx(variance, rel=1e-6)
    # The tail closure moves the eigenvalue by up to about 1e-10 and leaves
    # a full-grid residual of about 5e-9 (none without a tail, as for the
    # Lorentzian case), so the solver's own facts compare with ARPACK on the
    # same closed operator, from the same start and at the same tolerance.
    # (At 1e-9 ARPACK stops on the table after one cycle, 43 applications
    # against the solver's 45 at 1e-12; at 1e-12 it takes 62.)
    _, eigenvalue, applications, allowed = _arpack_reference(
        g, noise, grid, _TailClosure(g, noise, grid), tol=_RITZ_TOL)
    assert solver["eigenvalue"] == pytest.approx(eigenvalue, abs=1e-10)
    assert solver["residual_l1"] < allowed
    assert solver["applications"] <= applications


# the interpolated density's mean is 0 to roundoff
ASYMMETRIC = tabulated([(-0.8, 0.5), (-0.6, 1.0), (0.2, 0.8), (0.8, 0.9)])


@pytest.mark.parametrize("g, noise", [
    *((0.1, gaussian(math.sqrt(s2))) for s2 in (0.01, 0.04, 0.16, 0.64, 1.0)),
    (0.1, ASYMMETRIC),
], ids=["sweep-0.01", "sweep-0.04", "sweep-0.16", "sweep-0.64", "sweep-1.0", "table"])
def test_tail_closure_stays_within_its_budget(g, noise):
    # the bulk-plus-tail solve reports the full grid's variance and ratio
    # within 3e-7 relative at the paper sweep's points and for an
    # asymmetric table (1.1e-7 at sigma_a^2 = 1, the largest)
    grid = default_y_grid(g, noise)
    assert _TailClosure(g, noise, grid).tail is not None
    solved = steady_state_volatility(g, noise)
    variance = _arpack_reference(g, noise, grid)[0]
    assert solved.variance == pytest.approx(variance, rel=3e-7)
    assert solved.ratio_to_narrow == pytest.approx(variance / solved.narrow_variance, rel=3e-7)


_CLOSURE_CASES = [
    *((0.1, gaussian(math.sqrt(s2))) for s2 in (0.01, 0.04, 0.16, 0.64, 1.0)),
    (0.03, gaussian(2.0)),
    (0.1, ASYMMETRIC),
]
_CLOSURE_IDS = ["sweep-0.01", "sweep-0.04", "sweep-0.16", "sweep-0.64", "sweep-1.0",
                "near-critical", "table"]


@pytest.mark.parametrize("g, noise", _CLOSURE_CASES, ids=_CLOSURE_IDS)
def test_tail_closure_on_its_prefix_matches_the_full_grid(g, noise):
    # The tail image made on the prefix [0, y_T + W] is the full grid's below
    # y_T (at most 1.1e-16 apart); its kept mass exceeds the full grid's by
    # that grid's top leak alone (at most 4.7e-11); the first step on the
    # bulk grid, the start where the diffusion limit has no law, is the full
    # grid's, restricted (1.7e-16 relative); and the start is that limit's
    # law, dz ~ Gamma(2g/sigma^2, sigma^2/2), as y's node masses
    # rho_dz(x)/(e^y - 1) h at x = -log(1 - e^{-y}), and its small-x_T mass
    # x_T^kappa/(kappa Gamma(kappa) theta^kappa) above y_T, at unit mass.
    from scipy.special import gammaln
    from scipy.stats import gamma

    g, noise = _stationary(g, noise)
    grid = default_y_grid(g, noise)
    closure = _TailClosure(g, noise, grid)
    n_bulk = closure.bulk.grid.n_points
    tail = closure.extend(np.append(np.zeros(n_bulk), 1.0))
    image = StepOperator(*closure.reversed, grid).apply(tail)[0]
    np.testing.assert_allclose(closure._image, image[:n_bulk], rtol=0.0, atol=1e-15)
    kept = float(image[n_bulk:].sum())
    assert kept <= closure._kept <= kept + 1e-10
    rev_g, rev_noise = closure.reversed
    first = first_step(rev_noise, rev_g, grid).node_masses()
    np.testing.assert_allclose(np.append(*closure.bulk.first()),
                               np.append(first[:n_bulk], first[n_bulk:].sum()),
                               rtol=1e-15, atol=0.0)
    theta = noise.variance() / 2.0
    kappa = g / theta
    y, y_t = grid.points()[:n_bulk], grid.cell_edges()[n_bulk]
    x, x_t = -np.log1p(-np.exp(-y)), -math.log1p(-math.exp(-y_t))
    law = np.append(gamma.pdf(x, kappa, scale=theta) / np.expm1(y) * grid.h,
                    math.exp(kappa * math.log(x_t / theta) - gammaln(kappa + 1.0)))
    np.testing.assert_allclose(closure.start(), law / law.sum(), rtol=1e-9, atol=1e-250)


@pytest.mark.parametrize("g, noise", [
    (0.1, gaussian(1.0)), (0.01, gaussian(0.01)), (0.1, ASYMMETRIC),
    (0.25, tabulated([(-0.5, 0.4), (0.0, 1.0), (0.4, 0.6)])),  # mean -0.024
], ids=["gaussian", "narrow", "table", "table-with-a-mean"])
def test_eigensolve_start_is_a_unit_mass_density(g, noise):
    g, noise = _stationary(g, noise)
    closure = _TailClosure(g, noise, default_y_grid(g, noise))
    assert closure.tail is not None
    start = closure.start()
    assert np.all(np.isfinite(start)) and start.min() >= 0.0
    assert start.sum() == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("noise", [lorentzian(1.0), gaussian(1e-161)],
                         ids=["no-variance", "kappa-overflows"])
def test_eigensolve_starts_from_y_zero_where_the_limit_has_no_law(noise):
    # Lorentzian noise has no variance, and at sigma_a^2 = 1e-322 the limit
    # law's shape 2g/sigma_a^2 overflows: both start from the first step
    closure = _TailClosure(0.2, noise, cell_grid(60.0, 600))
    cells, above = closure.bulk.first()
    first = cells if closure.tail is None else np.append(cells, above)
    np.testing.assert_array_equal(closure.start(), first)


@pytest.mark.parametrize("noise", [gaussian(1.0), ASYMMETRIC], ids=["gaussian", "table"])
def test_a_solve_reads_the_noise_cdf_once(monkeypatch, noise):
    # for the bulk's kernel, which the tail's image shares; the start reads
    # no first step
    cdf_at, calls = NoiseModel.cdf_at, []

    def counted(self, arr):
        calls.append(arr.size)
        return cdf_at(self, arr)

    monkeypatch.setattr(NoiseModel, "cdf_at", counted)
    steady_state_volatility(0.1, noise)
    assert len(calls) == 1


@pytest.mark.parametrize("g, sigma", [(0.03, 2.0), (0.1, 1.0)])
def test_steady_state_builds_no_step_operator_past_the_tail_images_prefix(monkeypatch, g, sigma):
    # no step operator spans the full grid, which is 20 and 5.6 times the bulk here
    noise = gaussian(sigma)
    grid = default_y_grid(g, noise)
    bulk = _TailClosure(g, noise, grid).bulk
    prefix = bulk.grid.n_points + bulk.kernel.halfcells + math.ceil(g / grid.h) + 2
    built, init = [], StepOperator.__init__

    def recorded(self, g, noise, grid, kernel=None):
        built.append(grid.n_points)
        init(self, g, noise, grid, kernel)

    monkeypatch.setattr(StepOperator, "__init__", recorded)
    steady_state_volatility(g, noise)
    assert built and max(built) <= prefix < grid.n_points


def test_near_critical_solve_holds_no_full_grid_operator():
    # 275,841 y points, 13,556 of them bulk: the solve traces 4.4 full-grid
    # vectors (9.7 MB), where the full grid's operator, tail image and last
    # step took 9.3 (20.6 MB)
    g, noise = 0.03, gaussian(2.0)
    grid = default_y_grid(g, noise)
    tracemalloc.start()
    try:
        _perron_density(g, noise, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * grid.n_points * 8


def test_table_tail_exponent_matches_the_full_grids_tail_slope():
    # past centre + 6 widths the full grid's Perron vector decays at the
    # rate the moment equation gives for the (unmirrored) noise
    from scipy.sparse.linalg import LinearOperator, eigs

    g, noise = 0.1, ASYMMETRIC
    grid = default_y_grid(g, noise)
    op = StepOperator(-g, noise.mirror(), grid)
    start = first_step(noise.mirror(), -g, grid).node_masses()
    n = grid.n_points
    vectors = eigs(LinearOperator((n, n), matvec=lambda v: op.apply(np.ravel(v))[0],
                                  dtype=float), k=1, ncv=40, tol=1e-12, v0=start)[1]
    density = np.abs(vectors[:, 0].real)
    y = grid.points()
    sigma = math.sqrt(noise.variance())
    lo = ybar(g, math.inf) + 6.0 * sigma_y_fixed_point(g, sigma)
    beyond = (y > lo) & (y < lo + 8.0 * sigma)
    slope = np.polyfit(y[beyond], np.log(density[beyond]), 1)[0]
    assert -slope == pytest.approx(tail_exponent(noise, g), rel=0.02)



@pytest.mark.parametrize("sigma_sq", [0.01, 0.04, 0.16, 0.64, 1.0])
def test_eigensolve_stops_inside_its_first_cycle(monkeypatch, sigma_sq):
    # the Ritz estimate is checked as the basis grows, so a sweep point stops
    # before the first cycle's 40 vectors are built, at a 1e-14 rule's answer
    g, noise = 0.1, gaussian(math.sqrt(sigma_sq))
    solved = steady_state_volatility(g, noise)
    assert solved.solver["applications"] <= _ARNOLDI_NCV
    monkeypatch.setattr(evolution, "_RITZ_TOL", 1e-14)
    tight = steady_state_volatility(g, noise)
    assert solved.variance == pytest.approx(tight.variance, rel=1e-10)


@pytest.mark.parametrize("g, sigma_sq", [(0.01, 1e-4), (0.01, 1e-3), (0.01, 0.1), (0.03, 1e-3),
                                         (0.03, 1e-4)])
def test_eigensolve_stops_by_one_rule_at_small_drift(monkeypatch, g, sigma_sq):
    # These solves run past their first cycle, and the one rule lands within
    # 1e-10 of a 1e-14 rule. Started from y = 0, the last one's converged
    # vector carried 3.3e-12 of negative mass, over the budget
    noise = gaussian(math.sqrt(sigma_sq))
    solved = steady_state_volatility(g, noise)
    assert solved.solver["applications"] > _ARNOLDI_NCV
    monkeypatch.setattr(evolution, "_RITZ_TOL", 1e-14)
    tight = steady_state_volatility(g, noise)
    assert solved.variance == pytest.approx(tight.variance, rel=1e-10)


def test_eigensolve_from_the_diffusion_limit_needs_fewer_applications():
    # started from the first step at y = 0 the paper sweep took 34, 34, 30,
    # 30 and 30 applications (158), and g = 0.01 took 372 and 192 at
    # sigma_a^2 = 1e-4 and 1e-3
    sweep = [steady_state_volatility(0.1, gaussian(math.sqrt(s2))).solver["applications"]
             for s2 in (0.01, 0.04, 0.16, 0.64, 1.0)]
    assert sum(sweep) <= 140
    assert all(n <= before for n, before in zip(sweep, (34, 34, 30, 30, 30))), sweep
    small = [steady_state_volatility(0.01, gaussian(math.sqrt(s2))).solver["applications"]
             for s2 in (1e-4, 1e-3)]
    assert small[0] <= 180 and small[1] <= 100, small


def test_converged_eigenvector_over_the_negative_mass_budget_fails_the_solve(monkeypatch):
    # narrow noise at small drift solves here with 2e-13 of negative mass,
    # so every candidate that the check reads is spoilt: those mid-cycle only
    # let the basis grow, and the one that meets the Ritz rule at a cycle's
    # end fails the solve
    negative_mass, calls = evolution._negative_mass, []

    def spoilt(v):
        calls.append(v.size)
        v[-1] = -1e-9
        return negative_mass(v)

    monkeypatch.setattr(evolution, "_negative_mass", spoilt)
    with pytest.raises(ConvergenceError, match="negative mass 1.0"):
        steady_state_volatility(0.03, gaussian(0.01))
    assert len(calls) > 1


def test_eigensolve_skips_an_early_candidate_over_the_negative_mass_budget(monkeypatch):
    # On the sweep an early candidate's negative mass is far below its Ritz
    # estimate, so one is spoilt here: the first unit-mass vector (b, A)
    # that the check reads gets a negative tail amplitude. The solve goes on
    # to the next check instead of stopping or failing.
    g, noise = 0.1, gaussian(1.0)
    plain = steady_state_volatility(g, noise)
    negative_mass, calls = evolution._negative_mass, []

    def spoilt(v):
        calls.append(v.size)
        if len(calls) == 1:
            v[-1] = -1e-9
        return negative_mass(v)

    monkeypatch.setattr(evolution, "_negative_mass", spoilt)
    solved = steady_state_volatility(g, noise)
    assert len(calls) == 2
    assert plain.solver["applications"] < solved.solver["applications"] <= _ARNOLDI_NCV
    assert solved.variance == pytest.approx(plain.variance, rel=1e-10)

def test_eigensolve_is_bit_identical_on_repeat():
    grid = default_y_grid(0.1, gaussian(0.5), n_points=2000)
    assert (asdict(steady_state_volatility(0.1, gaussian(0.5), grid=grid))
            == asdict(steady_state_volatility(0.1, gaussian(0.5), grid=grid)))


def test_eigensolve_application_cap(monkeypatch):
    # near-critical drift: the closed solve restarts once and stops inside
    # its second cycle, past the tail image, the first cycle and the last step
    g, noise = 0.01, gaussian(1.0)
    grid = default_y_grid(g, noise, n_points=20000)
    needed = steady_state_volatility(g, noise, grid=grid).solver["applications"]
    assert needed > _ARNOLDI_NCV + 2
    # the cap holds mid-solve as well as inside the first Arnoldi cycle
    for cap in (10, 41, 50, needed - 1):
        monkeypatch.setattr(evolution, "_MAX_APPLICATIONS", cap)
        with pytest.raises(ConvergenceError):
            steady_state_volatility(g, noise, grid=grid)
    monkeypatch.setattr(evolution, "_MAX_APPLICATIONS", needed)
    assert steady_state_volatility(g, noise, grid=grid).solver["applications"] == needed


def test_eigensolve_workspace_is_its_krylov_basis():
    # The restart is applied in place in column blocks and Gram-Schmidt
    # subtracts through one vector, so the solve's traced peak is the
    # (ncv + 1) x (n_T + 1) basis on the n_T bulk points and about ten more
    # bulk vectors (53 in all here). No full-grid operator, tail image or
    # last step remains: the geometric tail, under one full-grid vector, is
    # all the solve holds on the full grid until the reported density. A
    # restart that forms the kept Ritz vectors beside the basis peaks near 77.
    g, noise, grid = 0.005, gaussian(1.0), cell_grid(90.0, 24000)
    n = grid.n_points
    n_bulk = _TailClosure(g, noise, grid).bulk.grid.n_points
    assert n_bulk >= 4 * _RESTART_BLOCK
    tracemalloc.start()
    try:
        solved = steady_state_volatility(g, noise, grid=grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # two restarts: past the tail image, the first cycle's 40 vectors, the
    # second's 19 to 21 (the kept Ritz vectors fill the rest) and the last step
    assert solved.solver["applications"] > 2 * _ARNOLDI_NCV - _ARNOLDI_NCV // 2 + 3
    assert peak < (55 * n_bulk + n) * 8


def _fftconvolve_step(p, noise, g):
    """One step as computed before the step operator: scipy.signal's
    fftconvolve with the kernel rebuilt per step and every clip in place.
    The mass past the top warped edge comes from the convolved nodes around
    and above it, not as the total minus the CDF there, whose roundoff is of
    the order of the whole mass."""
    from scipy.signal import fftconvolve

    grid, h = p.grid, p.grid.h
    edges = grid.cell_edges()
    kern = noise.cell_masses(h, max_halfwidth=edges[-1] + _KERNEL_MARGIN)
    conv = np.maximum(fftconvolve(p.node_masses(), kern.masses), 0.0)
    nodes = grid.x_min - kern.halfcells * h + h * np.arange(conv.size)
    cum = np.cumsum(conv) - 0.5 * conv
    with np.errstate(divide="ignore"):
        warped = edges + np.log1p(-np.exp(-edges)) - g
    cw = np.interp(warped, nodes, cum, left=0.0, right=conv.sum())
    cells = np.maximum(np.diff(cw), 0.0)
    k = np.searchsorted(nodes, warped[-1]) - 2
    tail = conv[k:]
    leak = tail.sum() - np.interp(warped[-1], nodes[k:], np.cumsum(tail) - 0.5 * tail)
    new_trunc = kern.clip_right + max(leak, 0.0)
    if kern.capped:
        cells[0] += kern.clip_left
    else:
        new_trunc += kern.clip_left
    return _assemble(grid, cells, p.truncated_mass, new_trunc)[0]


@pytest.mark.parametrize("noise", [gaussian(0.5), lorentzian(1.0)], ids=["gaussian", "lorentzian"])
def test_evolve_z_matches_fftconvolve_steps(noise):
    g = 0.2
    tr = list(z_steps(g, noise, default_z_grid(g, noise, 6, n_points=2048), 6))
    ref = tr[0].pdf
    for rec in tr[1:]:
        ref = _fftconvolve_step(ref, noise, g)
        assert np.max(np.abs(rec.pdf.values - ref.values)) <= 1e-12 * ref.values.max()
        assert rec.pdf.truncated_mass == pytest.approx(ref.truncated_mass, rel=1e-9, abs=1e-15)
