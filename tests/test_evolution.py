import math
import tracemalloc
from dataclasses import asdict, replace

import numpy as np
import pytest

import cumvol as cv
from cumvol import (
    ConvergenceError,
    DomainError,
    EvolutionConfig,
    MassDefectError,
    cell_grid,
    default_y_config,
    default_y_grid,
    default_z_grid,
    evolve_y,
    evolve_z,
    gaussian,
    init_first_step,
    lorentzian,
    steady_state_volatility,
    tabulated,
    trace_volatility,
    volatility_pdf,
)
from cumvol.cli import DEFAULT_GRID_POINTS
from cumvol.evolution import (_ARNOLDI_NCV, _KERNEL_MARGIN, _RESTART_BLOCK, StepOperator, _assemble,
                              _fast_len, _node_cdf)
from cumvol.noise import TAIL_TOL
from cumvol.pdfgrid import GriddedPdf
from helpers import interp_at, means, normalized, pdf_at, variances, warp_step

SPIKE = gaussian(1e-12)  # deterministic sigma -> 0 limit


def softplus(x):
    return math.log1p(math.exp(x))


def test_first_step_spike_noise_lands_on_softplus_of_drift():
    grid = cell_grid(3.0, 3000)
    p = init_first_step(SPIKE, 0.0, grid)
    assert p.mean() == pytest.approx(math.log(2.0), abs=grid.h)
    p2 = init_first_step(SPIKE, 0.2, grid)
    assert p2.mean() == pytest.approx(0.79814, abs=grid.h)
    # all mass in one cell
    assert p2.node_masses().max() == pytest.approx(1.0, abs=1e-9)


def test_first_step_mean_approaches_deterministic_limit():
    grid = cell_grid(3.0, 6000)
    target = softplus(0.2)
    means = [init_first_step(gaussian(s), 0.2, grid).mean() for s in (0.2, 0.05, 0.01)]
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
    p = init_first_step(noise, g, grid)
    x = grid.points()[1:-1]
    w = x + np.log1p(-np.exp(-x)) - g
    direct = pdf_at(noise, w) / (1.0 - np.exp(-x))
    assert np.max(np.abs(p.values[1:-1] - direct)) < 2e-4 * direct.max()
    bulk = direct > 0.05 * direct.max()
    assert np.max(np.abs(p.values[1:-1][bulk] - direct[bulk]) / direct[bulk]) < 1e-3


def test_first_step_mass_accounting_is_tight():
    grid = default_z_grid(0.2, gaussian(1.0), 1)
    p = init_first_step(gaussian(1.0), 0.2, grid)
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
    cfg = EvolutionConfig(g=g, noise=SPIKE, grid=grid, horizon=10, convergence_tol=1e-300)
    tr = evolve_z(cfg)
    for t, mean in enumerate(means(tr), start=1):
        exact = math.log(sum(math.exp(g * j) for j in range(t + 1)))
        assert mean == pytest.approx(exact, abs=5 * grid.h)


def test_evolve_z_variance_tracks_monte_carlo():
    g, sig = 0.2, 0.1
    noise = gaussian(sig)
    cfg = EvolutionConfig(g=g, noise=noise, grid=default_z_grid(g, noise, 10),
                          horizon=10, convergence_tol=1e-300)
    tr = evolve_z(cfg)
    var_z = cv.simulate_stream(g, noise, t_max=10, n_paths=400_000, seed=91).summary["var_z"]
    for t in (1, 5, 10):
        mc = var_z[t - 1]
        assert variances(tr)[t - 1] == pytest.approx(mc, rel=6e-3)


def test_evolve_z_variance_reaches_closed_form_asymptote():
    # the leading-order variance formula is a large-t asymptote
    g, sig = 0.2, 0.1
    noise = gaussian(sig)
    cfg = EvolutionConfig(g=g, noise=noise, grid=default_z_grid(g, noise, 40),
                          horizon=40, convergence_tol=1e-300)
    tr = evolve_z(cfg)
    assert variances(tr)[-1] == pytest.approx(cv.var_logZ_saddle(g, sig, 40), rel=0.01)


def test_evolve_z_mean_increment_approaches_drift():
    g = 0.2
    noise = gaussian(0.1)
    cfg = EvolutionConfig(g=g, noise=noise, grid=default_z_grid(g, noise, 40),
                          horizon=40, convergence_tol=1e-300)
    m = means(evolve_z(cfg))
    assert m[-1] - m[-2] == pytest.approx(g, abs=1e-3)


def test_evolve_y_equals_mirrored_negated_evolve_z():
    noise = tabulated([(-0.5, 0.2), (0.1, 1.0), (0.8, 0.4)])
    grid = cell_grid(6.0, 2000)
    cfg_y = EvolutionConfig(g=0.25, noise=noise, grid=grid, horizon=12,
                            convergence_tol=1e-300)
    cfg_z = EvolutionConfig(g=-0.25, noise=noise.mirror(), grid=grid, horizon=12,
                            convergence_tol=1e-300)
    ty, tz = evolve_y(cfg_y), evolve_z(cfg_z)
    for a, b in zip(ty.steps, tz.steps):
        assert np.array_equal(a.pdf.values, b.pdf.values)


def test_evolve_y_spike_noise_fixed_point_location():
    g = 0.2
    target = -math.log1p(-math.exp(-g))  # 1.70777
    grid = cell_grid(3.0, 3000)
    cfg = EvolutionConfig(g=g, noise=SPIKE, grid=grid, horizon=300, convergence_tol=1e-10)
    tr = evolve_y(cfg)
    assert tr.converged_at is not None
    final = tr.final().pdf
    assert final.mean() == pytest.approx(target, abs=0.01)


def test_evolve_y_fixed_point_variance_matches_narrow_formula():
    g, sig = 0.2, 0.05
    cfg = default_y_config(g, gaussian(sig))
    tr = evolve_y(cfg)
    assert tr.converged_at is not None
    target = sig**2 / math.expm1(2 * g)
    assert tr.final().pdf.variance() == pytest.approx(target, rel=0.02)


def test_densities_are_normalised_and_supported_on_positive_axis():
    noise = lorentzian(1.0)
    cfg = EvolutionConfig(g=0.2, noise=noise, grid=default_z_grid(0.2, noise, 8),
                          horizon=8, convergence_tol=1e-300)
    tr = evolve_z(cfg)
    for rec in tr.steps:
        assert rec.pdf.integral() == pytest.approx(1.0, abs=1e-6)
        assert np.all(rec.pdf.values >= 0.0)
        assert rec.pdf.grid.x_min > 0.0
        assert interp_at(rec.pdf, -0.5) == 0.0
        assert rec.mass_defect < 1e-3
    truncs = [rec.pdf.truncated_mass for rec in tr.steps]
    assert all(b >= a for a, b in zip(truncs, truncs[1:]))


def test_volatility_pdf_spike_maps_fixed_point_to_drift():
    g = 0.2
    ybar_inf = -math.log1p(-math.exp(-g))
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
    cfg = default_y_config(g, gaussian(sig))
    tr = evolve_y(cfg)
    dz = volatility_pdf(tr.final().pdf)
    assert dz.variance() == pytest.approx(sig**2 * math.tanh(g / 2), rel=0.01)
    assert dz.grid.x_min > 0.0


def test_volatility_pdf_wide_noise_diverges_integrably_at_zero():
    cfg = default_y_config(0.2, gaussian(1.0), tol=1e-9)
    tr = evolve_y(cfg)
    dz = volatility_pdf(tr.final().pdf)
    # density rises toward the origin but the total mass stays 1
    assert dz.values[0] > interp_at(dz, 0.05) > 0.0
    assert dz.integral() == pytest.approx(1.0, abs=1e-6)


def test_steady_state_volatility_report_gaussian():
    rep = steady_state_volatility(default_y_config(0.1, gaussian(0.05)))
    assert rep.solver["method"] == "arnoldi" and rep.solver["applications"] > 0
    assert rep.ratio_to_narrow == pytest.approx(1.0, abs=0.02)
    assert rep.variance_reliable
    q = rep.quantiles
    assert q["q75"] > q["q25"] and q["q95"] - q["q05"] > q["q75"] - q["q25"]
    assert rep.sigma_a_sq == pytest.approx(0.0025)


def test_steady_state_volatility_report_lorentzian_flags_unreliable():
    noise = lorentzian(1.0)
    grid = default_y_grid(0.2, noise)
    cfg = EvolutionConfig(g=0.2, noise=noise, grid=grid, horizon=4000,
                          convergence_tol=1e-7)
    rep = steady_state_volatility(cfg)
    assert rep.ratio_to_narrow is None
    assert not rep.variance_reliable
    assert rep.truncated_mass > 0.0
    assert rep.quantiles["q75"] > rep.quantiles["q25"]


def test_steady_state_volatility_domain_and_convergence_errors():
    negated = replace(default_y_config(0.2, gaussian(0.1)), g=-0.2)
    with pytest.raises(DomainError):
        steady_state_volatility(negated)
    cfg = default_y_config(0.2, gaussian(0.1), tol=1e-13, horizon=3)
    with pytest.raises(ConvergenceError):
        steady_state_volatility(cfg)


@pytest.mark.parametrize("g", [100.0, 1e308])
def test_hand_built_grid_keeps_drift_cap(g):
    # the growth increment sits near g, past the dz grid's cap of 60, whether
    # the reversed variable's grid was defaulted or given
    cfg = EvolutionConfig(g=g, noise=gaussian(1.0), grid=cell_grid(10.0, 1000), horizon=2)
    for solve in (evolve_y, steady_state_volatility):
        with pytest.raises(DomainError, match="beyond the dz grid's cap of 60"):
            solve(cfg)


def test_hand_built_grid_must_resolve_steady_centre():
    # ybar(3, inf) = 0.051 spans 0.5 cells of width 0.1 above y = 0: the y
    # density falls into the first cell and dz would read about log(2/h), so
    # every route to dz refuses the grid; 200 cells of width 2.5e-4 resolve it
    cfg = EvolutionConfig(g=3.0, noise=gaussian(1.0), grid=cell_grid(10.0, 100),
                          horizon=3, convergence_tol=1e-300)
    for solve in (evolve_y, steady_state_volatility):
        with pytest.raises(DomainError, match="dz is not resolved there"):
            solve(cfg)
    fine = replace(cfg, grid=cell_grid(10.0, 40_000))
    dz = volatility_pdf(evolve_y(fine).density(3))
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


def test_contraction_volatility_below_noise_variance():
    for g in (0.1, 0.5):
        for sig in (0.05, 0.3):
            rep = steady_state_volatility(default_y_config(g, gaussian(sig)))
            assert rep.variance < sig**2


def test_small_sigma_ratio_converges_to_one():
    # |ratio - 1| at the engine's resolution floor; the deviation crosses zero
    # near sigma_a^2 ~ 0.01, so enforce decay down to that floor
    floor = 5e-4
    gaps = []
    for sig in (0.2, 0.1, 0.05, 0.025):
        rep = steady_state_volatility(default_y_config(0.1, gaussian(sig)))
        gaps.append(abs(rep.ratio_to_narrow - 1.0))
    clipped = [max(gap, floor) for gap in gaps]
    assert all(b <= a for a, b in zip(clipped, clipped[1:]))
    assert gaps[-1] < 2e-3


def test_ratio_crossover_location_at_small_drift():
    # discovered empirically: at g=0.1 the exact-to-narrow ratio sits above 1
    # for very small noise and dips below 1 before sigma_a^2 reaches 0.04
    above = steady_state_volatility(default_y_config(0.1, gaussian(0.05)))
    below = steady_state_volatility(default_y_config(0.1, gaussian(0.2)))
    assert above.ratio_to_narrow > 1.0
    assert below.ratio_to_narrow < 1.0


def test_per_step_reporting():
    cfg = default_y_config(0.2, gaussian(0.1), tol=1e-6, horizon=500)
    tr = evolve_y(cfg)
    rep = trace_volatility(tr)
    assert tr.converged_at == len(tr.steps)
    l1 = [rec.l1_prev for rec in tr.steps if rec.l1_prev is not None]
    # early steps change a lot, later steps barely at all
    assert l1[0] > 10 * l1[-1]
    solver = rep.solver
    assert solver["method"] == "power"
    assert solver["applications"] == len(tr.steps) - 1
    assert solver["residual_l1"] == pytest.approx(tr.final().l1_prev, rel=1e-6)


def test_evolve_z_runs_every_step():
    # z has no fixed point: a tolerance that the later steps' L1 gaps meet
    # does not stop the forward run
    noise = gaussian(0.3)
    cfg = EvolutionConfig(g=0.3, noise=noise, grid=default_z_grid(0.3, noise, 12),
                          horizon=12, convergence_tol=0.5)
    tr = evolve_z(cfg)
    assert tr.converged_at is None
    assert [rec.t for rec in tr.steps] == list(range(1, 13))
    assert tr.final().l1_prev < 0.5


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
    new_trunc = kern.clip_right * total_in + leak
    if kern.capped:
        cells[0] += kern.clip_left * total_in
    else:
        new_trunc += kern.clip_left * total_in
    return cells, new_trunc


@pytest.mark.parametrize("noise, g, grid", [
    (gaussian(0.4).mirror(), -0.2, cell_grid(40.0, 800)),
    (gaussian(1.0), 0.2, cell_grid(30.0, 2048)),
    (lorentzian(1.0), 0.2, cell_grid(60.0, 1999)),
    (tabulated([(-0.5, 0.4), (0.0, 1.0), (0.4, 0.6)]).mirror(), -0.25, cell_grid(12.0, 1500)),
], ids=["gaussian-mirrored", "gaussian", "lorentzian", "tabulated-asymmetric"])
def test_step_operator_matches_scipy_fft_bit_for_bit(noise, g, grid):
    op = StepOperator(g, noise, grid)
    x = init_first_step(noise, g, grid).node_masses()
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
    x = init_first_step(noise, g, grid).node_masses()
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
    assert trunc == op.kernel.clip_right * total + op.kernel.clip_left * total
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
    "gaussian-0.01": lambda: default_y_config(0.2, gaussian(0.1), tol=1e-12, horizon=5000,
                                              n_points=1500),
    "gaussian-0.16": lambda: default_y_config(0.2, gaussian(0.4), tol=1e-12, horizon=5000,
                                              n_points=1500),
    "lorentzian-coarse": lambda: EvolutionConfig(g=0.2, noise=lorentzian(1.0),
                                                 grid=cell_grid(60.0, 600), horizon=5000,
                                                 convergence_tol=1e-12),
    "tabulated-asymmetric": lambda: EvolutionConfig(
        g=0.25, noise=tabulated([(-0.5, 0.4), (0.0, 1.0), (0.4, 0.6)]),
        grid=cell_grid(12.0, 1500), horizon=5000, convergence_tol=1e-12),
}


@pytest.mark.parametrize("case", sorted(_SOLVER_CASES))
def test_eigensolve_matches_power_iteration(case):
    cfg = _SOLVER_CASES[case]()
    tr = evolve_y(cfg)
    assert tr.converged_at is not None
    power = trace_volatility(tr)
    solved = steady_state_volatility(cfg)
    assert solved.variance == pytest.approx(power.variance, rel=1e-6)
    iqr = [rep.quantiles["q75"] - rep.quantiles["q25"] for rep in (solved, power)]
    assert iqr[0] == pytest.approx(iqr[1], rel=1e-6)
    solver = solved.solver
    assert solver["method"] == "arnoldi"
    assert solver["applications"] < tr.converged_at
    assert solver["eigenvalue"] == pytest.approx(power.solver["eigenvalue"], abs=1e-10)
    assert solver["residual_l1"] < 1e-9
    # 1 - lambda is the per-step leak: none for the compact table, but
    # positive through the grid's edges for the other noises
    leak = 1.0 - solver["eigenvalue"]
    assert -1e-12 < leak < 0.02
    assert (leak > 1e-9) == (cfg.noise.kind != "tabulated")


def _arpack_reference(cfg):
    """ARPACK's Perron pair of the reversed step operator, from the eigensolve's
    start vector, Krylov size and tolerance: the dz variance of its unit-mass
    eigenvector v after one more step, its eigenvalue, its operator
    applications with that step, and the L1 residual that its stopping rule
    allows v. That rule bounds the 2-norm residual of the unit 2-norm Ritz
    vector by tol |theta|, so the 1-norm residual of v by
    tol |theta| sqrt(n) ||v||_2."""
    from scipy.sparse.linalg import LinearOperator, eigs

    noise, g, grid = cfg.noise.mirror(), -cfg.g, cfg.grid
    op = StepOperator(g, noise, grid)
    applications = 1

    def matvec(v):
        nonlocal applications
        applications += 1
        return op.apply(np.ravel(v))[0]

    n = grid.n_points
    values, vectors = eigs(LinearOperator((n, n), matvec=matvec, dtype=float), k=1, ncv=40,
                           tol=cfg.convergence_tol,
                           v0=init_first_step(noise, g, grid).node_masses())
    eigenvalue = float(values[0].real)
    vec = np.maximum((vectors[:, 0] / vectors[:, 0].sum()).real, 0.0)
    vec /= vec.sum()
    p_y = warp_step(GriddedPdf(grid, vec / grid.node_weights()), noise, g)
    allowed = cfg.convergence_tol * eigenvalue * math.sqrt(n) * float(np.linalg.norm(vec))
    return volatility_pdf(p_y).variance(), eigenvalue, applications, allowed


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
    cfg = default_y_config(g, noise)
    solved = steady_state_volatility(cfg)
    variance, eigenvalue, applications, allowed = _arpack_reference(cfg)
    assert solved.variance == pytest.approx(variance, rel=1e-6)
    assert solved.solver["eigenvalue"] == pytest.approx(eigenvalue, abs=1e-10)
    assert solved.solver["residual_l1"] < allowed
    assert solved.solver["applications"] <= applications


def test_eigensolve_is_bit_identical_on_repeat():
    cfg = default_y_config(0.1, gaussian(0.5), n_points=2000)
    assert asdict(steady_state_volatility(cfg)) == asdict(steady_state_volatility(cfg))


def test_eigensolve_application_cap():
    cfg = default_y_config(0.1, gaussian(1.0), n_points=2000)
    needed = steady_state_volatility(cfg).solver["applications"]
    assert needed > 41
    # the cap holds mid-solve as well as inside the first Arnoldi cycle
    for horizon in (10, 41, needed - 1):
        with pytest.raises(ConvergenceError):
            steady_state_volatility(replace(cfg, horizon=horizon))
    assert steady_state_volatility(replace(cfg, horizon=needed)).solver["applications"] == needed


def test_eigensolve_workspace_is_its_krylov_basis():
    # The restart is applied in place in column blocks and Gram-Schmidt
    # subtracts through one vector, so the solve's traced peak is the
    # (ncv + 1) x n basis and about ten more grid vectors (51 in all here).
    # A restart that forms the kept Ritz vectors beside the basis peaks
    # near 67.
    cfg = default_y_config(0.1, gaussian(1.0), n_points=16384)
    n = cfg.grid.n_points
    assert n >= 4 * _RESTART_BLOCK
    tracemalloc.start()
    try:
        solved = steady_state_volatility(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert solved.solver["applications"] > 2 * _ARNOLDI_NCV  # two restarts
    assert peak < 55 * n * 8


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
    cfg = EvolutionConfig(g=g, noise=noise, grid=default_z_grid(g, noise, 6, n_points=2048),
                          horizon=6, convergence_tol=1e-300)
    tr = evolve_z(cfg)
    ref = tr.density(1)
    for rec in tr.steps[1:]:
        ref = _fftconvolve_step(ref, noise, g)
        assert np.max(np.abs(rec.pdf.values - ref.values)) <= 1e-12 * ref.values.max()
        assert rec.pdf.truncated_mass == pytest.approx(ref.truncated_mass, rel=1e-9, abs=1e-15)
