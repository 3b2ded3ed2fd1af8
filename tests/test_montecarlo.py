import math

import numpy as np
import pytest

import cumvol as cv
from cumvol import (
    GriddedPdf,
    McEnsemble,
    cell_grid,
    empirical_cdf_distance,
    empirical_volatility,
    gaussian,
    lorentzian,
    reciprocal_increment_gap,
    simulate,
    simulate_stream,
)
from cumvol.montecarlo import BLOCK_PATHS, _logaddexp_into

SPIKE = gaussian(1e-12)


def test_noiseless_paths_reproduce_geometric_sum():
    g = 0.2
    e = simulate(g, SPIKE, t_max=10, n_paths=50, seed=1)
    exact = math.log(sum(math.exp(g * j) for j in range(11)))
    assert np.allclose(e.z[:, 10], exact, atol=1e-9)


def test_zero_drift_noiseless_increments():
    e = simulate(0.0, SPIKE, t_max=8, n_paths=10, seed=2)
    for t in range(1, 9):
        assert np.allclose(e.z[:, t], math.log(t + 1.0), atol=1e-9)
        assert np.allclose(e.dz[:, t - 1], math.log((t + 1.0) / t), atol=1e-9)


def test_seed_determinism_and_sensitivity():
    a = simulate(0.2, gaussian(1.0), t_max=5, n_paths=2000, seed=9)
    b = simulate(0.2, gaussian(1.0), t_max=5, n_paths=2000, seed=9)
    c = simulate(0.2, gaussian(1.0), t_max=5, n_paths=2000, seed=10)
    assert np.array_equal(a.z, b.z)
    assert not np.array_equal(a.z, c.z)


def test_blocks_independent_of_scheduling(monkeypatch):
    # paths are produced in fixed-size blocks keyed by block index, so the
    # ensemble must not depend on how many blocks the path count spans; the
    # step-major blocks must give exactly the paths of a path-major loop over
    # strided columns that applies the same ufuncs (2500 paths in blocks of
    # 1000 end in a partial block)
    import cumvol.montecarlo as mc
    monkeypatch.setattr(mc, "BLOCK_PATHS", 1000)
    g, t_max, n = 0.2, 32, 2500
    for noise in (gaussian(1.0), lorentzian(0.5),
                  cv.tabulated([(-0.8, 0.2), (-0.1, 1.0), (0.3, 0.7), (1.2, 0.05)])):
        split = mc.simulate(g, noise, t_max=t_max, n_paths=n, seed=77)
        children = np.random.SeedSequence(77).spawn(3)
        manual = np.vstack([
            noise.sample_with(np.random.default_rng(children[bi]),
                              (min(bi * 1000 + 1000, n) - bi * 1000, t_max))
            for bi in range(3)])
        s = np.cumsum(manual, axis=1) + g * np.arange(1, t_max + 1)
        z = np.zeros((n, t_max + 1))
        for t in range(1, t_max + 1):
            x, y = z[:, t - 1], s[:, t - 1]
            z[:, t] = np.maximum(x, y) + np.log1p(np.exp(np.negative(np.abs(x - y))))
        assert np.array_equal(split.z, z), noise.label()
        assert np.array_equal(split.dz, np.diff(z, axis=1)), noise.label()


def _row_logaddexp(x, y):
    out, buf = np.array(y, dtype=float), np.empty(np.shape(x))
    with np.errstate(over="ignore", invalid="ignore"):
        _logaddexp_into(np.asarray(x, dtype=float), out, buf)
    return out


def test_row_logaddexp_kernel_matches_numpy():
    # the recurrence's row kernel is np.logaddexp's formula in SIMD ufuncs;
    # np.logaddexp stays the reference, within a few ulp of the result
    rng = np.random.default_rng(2024)
    n = 100_000
    x = np.abs(rng.normal(0.0, 30.0, n))  # the engine's z_{t-1} >= 0
    mag = 10.0 ** rng.uniform(0.0, 300.0, n)
    pairs = [
        (x, x + rng.normal(0.0, 5.0, n)),
        (x, x + rng.uniform(40.0, 800.0, n) * rng.choice([-1.0, 1.0], n)),  # gaps > 40
        (mag, mag + rng.normal(0.0, 3.0, n)),
        (mag, rng.permutation(mag)),
        (mag, -mag),
    ]
    for a, b in pairs:
        for u, v in ((a, b), (b, a)):
            ref = np.logaddexp(u, v)
            assert np.all(np.abs(_row_logaddexp(u, v) - ref) <= 4 * np.spacing(np.abs(ref)))
    # signed operands can cancel to a result near 0: a few ulp of the larger magnitude
    u = rng.normal(0.0, 30.0, n)
    v = u + rng.normal(0.0, 5.0, n)
    ref = np.logaddexp(u, v)
    scale = np.maximum(np.abs(ref), np.maximum(np.abs(u), np.abs(v)))
    assert np.all(np.abs(_row_logaddexp(u, v) - ref) <= 4 * np.spacing(scale))
    # exact where logaddexp has a closed form
    for a in (x, mag, u):
        assert np.array_equal(_row_logaddexp(a, a), np.logaddexp(a, a))
        assert np.array_equal(_row_logaddexp(a, np.full(n, -np.inf)), a)
        assert np.array_equal(_row_logaddexp(np.full(n, -np.inf), a), a)
    # inf - inf is left non-finite for the finiteness check, without a warning
    assert not np.isfinite(_row_logaddexp([np.inf], [np.inf])).any()
    with pytest.raises(cv.DomainError, match="overflowed"):
        simulate(1e308, gaussian(1.0), t_max=3, n_paths=10, seed=1)


def test_stream_matches_in_memory_ensemble(monkeypatch):
    # 12 345 paths in blocks of 1000 end in a partial block; the streamed KS,
    # summary and head rows must equal what the in-memory ensemble gives
    import cumvol.montecarlo as mc
    monkeypatch.setattr(mc, "BLOCK_PATHS", 1000)
    g, noise, n = 0.2, gaussian(1.0), 12_345
    cfg = cv.EvolutionConfig(g=g, noise=noise, grid=cv.default_z_grid(g, noise, 4),
                             horizon=4, convergence_tol=1e-300)
    tr = cv.evolve_z(cfg)
    targets = {t: tr.density(t) for t in (4, 1, 3)}
    run = mc.simulate_stream(g, noise, t_max=4, n_paths=n, seed=77, targets=targets,
                             head_paths=2500)
    e = mc.simulate(g, noise, t_max=4, n_paths=n, seed=77)
    assert list(run.ks) == [4, 1, 3]
    for t, p in targets.items():
        assert run.ks[t] == empirical_cdf_distance(e, t, p) > 0.0
    assert run.summary == e.summary()
    assert np.array_equal(run.head, e.z[:2500])
    # the blockwise merge against plain two-pass reductions over all paths
    two_pass = {"mean_z": e.z[:, 1:].mean(axis=0), "var_z": e.z[:, 1:].var(axis=0, ddof=1),
                "mean_dz": e.dz.mean(axis=0), "var_dz": e.dz.var(axis=0, ddof=1)}
    for key, values in two_pass.items():
        np.testing.assert_allclose(run.summary[key], values, rtol=1e-12, atol=0.0)


def test_path_monotonicity_and_support():
    e = simulate(0.2, gaussian(1.0), t_max=20, n_paths=5000, seed=4)
    assert np.all(e.z >= 0.0)
    assert np.all(e.dz > 0.0)
    e2 = simulate(-0.1, lorentzian(0.5), t_max=15, n_paths=5000, seed=5)
    assert np.all(e2.z >= 0.0)
    assert np.all(e2.dz >= 0.0)  # tiny increments may round to zero


def test_reciprocal_increment_identity_per_path():
    e = simulate(0.2, gaussian(1.0), t_max=20, n_paths=1000, seed=6, keep_draws=True)
    assert reciprocal_increment_gap(e, 20) < 1e-10
    assert reciprocal_increment_gap(e, 7) < 1e-10
    plain = simulate(0.2, gaussian(1.0), t_max=5, n_paths=10, seed=6)
    with pytest.raises(ValueError):
        reciprocal_increment_gap(plain, 5)


def test_empirical_volatility_deterministic_ensemble_is_zero():
    e = simulate(0.2, SPIKE, t_max=10, n_paths=500, seed=8)
    var, se = empirical_volatility(e, 10)
    assert var == pytest.approx(0.0, abs=1e-18)
    assert se == pytest.approx(0.0, abs=1e-18)


def test_empirical_volatility_matches_narrow_formula():
    g, sig = 0.1, 0.05
    e = simulate(g, gaussian(sig), t_max=50, n_paths=100_000, seed=12)
    var, se = empirical_volatility(e, 50)
    target = sig**2 * math.tanh(g / 2)
    assert abs(var - target) < 3 * se
    assert se > 0.0


def test_volatility_below_noise_variance_at_large_t():
    e = simulate(0.3, gaussian(0.5), t_max=60, n_paths=50_000, seed=13)
    var, _ = empirical_volatility(e, 60)
    sample_noise_var = float(np.var(gaussian(0.5).sample(50_000, seed=14), ddof=1))
    assert var < sample_noise_var


def test_ks_against_own_density_is_sampling_noise():
    # draw the "paths" straight from a gridded density and compare back
    grid = cell_grid(8.0, 2000)
    target = GriddedPdf(grid, np.exp(-0.5 * ((grid.points() - 3.0) / 0.7) ** 2)).normalized()
    n = 40_000
    rng = np.random.default_rng(15)
    draws = target.quantiles(rng.random(n))
    z = np.zeros((n, 2))
    z[:, 1] = draws
    e = McEnsemble(g=0.0, noise=gaussian(1.0), n_paths=n, t_max=1, seed=15,
                   z=z, dz=np.diff(z, axis=1))
    assert empirical_cdf_distance(e, 1, target) < 1.36 / math.sqrt(n)


def test_ks_spike_versus_spike_density():
    g = 0.2
    e = simulate(g, SPIKE, t_max=3, n_paths=1000, seed=16)
    grid = cell_grid(2.0, 400)
    loc = math.log(1 + math.exp(g))  # z_1 for noiseless paths
    values = np.zeros(grid.n_points)
    values[int(round((loc - grid.x_min) / grid.h))] = 1.0
    p = GriddedPdf(grid, values).normalized()
    # matched point masses: at most one cell's worth of CDF mismatch
    assert empirical_cdf_distance(e, 1, p) <= 1.0


def test_finite_time_volatility_variance_dual_engine():
    # variance of the t=20 growth increment: path oracle vs recursion engine
    g, noise = 0.2, gaussian(1.0)
    cfg = cv.EvolutionConfig(g=g, noise=noise, grid=cv.default_y_grid(g, noise),
                             horizon=20, convergence_tol=1e-300)
    tr = cv.evolve_y(cfg)
    engine_var = cv.volatility_pdf(tr.density(20)).variance()
    e = simulate(g, noise, t_max=20, n_paths=100_000, seed=19)
    mc_var, se = empirical_volatility(e, 20)
    assert abs(mc_var - engine_var) < 3 * se


def test_steady_state_volatility_dual_engine_tabulated():
    # asymmetric tabulated noise with a nonzero mean: no closed form applies,
    # so the steady-state growth-increment variance is checked purely engine
    # against oracle
    noise = cv.tabulated([(-0.5, 0.4), (0.0, 1.0), (0.4, 0.6)])
    g = 0.25
    cfg = cv.EvolutionConfig(g=g, noise=noise, grid=cv.default_y_grid(g, noise),
                             horizon=3000, convergence_tol=1e-10)
    rep = cv.steady_state_volatility(cfg)
    e = simulate(g, noise, t_max=60, n_paths=100_000, seed=23)
    mc_var, se = empirical_volatility(e, 60)
    assert abs(mc_var - rep.variance) < 3 * se


def test_ks_dual_engine_gaussian():
    g, noise = 0.2, gaussian(1.0)
    cfg = cv.EvolutionConfig(g=g, noise=noise, grid=cv.default_z_grid(g, noise, 10),
                             horizon=10, convergence_tol=1e-300)
    tr = cv.evolve_z(cfg)
    e = simulate(g, noise, t_max=10, n_paths=100_000, seed=17)
    assert empirical_cdf_distance(e, 10, tr.density(10)) < 0.01


def test_ks_dual_engine_tabulated_asymmetric():
    # third noise family against the oracle, with an asymmetric table
    noise = cv.tabulated([(-0.8, 0.2), (-0.1, 1.0), (0.3, 0.7), (1.2, 0.05)])
    g = 0.15
    cfg = cv.EvolutionConfig(g=g, noise=noise, grid=cv.default_z_grid(g, noise, 10),
                             horizon=10, convergence_tol=1e-300)
    tr = cv.evolve_z(cfg)
    e = simulate(g, noise, t_max=10, n_paths=50_000, seed=21)
    for t in (1, 5, 10):
        assert empirical_cdf_distance(e, t, tr.density(t)) < 0.012


def test_ks_dual_engine_negative_drift():
    # the forward recursion stays valid for g < 0 (totals saturate)
    g, noise = -0.15, gaussian(0.5)
    cfg = cv.EvolutionConfig(g=g, noise=noise, grid=cv.default_z_grid(g, noise, 12),
                             horizon=12, convergence_tol=1e-300)
    tr = cv.evolve_z(cfg)
    e = simulate(g, noise, t_max=12, n_paths=50_000, seed=22)
    assert empirical_cdf_distance(e, 12, tr.density(12)) < 0.012
    assert tr.means()[-1] < math.log(1.0 / (1.0 - math.exp(g))) + 1.0


def test_summary_and_histogram():
    e = simulate(0.2, gaussian(0.5), t_max=6, n_paths=3000, seed=18)
    s = e.summary()
    assert len(s["mean_z"]) == 6 and len(s["var_dz"]) == 6
    assert s["mean_z"][-1] > s["mean_z"][0]
    counts, edges = e.histogram(3, bins=40)
    width = edges[1] - edges[0]
    assert (counts * width).sum() == pytest.approx(1.0, rel=1e-9)
    with pytest.raises(ValueError):
        e.histogram(7)


def test_input_validation():
    with pytest.raises(ValueError):
        simulate(0.2, gaussian(1.0), t_max=0, n_paths=10, seed=0)
    with pytest.raises(ValueError):
        simulate(0.2, gaussian(1.0), t_max=5, n_paths=0, seed=0)
    with pytest.raises(ValueError):
        simulate_stream(0.2, gaussian(1.0), t_max=5, n_paths=0, seed=0)
    e = simulate(0.2, gaussian(1.0), t_max=5, n_paths=10, seed=0)
    with pytest.raises(ValueError):
        empirical_volatility(e, 6)
    p = GriddedPdf(cell_grid(8.0, 64), np.ones(64)).normalized()
    with pytest.raises(ValueError):
        simulate_stream(0.2, gaussian(1.0), t_max=5, n_paths=10, seed=0, targets={6: p})
