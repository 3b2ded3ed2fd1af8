import math

import numpy as np
import pytest

import cumvol as cv
from cumvol import GridSpec, GriddedPdf, cell_grid, gaussian, lorentzian, simulate_stream
from cumvol.montecarlo import BLOCK_PATHS, TILE_PATHS, _logaddexp_into
from helpers import (
    block_draws,
    bootstrap_variance,
    means,
    normalized,
    reciprocal_increment_gap,
    sample_ks,
)

SPIKE = gaussian(1e-12)


def paths(g, noise, t_max, n_paths, seed):
    """Every simulated path of z, shape (n_paths, t_max + 1)."""
    return simulate_stream(g, noise, t_max=t_max, n_paths=n_paths, seed=seed,
                           head_paths=n_paths).head


def dz_variance(g, noise, t, n_paths, seed):
    """Sample variance of dz_t over the paths, with a bootstrap standard error."""
    z = paths(g, noise, t, n_paths, seed)
    return bootstrap_variance(z[:, t] - z[:, t - 1], (seed, t, 0xB007))


def test_noiseless_paths_reproduce_geometric_sum():
    g = 0.2
    z = paths(g, SPIKE, t_max=10, n_paths=50, seed=1)
    exact = math.log(sum(math.exp(g * j) for j in range(11)))
    assert np.allclose(z[:, 10], exact, atol=1e-9)


def test_zero_drift_noiseless_increments():
    z = paths(0.0, SPIKE, t_max=8, n_paths=10, seed=2)
    dz = np.diff(z, axis=1)
    for t in range(1, 9):
        assert np.allclose(z[:, t], math.log(t + 1.0), atol=1e-9)
        assert np.allclose(dz[:, t - 1], math.log((t + 1.0) / t), atol=1e-9)


def test_seed_determinism_and_sensitivity():
    a = paths(0.2, gaussian(1.0), t_max=5, n_paths=2000, seed=9)
    b = paths(0.2, gaussian(1.0), t_max=5, n_paths=2000, seed=9)
    c = paths(0.2, gaussian(1.0), t_max=5, n_paths=2000, seed=10)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


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
        split = paths(g, noise, t_max=t_max, n_paths=n, seed=77)
        s = np.cumsum(block_draws(noise, t_max, n, 77), axis=1) + g * np.arange(1, t_max + 1)
        z = np.zeros((n, t_max + 1))
        for t in range(1, t_max + 1):
            x, y = z[:, t - 1], s[:, t - 1]
            z[:, t] = np.maximum(x, y) + np.log1p(np.exp(np.negative(np.abs(x - y))))
        assert np.array_equal(split, z), noise.label()


class _WholeTileMoments:
    # the whole-tile reduction the row kernel replaced: axis=1 two-pass
    # moments, merged with the Chan-Golub-LeVeque update
    def __init__(self, k):
        self.n, self.mean, self.m2 = 0, np.zeros(k), np.zeros(k)

    def add(self, x):
        nb = x.shape[1]
        n = self.n + nb
        mb = x.mean(axis=1)
        m2b = np.square(x - mb[:, None]).sum(axis=1)
        delta = mb - self.mean
        self.mean = self.mean + delta * (nb / n)
        self.m2 = self.m2 + m2b + np.square(delta) * (self.n * nb / n)
        self.n = n


def _whole_block_stream(g, noise, t_max, n, seed, targets, head_paths):
    """Summary lists, KS and head from whole step-major blocks, moments merged per tile."""
    import cumvol.montecarlo as mc
    children = np.random.SeedSequence(seed).spawn(-(-n // mc.BLOCK_PATHS))
    jg = g * np.arange(1, t_max + 1)
    zm, dzm = _WholeTileMoments(t_max), _WholeTileMoments(t_max)
    below = {t: 0 for t in targets}
    head = []
    for bi, child in enumerate(children):
        m = min(mc.BLOCK_PATHS, n - bi * mc.BLOCK_PATHS)
        a = noise.sample_with(np.random.default_rng(child), (m, t_max))
        z = np.zeros((t_max + 1, m))
        z[1:] = np.cumsum(a.T, axis=0) + jg[:, None]
        buf = np.empty(m)
        for t in range(1, t_max + 1):
            _logaddexp_into(z[t - 1], z[t], buf)
        for lo in range(0, m, mc.TILE_PATHS):
            tile = z[:, lo:lo + mc.TILE_PATHS]
            zm.add(tile[1:])
            dzm.add(np.diff(tile, axis=0))
        for t, (edges, _) in targets.items():
            below[t] = below[t] + np.searchsorted(np.sort(z[t]), edges, side="left")
        head.append(z[:, :max(head_paths - bi * mc.BLOCK_PATHS, 0)].T)
    summary = {"mean_z": zm.mean.tolist(), "var_z": (zm.m2 / (n - 1)).tolist(),
               "mean_dz": dzm.mean.tolist(), "var_dz": (dzm.m2 / (n - 1)).tolist()}
    ks = {t: mc._ks(below[t], n, model) for t, (_, model) in targets.items()}
    return summary, ks, np.concatenate(head)


def test_row_kernel_matches_whole_block_arithmetic(monkeypatch):
    # the stream produces and reduces each block one step row at a time, in
    # tiles, from draws sampled in chunks; every output must equal the
    # whole-block arithmetic, with moments merged per tile, bit for bit
    # (2500 paths in blocks of 1000 end in a partial block, tiles of 384 end
    # each block in a partial tile, chunks of 128 split every tile, and the
    # head spans tiles and two blocks)
    import cumvol.montecarlo as mc
    monkeypatch.setattr(mc, "BLOCK_PATHS", 1000)
    monkeypatch.setattr(mc, "TILE_PATHS", 384)
    monkeypatch.setattr(mc, "_CHUNK_PATHS", 128)
    g, t_max, n = 0.2, 12, 2500
    grid = cell_grid(30.0, 3000)
    p = normalized(GriddedPdf(grid, np.exp(-np.abs(grid.points() - 4.0) / 3.0)))
    targets = {t: p for t in range(t_max, 0, -1)}
    for noise in (gaussian(1.0), lorentzian(1.0),
                  cv.tabulated([(-0.8, 0.2), (-0.1, 1.0), (0.3, 0.7), (1.2, 0.05)])):
        run = mc.simulate_stream(g, noise, t_max=t_max, n_paths=n, seed=31,
                                 targets=targets, head_paths=1500)
        with np.errstate(over="ignore", invalid="ignore"):
            summary, ks, head = _whole_block_stream(
                g, noise, t_max, n, 31,
                {t: (q.grid.cell_edges(), mc._ks_model(q)) for t, q in targets.items()}, 1500)
        for key, values in summary.items():
            assert run.summary[key] == values, (noise.label(), key)
        assert run.ks == ks and list(run.ks) == list(targets), noise.label()
        assert np.array_equal(run.head, head), noise.label()


def test_tile_size_moves_only_the_moments_roundoff(monkeypatch):
    # tiles split each seeded block without changing its draws or paths:
    # head and KS are identical for tiles of 384 and 1000 paths (neither a
    # multiple of the 2048-path sampling chunk) and of a whole block, and
    # only the per-tile moment merge moves the summary, by roundoff
    import cumvol.montecarlo as mc
    g, t_max, n = 0.2, 6, BLOCK_PATHS + 4500
    grid = cell_grid(20.0, 1000)
    p = normalized(GriddedPdf(grid, np.exp(-0.5 * ((grid.points() - 2.0) / 1.5) ** 2)))
    for noise in (gaussian(1.0), lorentzian(0.5)):
        runs = []
        for tile in (384, 1000, BLOCK_PATHS):
            monkeypatch.setattr(mc, "TILE_PATHS", tile)
            runs.append(simulate_stream(g, noise, t_max=t_max, n_paths=n, seed=5,
                                        targets={2: p, 6: p}, head_paths=BLOCK_PATHS + 10))
        whole = runs[-1]
        for run in runs[:-1]:
            assert np.array_equal(run.head, whole.head), noise.label()
            assert run.ks == whole.ks, noise.label()
            for key in ("mean_z", "var_z", "mean_dz", "var_dz"):
                np.testing.assert_allclose(run.summary[key], whole.summary[key],
                                           rtol=1e-14, atol=0.0, err_msg=key)


def _traced_peak(t_max, targets=None):
    """Traced peak memory of a stream of two full blocks and a partial one."""
    import tracemalloc
    tracemalloc.start()
    try:
        simulate_stream(0.2, gaussian(1.0), t_max=t_max, n_paths=2 * BLOCK_PATHS + 1000,
                        seed=3, targets=targets)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _bump(grid):
    """A normalised Gaussian bump on a grid."""
    return normalized(GriddedPdf(grid, np.exp(-0.5 * ((grid.points() - 5.0) / 2.0) ** 2)))


def _every_step_target(t_max):
    p = _bump(cell_grid(40.0, 512))
    return {t: p for t in range(1, t_max + 1)}


def test_stream_holds_one_tile_of_draws():
    # two full blocks and a partial one, 30 steps, every step a KS target: the
    # stream keeps one step-major tile of draws plus a few rows, where a
    # step-major block of draws peaked at 19.3 MB and whole-block passes
    # above five blocks
    t_max = 30
    assert _traced_peak(t_max, _every_step_target(t_max)) < 2 * t_max * TILE_PATHS * 8


def test_ks_counts_add_less_than_a_row(monkeypatch):
    # the KS counts work in the stream's spare rows: 30 targets add their own
    # tallies, one edge array and less than one tile row of doubles to the
    # traced peak. Each target has its own grid, equal to or a prefix of the
    # longest, so only edges shared by origin and spacing keep it to one
    # array (a copy per target adds 0.95 MB here). Small sampling chunks keep
    # the draws' own temporaries below what the counts add.
    import cumvol.montecarlo as mc
    monkeypatch.setattr(mc, "_CHUNK_PATHS", 64)
    t_max, n = 30, 4096
    longest = cell_grid(40.0, n)
    targets = {t: _bump(GridSpec(longest.x_min, longest.h, n - t % 3)) for t in range(1, t_max + 1)}
    tallies = sum((p.grid.n_points + 2) * np.dtype(np.intp).itemsize for p in targets.values())
    extra = _traced_peak(t_max, targets) - _traced_peak(t_max)
    assert extra < (n + 1) * 8 + tallies + TILE_PATHS * 8


def test_targets_share_the_longest_grids_edges():
    # a prefix grid's edges are its parent's first ones, bit for bit, so the
    # KS counts of every target read views of one array
    longest = cell_grid(40.0, 512)
    targets = {t: _bump(GridSpec(longest.x_min, longest.h, k))
               for t, k in enumerate((512, 300, 512), start=1)}

    def ks(targets):
        return simulate_stream(0.2, gaussian(1.0), t_max=3, n_paths=5000, seed=9,
                               targets=targets).ks

    assert ks(targets) == {t: ks({t: p})[t] for t, p in targets.items()}


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
        simulate_stream(1e308, gaussian(1.0), t_max=3, n_paths=10, seed=1)


def test_stream_reductions_match_whole_ensemble(monkeypatch):
    # 12 345 paths in blocks of 1000 end in a partial block; the streamed KS
    # counts and the per-tile moment merge must agree with reductions over
    # the whole ensemble, and a short head must be the first rows of a full one
    import cumvol.montecarlo as mc
    monkeypatch.setattr(mc, "BLOCK_PATHS", 1000)
    g, noise, n = 0.2, gaussian(1.0), 12_345
    tr = list(cv.z_steps(g, noise, cv.default_z_grid(g, noise, 4), 4))
    targets = {t: tr[t - 1].pdf for t in (4, 1, 3)}
    run = mc.simulate_stream(g, noise, t_max=4, n_paths=n, seed=77, targets=targets,
                             head_paths=2500)
    full = mc.simulate_stream(g, noise, t_max=4, n_paths=n, seed=77, head_paths=n)
    z = full.head
    assert list(run.ks) == [4, 1, 3] and full.ks == {}
    for t, p in targets.items():
        assert run.ks[t] == sample_ks(z[:, t], p) > 0.0
    assert run.summary == full.summary
    assert np.array_equal(run.head, z[:2500])
    # the per-tile merge against plain two-pass reductions over all paths
    dz = np.diff(z, axis=1)
    two_pass = {"mean_z": z[:, 1:].mean(axis=0), "var_z": z[:, 1:].var(axis=0, ddof=1),
                "mean_dz": dz.mean(axis=0), "var_dz": dz.var(axis=0, ddof=1)}
    for key, values in two_pass.items():
        np.testing.assert_allclose(run.summary[key], values, rtol=1e-12, atol=0.0)


def test_path_monotonicity_and_support():
    z = paths(0.2, gaussian(1.0), t_max=20, n_paths=5000, seed=4)
    assert np.all(z >= 0.0)
    assert np.all(np.diff(z, axis=1) > 0.0)
    z2 = paths(-0.1, lorentzian(0.5), t_max=15, n_paths=5000, seed=5)
    assert np.all(z2 >= 0.0)
    assert np.all(np.diff(z2, axis=1) >= 0.0)  # tiny increments may round to zero


def test_reciprocal_increment_identity_per_path():
    draws = block_draws(gaussian(1.0), t_max=20, n_paths=1000, seed=6)
    assert reciprocal_increment_gap(0.2, draws, 20) < 1e-10
    assert reciprocal_increment_gap(0.2, draws, 7) < 1e-10


def test_empirical_volatility_deterministic_ensemble_is_zero():
    var, se = dz_variance(0.2, SPIKE, 10, n_paths=500, seed=8)
    assert var == pytest.approx(0.0, abs=1e-18)
    assert se == pytest.approx(0.0, abs=1e-18)


def test_empirical_volatility_matches_narrow_formula():
    g, sig = 0.1, 0.05
    var, se = dz_variance(g, gaussian(sig), 50, n_paths=100_000, seed=12)
    target = sig**2 * math.tanh(g / 2)
    assert abs(var - target) < 3 * se
    assert se > 0.0


def test_volatility_below_noise_variance_at_large_t():
    var, _ = dz_variance(0.3, gaussian(0.5), 60, n_paths=50_000, seed=13)
    sample_noise_var = float(np.var(gaussian(0.5).sample_with(np.random.default_rng(14), (50_000,)), ddof=1))
    assert var < sample_noise_var


def test_ks_against_own_density_is_sampling_noise():
    # draw the "paths" straight from a gridded density and compare back
    grid = cell_grid(8.0, 2000)
    target = normalized(GriddedPdf(grid, np.exp(-0.5 * ((grid.points() - 3.0) / 0.7) ** 2)))
    n = 40_000
    rng = np.random.default_rng(15)
    draws = target.quantiles(rng.random(n))
    assert sample_ks(draws, target) < 1.36 / math.sqrt(n)


def test_ks_spike_versus_spike_density():
    g = 0.2
    grid = cell_grid(2.0, 400)
    loc = math.log(1 + math.exp(g))  # z_1 for noiseless paths
    values = np.zeros(grid.n_points)
    values[int(round((loc - grid.x_min) / grid.h))] = 1.0
    p = normalized(GriddedPdf(grid, values))
    run = simulate_stream(g, SPIKE, t_max=3, n_paths=1000, seed=16, targets={1: p})
    # matched point masses: at most one cell's worth of CDF mismatch
    assert run.ks[1] <= 1.0


def test_finite_time_volatility_variance_dual_engine():
    # variance of the t=20 growth increment: path oracle vs recursion engine
    g, noise = 0.2, gaussian(1.0)
    tr = list(cv.y_steps(g, noise, cv.default_y_grid(g, noise), 20, tol=1e-300))  # all 20 steps
    engine_var = cv.volatility_pdf(tr[19].pdf).variance()
    mc_var, se = dz_variance(g, noise, 20, n_paths=100_000, seed=19)
    assert abs(mc_var - engine_var) < 3 * se


def test_steady_state_volatility_dual_engine_tabulated():
    # asymmetric tabulated noise with a nonzero mean: no closed form applies,
    # so the steady-state growth-increment variance is checked purely engine
    # against oracle
    noise = cv.tabulated([(-0.5, 0.4), (0.0, 1.0), (0.4, 0.6)])
    g = 0.25
    rep = cv.steady_state_volatility(g, noise)
    mc_var, se = dz_variance(g, noise, 60, n_paths=100_000, seed=23)
    assert abs(mc_var - rep.variance) < 3 * se


def test_ks_dual_engine_gaussian():
    g, noise = 0.2, gaussian(1.0)
    tr = list(cv.z_steps(g, noise, cv.default_z_grid(g, noise, 10), 10))
    run = simulate_stream(g, noise, t_max=10, n_paths=100_000, seed=17,
                          targets={10: tr[9].pdf})
    assert run.ks[10] < 0.01


def test_ks_dual_engine_tabulated_asymmetric():
    # third noise family against the oracle, with an asymmetric table
    noise = cv.tabulated([(-0.8, 0.2), (-0.1, 1.0), (0.3, 0.7), (1.2, 0.05)])
    g = 0.15
    tr = list(cv.z_steps(g, noise, cv.default_z_grid(g, noise, 10), 10))
    run = simulate_stream(g, noise, t_max=10, n_paths=50_000, seed=21,
                          targets={t: tr[t - 1].pdf for t in (1, 5, 10)})
    for t in (1, 5, 10):
        assert run.ks[t] < 0.012


def test_ks_dual_engine_negative_drift():
    # the forward recursion stays valid for g < 0 (totals saturate)
    g, noise = -0.15, gaussian(0.5)
    tr = list(cv.z_steps(g, noise, cv.default_z_grid(g, noise, 12), 12))
    run = simulate_stream(g, noise, t_max=12, n_paths=50_000, seed=22,
                          targets={12: tr[11].pdf})
    assert run.ks[12] < 0.012
    assert means(tr)[-1] < math.log(1.0 / (1.0 - math.exp(g))) + 1.0


def test_summary_shape():
    s = simulate_stream(0.2, gaussian(0.5), t_max=6, n_paths=3000, seed=18).summary
    assert len(s["mean_z"]) == 6 and len(s["var_dz"]) == 6
    assert s["mean_z"][-1] > s["mean_z"][0]


def test_input_validation():
    with pytest.raises(ValueError):
        simulate_stream(0.2, gaussian(1.0), t_max=0, n_paths=10, seed=0)
    with pytest.raises(ValueError):
        simulate_stream(0.2, gaussian(1.0), t_max=5, n_paths=0, seed=0)
    with pytest.raises(ValueError, match="one path has no sample variance"):
        simulate_stream(0.2, gaussian(1.0), t_max=5, n_paths=1, seed=0)
    p = normalized(GriddedPdf(cell_grid(8.0, 64), np.ones(64)))
    with pytest.raises(ValueError):
        simulate_stream(0.2, gaussian(1.0), t_max=5, n_paths=10, seed=0, targets={6: p})
