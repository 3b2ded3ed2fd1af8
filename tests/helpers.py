"""Density, step, run, Monte Carlo and narrow-noise helpers that only the tests use."""

import math

import numpy as np

import cumvol.montecarlo as mc
from cumvol import DomainError, GriddedPdf, default_y_grid, ybar
from cumvol.evolution import StepOperator, _assemble, _check_normalized


def pdf_at(noise, x):
    """Density of a noise model at x (vectorised; a float for a scalar x): the
    reference the noise CDFs and kernels are checked against. Tabulated noise
    is its linearly interpolated table, zero outside the support."""
    arr = np.asarray(x, dtype=float)
    if noise.kind == "gaussian":
        out = np.exp(-0.5 * (arr / noise.sigma) ** 2) / (noise.sigma * math.sqrt(2.0 * math.pi))
    elif noise.kind == "lorentzian":
        out = noise.gamma / (math.pi * (arr * arr + noise.gamma * noise.gamma))
    else:
        out = np.interp(arr, noise.xs, noise.ys, left=0.0, right=0.0)
    return float(out) if arr.ndim == 0 else out


def normalized(p: GriddedPdf) -> GriddedPdf:
    """p divided by its trapezoidal integral."""
    total = p.integral()
    if not total > 0.0:
        raise ValueError("cannot normalise a zero-mass density")
    return GriddedPdf(p.grid, p.values / total, p.truncated_mass)


def interp_at(p: GriddedPdf, x):
    """Linear interpolation of a density; zero outside its grid."""
    return np.interp(x, p.grid.points(), p.values, left=0.0, right=0.0)


def warp_step(p: GriddedPdf, noise, g: float) -> GriddedPdf:
    """One convolve-then-warp step of a normalised density on a grid tiling
    [0, upper], renormalised, with newly clipped mass in ``truncated_mass``."""
    op = StepOperator(g, noise, p.grid)
    _check_normalized(p)
    cells, new_trunc = op.apply(p.node_masses())
    return _assemble(p.grid, cells, p.truncated_mass, new_trunc)[0]


def ks_distance(p: GriddedPdf, q: GriddedPdf) -> float:
    """Largest gap between the node CDFs of two densities on one grid."""
    if p.grid != q.grid:
        raise ValueError("distance requires both densities on the same grid")
    # the cumulative trapezoid at the nodes, starting at 0
    p_cdf, q_cdf = (np.concatenate(([0.0], np.cumsum(0.5 * (d.values[1:] + d.values[:-1])
                                                      * d.grid.h))) for d in (p, q))
    return float(np.max(np.abs(p_cdf - q_cdf)))


def y_inputs(g: float, noise, horizon: int = 4000, n_points: int | None = None):
    """``y_steps``' (g, noise, grid, horizon) on the reversed variable's default grid."""
    return g, noise, default_y_grid(g, noise, n_points), horizon


def means(records) -> np.ndarray:
    """The mean of every step of a list of ``StepRecord``s."""
    return np.array([s.pdf.mean() for s in records])


def variances(records) -> np.ndarray:
    """The variance of every step of a list of ``StepRecord``s."""
    return np.array([s.pdf.variance() for s in records])


def block_draws(noise, t_max: int, n_paths: int, seed: int) -> np.ndarray:
    """The (n_paths, t_max) noise draws behind ``simulate_stream``'s paths.

    Block i holds paths i*BLOCK_PATHS onwards and draws them in one call from
    a generator seeded with the i-th child of SeedSequence(seed).
    """
    block = mc.BLOCK_PATHS
    children = np.random.SeedSequence(seed).spawn(-(-n_paths // block))
    return np.vstack([
        noise.sample_with(np.random.default_rng(child),
                          (min(block, n_paths - bi * block), t_max))
        for bi, child in enumerate(children)])


def reciprocal_increment_gap(g: float, draws: np.ndarray, t: int) -> float:
    """Max relative gap between the two routes to Y_t = Z_t/(Z_t - Z_{t-1}).

    Route one builds Z_t and its last term from the draws a_1..a_t; route two
    evaluates the reversed-and-negated sum sum_{j=0..t} e^{-g j} e^{-a_t} ...
    e^{-a_{t-j+1}}. The two are equal in exact arithmetic; the gap measures
    only floating-point noise.
    """
    a = draws[:, :t]
    s = np.cumsum(a, axis=1) + g * np.arange(1, t + 1)
    q = np.exp(s)  # direct product terms
    y_direct = (1.0 + q.sum(axis=1)) / q[:, -1]
    s_rev = np.cumsum(-a[:, ::-1], axis=1) - g * np.arange(1, t + 1)
    y_reindexed = 1.0 + np.exp(s_rev).sum(axis=1)
    return float(np.max(np.abs(y_direct - y_reindexed) / y_reindexed))


def bootstrap_variance(samples: np.ndarray, key, n_boot: int = 200) -> tuple[float, float]:
    """Sample variance with a bootstrap standard error (paths resampled with replacement).

    The bootstrap makes the uncertainty estimate distribution-agnostic, which
    matters for heavy-tailed noise; ``key`` seeds its generator.
    """
    var = float(np.var(samples, ddof=1))
    rng = np.random.default_rng(np.random.SeedSequence(key))
    n = samples.size
    boot = np.empty(n_boot)
    for i in range(n_boot):
        boot[i] = np.var(samples[rng.integers(0, n, n)], ddof=1)
    return var, float(np.std(boot, ddof=1))


def sample_ks(samples: np.ndarray, p: GriddedPdf) -> float:
    """KS statistic between the empirical CDF of ``samples`` and a gridded density.

    Samples are counted strictly below each of the density's cell edges, as
    ``simulate_stream`` counts them for its ``targets``.
    """
    below = np.searchsorted(np.sort(samples), p.grid.cell_edges(), side="left")
    return float(np.max(np.abs(below / samples.size - mc._ks_model(p))))


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
