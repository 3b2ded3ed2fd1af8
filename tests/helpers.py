"""Density, trace and Monte Carlo helpers that only the tests use."""

import numpy as np

import cumvol.montecarlo as mc
from cumvol import GriddedPdf


def normalized(p: GriddedPdf) -> GriddedPdf:
    """p divided by its trapezoidal integral."""
    total = p.integral()
    if not total > 0.0:
        raise ValueError("cannot normalise a zero-mass density")
    return GriddedPdf(p.grid, p.values / total, p.truncated_mass)


def ks_distance(p: GriddedPdf, q: GriddedPdf) -> float:
    """Largest gap between the node CDFs of two densities on one grid."""
    if not p.grid.close_to(q.grid):
        raise ValueError("distance requires both densities on the same grid")
    return float(np.max(np.abs(p.cdf_nodes() - q.cdf_nodes())))


def means(trace) -> np.ndarray:
    """The mean of every step of an ``EvolutionTrace``."""
    return np.array([s.mean for s in trace.steps])


def variances(trace) -> np.ndarray:
    """The variance of every step of an ``EvolutionTrace``."""
    return np.array([s.variance for s in trace.steps])


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
    edges, model = mc._ks_target(p)
    below = np.searchsorted(np.sort(samples), edges, side="left")
    return float(np.max(np.abs(below / samples.size - model)))
