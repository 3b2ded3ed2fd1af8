"""Brute-force path simulator used as an independent oracle.

Simulates Z_t = sum_{j=0..t} e^{g j} e^{a_1} ... e^{a_j} directly. The sum is
accumulated in log space (z_t = logaddexp(z_{t-1}, g t + a_1 + ... + a_t)),
which cannot overflow while the log terms themselves fit in float64; a path
that leaves that range raises ``DomainError``. The recurrence applies
``np.logaddexp``'s formula, max(x, y) + log1p(exp(-|x - y|)), as whole-row
ufuncs that numpy runs as SIMD loops, so paths differ from a ``np.logaddexp``
loop by a few ulp (at most 4).

Paths are generated in fixed-size blocks, each from a seed derived from the
block index, so the ensemble is reproducible and independent of how blocks
are scheduled. A block is step-major: row t holds z_t of every path in the
block, so the recurrence and all per-step reductions run over contiguous
rows. ``simulate`` transposes the blocks into the path-major in-memory
``McEnsemble``; ``simulate_stream`` folds each block into per-step moments and
KS counts and so holds one block at a time. Both reduce through the same
functions on step-major rows, so their summaries and KS statistics agree bit
for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .noise import NoiseModel
from .pdfgrid import GriddedPdf

__all__ = [
    "McEnsemble",
    "McStream",
    "simulate",
    "simulate_stream",
    "empirical_volatility",
    "empirical_cdf_distance",
    "reciprocal_increment_gap",
]

BLOCK_PATHS = 65536


@dataclass(frozen=True)
class McEnsemble:
    """Simulated paths of log cumulative production.

    ``z`` has shape (n_paths, t_max + 1) with z[:, 0] = 0; ``dz`` holds the
    per-step increments. ``draws`` keeps the raw noise draws when requested
    (needed for per-path identity checks).
    """

    g: float
    noise: NoiseModel
    n_paths: int
    t_max: int
    seed: int
    z: np.ndarray
    dz: np.ndarray
    draws: np.ndarray | None = None

    def summary(self) -> dict:
        """Per-step means and variances of z and dz, merged block by block."""
        zm, dzm = _Moments(self.t_max), _Moments(self.t_max)
        for lo in range(0, self.n_paths, BLOCK_PATHS):
            zm.add(np.ascontiguousarray(self.z[lo:lo + BLOCK_PATHS, 1:].T))
            dzm.add(np.ascontiguousarray(self.dz[lo:lo + BLOCK_PATHS].T))
        return _summary(self.g, self.noise, self.n_paths, self.t_max, self.seed, zm, dzm)

    def histogram(self, t: int, bins: int = 100, variable: str = "z"):
        """Empirical density histogram of z_t or dz_t (density-normalised)."""
        samples = self._samples(t, variable)
        counts, edges = np.histogram(samples, bins=bins, density=True)
        return counts, edges

    def _samples(self, t: int, variable: str) -> np.ndarray:
        if not 1 <= t <= self.t_max:
            raise ValueError(f"t must lie in 1..{self.t_max}")
        if variable == "z":
            return self.z[:, t]
        if variable == "dz":
            return self.dz[:, t - 1]
        raise ValueError(f"unknown variable {variable!r}")


@dataclass(frozen=True)
class McStream:
    """What the command line reads from an ensemble, without keeping it.

    For the ensemble ``simulate`` returns from the same arguments, ``summary``
    equals its ``summary()``, ``ks[t]`` equals ``empirical_cdf_distance`` of
    its z_t against ``targets[t]``, and ``head`` equals ``z[:head_paths]``,
    all bit for bit.
    """

    summary: dict
    ks: dict
    head: np.ndarray


class _Moments:
    """Per-step count, mean and sum of squared deviations of a block stream.

    Each block is step-major (one row per step, one column per path). It is
    reduced two-pass along its rows and merged into the running totals with
    the pairwise update of Chan, Golub & LeVeque (1983), so the result does
    not lose precision with the number of paths.
    """

    def __init__(self, k: int):
        self.n = 0
        self.mean = np.zeros(k)
        self.m2 = np.zeros(k)

    def add(self, x: np.ndarray) -> None:
        nb = x.shape[1]
        n = self.n + nb
        with np.errstate(over="ignore", invalid="ignore"):  # non-finite moments fail at output
            mb = x.mean(axis=1)
            dev = x - mb[:, None]
            m2b = np.square(dev, out=dev).sum(axis=1)
            delta = mb - self.mean
            self.mean = self.mean + delta * (nb / n)
            self.m2 = self.m2 + m2b + np.square(delta) * (self.n * nb / n)
        self.n = n

    def variance(self) -> np.ndarray:
        return self.m2 / (self.n - 1)


def _summary(g, noise, n_paths, t_max, seed, zm: _Moments, dzm: _Moments) -> dict:
    return {
        "g": g,
        "noise": noise.label(),
        "n_paths": n_paths,
        "t_max": t_max,
        "seed": seed,
        "mean_z": zm.mean.tolist(),
        "var_z": zm.variance().tolist(),
        "mean_dz": dzm.mean.tolist(),
        "var_dz": dzm.variance().tolist(),
    }


def _ks_target(p: GriddedPdf) -> tuple[np.ndarray, np.ndarray]:
    """(cell edges, model CDF at each edge) of a gridded density."""
    edges, cum = p.edge_cdf()
    edges = np.where(np.abs(edges) < 1e-9 * p.grid.h, 0.0, edges)  # snap fp residue
    return edges, (1.0 - p.truncated_mass) * cum / cum[-1]


def _ks(below: np.ndarray, n: int, model: np.ndarray) -> float:
    """KS statistic from the counts of samples strictly below each edge."""
    return float(np.max(np.abs(below / n - model)))


def _check_sizes(t_max: int, n_paths: int) -> None:
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    if t_max < 1:
        raise ValueError("t_max must be >= 1")


def _logaddexp_into(x: np.ndarray, y: np.ndarray, buf: np.ndarray) -> None:
    """y <- log(e^x + e^y) as max(x, y) + log1p(exp(-|x - y|)), using ``buf``.

    This is ``np.logaddexp``'s own formula written as whole-row ufuncs, which
    numpy dispatches to SIMD loops where ``logaddexp`` has none; results
    differ from it by a few ulp at most. Run under ``np.errstate`` that
    ignores overflow and invalid values: a non-finite result (``inf - inf``)
    is left for the caller's finiteness check.
    """
    np.subtract(x, y, out=buf)
    np.abs(buf, out=buf)
    np.negative(buf, out=buf)
    np.exp(buf, out=buf)
    np.log1p(buf, out=buf)
    np.maximum(x, y, out=y)
    np.add(y, buf, out=y)


def _blocks(g: float, noise: NoiseModel, t_max: int, n_paths: int, seed: int):
    """Yield (z, draws) block by block, z step-major of shape (t_max + 1, block paths).

    Block i holds paths i*BLOCK_PATHS onwards and takes its noise from the
    i-th child of SeedSequence(seed); ``draws`` is path-major, as sampled.
    """
    n_blocks = (n_paths + BLOCK_PATHS - 1) // BLOCK_PATHS
    children = np.random.SeedSequence(seed).spawn(n_blocks)
    with np.errstate(over="ignore"):  # an overflow is reported by the finiteness check
        jg = g * np.arange(1, t_max + 1)

    for bi, child in enumerate(children):
        lo = bi * BLOCK_PATHS
        hi = min(lo + BLOCK_PATHS, n_paths)
        a = noise.sample_with(np.random.default_rng(child), (hi - lo, t_max))
        z = np.empty((t_max + 1, hi - lo))
        z[0] = 0.0
        z[1:] = a.T  # the one transpose: row t now holds every path's t-th draw
        buf = np.empty(hi - lo)
        with np.errstate(over="ignore", invalid="ignore"):
            for t in range(2, t_max + 1):
                z[t] += z[t - 1]  # running sum, as np.cumsum adds
            z[1:] += jg[:, None]  # row t is now the log of every path's t-th term
            for t in range(1, t_max + 1):
                _logaddexp_into(z[t - 1], z[t], buf)
        if not np.all(np.isfinite(z)):
            raise DomainError(
                f"path accumulation overflowed for g={g:g} with {noise.label()} noise: "
                "log cumulative production exceeds the float64 range")
        yield z, a


def simulate(g: float, noise: NoiseModel, t_max: int, n_paths: int, seed: int,
             keep_draws: bool = False) -> McEnsemble:
    """Simulate the cumulative-production process path by path."""
    _check_sizes(t_max, n_paths)
    z = np.empty((n_paths, t_max + 1))
    draws = np.empty((n_paths, t_max)) if keep_draws else None
    lo = 0
    for zb, a in _blocks(g, noise, t_max, n_paths, seed):
        hi = lo + zb.shape[1]
        z[lo:hi] = zb.T
        if keep_draws:
            draws[lo:hi] = a
        lo = hi
    return McEnsemble(g=g, noise=noise, n_paths=n_paths, t_max=t_max, seed=seed,
                      z=z, dz=np.diff(z, axis=1), draws=draws)


def simulate_stream(g: float, noise: NoiseModel, t_max: int, n_paths: int, seed: int,
                    targets: dict | None = None, head_paths: int = 0) -> McStream:
    """Simulate like ``simulate`` but hold only one block of paths at a time.

    Each block is folded into per-step moments of z and dz and, for each
    step t in ``targets`` (a dict t -> GriddedPdf of z_t), into the counts
    of z_t samples strictly below that density's cell edges. The first
    ``head_paths`` paths of z are kept, path-major.
    """
    _check_sizes(t_max, n_paths)
    targets = {t: _ks_target(p) for t, p in (targets or {}).items()}
    if any(not 1 <= t <= t_max for t in targets):
        raise ValueError(f"KS target steps must lie in 1..{t_max}")
    steps = list(targets)
    below = {t: 0 for t in steps}
    zm, dzm = _Moments(t_max), _Moments(t_max)
    head = []
    kept = 0
    for zb, _ in _blocks(g, noise, t_max, n_paths, seed):
        zm.add(zb[1:])
        dzm.add(np.diff(zb, axis=0))
        if steps:
            rows = zb[steps]
            rows.sort(axis=1)
            for t, row in zip(steps, rows):
                below[t] = below[t] + np.searchsorted(row, targets[t][0], side="left")
        if kept < head_paths:
            head.append(zb[:, :head_paths - kept].T.copy())
            kept += head[-1].shape[0]
    return McStream(
        summary=_summary(g, noise, n_paths, t_max, seed, zm, dzm),
        ks={t: _ks(below[t], n_paths, targets[t][1]) for t in steps},
        head=np.concatenate(head) if head else np.empty((0, t_max + 1)),
    )


def empirical_volatility(e: McEnsemble, t: int, n_boot: int = 200) -> tuple[float, float]:
    """Sample variance of dz_t with a bootstrap standard error.

    The bootstrap (resampling paths with replacement) makes the uncertainty
    estimate distribution-agnostic, which matters for heavy-tailed noise.
    """
    samples = e._samples(t, "dz")
    var = float(np.var(samples, ddof=1))
    rng = np.random.default_rng(np.random.SeedSequence((e.seed, t, 0xB007)))
    n = samples.size
    boot = np.empty(n_boot)
    for i in range(n_boot):
        idx = rng.integers(0, n, n)
        boot[i] = np.var(samples[idx], ddof=1)
    return var, float(np.std(boot, ddof=1))


def empirical_cdf_distance(e: McEnsemble, t: int, p: GriddedPdf,
                           variable: str = "z") -> float:
    """KS statistic between the empirical sample CDF and a gridded density.

    The gridded CDF is evaluated at its cell edges (the resolution at which a
    binned density makes claims) and scaled by 1 - truncated_mass, so runs
    with recorded truncation are compared fairly against full samples.
    Samples are counted strictly below each edge: values that round onto a
    cell boundary (e.g. tiny increments underflowing to exactly 0.0) belong
    to the cell above it.
    """
    samples = np.sort(e._samples(t, variable))
    edges, model = _ks_target(p)
    return _ks(np.searchsorted(samples, edges, side="left"), samples.size, model)


def reciprocal_increment_gap(e: McEnsemble, t: int) -> float:
    """Max relative gap between the two routes to Y_t = Z_t/(Z_t - Z_{t-1}).

    Route one recomputes Y_t from the simulated path; route two evaluates the
    reversed-and-negated sum sum_{j=0..t} e^{-g j} e^{-a_t} ... e^{-a_{t-j+1}}
    from the same draws. The two are equal in exact arithmetic; the gap
    measures only floating-point noise. Requires keep_draws=True.
    """
    if e.draws is None:
        raise ValueError("reciprocal_increment_gap needs an ensemble with keep_draws=True")
    if not 1 <= t <= e.t_max:
        raise ValueError(f"t must lie in 1..{e.t_max}")
    a = e.draws[:, :t]
    jg = e.g * np.arange(1, t + 1)
    s = np.cumsum(a, axis=1) + jg
    q = np.exp(s)  # direct product terms
    z_direct = 1.0 + q.sum(axis=1)
    y_direct = z_direct / q[:, -1]

    a_rev = -a[:, ::-1]
    s_rev = np.cumsum(a_rev, axis=1) - e.g * np.arange(1, t + 1)
    y_reindexed = 1.0 + np.exp(s_rev).sum(axis=1)
    return float(np.max(np.abs(y_direct - y_reindexed) / y_reindexed))
