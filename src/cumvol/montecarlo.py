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
are scheduled. A block is produced in tiles of TILE_PATHS paths, each the
next part of the block's draw stream: a tile's draws are sampled in chunks
into one step-major buffer; the recurrence then produces z_t of every path in
the tile one step row at a time, and ``simulate_stream`` folds each row,
while it is still in cache, into per-step moments, KS counts and the kept
head paths. It holds one tile of draws plus a few rows of TILE_PATHS values,
whatever the number of paths.

A KS count needs, for each sample, only its number of cell edges at or below
it. On a uniform grid that is the sample's scaled offset (x - x_min)/h + 1
rounded to the nearest integer, found with one multiply and one subtract per
sample; only the few samples whose scaled offset lies within the rounding
error of an edge are placed again with a binary search over the edges. So a
row's counts cost O(n), not the O(n log n) of a sort, and are exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .noise import NoiseModel
from .pdfgrid import GriddedPdf, GridSpec

__all__ = ["McEnsemble", "simulate_stream"]

BLOCK_PATHS = 65536  # paths per seeded block
TILE_PATHS = 16384  # paths per tile: a tile's step-major draws are what the stream holds
_CHUNK_PATHS = 2048  # paths sampled per call: a chunk of draws stays in L2 cache


@dataclass(frozen=True)
class McEnsemble:
    """What is read from a simulated ensemble, without keeping its paths.

    ``summary`` holds the per-step means and variances of z and dz,
    ``ks[t]`` the KS statistic of z_t against the density ``targets[t]``, and
    ``head`` the first ``head_paths`` paths of z, shape (head_paths, t_max + 1)
    with head[:, 0] = 0.
    """

    summary: dict
    ks: dict
    head: np.ndarray


class _Moments:
    """Per-step count, mean and sum of squared deviations of a tile stream.

    Each step's row of a tile (one column per path) is reduced two-pass by
    ``row``, in step order; the tile's last row merges its row moments into
    the running totals with the pairwise update of Chan, Golub & LeVeque
    (1983), so the result does not lose precision with the number of paths.
    """

    def __init__(self, k: int):
        self.n = 0
        self.mean = np.zeros(k)
        self.m2 = np.zeros(k)
        self._mb, self._m2b = np.empty(k), np.empty(k)  # the current tile's rows

    def row(self, i: int, x: np.ndarray, dev: np.ndarray) -> None:
        """Reduce row i of the current tile, with ``dev`` (which may be x) as scratch.

        Non-finite moments are left for the output check: the caller runs
        this under ``np.errstate`` that ignores overflow and invalid values.
        """
        # np.add.reduce is x.mean()'s and x.sum()'s own pairwise sum, without their call layers
        self._mb[i] = mb = np.add.reduce(x) / x.size
        self._m2b[i] = np.add.reduce(np.square(np.subtract(x, mb, out=dev), out=dev))
        if i == self.mean.size - 1:
            nb, n = x.size, self.n + x.size
            delta = self._mb - self.mean
            self.mean = self.mean + delta * (nb / n)
            self.m2 = self.m2 + self._m2b + np.square(delta) * (self.n * nb / n)
            self.n = n

    def variance(self) -> np.ndarray:
        return self.m2 / (self.n - 1)


def _ks_model(p: GriddedPdf) -> np.ndarray:
    """The model CDF of a gridded density at its cell edges: its node masses
    accumulated cell by cell, exact for densities built by conservative
    (cell-mass) operations, and scaled by 1 - truncated_mass."""
    cum = np.concatenate(([0.0], np.cumsum(p.node_masses())))
    return (1.0 - p.truncated_mass) * cum / cum[-1]


class _EdgeCounts:
    """Counts of samples strictly below each cell edge of a grid, summed over rows.

    Edge k lies at k + 1/2 on the scale u = (x - x_min)/h + 1, so rint(u),
    clipped to 0..n_edges, is the number of edges at or below x. Computed
    as x * (1/h) - shift, u differs from x's place among the edges (as
    ``GridSpec.cell_edges`` rounds them) by the roundings of 1/h, the
    product, the shift and the edges: a few ulp of the largest |edge| over
    h. ``window`` is four times that bound, and a sample within it of an
    edge is placed with ``searchsorted``. The number of samples below edge
    k is then the cumulative sum, over j <= k, of the samples with j edges
    at or below them. Where the window reaches half a cell (h within a few
    ulp of the edges, or 1/h past the float64 range), every sample is
    searched.
    """

    def __init__(self, grid: GridSpec, edges: np.ndarray):
        self.edges = edges  # the grid's cell edges, perhaps a view of a longer grid's
        n_edges = self.edges.size
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite window searches all
            self._scale = 1.0 / grid.h
            self._shift = grid.x_min * self._scale - 1.0
            reach = max(abs(self.edges[0]), abs(self.edges[-1])) * self._scale
            window = 16.0 * np.finfo(float).eps * (reach + n_edges)
        self._search_all = not window < 0.5  # then every sample would be in doubt
        self._doubt = 0.5 - window  # |u - rint(u)| above this is near an edge
        self._counts = np.zeros(n_edges + 1, dtype=np.intp)

    def add(self, x: np.ndarray, scratch: np.ndarray, spare: np.ndarray) -> None:
        """Count the row ``x``, overwriting ``scratch`` and ``spare``, rows of
        its size; ``spare``, viewed as intp, ends up holding each sample's
        number of edges at or below it."""
        n_edges = self.edges.size
        j = spare.view(np.intp)
        if self._search_all:
            j[:] = np.searchsorted(self.edges, x, side="right")
        else:
            u, r = spare, scratch
            with np.errstate(over="ignore"):  # a sample far past the grid scales to +-inf
                np.multiply(x, self._scale, out=u)
            np.subtract(u, self._shift, out=u)
            np.clip(u, 0.0, n_edges, out=u)  # samples past the ends land on exact integers
            np.rint(u, out=r)
            np.subtract(u, r, out=u)
            np.abs(u, out=u)
            near = np.flatnonzero(u > self._doubt)
            np.copyto(j, r, casting="unsafe")
            if near.size:
                j[near] = np.searchsorted(self.edges, x[near], side="right")
        self._counts += np.bincount(j, minlength=n_edges + 1)

    def below(self) -> np.ndarray:
        """The number of samples counted strictly below each edge."""
        return np.cumsum(self._counts)[:-1]


def _ks(below: np.ndarray, n: int, model: np.ndarray) -> float:
    """KS statistic from the counts of samples strictly below each edge."""
    return float(np.max(np.abs(below / n - model)))


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


def _rows(g: float, noise: NoiseModel, t_max: int, n_paths: int, seed: int):
    """Yield (lo, t, z_{t-1}, z_t, spare) for each tile of paths lo.. and step t = 1..t_max.

    Block i holds paths i*BLOCK_PATHS onwards and takes its noise from the
    i-th child of SeedSequence(seed). Its paths are produced in tiles of
    TILE_PATHS (the last tile of a partial block is shorter): each tile's
    draws are the next part of the block's stream, drawn path-major in chunks
    (the stream of one whole-block draw) and copied step-major into a buffer
    reused across tiles. The rows are reused buffers: z_t is valid until the
    next yield, and the caller may overwrite z_{t-1} and the recurrence's
    scratch row ``spare``. Run under ``np.errstate`` that ignores overflow
    and invalid values: a non-finite path fails the finiteness check.
    """
    children = np.random.SeedSequence(seed).spawn(-(-n_paths // BLOCK_PATHS))
    jg = g * np.arange(1, t_max + 1)
    width = min(TILE_PATHS, BLOCK_PATHS, n_paths)
    a_buf = np.empty((t_max, width))  # row t - 1: t-th draws, then sums
    rows = np.empty((3, width))

    for bi, child in enumerate(children):
        block_lo = bi * BLOCK_PATHS
        block_n = min(BLOCK_PATHS, n_paths - block_lo)
        rng = np.random.default_rng(child)
        for tile_lo in range(0, block_n, width):
            n = min(width, block_n - tile_lo)
            a = a_buf[:, :n]
            for c in range(0, n, _CHUNK_PATHS):
                chunk = noise.sample_with(rng, (min(_CHUNK_PATHS, n - c), t_max))
                a[:, c:c + chunk.shape[0]] = chunk.T
            prev, cur, buf = rows[:, :n]
            prev.fill(0.0)
            for t in range(1, t_max + 1):
                if t > 1:
                    np.add(a[t - 1], a[t - 2], out=a[t - 1])  # running sum, as np.cumsum adds
                np.add(a[t - 1], jg[t - 1], out=cur)  # log of every path's t-th term
                _logaddexp_into(prev, cur, buf)
                if not np.isfinite(cur).all():
                    raise DomainError(
                        f"path accumulation overflowed for g={g:g} with {noise.label()} noise: "
                        "log cumulative production exceeds the float64 range")
                yield block_lo + tile_lo, t, prev, cur, buf
                prev, cur = cur, prev


def simulate_stream(g: float, noise: NoiseModel, t_max: int, n_paths: int, seed: int,
                    targets: dict | None = None, head_paths: int = 0) -> McEnsemble:
    """Simulate ``n_paths`` paths of z for ``t_max`` steps, one tile at a time.

    Each step row of a tile is folded into per-step moments of z and dz and,
    for each step t in ``targets`` (a dict t -> GriddedPdf of z_t), into the
    counts of z_t samples strictly below that density's cell edges. The
    gridded CDF is evaluated at those edges (the resolution at which a binned
    density makes claims) and scaled by 1 - truncated_mass, so runs with
    recorded truncation are compared fairly against full samples; a value
    that rounds onto an edge belongs to the cell above it. The first
    ``head_paths`` paths of z are kept, path-major: ``head_paths=n_paths``
    keeps every path.
    """
    if n_paths < 2:
        raise ValueError("n_paths must be >= 2: one path has no sample variance")
    if t_max < 1:
        raise ValueError("t_max must be >= 1")
    targets = targets or {}
    if any(not 1 <= t <= t_max for t in targets):
        raise ValueError(f"KS target steps must lie in 1..{t_max}")
    # targets with one origin and spacing share the longest one's edges: a
    # prefix grid's edges are its parent's first ones, bit for bit
    shared = {}
    for p in sorted(targets.values(), key=lambda p: -p.grid.n_points):
        if (p.grid.x_min, p.grid.h) not in shared:
            shared[p.grid.x_min, p.grid.h] = p.grid.cell_edges()
    counts = {t: _EdgeCounts(p.grid, shared[p.grid.x_min, p.grid.h][:p.grid.n_points + 1])
              for t, p in targets.items()}
    zm, dzm = _Moments(t_max), _Moments(t_max)
    head = np.zeros((min(head_paths, n_paths), t_max + 1))
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite results are checked
        for lo, t, zp, zt, spare in _rows(g, noise, t_max, n_paths, seed):
            # zp is scratch once dz_t = z_t - z_{t-1} is reduced
            dzm.row(t - 1, np.subtract(zt, zp, out=zp), zp)
            zm.row(t - 1, zt, zp)
            if t in counts:
                counts[t].add(zt, zp, spare)
            if lo < head.shape[0]:
                head[lo:lo + zt.size, t] = zt[:head.shape[0] - lo]
    return McEnsemble(
        summary={
            "g": g,
            "noise": noise.label(),
            "n_paths": n_paths,
            "t_max": t_max,
            "seed": seed,
            "mean_z": zm.mean.tolist(),
            "var_z": zm.variance().tolist(),
            "mean_dz": dzm.mean.tolist(),
            "var_dz": dzm.variance().tolist(),
        },
        ks={t: _ks(c.below(), n_paths, _ks_model(targets[t])) for t, c in counts.items()},
        head=head,
    )
