"""Gridded one-dimensional densities and the numeric primitives on them.

A ``GriddedPdf`` stores density values on a uniform node grid. Quadrature is
trapezoidal throughout, interpolation is linear, and every density carries a
``truncated_mass`` field recording the probability discarded so far by
restricting to a finite domain (essential for heavy-tailed runs, where the
domain cannot hold all the mass).

Node/cell convention used by the evolution engine: nodes are the centres of
equal cells of width h, so a grid built by ``cell_grid(upper, n)`` has its
first node at h/2 and its cells tile [0, upper] exactly. Because trapezoidal
quadrature gives the two boundary nodes only half weight, conservative
operations store cell mass divided by the node's quadrature weight; all
integrals, CDFs and moments then see the full mass.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass

import numpy as np
from scipy.fft import irfft, next_fast_len, rfft

from .noise import NoiseModel

__all__ = [
    "GridSpec",
    "GriddedPdf",
    "cell_grid",
    "from_function",
    "convolve",
    "convolve_gridded",
    "conv_mass_arrays",
]

# Rows formatted per "%" call in GriddedPdf.to_csv.
_CSV_BLOCK_ROWS = 512


@dataclass(frozen=True)
class GridSpec:
    """Uniform node grid on [x_min, x_max] with n_points nodes."""

    x_min: float
    x_max: float
    n_points: int

    def __post_init__(self):
        if not (math.isfinite(self.x_min) and math.isfinite(self.x_max)):
            raise ValueError("grid bounds must be finite")
        if not self.x_min < self.x_max:
            raise ValueError("grid requires x_min < x_max")
        if int(self.n_points) != self.n_points or self.n_points < 16:
            raise ValueError("grid requires an integer n_points >= 16")
        object.__setattr__(self, "n_points", int(self.n_points))

    @property
    def h(self) -> float:
        return (self.x_max - self.x_min) / (self.n_points - 1)

    def points(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n_points)

    def cell_edges(self) -> np.ndarray:
        """n_points + 1 edges of the cells centred on the nodes."""
        return self.x_min + self.h * (np.arange(self.n_points + 1) - 0.5)

    def node_weights(self) -> np.ndarray:
        """Trapezoidal quadrature weights (h/2 at the ends, h inside)."""
        w = np.full(self.n_points, self.h)
        w[0] = w[-1] = 0.5 * self.h
        return w

    def close_to(self, other: "GridSpec", rtol: float = 1e-9) -> bool:
        return (
            self.n_points == other.n_points
            and math.isclose(self.x_min, other.x_min, rel_tol=rtol, abs_tol=rtol * self.h)
            and math.isclose(self.x_max, other.x_max, rel_tol=rtol, abs_tol=rtol * self.h)
        )


def cell_grid(upper: float, n_points: int) -> GridSpec:
    """Node grid whose n cells of width upper/n tile [0, upper] exactly."""
    if not upper > 0.0:
        raise ValueError("upper must be positive")
    h = upper / n_points
    return GridSpec(0.5 * h, upper - 0.5 * h, n_points)


@dataclass(frozen=True)
class GriddedPdf:
    """Density values on a uniform grid, plus truncation bookkeeping."""

    grid: GridSpec
    values: np.ndarray
    truncated_mass: float = 0.0

    def __post_init__(self):
        vals = np.ascontiguousarray(self.values, dtype=float)
        if vals.shape != (self.grid.n_points,):
            raise ValueError("values must match the grid size")
        if not np.all(np.isfinite(vals)):
            raise ValueError("density values must be finite")
        lo = vals.min()
        if lo < 0.0:
            if lo < -1e-9 * max(vals.max(), 1.0):
                raise ValueError("density values must be non-negative")
            vals = np.maximum(vals, 0.0)
        if not 0.0 <= self.truncated_mass < 1.0:
            raise ValueError("truncated_mass must lie in [0, 1)")
        object.__setattr__(self, "values", vals)
        vals.setflags(write=False)

    # ------------------------------------------------------------------
    # mass accounting
    # ------------------------------------------------------------------

    def integral(self) -> float:
        """Trapezoidal integral over the grid."""
        return float(np.trapezoid(self.values, self.grid.points()))

    def node_masses(self) -> np.ndarray:
        """Per-node mass = value * quadrature weight; sums to integral()."""
        return self.values * self.grid.node_weights()

    def normalized(self) -> "GriddedPdf":
        total = self.integral()
        if not total > 0.0:
            raise ValueError("cannot normalise a zero-mass density")
        return GriddedPdf(self.grid, self.values / total, self.truncated_mass)

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------

    def interp_at(self, x):
        """Linear interpolation of the density; zero outside the grid."""
        arr = np.asarray(x, dtype=float)
        out = np.interp(arr, self.grid.points(), self.values, left=0.0, right=0.0)
        return float(out) if arr.ndim == 0 else out

    def cdf_nodes(self) -> np.ndarray:
        """Cumulative trapezoid at the nodes (starts at 0)."""
        cells = 0.5 * (self.values[1:] + self.values[:-1]) * self.grid.h
        return np.concatenate(([0.0], np.cumsum(cells)))

    def cdf_at(self, x):
        arr = np.asarray(x, dtype=float)
        cdf = self.cdf_nodes()
        out = np.interp(arr, self.grid.points(), cdf, left=0.0, right=cdf[-1])
        return float(out) if arr.ndim == 0 else out

    def edge_cdf(self) -> tuple[np.ndarray, np.ndarray]:
        """(cell edges, cumulative mass below each edge).

        The edge CDF accumulates node masses cell by cell, so it is exact for
        densities built by conservative (cell-mass) operations; used for
        empirical-vs-gridded comparisons.
        """
        edges = self.grid.cell_edges()
        cum = np.concatenate(([0.0], np.cumsum(self.node_masses())))
        return edges, cum

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------

    def moment(self, order: int, central: bool = False) -> float:
        """Trapezoidal moment of given order (1..4), raw or central."""
        if order not in (1, 2, 3, 4):
            raise ValueError("order must be one of 1, 2, 3, 4")
        x = self.grid.points()
        if central:
            x = x - self.mean()
        with np.errstate(over="ignore", invalid="ignore"):  # non-finite moments fail at output
            return float(np.trapezoid(x**order * self.values, self.grid.points()))

    def mean(self) -> float:
        return self.moment(1)

    def variance(self) -> float:
        return self.moment(2, central=True)

    def std(self) -> float:
        return math.sqrt(max(self.variance(), 0.0))

    def quantiles(self, probs) -> np.ndarray:
        """Inverse of the piecewise-linear node CDF.

        probs must lie strictly inside (0, 1); they are taken relative to the
        grid's own mass, so a just-normalised density behaves as expected.
        """
        probs = np.atleast_1d(np.asarray(probs, dtype=float))
        if np.any(probs <= 0.0) or np.any(probs >= 1.0):
            raise ValueError("probs must lie strictly inside (0, 1)")
        pts = self.grid.points()
        cdf = self.cdf_nodes()
        targets = probs * cdf[-1]
        idx = np.clip(np.searchsorted(cdf, targets, side="left"), 1, cdf.size - 1)
        c0, c1 = cdf[idx - 1], cdf[idx]
        gap = np.where(c1 > c0, c1 - c0, 1.0)
        w = np.clip(np.where(c1 > c0, (targets - c0) / gap, 0.0), 0.0, 1.0)
        return pts[idx - 1] + w * (pts[idx] - pts[idx - 1])

    def distance(self, other: "GriddedPdf", metric: str = "L1") -> float:
        """L1 (trapezoidal integral of |p-q|) or KS (max node-CDF gap)."""
        if not self.grid.close_to(other.grid):
            raise ValueError("distance requires both densities on the same grid")
        if metric == "L1":
            return float(np.trapezoid(np.abs(self.values - other.values), self.grid.points()))
        if metric == "KS":
            return float(np.max(np.abs(self.cdf_nodes() - other.cdf_nodes())))
        raise ValueError(f"unknown metric {metric!r}")

    # ------------------------------------------------------------------
    # serialisation
    # ------------------------------------------------------------------

    def summary(self) -> dict:
        qs = self.quantiles([0.05, 0.25, 0.5, 0.75, 0.95])
        return {
            "grid": {"x_min": self.grid.x_min, "x_max": self.grid.x_max,
                     "n_points": self.grid.n_points},
            "integral": self.integral(),
            "mean": self.mean(),
            "variance": self.variance(),
            "quantiles": {"q05": qs[0], "q25": qs[1], "q50": qs[2],
                          "q75": qs[3], "q95": qs[4]},
            "truncated_mass": self.truncated_mass,
        }

    def to_csv(self, path) -> None:
        """Write (x, density) rows at full double precision, atomically."""
        # one "%" per block of rows: no string per row, and no Python float
        # per value of the whole grid at once (that raised peak memory)
        cells = np.column_stack((self.grid.points(), self.values))
        parts = ["x,density\n"]
        for lo in range(0, cells.shape[0], _CSV_BLOCK_ROWS):
            block = cells[lo:lo + _CSV_BLOCK_ROWS]
            parts.append(("%.17g,%.17g\n" * block.shape[0]) % tuple(block.ravel().tolist()))
        atomic_write_text(path, "".join(parts))

    def summary_json(self, path) -> None:
        atomic_write_text(path, json.dumps(self.summary(), indent=2, sort_keys=True) + "\n")

    @classmethod
    def from_csv(cls, path, truncated_mass: float = 0.0) -> "GriddedPdf":
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        if data.shape[1] != 2 or data.shape[0] < 16:
            raise ValueError(f"{path}: expected two-column CSV with >= 16 rows")
        x, v = data[:, 0], data[:, 1]
        steps = np.diff(x)
        h = steps.mean()
        if not np.allclose(steps, h, rtol=1e-6, atol=1e-12):
            raise ValueError(f"{path}: grid is not uniform")
        return cls(GridSpec(float(x[0]), float(x[-1]), x.size), v, truncated_mass)


def atomic_write_text(path, text: str) -> None:
    """Write text via a temp file + rename in the destination directory."""
    path = os.fspath(path)
    d = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ----------------------------------------------------------------------
# construction
# ----------------------------------------------------------------------


def from_function(grid: GridSpec, source, truncated_mass: float | None = None) -> GriddedPdf:
    """Sample a density on the grid and normalise.

    ``source`` is either a vectorised callable or a ``NoiseModel``. For a
    noise model the mass outside [x_min, x_max] is computed from its closed
    form and recorded as truncated; for a bare callable it is 0 unless given.
    """
    pts = grid.points()
    if isinstance(source, NoiseModel):
        values = source.pdf_at(pts)
        if truncated_mass is None:
            covered = source.cdf_at(grid.x_max) - source.cdf_at(grid.x_min)
            truncated_mass = float(min(max(1.0 - covered, 0.0), 1.0 - 1e-15))
    else:
        values = np.asarray(source(pts), dtype=float)
        if truncated_mass is None:
            truncated_mass = 0.0
    if values.shape != pts.shape:
        raise ValueError("source must return one density value per grid point")
    if np.any(values < 0):
        raise ValueError("density function must be non-negative on the grid")
    total = np.trapezoid(values, pts)
    if not total > 0.0:
        raise ValueError("sampled density is identically zero on the grid")
    return GriddedPdf(grid, values / total, truncated_mass)


# ----------------------------------------------------------------------
# convolution
# ----------------------------------------------------------------------


def conv_mass_arrays(a: np.ndarray, b: np.ndarray, method: str = "fft") -> np.ndarray:
    """Full discrete convolution of two mass vectors.

    ``direct`` is plain summation (np.convolve), ``fft`` the transform-based
    route; the two agree to better than 1e-10 relative on any sane input.
    """
    if method == "direct":
        out = np.convolve(a, b)
    elif method == "fft":
        n = a.size + b.size - 1
        size = next_fast_len(n, real=True)
        out = irfft(rfft(a, size) * rfft(b, size), size)[:n]
    else:
        raise ValueError(f"unknown convolution method {method!r}")
    return np.maximum(out, 0.0)


def convolve(p: GriddedPdf, noise: NoiseModel, tail_tol: float = 1e-8,
             method: str = "fft", max_kernel_halfwidth: float | None = None) -> GriddedPdf:
    """Density of (noise increment + p-distributed variable) on a widened grid.

    The noise is discretised to exact cell masses at the grid step. The output
    grid is widened so that at most ``tail_tol`` of the noise mass falls
    outside; for heavy tails the window is capped and the clipped mass is
    added to ``truncated_mass`` instead.
    """
    h = p.grid.h
    if max_kernel_halfwidth is None:
        span = p.grid.x_max - p.grid.x_min
        max_kernel_halfwidth = 10.0 * span + 100.0 * noise.scale()
    kern = noise.cell_masses(h, tail_tol=tail_tol, max_halfwidth=max_kernel_halfwidth)
    cm = conv_mass_arrays(p.node_masses(), kern.masses, method=method)
    m = kern.halfcells
    out_grid = GridSpec(p.grid.x_min - m * h, p.grid.x_max + m * h,
                        p.grid.n_points + 2 * m)
    clip = kern.clip_left + kern.clip_right
    t_new = 1.0 - (1.0 - p.truncated_mass) * (1.0 - clip)
    return GriddedPdf(out_grid, cm / out_grid.node_weights(), t_new)


def convolve_gridded(p: GriddedPdf, q: GriddedPdf, method: str = "fft") -> GriddedPdf:
    """Convolution of two gridded densities sharing the same step."""
    if not math.isclose(p.grid.h, q.grid.h, rel_tol=1e-9):
        raise ValueError("convolution requires identical grid steps")
    cm = conv_mass_arrays(p.node_masses(), q.node_masses(), method=method)
    out_grid = GridSpec(p.grid.x_min + q.grid.x_min, p.grid.x_max + q.grid.x_max,
                        p.grid.n_points + q.grid.n_points - 1)
    t_new = 1.0 - (1.0 - p.truncated_mass) * (1.0 - q.truncated_mass)
    return GriddedPdf(out_grid, cm / out_grid.node_weights(), t_new)
