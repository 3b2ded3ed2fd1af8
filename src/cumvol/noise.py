"""Noise models for the production process.

Each period's log-production increment is an i.i.d. draw from a
one-dimensional density. Three families are supported:

* ``gaussian`` -- mean zero, standard deviation ``sigma``;
* ``lorentzian`` -- Cauchy density with half-width-at-half-maximum ``gamma``
  (no finite moments; downstream code must track truncation explicitly);
* ``tabulated`` -- (x, density) samples on a strictly increasing grid,
  linearly interpolated inside the support, zero outside, renormalised to
  unit trapezoidal mass at construction.

``mirror`` reflects a model through zero. The reversed recursion that
produces the volatility distribution runs on the mirrored density.

The engine touches a noise only through ``cdf_at`` on arrays of cell edges:
the kernel's (``cell_masses``) and step 1's warped edges
(``evolution.StepOperator.first``). Densities and distribution functions
need only numpy and the standard library: the Gaussian CDF maps
``math.erfc`` over the arguments between -6 and 28, outside which the
double format fixes it at 2 or 0, and its kernel-window quantile comes from
``statistics.NormalDist``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from statistics import NormalDist

import numpy as np

from .errors import DomainError

__all__ = [
    "NoiseModel",
    "KernelCells",
    "gaussian",
    "lorentzian",
    "tabulated",
    "parse_noise_spec",
    "load_tabulated_csv",
]

_KINDS = ("gaussian", "lorentzian", "tabulated")

# Noise mass beyond the kernel window that a light-tailed kernel may drop
# (counted as truncated); heavy tails hit the window cap first.
TAIL_TOL = 1e-8

# Standard normal quantile that leaves TAIL_TOL/2 in each tail.
_GAUSS_TAIL_Z = NormalDist().inv_cdf(1.0 - 0.5 * TAIL_TOL)

_SQRT1_2 = math.sqrt(0.5)

# Most cells a kernel may have, as many as an explicit grid's most points.
_MAX_KERNEL_CELLS = 1 << 22


# math.erfc is exactly 2.0 at and below -6 (erfc(6) = 2.2e-17 is under half an
# ulp of 2) and exactly 0.0 at and above 28 (erfc(28) is below 1e-340)
_ERFC_TWO_UPTO = -6.0
_ERFC_ZERO_FROM = 28.0


@dataclass(frozen=True)
class KernelCells:
    """A noise density reduced to cell masses on offsets j*step.

    ``masses[j + halfcells]`` is the exact probability of the cell
    ``[(j - 1/2)*step, (j + 1/2)*step]``. ``clip_left``/``clip_right`` hold
    the mass beyond the covered window on each side, so that
    ``masses.sum() + clip_left + clip_right == 1`` up to roundoff.
    """

    masses: np.ndarray
    halfcells: int
    clip_left: float
    clip_right: float
    capped: bool = False


@dataclass(frozen=True)
class NoiseModel:
    """Immutable description of the per-step noise distribution."""

    kind: str
    sigma: float = 0.0
    gamma: float = 0.0
    xs: np.ndarray | None = None
    ys: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if self.kind == "gaussian" and not (self.sigma > 0.0 and math.isfinite(self.sigma)):
            raise ValueError(f"gaussian noise requires a finite sigma > 0, got {self.sigma}")
        if self.kind == "lorentzian" and not (self.gamma > 0.0 and math.isfinite(self.gamma)):
            raise ValueError(f"lorentzian noise requires a finite gamma > 0, got {self.gamma}")
        if self.kind == "tabulated":
            xs = np.ascontiguousarray(self.xs, dtype=float)
            ys = np.ascontiguousarray(self.ys, dtype=float)
            if xs.ndim != 1 or xs.shape != ys.shape or xs.size < 2:
                raise ValueError("tabulated noise needs >= 2 (x, density) points")
            if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
                raise ValueError("tabulated noise x values and densities must be finite")
            if not np.all(np.diff(xs) > 0):
                raise ValueError("tabulated noise x values must be strictly increasing")
            if np.any(ys < 0):
                raise ValueError("tabulated noise densities must be non-negative")
            mass = np.trapezoid(ys, xs)
            if not mass > 0.0:
                raise ValueError("tabulated noise must have positive total mass")
            ys = ys / mass
            # CDF at each table node: cumulative trapezoid mass, not a field
            cum = np.concatenate(([0.0], np.cumsum(0.5 * (ys[1:] + ys[:-1]) * np.diff(xs))))
            for name, arr in (("xs", xs), ("ys", ys), ("_cum", cum)):
                arr.setflags(write=False)
                object.__setattr__(self, name, arr)

    # ------------------------------------------------------------------
    # density / distribution function
    # ------------------------------------------------------------------

    def cdf_at(self, arr: np.ndarray) -> np.ndarray:
        """Distribution function at an array of points; for tabulated noise
        the exact integral of the interpolated density."""
        if self.kind == "gaussian":
            # Phi(x) = erfc(-x/sqrt2)/2; erfc keeps the left tail's relative precision.
            # Below sigma ~ 1e-308 x/sigma overflows to +-inf, where Phi is 1 or 0.
            with np.errstate(over="ignore"):
                t = (arr / self.sigma) * -_SQRT1_2
            # math.erfc is mapped only where it is not saturated (or t is nan)
            zero = t >= _ERFC_ZERO_FROM
            erfc = np.where(zero, 0.0, 2.0)
            inner = ~(zero | (t <= _ERFC_TWO_UPTO))
            todo = t[inner]
            erfc[inner] = np.fromiter(map(math.erfc, todo.tolist()), float, todo.size)
            return 0.5 * erfc
        if self.kind == "lorentzian":
            with np.errstate(over="ignore"):  # as above: arctan(+-inf) is the limit
                return 0.5 + np.arctan(arr / self.gamma) / math.pi
        return self._tabulated_cdf(arr)

    def _tabulated_cdf(self, arr: np.ndarray) -> np.ndarray:
        # Piecewise-quadratic: exact integral of the linearly interpolated density.
        xs, ys, cum = self.xs, self.ys, self._cum
        xc = np.clip(arr, xs[0], xs[-1])
        i = np.clip(np.searchsorted(xs, xc, side="right") - 1, 0, xs.size - 2)
        t = xc - xs[i]
        slope = (ys[i + 1] - ys[i]) / (xs[i + 1] - xs[i])
        out = cum[i] + ys[i] * t + 0.5 * slope * t * t
        out = np.where(arr < xs[0], 0.0, out)
        out = np.where(arr > xs[-1], cum[-1], out)
        return np.clip(out, 0.0, 1.0)

    # ------------------------------------------------------------------
    # transformations
    # ------------------------------------------------------------------

    def mirror(self) -> "NoiseModel":
        """Model whose density at x equals this model's density at -x."""
        if self.kind == "tabulated":
            return NoiseModel(kind="tabulated", xs=-self.xs[::-1], ys=self.ys[::-1])
        return self  # gaussian and lorentzian densities are even

    # ------------------------------------------------------------------
    # sampling
    # ------------------------------------------------------------------

    def sample_with(self, rng: np.random.Generator, shape) -> np.ndarray:
        """I.i.d. draws of the given shape from a caller-owned generator; for
        tabulated noise, from the interpolated density."""
        if self.kind == "gaussian":
            return self.sigma * rng.standard_normal(shape)
        if self.kind == "lorentzian":
            u = rng.random(shape)
            return self.gamma * np.tan(math.pi * (u - 0.5))
        # tabulated: invert the exact CDF, which is quadratic within a table
        # cell, so draws follow the interpolated density even for coarse tables
        xs, ys = self.xs, self.ys
        widths = np.diff(xs)
        cum = self._cum / self._cum[-1]
        u = rng.random(shape)
        i = np.clip(np.searchsorted(cum, u, side="right") - 1, 0, xs.size - 2)
        d = np.maximum(u - cum[i], 0.0)
        y0 = ys[i]
        slope = (ys[i + 1] - ys[i]) / widths[i]
        disc = np.sqrt(np.maximum(y0 * y0 + 2.0 * slope * d, 0.0))
        denom = y0 + disc
        t = np.where(denom > 0.0, 2.0 * d / np.where(denom > 0.0, denom, 1.0), 0.0)
        return xs[i] + np.minimum(t, widths[i])

    # ------------------------------------------------------------------
    # summary statistics
    # ------------------------------------------------------------------

    def mean(self) -> float:
        """Mean of the density (nan for lorentzian, which has none); for
        tabulated noise, of the interpolated density, in closed form per
        table cell."""
        if self.kind == "gaussian":
            return 0.0
        if self.kind == "lorentzian":
            return math.nan
        xs, ys = self.xs, self.ys
        w = np.diff(xs)
        return float(np.sum(w * (xs[:-1] * (ys[:-1] + ys[1:]) / 2.0
                                 + w * (ys[:-1] / 6.0 + ys[1:] / 3.0))))

    def variance(self) -> float:
        """Variance of the density (inf for lorentzian); for tabulated noise,
        of the interpolated density, as ``mean``, and inf where that overflows."""
        if self.kind == "gaussian":
            return self.sigma * self.sigma
        if self.kind == "lorentzian":
            return math.inf
        xs, ys = self.xs, self.ys
        w = np.diff(xs)
        d = xs[:-1] - self.mean()  # each cell's left end, centred
        with np.errstate(over="ignore", invalid="ignore"):  # past float64: inf
            var = float(np.sum(w * (d * d * (ys[:-1] + ys[1:]) / 2.0
                                    + 2.0 * d * w * (ys[:-1] / 6.0 + ys[1:] / 3.0)
                                    + w * w * (ys[:-1] / 12.0 + ys[1:] / 4.0))))
        return var if math.isfinite(var) else math.inf

    def label(self) -> str:
        if self.kind == "gaussian":
            return f"gaussian(sigma={self.sigma:g})"
        if self.kind == "lorentzian":
            return f"lorentzian(gamma={self.gamma:g})"
        return f"tabulated({self.xs.size} pts on [{self.xs[0]:g}, {self.xs[-1]:g}])"

    # ------------------------------------------------------------------
    # discretisation
    # ------------------------------------------------------------------

    def tail_halfwidth(self) -> float:
        """Halfwidth containing all but ``TAIL_TOL`` of the mass (all of a table's)."""
        if self.kind == "gaussian":
            return self.sigma * _GAUSS_TAIL_Z
        if self.kind == "lorentzian":
            return self.gamma / math.tan(0.5 * math.pi * TAIL_TOL)
        return float(max(abs(self.xs[0]), abs(self.xs[-1])))

    def cell_masses(self, step: float, max_halfwidth: float | None = None) -> KernelCells:
        """Exact cell masses of the density on a grid of spacing ``step``.

        The window halfwidth is the smaller of the tail-tolerance width and
        ``max_halfwidth``; whatever mass falls outside is reported in the
        clip fields rather than silently dropped. Masses come from CDF
        differences, so arbitrarily narrow densities (the deterministic
        sigma -> 0 limit) land in the correct single cell. A kernel of more
        than ``_MAX_KERNEL_CELLS`` cells is a domain error, raised before it
        is allocated.
        """
        if not step > 0.0:
            raise ValueError("step must be positive")
        natural = self.tail_halfwidth()
        halfwidth = natural
        capped = False
        if max_halfwidth is not None and max_halfwidth < natural:
            halfwidth = max_halfwidth
            capped = True
        cells = 2.0 * np.ceil(halfwidth / step - 0.5) + 1.0  # 2 m + 1, or inf
        if not cells <= _MAX_KERNEL_CELLS:
            raise DomainError(f"{self.label()} needs a kernel of {cells:.4g} cells at grid "
                              f"spacing {step:.4g}, more than {_MAX_KERNEL_CELLS}")
        m = max(1, int(cells) // 2)
        edges = step * (np.arange(-m, m + 2) - 0.5)
        cdf = self.cdf_at(edges)
        masses = np.maximum(np.diff(cdf), 0.0)
        return KernelCells(
            masses=masses,
            halfcells=m,
            clip_left=float(cdf[0]),
            clip_right=float(1.0 - cdf[-1]),
            capped=capped,
        )


# ----------------------------------------------------------------------
# constructors
# ----------------------------------------------------------------------


def gaussian(sigma: float) -> NoiseModel:
    return NoiseModel(kind="gaussian", sigma=float(sigma))


def lorentzian(gamma: float) -> NoiseModel:
    return NoiseModel(kind="lorentzian", gamma=float(gamma))


def tabulated(points) -> NoiseModel:
    """Tabulated model from an iterable of (x, density) pairs."""
    pts = np.asarray(list(points), dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("tabulated points must be (x, density) pairs")
    return NoiseModel(kind="tabulated", xs=pts[:, 0], ys=pts[:, 1])


def load_tabulated_csv(path) -> NoiseModel:
    """Load a tabulated model from a two-column CSV (x, density).

    Header row optional; comma separated; UTF-8.
    """
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = [p.strip() for p in line.split(",")]
            if len(parts) < 2:
                raise ValueError(f"{path}: line {lineno}: expected two columns")
            try:
                rows.append((float(parts[0]), float(parts[1])))
            except ValueError:
                if lineno == 1:
                    continue  # header
                raise ValueError(f"{path}: line {lineno}: could not parse numbers")
    if len(rows) < 2:
        raise ValueError(f"{path}: need at least two data rows")
    return tabulated(rows)


def parse_noise_spec(text: str) -> NoiseModel:
    """Parse CLI-style specs: gaussian:sigma=S | lorentzian:gamma=G | table:PATH."""
    head, sep, rest = text.partition(":")
    if not sep:
        raise ValueError(f"noise spec {text!r} needs form kind:params")
    if head == "gaussian":
        key, eq, val = rest.partition("=")
        if key != "sigma" or not eq:
            raise ValueError(f"gaussian spec must look like gaussian:sigma=S, got {text!r}")
        return gaussian(float(val))
    if head == "lorentzian":
        key, eq, val = rest.partition("=")
        if key != "gamma" or not eq:
            raise ValueError(f"lorentzian spec must look like lorentzian:gamma=G, got {text!r}")
        return lorentzian(float(val))
    if head == "table":
        p = Path(rest)
        if not p.is_file():
            raise ValueError(f"noise table {rest!r} is not an existing file")
        return load_tabulated_csv(p)
    raise ValueError(f"unknown noise kind {head!r} in spec {text!r}")
