"""Exact density evolution for log cumulative production and its volatility.

One step of the process maps x_{t+1} = log(1 + exp(g + a + x_t)) with a drawn
from the noise density. The density therefore evolves by a convolution with
the noise followed by a nonlinear coordinate warp:

    rho_{t+1}(x) = (rho_a * rho_t)(log(e^x - 1) - g) / (1 - e^{-x}),  x > 0.

The engine realises this map conservatively on grids of cell centres: the
convolved density's CDF is evaluated at the warped cell edges, so each output
cell receives exactly the mass the continuous map sends into it. Pointwise,
the stored values agree with the formula above to O(h^2) wherever the density
is smooth, while the integrable blow-up at x -> 0 (present for heavy-tailed
noise) is captured as finite first-cell mass instead of being lost.

The same machinery with g -> -g and mirrored noise evolves the reversed
variable y = log(Z_t / (Z_t - Z_{t-1})) whose density converges to a genuine
fixed point when g + E[a] > 0 (``_stationary``); dz then follows from

    rho_dz(x) = rho_y(-log(1 - e^{-x})) / (e^x - 1),  x > 0,

with -log(1 - e^{-x}) from ``analytic.dz_of_y``, as in the step's warp.
One step is a linear map P on node masses (``StepOperator``), built once
per run; its convolution is numpy's real FFT at a 2-3-5-smooth length. The
per-step runs ``z_steps`` and ``y_steps`` take (g, noise, grid, horizon),
check their inputs and build P when called, and return a stream of
``StepRecord``s: step 1 comes straight from the noise CDF
(``StepOperator.first``), each later step applies P and renormalises
(power iteration). The stream makes each record when it is asked for and
keeps only the latest density, so a caller that drops each record after
use, as the command line does once its files are staged, holds O(grid)
densities whatever the horizon. ``y_steps`` stops on the first record
whose L1 distance from the previous density is below its ``tol``, and marks
it ``converged``; ``power_volatility`` reports on that record. The reversed
variable's fixed point is P's Perron vector, which
``steady_state_volatility`` finds directly with a thick-restart Arnoldi
iteration in numpy started from the diffusion limit's law (Dufresne,
Scand. Actuar. J. 1990): 40 Krylov vectors,
20 Ritz vectors kept at each restart, and one stopping rule, ARPACK's Ritz
estimate at 1e-12 relative with a nonnegative unit-mass vector, tested as
the basis grows (Morgan, Math. Comp. 65, 1996; Stewart, SIAM J. Matrix Anal.
Appl. 23, 2001; Saad, Numerical Methods for Large Eigenvalue Problems,
2011). It needs tens of applications, where power iteration needs of the
order of sigma_a^2/g^2 steps. Above the bulk of y the fixed point is a
geometric tail of known rate (``analytic.tail_exponent``), so the eigensolve
runs on the bulk's node masses plus that tail's amplitude. The Perron root
lambda is the mass one step keeps, so 1 - lambda is the per-step leak
through the grid's edges. The package runs on numpy alone.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .analytic import (dz_of_y, sigma_y_fixed_point, tail_exponent, var_dz_saddle,
                       var_logZ_saddle, ybar)
from .errors import ConvergenceError, DomainError, MassDefectError
from .noise import KernelCells, NoiseModel
from .pdfgrid import GriddedPdf, GridSpec, cell_grid

__all__ = [
    "StepRecord",
    "VolatilityReport",
    "StepOperator",
    "z_steps",
    "y_steps",
    "volatility_pdf",
    "steady_state_volatility",
    "power_volatility",
    "default_z_grid",
    "default_y_grid",
]

# Per-step budget for unexplained mass loss; conservative cell transport keeps
# the actual defect at roundoff level, so exceeding this means broken inputs.
MAX_STEP_DEFECT = 1e-3

# Extra kernel halfwidth beyond the grid span, so that mass clipped on the
# kernel's left lands provably inside the first output cell (e^{-margin} << h).
_KERNEL_MARGIN = 25.0

_REPORT_PROBS = (0.05, 0.25, 0.5, 0.75, 0.95)

# Most points of a default grid.
_MAX_GRID_POINTS = 1 << 21

# Krylov subspace size of the steady-state eigensolve.
_ARNOLDI_NCV = 40

# The eigensolve tests its stopping rule after every this many basis vectors.
_RITZ_CHECK_EVERY = 4

# Most step-operator applications of one eigensolve.
_MAX_APPLICATIONS = 4000

# The eigensolve's bulk grid ends this many widths of the fixed point and
# noise standard deviations above the reversed variable's steady centre;
# the stationary density above it is geometric (``_TailClosure``).
_BULK_WIDTHS = 6.0
_BULK_SIGMAS = 8.0

# Grid columns per block of the eigensolve's in-place restart: a block of
# the product of the kept Ritz vectors, about ncv/2 x 4096 doubles, stays
# under 1 MB.
_RESTART_BLOCK = 4096

# The Perron vector is nonnegative; an eigenvector carrying more negative mass
# than this (after normalisation to unit mass) is not it.
_MAX_NEGATIVE_MASS = 1e-12

# The eigensolve's Ritz estimate stops it at most this times |theta|.
_RITZ_TOL = 1e-12

# Upper end of the default dz grids: growth increments beyond it cannot be
# represented, so inputs that put them there are domain errors.
_DZ_CAP = 60.0

# Fewest y cells below the reversed variable's steady centre ybar(g, inf). With
# Gaussian noise (sigma 1) on the 8192-point default y grid the t = 3 dz mean
# and variance read 5.01, 1.03 at g = 5 (6.5 cells); 5.51, 1.02 at g = 5.5
# (4.1); 5.98, 0.96 at g = 6 (2.5); 7.44 at g = 20 (0): about log(2/h), any g.
_MIN_CENTRE_CELLS = 4.0
_NONFINITE_Y = ("the reversed variable's mean or width is not finite: "
                "its grid's scale exceeds float64 here")


@dataclass(frozen=True)
class StepRecord:
    """One time step: its density and what the step loop measured.

    ``mass_defect`` and ``new_truncation`` are the step's mass bookkeeping,
    ``l1_prev`` the L1 distance from the previous density (None at t = 1).
    ``converged`` marks the record a ``y_steps`` run stopped on because
    ``l1_prev`` fell below its ``tol``. Statistics are read from ``pdf``
    when asked for.
    """

    t: int
    pdf: GriddedPdf
    mass_defect: float
    new_truncation: float
    l1_prev: float | None
    converged: bool


def _quantile_fields(pdf: GriddedPdf) -> dict:
    """The report quantiles of a density, keyed q05 .. q95."""
    qs = pdf.quantiles(_REPORT_PROBS)
    return {f"q{int(100 * p):02d}": float(q) for p, q in zip(_REPORT_PROBS, qs)}


# ----------------------------------------------------------------------
# warp maps (cell-edge coordinates)
# ----------------------------------------------------------------------


def _validated_edges(grid: GridSpec) -> np.ndarray:
    """Cell edges of a grid whose domain must start exactly at 0."""
    if grid.x_min != 0.5 * grid.h:
        raise DomainError(
            "evolution grids must tile [0, upper]; build them with cell_grid()"
        )
    return grid.cell_edges()


def _node_cdf(masses: np.ndarray, nodes: np.ndarray, at: np.ndarray) -> np.ndarray:
    """Linear interpolation at ``at`` of the node CDF of per-node masses,
    which counts half of each node's own mass as below the node."""
    cum = np.cumsum(masses)
    cum -= 0.5 * masses
    return np.interp(at, nodes, cum, left=0.0, right=float(masses.sum()))


def _check_normalized(p: GriddedPdf) -> None:
    if abs(p.integral() - 1.0) > 1e-6:
        raise ValueError("input density must be normalised (integral within 1e-6 of 1)")


def _assemble(grid: GridSpec, cells: np.ndarray, prev_trunc: float,
              new_trunc: float) -> tuple[GriddedPdf, float]:
    """The renormalised density of a step's cell masses, and its mass defect."""
    captured = float(cells.sum())
    defect = abs(1.0 - captured - new_trunc)
    if defect > MAX_STEP_DEFECT:
        raise MassDefectError(
            f"mass defect {defect:.3e} exceeds the per-step budget {MAX_STEP_DEFECT:g}; "
            "the grid is under-resolved or the input density is inconsistent"
        )
    if not captured > 0.0:
        raise MassDefectError("no probability mass fell inside the grid domain")
    values = cells / grid.node_weights() / captured
    # the linear step can leave a roundoff-sized negative truncation
    total_trunc = 1.0 - (1.0 - prev_trunc) * (1.0 - max(new_trunc, 0.0))
    return GriddedPdf(grid, values, min(total_trunc, 1.0 - 1e-15)), defect


# ----------------------------------------------------------------------
# single steps
# ----------------------------------------------------------------------


def _fast_len(n: int) -> int:
    """Smallest 2-3-5-smooth integer >= n: a length pocketfft's real FFT runs fast at."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the smallest p35 * 2^k that reaches n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


class StepOperator:
    """One convolve-then-warp step as a linear map on node masses.

    Everything that stays fixed during a run is built once from
    ``(g, noise, grid)``: the noise kernel's cell masses and their
    real FFT, the warped cell edges, the nodes of the convolved density's
    CDF, the weights of the nodes that leak past the top warped edge and
    ``loss``, the kernel's clipped mass per unit of input mass that the step
    counts as truncated. ``apply`` clips nothing, so it is strictly linear in
    its input and serves both as the power-iteration step and as the
    eigensolve's operator; ``first`` is a per-step run's step 1, from a point
    mass at 0. ``kernel`` may be the uncapped kernel of a grid no longer.
    """

    def __init__(self, g: float, noise: NoiseModel, grid: GridSpec,
                 kernel: KernelCells | None = None):
        edges = _validated_edges(grid)
        h = grid.h
        kern = kernel or noise.cell_masses(h, max_halfwidth=float(edges[-1]) + _KERNEL_MARGIN)
        self.grid = grid
        self.noise = noise
        self.kernel = kern
        # Light tails: the left clip is below noise.TAIL_TOL and its destination
        # is not resolved; count it as truncated rather than misplace it.
        self.loss = kern.clip_right + (0.0 if kern.capped else kern.clip_left)
        self._conv_len = grid.n_points + kern.masses.size - 1
        self._fft_len = _fast_len(self._conv_len)
        self._kernel_fft = np.fft.rfft(kern.masses, self._fft_len)
        self._nodes = grid.x_min - kern.halfcells * h + h * np.arange(self._conv_len)
        # u = log(e^b - 1) - g at the cell edges b; -inf at b = 0
        self._warped = edges - dz_of_y(edges) - g
        # The share of each convolved node's mass that the CDF interpolated at
        # the top warped edge w leaves above it, so that the leak past w is
        # summed directly: as the total minus the CDF at w, a difference of
        # two numbers near the total, it would be roundoff of order 1e-16 in a
        # per-step leak of order 1e-8. The share is 1 from w + h on, and
        # (1 + (node - w)/h)/2 next to w.
        top = self._warped[-1]
        share = np.clip(0.5 + 0.5 * (self._nodes - top) / h, 0.0, 1.0)
        if top > self._nodes[-1]:
            share[:] = 0.0  # the interpolated CDF is the total there
        elif top < self._nodes[0]:
            share[:] = 1.0  # and 0 here
        self._leak_from = int(np.searchsorted(share, 0.0, side="right"))
        self._leak_share = share[self._leak_from:].copy()  # the tail only

    def first(self) -> tuple[np.ndarray, float]:
        """Cell masses and truncated mass one step from a point mass at 0,
        straight from the noise CDF at the warped cell edges."""
        cdf = self.noise.cdf_at(self._warped)
        return np.maximum(np.diff(cdf), 0.0), float(1.0 - cdf[-1])

    def transport(self, masses: np.ndarray) -> tuple[np.ndarray, float]:
        """Output cell masses and the leak past the top warped edge, both
        linear in ``masses``; the kernel's clipped mass is in neither."""
        kern = self.kernel
        conv = np.fft.irfft(np.fft.rfft(masses, self._fft_len) * self._kernel_fft,
                            self._fft_len)[:self._conv_len]
        cells = np.diff(_node_cdf(conv, self._nodes, self._warped))
        if kern.capped:
            # Heavy-tail window: jumps past the capped left edge overshoot the
            # whole domain and collapse onto x ~ 0+, so (thanks to the kernel
            # margin) their mass belongs in the first cell to sub-cell accuracy.
            cells[0] += kern.clip_left * float(masses.sum())
        return cells, float(np.dot(conv[self._leak_from:], self._leak_share))

    def apply(self, masses: np.ndarray) -> tuple[np.ndarray, float]:
        """Output cell masses and newly truncated mass, both linear in ``masses``.

        For an input of total mass M the two add up to M up to roundoff.
        """
        cells, leak = self.transport(masses)
        return cells, self.loss * float(masses.sum()) + leak


def volatility_pdf(p_y: GriddedPdf, grid: GridSpec | None = None) -> GriddedPdf:
    """Density of the growth increment dz from the reversed variable's density.

    Applies rho_dz(x) = rho_y(-log(1 - e^{-x})) / (e^x - 1) conservatively:
    the map is an involution exchanging x -> 0+ with the reversed variable's
    far tail, so the first output cell holds that tail's full (integrable)
    mass. When no grid is given one is sized from the input's moments.
    """
    _check_normalized(p_y)
    masses = p_y.node_masses()
    if grid is None:
        grid = _default_dz_grid(p_y, masses)
    # y's node CDF at the dz cell edges' images: the total mass at x = 0's, +inf
    cv = _node_cdf(masses, p_y.grid.points(), dz_of_y(_validated_edges(grid)))
    cells = np.maximum(cv[:-1] - cv[1:], 0.0)  # the image decreases with x
    new_trunc = float(cv[-1])  # reversed-variable mass mapping beyond the top edge
    return _assemble(grid, cells, p_y.truncated_mass, new_trunc)[0]


def _default_dz_grid(p_y: GriddedPdf, masses: np.ndarray) -> GridSpec:
    """The dz grid for a reversed-variable density with node masses
    ``masses``: cells of width upper/n sized from its moments and tails,
    ending two cells past the cell that holds the image dz_of_y(y_k) of y_k,
    the highest y node at which y's node CDF is below 1e-11 of y's mass (y's
    first node y_1 when none is).

    ``volatility_pdf`` interpolates that node CDF, with 0 below y_1, so the
    cells past the end hold less than 1e-11 of the mass between them, and
    none when y_k = y_1. The kept nodes, cell edges and cell masses are the
    uncut grid's. The grid ends at the sizing's upper end when the image of
    y_k lies beyond it.
    """
    mean_y, std_y = p_y.mean(), p_y.std()
    if not (math.isfinite(mean_y) and math.isfinite(std_y)):
        raise DomainError(_NONFINITE_Y)
    if not mean_y > 0.0:
        raise DomainError("reversed-variable density must have positive mean")
    center = ybar(mean_y, math.inf)
    if center > _DZ_CAP:
        raise DomainError(f"the growth increment's centre {center:g} lies beyond the dz "
                          f"grid's cap of {_DZ_CAP:g}")
    width = max((math.exp(center) - 1.0) * std_y, p_y.grid.h)
    upper = center + 30.0 * width
    cum = np.cumsum(masses)  # y's CDF at its cells' upper edges
    # The map swaps dz -> infinity with the reversed variable's lower range,
    # so the domain must reach the image of y's low quantile: find the lowest
    # cell edge below which y carries essentially no mass (edge k + 1 has
    # cum[k] below it; the mass is positive, so edge 0 never qualifies).
    idx = int(np.searchsorted(cum, 1e-11 * cum[-1])) + 1
    y_lo = float(p_y.grid.cell_edges()[min(idx, masses.size)])
    upper = max(upper, float(dz_of_y(max(y_lo, 1e-26))))
    # Integrable spike at 0 maps from y's far upper tail; give its own
    # exponential dz-tail room when that tail carries weight.
    d0 = float(p_y.values[0])
    if d0 > 1e-12:
        upper = max(upper, math.log(d0 / 1e-14))
    upper = min(upper, _DZ_CAP)
    h = min(width / 80.0, 0.002)
    n = int(np.clip(math.ceil(upper / h), 64, 1 << 20))
    grid = cell_grid(upper, n)
    # the first node past the cut
    above = int(np.argmax(cum - 0.5 * masses >= 1e-11 * masses.sum()))
    x_end = float(dz_of_y(p_y.grid.points()[max(above - 1, 0)]))
    end = max(int(x_end / grid.h) + 3, 64) if x_end < upper else n
    return GridSpec(grid.x_min, grid.h, min(end, n))


# ----------------------------------------------------------------------
# full runs
# ----------------------------------------------------------------------


def _check_drift(g: float) -> None:
    if g > _DZ_CAP:
        # the growth increment dz sits near g, past any dz grid
        raise DomainError(f"g={g:g} puts the growth increment beyond the dz grid's cap "
                          f"of {_DZ_CAP:g}")


def _reversed(g: float, noise: NoiseModel, grid: GridSpec) -> tuple[float, NoiseModel]:
    """The reversed recursion's drift and noise: drift negated, noise mirrored.

    ``y_steps`` and the eigensolve both start here, whether their grid was
    given or defaulted, so the drift cap and the steady centre's resolution
    (judged once the grid's scale admits finite moments) hold on every route
    to dz.
    """
    _check_drift(g)
    if not math.isfinite(grid.x_max * grid.x_max):
        raise DomainError(_NONFINITE_Y)
    if g > 0.0 and ybar(g, math.inf) < _MIN_CENTRE_CELLS * grid.h:
        raise DomainError(f"g={g:g} puts the reversed variable's steady centre "
                          f"{ybar(g, math.inf):.3g} within {_MIN_CENTRE_CELLS:g} "
                          f"y cells of width {grid.h:.3g}; dz is not resolved there")
    return -g, noise.mirror()


def _steps(g: float, noise: NoiseModel, grid: GridSpec, horizon: int,
           tol: float) -> Iterator[StepRecord]:
    """The records of a run of drift g and ``noise`` on ``grid``: ``horizon``
    steps, or up to the first whose L1 distance from the previous density is
    below ``tol``. The horizon is checked and the step operator built now;
    each record is made when asked for and only the latest density is kept,
    so a caller that drops each record holds O(grid) memory."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    op = StepOperator(g, noise, grid)

    def records() -> Iterator[StepRecord]:
        cells, new_trunc = op.first()
        pdf, defect = _assemble(grid, cells, 0.0, new_trunc)
        yield StepRecord(1, pdf, defect, new_trunc, None, False)
        for t in range(2, horizon + 1):
            cells, new_trunc = op.apply(pdf.node_masses())
            nxt, defect = _assemble(grid, cells, pdf.truncated_mass, new_trunc)
            l1 = pdf.distance(nxt)
            pdf = nxt
            yield StepRecord(t, pdf, defect, new_trunc, l1, l1 < tol)
            if l1 < tol:
                return

    return records()


def z_steps(g: float, noise: NoiseModel, grid: GridSpec, horizon: int) -> Iterator[StepRecord]:
    """The records of log cumulative production from z_0 = 0 for ``horizon``
    >= 1 steps of drift g and ``noise`` on ``grid``, whose cells must tile
    [0, upper] (``cell_grid`` or ``default_z_grid``).

    Step 1 is exact: its cell masses come from the noise CDF at the warped
    cell edges. The run never stops early and no record is ``converged``:
    for g > 0, z has no fixed point, as its mean grows by about g and its
    variance by about sigma_a^2 per step.
    """
    return _steps(g, noise, grid, horizon, 0.0)


def y_steps(g: float, noise: NoiseModel, grid: GridSpec, horizon: int,
            tol: float = 1e-8) -> Iterator[StepRecord]:
    """The records of the reversed variable y = log(Z_t / (Z_t - Z_{t-1}))
    on ``grid`` (``cell_grid`` or ``default_y_grid``) for at most ``horizon``
    >= 1 steps.

    Identical machinery to ``z_steps`` with the drift negated and the noise
    mirrored (``_reversed``); for g + E[a] > 0 the densities reach a genuine
    fixed point (``_stationary``), and the run stops on the first record
    whose L1 distance from the previous density is below ``tol``, which is
    marked ``converged``, or after ``horizon`` steps.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    return _steps(*_reversed(g, noise, grid), grid, horizon, tol)


# ----------------------------------------------------------------------
# steady-state volatility
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class VolatilityReport:
    """Steady-state summary of the growth-increment distribution.

    ``solver`` records how the reversed variable's fixed point was found:
    ``method`` ("arnoldi" for the eigensolve, "power" for a ``y_steps`` run),
    ``applications`` of the step operator, the Perron root estimate
    ``eigenvalue`` (the mass one step keeps) and ``residual_l1``,
    ``||P v - eigenvalue v||_1`` for the unit-mass vector v and the operator
    P iterated (for the eigensolve, its closure). ``noise`` is the noise
    model's label. ``dataclasses.asdict`` gives the JSON report.
    """

    g: float
    noise: str
    variance: float
    quantiles: dict
    sigma_a_sq: float
    narrow_variance: float
    ratio_to_narrow: float
    truncated_mass: float
    solver: dict


def _stationary(g: float, noise: NoiseModel) -> tuple[float, NoiseModel]:
    """The drift g + E[a] and the centred noise, which step y as (g, noise) do.
    y has a stationary law exactly when g + E[a] > 0 and the noise variance is
    finite (Vervaat, Adv. Appl. Probab. 11, 1979; Goldie and Maller, Ann. Probab.
    28, 2000); else, and for Lorentzian noise (mean nan), a domain error."""
    drift = g + noise.mean()
    if not drift > 0.0:
        raise DomainError(f"y has no stationary law: g + E[a] = {drift:g} ({noise.label()})")
    if noise.kind == "tabulated":
        noise = NoiseModel(kind="tabulated", xs=noise.xs - noise.mean(), ys=noise.ys)
    return drift, noise


def _volatility_report(g: float, noise: NoiseModel, p_y: GriddedPdf, solver: dict,
                       dz: GriddedPdf | None = None) -> tuple[VolatilityReport, GriddedPdf]:
    """Report on the growth increment for the reversed variable's fixed point p_y,
    and the growth increment's density it is read from: ``dz`` when given,
    which must be ``volatility_pdf(p_y)``.

    Noise that gives y no stationary law (``_stationary``), and a narrow-noise
    variance at g + E[a] that underflows to 0, are domain errors.
    """
    sigma_sq = noise.variance()
    narrow = var_dz_saddle(_stationary(g, noise)[0], math.sqrt(sigma_sq))
    if narrow == 0.0:
        raise DomainError(f"narrow_variance at sigma_a_sq={sigma_sq:g} underflows to 0: "
                          "the ratio to it is not finite")
    if dz is None:
        dz = volatility_pdf(p_y)
    variance = dz.variance()
    return VolatilityReport(
        g=g,
        noise=noise.label(),
        variance=variance,
        quantiles=_quantile_fields(dz),
        sigma_a_sq=sigma_sq,
        narrow_variance=narrow,
        ratio_to_narrow=variance / narrow,
        truncated_mass=dz.truncated_mass,
        solver=solver,
    ), dz


def _limit_log_masses(g: float, sigma_sq: float, grid: GridSpec, above: bool) -> np.ndarray | None:
    """Logs, up to one constant, of y's node masses rho_dz(x) h e^{x - y} on
    ``grid``, x = -log(1 - e^{-y}), in the diffusion limit dz ~ Gamma(kappa =
    2g/sigma^2, theta = sigma^2/2); then, when ``above``, of its mass above the
    top edge, P(dz < x_T), as its small-x_T limit x_T^kappa/(kappa Gamma(kappa)
    theta^kappa). None where kappa, theta or the top log is not finite."""
    theta = 0.5 * sigma_sq
    kappa = g / theta if theta > 0.0 else math.inf
    if not (0.0 < kappa < math.inf and theta < math.inf):
        return None
    y = np.append(grid.points(), grid.cell_edges()[-1]) if above else grid.points()
    x = dz_of_y(y)
    log_x = np.log(x, out=-y, where=x > 0.0)  # x rounds to 0 only where log x = -y
    with np.errstate(over="ignore", invalid="ignore"):  # past float64: inf or nan
        logs = (kappa - 1.0) * log_x - x / theta - y + x + math.log(grid.h)
        if above:
            logs[-1] = kappa * log_x[-1] - math.log(kappa)
    return logs if math.isfinite(logs.max()) else None


class _TailClosure:
    """The reversed step on its grid's bulk prefix plus one tail amplitude.

    Above y_T = ybar(g, inf) + 6 widths of the fixed point + 8 noise
    standard deviations the reversed step is a random walk with drift, whose
    stationary density is geometric at the rate kappa of
    ``analytic.tail_exponent``. A vector (b, A) of n_T + 1 entries stands
    for the grid's node masses b on the n_T nodes of its prefix through y_T
    and A t above them, where t is the unit-mass geometric tail, t_i
    proportional to e^{-kappa h (i - n_T)}. One step sends b through the
    prefix grid's own step operator: its cells stay in the bulk and its leak
    past y_T joins the amplitude (its kernel clips are lost, as on the full
    grid). The tail's share is one step of t, made once on the prefix
    [0, y_T + W], W the kernel's half-width plus the drift plus two cells:
    no point moves down further, so t's mass above it, put on its last node,
    stays above y_T. A times that image's first n_T cells joins the bulk and
    A times the rest and its leak the amplitude. Noise with no exponential
    tail, and a grid ending before y_T, keep the full grid: n_T = n, no A.
    """

    def __init__(self, g: float, noise: NoiseModel, grid: GridSpec):
        self.reversed = _reversed(g, noise, grid)
        self.tail = None
        self._limit = g, noise.variance()
        n, h = grid.n_points, grid.h
        kappa = tail_exponent(noise, g)
        if kappa is not None:
            sig = math.sqrt(noise.variance())
            y_t = ybar(g, math.inf) + _BULK_WIDTHS * sigma_y_fixed_point(g, sig) + _BULK_SIGMAS * sig
            n = min(max(math.ceil(y_t / h), 16), n)
        self.bulk = StepOperator(*self.reversed, GridSpec(grid.x_min, h, n))
        if n == grid.n_points:
            return
        # r = 0 (a tail on one node) where kappa h overflows
        self.tail = math.exp(-kappa * h) ** np.arange(grid.n_points - n, dtype=float)
        self.tail /= self.tail.sum()
        head = np.zeros(min(n + self.bulk.kernel.halfcells + math.ceil(g / h) + 2, grid.n_points))
        head[n:] = self.tail[:head.size - n]
        head[-1] += self.tail[head.size - n:].sum()
        kern = self.bulk.kernel  # the same cells on any longer grid, unless capped
        cells, leak = StepOperator(*self.reversed, GridSpec(grid.x_min, h, head.size),
                                   None if kern.capped else kern).transport(head)
        self._image, self._kept = cells[:n].copy(), float(cells[n:].sum()) + leak

    def start(self) -> np.ndarray:
        """The Arnoldi start (b, A), or on the full grid: the diffusion limit's
        law at unit mass, or the first step from y = 0 where it has none."""
        logs = _limit_log_masses(*self._limit, self.bulk.grid, self.tail is not None)
        if logs is None:
            cells, above = self.bulk.first()
            return cells if self.tail is None else np.append(cells, above)
        v = np.exp(logs - logs.max())
        return v / v.sum()

    def extend(self, v: np.ndarray) -> np.ndarray:
        """The full grid's node masses of a vector (b, A)."""
        if self.tail is None:
            return v
        return np.concatenate((v[:-1], v[-1] * self.tail))

    def step(self, v: np.ndarray) -> tuple[np.ndarray, float]:
        """One step of a vector (b, A) and the mass it loses, both linear in it."""
        if self.tail is None:
            return self.bulk.apply(v)
        cells, leak = self.bulk.transport(v[:-1])
        out = np.empty(v.size)
        np.multiply(self._image, v[-1], out=out[:-1])
        out[:-1] += cells
        out[-1] = leak + v[-1] * self._kept
        return out, self.bulk.loss * float(v.sum())


def _negative_mass(v: np.ndarray) -> float:
    """The negative mass of (b, A): its full grid's, as the tail t >= 0 sums to 1."""
    return float(-v[v < 0.0].sum())


def _perron_density(g: float, noise: NoiseModel, grid: GridSpec) -> tuple[GriddedPdf, dict]:
    """Fixed point of the reversed recursion as the step operator's Perron vector.

    The eigensolve runs on ``_TailClosure``'s vectors of the bulk prefix's
    node masses plus one tail amplitude (the whole grid when the noise has
    no exponential tail), so its basis and applications are sized by the
    bulk, not by the grid's exponential tail. A thick-restart Arnoldi
    iteration in numpy (Morgan, Math. Comp. 65, 1996; Stewart, SIAM J.
    Matrix Anal. Appl. 23, 2001) builds a Krylov space of ``_ARNOLDI_NCV``
    vectors from the diffusion limit's law (``_TailClosure.start``), so
    repeated solves are bit-identical. Each new vector is orthogonalised by
    classical Gram-Schmidt with one reorthogonalisation pass. Every
    ``_RITZ_CHECK_EVERY`` basis vectors, in every cycle, the Ritz pair
    (theta, y) of largest modulus of the projected matrix is tested by
    ARPACK's Ritz estimate beta |y_last|. One rule stops the solve at every
    check: an estimate of at most ``_RITZ_TOL`` |theta| and a unit-mass
    vector within the negative-mass budget. Mid-cycle a candidate failing
    either test only lets the basis grow. At the end of a full cycle a
    converged vector over the budget fails the solve, which restarts would
    not mend before the application cap. Otherwise the cycle restarts from
    an orthonormal real basis of the half of the Ritz vectors with the
    largest modulus, followed by the old last basis vector. A conjugate pair
    enters that basis once, as its real and imaginary parts, so the basis
    spans an invariant subspace of the projected matrix and the Arnoldi
    relation holds across the restart. The clipped unit-mass eigenvector
    (b, A) goes through one more closed step, whose loss
    (``_TailClosure.step``) passes the per-step defect check and, about
    1 - lambda, is the ``truncated_mass`` of its result extended onto the
    full grid. The tail's image and that last step are counted as
    applications, at most ``_MAX_APPLICATIONS`` of them.

    Besides the bulk's step operator, the tail and the reported density, the
    solve's workspace is the basis, (ncv + 1) x (n_T + 1) doubles (1.5 MB
    for the 4,621 bulk points of the 25,872-point grid at sigma_a^2 = 1,
    g = 0.1), and the one vector that Gram-Schmidt subtracts through: the
    restart, an orthogonal change of basis, is applied in place in column
    blocks. The default y grid refuses noise that would need more than 2^21
    points, so the basis stays below 41 x 2^21 doubles (688 MB).
    """
    closure = _TailClosure(g, noise, grid)
    applications = 0 if closure.tail is None else 1

    def step(v):
        nonlocal applications
        applications += 1
        if applications > _MAX_APPLICATIONS:
            raise ConvergenceError(
                f"no fixed point within {_MAX_APPLICATIONS} operator applications")
        return closure.step(v)

    first = closure.start()
    n = first.size
    m = min(_ARNOLDI_NCV, n)
    basis = np.zeros((m + 1, n))  # one Krylov vector per row
    proj = np.zeros((m + 1, m))  # the projected matrix over its coupling row
    np.divide(first, np.linalg.norm(first), out=basis[0])
    del first
    tmp = np.empty(n)  # the Gram-Schmidt projections, subtracted through it
    k = 0  # basis vectors whose step is in the projected matrix
    while True:
        w = step(basis[k])[0]
        h = basis[:k + 1] @ w
        w -= np.matmul(h, basis[:k + 1], out=tmp)
        again = basis[:k + 1] @ w
        w -= np.matmul(again, basis[:k + 1], out=tmp)
        proj[:k + 1, k] = h + again
        proj[k + 1, k] = np.linalg.norm(w)
        np.divide(w, proj[k + 1, k], out=basis[k + 1])
        k += 1
        if k < m and k % _RITZ_CHECK_EVERY:
            continue
        theta, ritz = np.linalg.eig(proj[:k, :k])
        order = np.argsort(-np.abs(theta), kind="stable")
        top = order[0]
        if abs(proj[k, :k] @ ritz[:, top]) <= _RITZ_TOL * abs(theta[top]):
            # the Perron pair is real; a complex product would copy the basis
            vec = ritz[:, top].real @ basis[:k]
            vec /= vec.sum()
            negative = _negative_mass(vec)
            if negative <= _MAX_NEGATIVE_MASS:
                break
            if k == m:
                raise ConvergenceError(
                    f"eigenvector carries negative mass {negative:.3e} (budget "
                    f"{_MAX_NEGATIVE_MASS:g}); it is not the stationary density"
                )
        if k < m:
            continue
        chosen = order[:m // 2]
        chosen = chosen[theta[chosen].imag >= 0.0]  # each conjugate pair once
        pairs = chosen[theta[chosen].imag > 0.0]
        q = np.linalg.qr(np.hstack([ritz[:, chosen].real, ritz[:, pairs].imag]))[0]
        kept = q.shape[1]
        restart, coupling = q.T @ proj[:m] @ q, proj[m] @ q
        # the change of basis in place: each column block of the product is
        # complete before it overwrites its own columns of the first rows
        for s in range(0, n, _RESTART_BLOCK):
            basis[:kept, s:s + _RESTART_BLOCK] = q.T @ basis[:m, s:s + _RESTART_BLOCK]
        basis[kept] = basis[m]  # only now: the product read row kept
        proj[:] = 0.0
        proj[:kept, :kept], proj[kept, :kept] = restart, coupling
        k = kept
    del basis, tmp, w
    np.maximum(vec, 0.0, out=vec)
    vec /= vec.sum()
    eigenvalue = float(theta[top].real)
    cells, new_trunc = step(vec)
    pdf, _ = _assemble(grid, closure.extend(cells), 0.0, new_trunc)
    return pdf, {
        "method": "arnoldi",
        "applications": applications,
        "eigenvalue": eigenvalue,
        "residual_l1": float(np.abs(cells - eigenvalue * vec).sum()),
    }


def steady_state_volatility(g: float, noise: NoiseModel,
                            grid: GridSpec | None = None) -> VolatilityReport:
    """Solve the reversed recursion for its fixed point and report the volatility.

    Noise that gives y no stationary law is a domain error (``_stationary``);
    the grid (``default_y_grid`` when not given), the eigensolve and the
    narrow-noise reference take its drift g + E[a] and centred noise. The
    eigensolve stops by one rule (``_perron_density``). Raises
    ``ConvergenceError`` when the solve needs more than ``_MAX_APPLICATIONS``
    operator applications or the eigenvector is not a density.
    """
    drift, centred = _stationary(g, noise)
    if grid is None:
        grid = default_y_grid(drift, centred)
    p_y, solver = _perron_density(drift, centred, grid)
    return _volatility_report(g, noise, p_y, solver)[0]


def power_volatility(g: float, noise: NoiseModel, last: StepRecord,
                     dz: GriddedPdf | None = None) -> tuple[VolatilityReport, GriddedPdf]:
    """Steady-state report from the final record ``last`` of a ``y_steps``
    run of drift g and ``noise``, and that record's growth increment, which
    the report is read from: ``dz`` when given, which must be
    ``volatility_pdf(last.pdf)``. A record that is not ``converged`` is a
    ``ConvergenceError``.

    The solver block describes the power iteration that produced the run:
    its last step kept ``eigenvalue`` of the mass and moved the normalised
    density by ``l1_prev``.
    """
    if not last.converged:
        raise ConvergenceError(f"trace did not converge within horizon={last.t}")
    eigenvalue = 1.0 - last.new_truncation
    solver = {
        "method": "power",
        "applications": last.t - 1,
        "eigenvalue": eigenvalue,
        "residual_l1": eigenvalue * last.l1_prev,
    }
    return _volatility_report(g, noise, last.pdf, solver, dz)


# ----------------------------------------------------------------------
# default grids
# ----------------------------------------------------------------------


def _grid_from(upper: float, h_target: float, n_points: int | None) -> GridSpec:
    if not math.isfinite(upper):
        raise DomainError("the default grid's upper end overflows float64 for this noise and g")
    if n_points is None:
        n_points = int(np.clip(math.ceil(upper / h_target), 64, _MAX_GRID_POINTS))
    return cell_grid(upper, n_points)


def default_z_grid(g: float, noise: NoiseModel, t_max: int,
                   n_points: int | None = None) -> GridSpec:
    """Grid sized to hold the log-production density out to t_max.

    A table's mean adds to the drift: z moves at the rate g + mean.
    """
    if noise.kind == "lorentzian":
        upper = ybar(-g, t_max) + 12.0 * noise.gamma + 25.0 * noise.gamma * t_max
        h = min(0.005, noise.gamma / 40.0)
    else:
        drift = g + noise.mean()
        sig = math.sqrt(max(noise.variance(), 1e-30))
        if abs(drift) > 1e-9:
            spread = math.sqrt(max(var_logZ_saddle(drift, sig, t_max), 0.0) + sig * sig)
        else:
            spread = sig * math.sqrt(t_max + 1.0)
        # ybar: the log sum of the drift factors
        upper = ybar(-drift, t_max) + 12.0 * spread + 6.0 * sig + 1.0
        # earliest step is the narrowest: width ~ sigma * e^g/(1+e^g)
        narrow = sig / (1.0 + math.exp(-drift))
        h = min(0.005, max(narrow / 30.0, upper / float(_MAX_GRID_POINTS)))
    return _grid_from(upper, h, n_points)


def default_y_grid(g: float, noise: NoiseModel, n_points: int | None = None) -> GridSpec:
    """Grid sized to hold the reversed variable out to its fixed point (g > 0).

    Without ``n_points`` the spacing is the target spacing (1/80 of the fixed
    point's width, or gamma/40 for Lorentzian noise) capped at 0.005, and
    inputs that need more than 2^21 points at that spacing are a domain
    error: narrow noise, wide noise, or a small drift with its long tail.
    """
    _check_drift(g)  # the sizing below overflows long before float64 does
    if not g > 0.0:
        raise DomainError(f"g={g:g}: the default y grid is sized at the reversed variable's "
                          "fixed point, which needs g > 0; give a grid instead")
    center = ybar(g, math.inf)
    if noise.kind == "lorentzian":
        upper = center + 12.0 * noise.gamma + 60.0 * noise.gamma / g
        target = noise.gamma / 40.0
    else:
        sig = math.sqrt(max(noise.variance(), 1e-30))
        width = sigma_y_fixed_point(g, sig)
        # 19 decay lengths of the stationary exponential upper tail: its
        # rate is 2g/sigma^2 for Gaussian noise and a table's own otherwise
        kappa = tail_exponent(noise, g) if noise.kind == "tabulated" else None
        tail = 19.0 / kappa if kappa else 9.5 * sig * sig / g
        upper = center + 12.0 * width + tail + 6.0 * sig + 0.5
        target = width / 80.0
    h = min(0.005, target)
    if n_points is None and not upper / h <= _MAX_GRID_POINTS:
        raise DomainError(f"{noise.label()} at g={g:g} needs more than the y grid's "
                          f"{_MAX_GRID_POINTS} points: cells of width {h:.3g} "
                          f"over [0, {upper:.3g}]")
    return _grid_from(upper, h, n_points)
