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
fixed point for g > 0; the one-step growth increment dz then follows from

    rho_dz(x) = rho_y(-log(1 - e^{-x})) / (e^x - 1),  x > 0.

One step is a linear map P on node masses (``StepOperator``), built once per
run; its convolution is numpy's real FFT at a 2-3-5-smooth length. Per-step
outputs apply it repeatedly and renormalise (power iteration).
The reversed variable's fixed point is P's Perron vector, which
``steady_state_volatility`` finds directly with a thick-restart Arnoldi
iteration in numpy: 40 Krylov vectors, 20 Ritz vectors kept at each restart,
and ARPACK's stopping rule (Morgan, Math. Comp. 65, 1996; Stewart, SIAM J.
Matrix Anal. Appl. 23, 2001). It needs tens of applications, where power
iteration needs of the order of sigma_a^2/g^2 steps. The Perron root lambda
is the mass one step keeps, so 1 - lambda is the per-step leak through the
grid's edges. The package runs on numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .analytic import sigma_y_fixed_point, var_dz_saddle, var_logZ_saddle, ybar
from .errors import ConvergenceError, DomainError, MassDefectError
from .noise import NoiseModel
from .pdfgrid import GriddedPdf, GridSpec, cell_grid

__all__ = [
    "EvolutionConfig",
    "StepRecord",
    "EvolutionTrace",
    "VolatilityReport",
    "StepOperator",
    "init_first_step",
    "evolve_z",
    "evolve_y",
    "volatility_pdf",
    "steady_state_volatility",
    "trace_volatility",
    "default_z_grid",
    "default_y_grid",
    "default_y_config",
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

# Grid columns per block of the eigensolve's in-place restart: a block of
# the product of the kept Ritz vectors, about ncv/2 x 4096 doubles, stays
# under 1 MB.
_RESTART_BLOCK = 4096

# The Perron vector is nonnegative; an eigenvector carrying more negative mass
# than this (after normalisation to unit mass) is not it.
_MAX_NEGATIVE_MASS = 1e-12

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
class EvolutionConfig:
    """Inputs of one evolution run.

    ``grid`` is the node grid of the evolving density; its cells must tile
    [0, upper] exactly (build it with ``cell_grid`` or the default_* helpers).
    ``convergence_tol`` governs the reversed variable only: ``evolve_y`` stops
    once the L1 distance between successive densities falls below it, and
    ``steady_state_volatility`` uses it as the eigensolve's relative
    tolerance on ARPACK's Ritz estimate. ``evolve_z`` always runs ``horizon``
    steps.
    """

    g: float
    noise: NoiseModel
    grid: GridSpec
    horizon: int
    convergence_tol: float = 1e-8

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if not self.convergence_tol > 0.0:
            raise ValueError("convergence_tol must be positive")


@dataclass(frozen=True)
class StepRecord:
    """One time step: its density and what the step loop measured.

    ``mass_defect`` and ``new_truncation`` are the step's mass bookkeeping,
    ``l1_prev`` the L1 distance from the previous density (None at t = 1).
    Statistics are read from ``pdf`` when asked for.
    """

    t: int
    pdf: GriddedPdf
    mass_defect: float
    new_truncation: float
    l1_prev: float | None


@dataclass(frozen=True)
class EvolutionTrace:
    config: EvolutionConfig
    steps: list
    converged_at: int | None

    def density(self, t: int) -> GriddedPdf:
        """Density at time step t (1-indexed)."""
        if not 1 <= t <= len(self.steps):
            raise ValueError(f"step {t} not in trace (1..{len(self.steps)})")
        return self.steps[t - 1].pdf

    def final(self) -> StepRecord:
        return self.steps[-1]


def _quantile_fields(pdf: GriddedPdf) -> dict:
    """The report quantiles of a density, keyed q05 .. q95."""
    qs = pdf.quantiles(_REPORT_PROBS)
    return {f"q{int(100 * p):02d}": float(q) for p, q in zip(_REPORT_PROBS, qs)}


# ----------------------------------------------------------------------
# warp maps (cell-edge coordinates)
# ----------------------------------------------------------------------


def _growth_edges(edges: np.ndarray, g: float) -> np.ndarray:
    """u = log(e^b - 1) - g at the cell edges; -inf at b = 0."""
    with np.errstate(divide="ignore"):
        return edges + np.log1p(-np.exp(-edges)) - g


def _reciprocal_edges(edges: np.ndarray) -> np.ndarray:
    """v = -log(1 - e^{-b}) at the cell edges; +inf at b = 0 (involution)."""
    with np.errstate(divide="ignore"):
        return -np.log1p(-np.exp(-edges))


def _validated_edges(grid: GridSpec) -> np.ndarray:
    """Cell edges of a grid whose domain must start exactly at 0."""
    if grid.x_min != 0.5 * grid.h:
        raise DomainError(
            "evolution grids must tile [0, upper]; build them with cell_grid()"
        )
    return grid.cell_edges()


def _node_cum(masses: np.ndarray) -> np.ndarray:
    """The node CDF of per-node masses at the nodes: half of each node's own
    mass counts as below the node."""
    cum = np.cumsum(masses)
    cum -= 0.5 * masses
    return cum


def _node_cdf(masses: np.ndarray, nodes: np.ndarray, at: np.ndarray) -> np.ndarray:
    """Linear interpolation of the node CDF (``_node_cum``) at ``at``."""
    return np.interp(at, nodes, _node_cum(masses), left=0.0, right=float(masses.sum()))


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


def _first_step(noise: NoiseModel, g: float, grid: GridSpec) -> tuple[np.ndarray, float]:
    """Cell masses and truncated mass one step from x_0 = 0."""
    cdf = noise.cdf_at(_growth_edges(_validated_edges(grid), g))
    return np.maximum(np.diff(cdf), 0.0), float(1.0 - cdf[-1])


def init_first_step(noise: NoiseModel, g: float, grid: GridSpec) -> GriddedPdf:
    """Exact density after one step from the deterministic start (x_0 = 0).

    The point mass at 0 is never discretised: cell masses come directly from
    the noise CDF evaluated at the warped cell edges.
    """
    cells, new_trunc = _first_step(noise, g, grid)
    return _assemble(grid, cells, 0.0, new_trunc)[0]


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
    CDF and the weights of the nodes that leak past the top warped edge.
    ``apply`` clips nothing, so it is strictly linear in its input and
    serves both as the power-iteration step and as the eigensolve's operator.
    """

    def __init__(self, g: float, noise: NoiseModel, grid: GridSpec):
        edges = _validated_edges(grid)
        h = grid.h
        kern = noise.cell_masses(h, max_halfwidth=float(edges[-1]) + _KERNEL_MARGIN)
        self.grid = grid
        self.kernel = kern
        self._conv_len = grid.n_points + kern.masses.size - 1
        self._fft_len = _fast_len(self._conv_len)
        self._kernel_fft = np.fft.rfft(kern.masses, self._fft_len)
        self._nodes = grid.x_min - kern.halfcells * h + h * np.arange(self._conv_len)
        self._warped = _growth_edges(edges, g)
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

    def apply(self, masses: np.ndarray) -> tuple[np.ndarray, float]:
        """Output cell masses and newly truncated mass, both linear in ``masses``.

        For an input of total mass M the two add up to M up to roundoff.
        """
        kern = self.kernel
        total_in = float(masses.sum())
        conv = np.fft.irfft(np.fft.rfft(masses, self._fft_len) * self._kernel_fft,
                            self._fft_len)[:self._conv_len]
        cells = np.diff(_node_cdf(conv, self._nodes, self._warped))
        leak = float(np.dot(conv[self._leak_from:], self._leak_share))
        new_trunc = kern.clip_right * total_in + leak
        if kern.capped:
            # Heavy-tail window: jumps past the capped left edge overshoot the
            # whole domain and collapse onto x ~ 0+, so (thanks to the kernel
            # margin) their mass belongs in the first cell to sub-cell accuracy.
            cells[0] += kern.clip_left * total_in
        else:
            # Light tails: the clip is below noise.TAIL_TOL and its destination
            # is not resolved; count it as truncated rather than misplace it.
            new_trunc += kern.clip_left * total_in
        return cells, new_trunc


def volatility_pdf(p_y: GriddedPdf, grid: GridSpec | None = None) -> GriddedPdf:
    """Density of the growth increment dz from the reversed variable's density.

    Applies rho_dz(x) = rho_y(-log(1 - e^{-x})) / (e^x - 1) conservatively:
    the map is an involution exchanging x -> 0+ with the reversed variable's
    far tail, so the first output cell holds that tail's full (integrable)
    mass. When no grid is given one is sized from the input's moments.
    """
    _check_normalized(p_y)
    masses = p_y.node_masses()
    cum = np.cumsum(masses)  # y's CDF at its cells' upper edges
    if grid is None:
        grid = _default_dz_grid(p_y, masses, cum)
    cum -= 0.5 * masses  # y's node CDF (``_node_cum``)
    # v = +inf at x = 0, where the CDF is the total mass
    cv = np.interp(_reciprocal_edges(_validated_edges(grid)), p_y.grid.points(), cum,
                   left=0.0, right=float(masses.sum()))
    cells = np.maximum(cv[:-1] - cv[1:], 0.0)  # v decreases with x
    new_trunc = float(cv[-1])  # reversed-variable mass mapping beyond the top edge
    return _assemble(grid, cells, p_y.truncated_mass, new_trunc)[0]


def _default_dz_grid(p_y: GriddedPdf, masses: np.ndarray, cum: np.ndarray) -> GridSpec:
    """The dz grid for a reversed-variable density with node masses ``masses``
    and their cumulative sum ``cum``: cells of width upper/n sized from its
    moments and tails, ending two cells past the cell that holds the image
    -log(1 - e^{-y_k}) of y_k, the highest y node at which y's node CDF is
    below 1e-11 of y's mass (y's first node y_1 when none is).

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
    center = float(-math.log1p(-math.exp(-mean_y)))
    if center > _DZ_CAP:
        raise DomainError(f"the growth increment's centre {center:g} lies beyond the dz "
                          f"grid's cap of {_DZ_CAP:g}")
    width = max((math.exp(center) - 1.0) * std_y, p_y.grid.h)
    upper = center + 30.0 * width
    # The map swaps dz -> infinity with the reversed variable's lower range,
    # so the domain must reach the image of y's low quantile: find the lowest
    # cell edge below which y carries essentially no mass (edge k + 1 has
    # cum[k] below it; the mass is positive, so edge 0 never qualifies).
    idx = int(np.searchsorted(cum, 1e-11 * cum[-1])) + 1
    y_lo = float(p_y.grid.cell_edges()[min(idx, masses.size)])
    with np.errstate(divide="ignore"):
        upper = max(upper, float(-np.log1p(-np.exp(-max(y_lo, 1e-26)))))
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
    x_end = -math.log1p(-math.exp(-float(p_y.grid.points()[max(above - 1, 0)])))
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


def _reversed(config: EvolutionConfig) -> EvolutionConfig:
    """The reversed recursion's run: drift negated, noise mirrored.

    ``evolve_y`` and the eigensolve both start here, whether their grid was
    given or defaulted, so the drift cap and the steady centre's resolution
    (judged once the grid's scale admits finite moments) hold on every route to dz.
    """
    _check_drift(config.g)
    grid = config.grid
    if not math.isfinite(grid.x_max * grid.x_max):
        raise DomainError(_NONFINITE_Y)
    if config.g > 0.0 and ybar(config.g, math.inf) < _MIN_CENTRE_CELLS * grid.h:
        raise DomainError(f"g={config.g:g} puts the reversed variable's steady centre "
                          f"{ybar(config.g, math.inf):.3g} within {_MIN_CENTRE_CELLS:g} "
                          f"y cells of width {grid.h:.3g}; dz is not resolved there")
    return replace(config, g=-config.g, noise=config.noise.mirror())


def _evolve(config: EvolutionConfig, tol: float) -> EvolutionTrace:
    """Per-step run that stops once the L1 distance between successive
    densities falls below ``tol``, or after ``horizon`` steps."""
    grid = config.grid
    cells, new_trunc = _first_step(config.noise, config.g, grid)
    pdf, defect = _assemble(grid, cells, 0.0, new_trunc)
    op = StepOperator(config.g, config.noise, grid)
    steps = [StepRecord(1, pdf, defect, new_trunc, None)]
    converged_at = None
    for t in range(2, config.horizon + 1):
        cells, new_trunc = op.apply(pdf.node_masses())
        nxt, defect = _assemble(grid, cells, pdf.truncated_mass, new_trunc)
        l1 = pdf.distance(nxt)
        steps.append(StepRecord(t, nxt, defect, new_trunc, l1))
        pdf = nxt
        if l1 < tol:
            converged_at = t
            break
    return EvolutionTrace(config=config, steps=steps, converged_at=converged_at)


def evolve_z(config: EvolutionConfig) -> EvolutionTrace:
    """Evolve the density of log cumulative production for ``horizon`` steps.

    It never stops early (an L1 distance is never below 0), so its
    ``converged_at`` is None: for g > 0, z has no fixed point, as its mean
    grows by about g and its variance by about sigma_a^2 per step.
    """
    return _evolve(config, tol=0.0)


def evolve_y(config: EvolutionConfig) -> EvolutionTrace:
    """Evolve the reversed variable y = log(Z_t / (Z_t - Z_{t-1})).

    Identical machinery to ``evolve_z`` with the drift negated and the noise
    mirrored; for g > 0 the densities reach a genuine fixed point, and the run
    stops once the L1 distance between successive densities falls below
    ``convergence_tol``.
    """
    trace = _evolve(_reversed(config), config.convergence_tol)
    return EvolutionTrace(config=config, steps=trace.steps, converged_at=trace.converged_at)


# ----------------------------------------------------------------------
# steady-state volatility
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class VolatilityReport:
    """Steady-state summary of the growth-increment distribution.

    ``solver`` records how the reversed variable's fixed point was found:
    ``method`` ("arnoldi" for the eigensolve, "power" for an iterated trace),
    ``applications`` of the step operator, the Perron root estimate
    ``eigenvalue`` (the mass one step keeps) and ``residual_l1``,
    ``||P v - eigenvalue v||_1`` for the unit-mass vector v. ``noise`` is
    the noise model's label. ``dataclasses.asdict`` gives the JSON report.
    """

    g: float
    noise: str
    variance: float
    quantiles: dict
    sigma_a_sq: float | None
    narrow_variance: float | None
    ratio_to_narrow: float | None
    truncated_mass: float
    variance_reliable: bool
    solver: dict


def _volatility_report(config: EvolutionConfig, p_y: GriddedPdf, solver: dict) -> VolatilityReport:
    """Report on the growth increment for the reversed variable's fixed point p_y.

    Finite-variance noise whose narrow-noise variance underflows to 0 is a
    domain error: the ratio to it would not be finite.
    """
    sigma_sq = config.noise.variance()
    finite_sigma = math.isfinite(sigma_sq)
    narrow = var_dz_saddle(config.g, math.sqrt(sigma_sq)) if finite_sigma else None
    if narrow == 0.0:
        raise DomainError(f"narrow_variance at sigma_a_sq={sigma_sq:g} underflows to 0: "
                          "the ratio to it is not finite")
    dz = volatility_pdf(p_y)
    variance = dz.variance()
    return VolatilityReport(
        g=config.g,
        noise=config.noise.label(),
        variance=variance,
        quantiles=_quantile_fields(dz),
        sigma_a_sq=sigma_sq if finite_sigma else None,
        narrow_variance=narrow,
        ratio_to_narrow=variance / narrow if finite_sigma else None,
        truncated_mass=dz.truncated_mass,
        variance_reliable=finite_sigma and dz.truncated_mass < 1e-3,
        solver=solver,
    )


def _perron_density(config: EvolutionConfig) -> tuple[GriddedPdf, dict]:
    """Fixed point of the reversed recursion as the step operator's Perron vector.

    A thick-restart Arnoldi iteration in numpy (Morgan, Math. Comp. 65, 1996;
    Stewart, SIAM J. Matrix Anal. Appl. 23, 2001) builds a Krylov space of
    ``_ARNOLDI_NCV`` vectors from the first-step density, so repeated solves
    are bit-identical. Each new vector is orthogonalised by classical
    Gram-Schmidt with one reorthogonalisation pass. After each full cycle the
    Ritz pair (theta, y) of largest modulus of the projected matrix stops the
    solve once ARPACK's Ritz estimate beta |y_last| is at most
    ``convergence_tol`` |theta|. Otherwise the cycle restarts from an
    orthonormal real basis of the half of the Ritz vectors with the largest
    modulus, followed by the old last basis vector. A conjugate pair enters
    that basis once, as its real and imaginary parts, so the basis spans an
    invariant subspace of the projected matrix and the Arnoldi relation holds
    across the restart. The unit-mass eigenvector goes through one more step,
    whose mass bookkeeping passes the per-step defect check; the resulting
    density's ``truncated_mass`` is that step's leak, 1 - lambda.

    Besides the step operator's own arrays, the solve's workspace is the
    basis, (ncv + 1) x n doubles (8.5 MB at 25,872 points), and the one
    vector that Gram-Schmidt subtracts through: the restart, an orthogonal
    change of basis, is applied in place in column blocks. The default y
    grid refuses noise that would need more than 2^21 points, so the basis
    stays below 41 x 2^21 doubles (688 MB).
    """
    rev = _reversed(config)
    g, noise, grid = rev.g, rev.noise, rev.grid
    first = init_first_step(noise, g, grid).node_masses()
    op = StepOperator(g, noise, grid)
    applications = 0

    def counted_apply(v):
        nonlocal applications
        applications += 1
        if applications > config.horizon:
            raise ConvergenceError(
                f"no fixed point within horizon={config.horizon} operator applications "
                f"at tol={config.convergence_tol:g}"
            )
        return op.apply(v)

    n = grid.n_points
    m = min(_ARNOLDI_NCV, n)
    basis = np.zeros((m + 1, n))  # one Krylov vector per row
    proj = np.zeros((m + 1, m))  # the projected matrix over its coupling row
    np.divide(first, np.linalg.norm(first), out=basis[0])
    del first
    tmp = np.empty(n)  # the Gram-Schmidt projections, subtracted through it
    kept = 0
    while True:
        for j in range(kept, m):
            w = counted_apply(basis[j])[0]
            h = basis[:j + 1] @ w
            w -= np.matmul(h, basis[:j + 1], out=tmp)
            again = basis[:j + 1] @ w
            w -= np.matmul(again, basis[:j + 1], out=tmp)
            proj[:j + 1, j] = h + again
            proj[j + 1, j] = np.linalg.norm(w)
            np.divide(w, proj[j + 1, j], out=basis[j + 1])
        theta, ritz = np.linalg.eig(proj[:m])
        order = np.argsort(-np.abs(theta), kind="stable")
        top = order[0]
        if abs(proj[m] @ ritz[:, top]) <= config.convergence_tol * abs(theta[top]):
            break
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
    # the Perron pair is real; a complex product would copy the basis as complex
    vec = ritz[:, top].real @ basis[:m]
    del basis, tmp, w
    vec /= vec.sum()
    negative = float(-vec[vec < 0.0].sum())
    if negative > _MAX_NEGATIVE_MASS:
        raise ConvergenceError(
            f"eigenvector carries negative mass {negative:.3e} (budget "
            f"{_MAX_NEGATIVE_MASS:g}); it is not the stationary density"
        )
    np.maximum(vec, 0.0, out=vec)
    vec /= vec.sum()
    eigenvalue = float(theta[top].real)
    cells, new_trunc = counted_apply(vec)
    pdf, _ = _assemble(grid, cells, 0.0, new_trunc)
    return pdf, {
        "method": "arnoldi",
        "applications": applications,
        "eigenvalue": eigenvalue,
        "residual_l1": float(np.abs(cells - eigenvalue * vec).sum()),
    }


def steady_state_volatility(config: EvolutionConfig) -> VolatilityReport:
    """Solve the reversed recursion for its fixed point and report the volatility.

    Requires g > 0 (otherwise the reversed recursion has no fixed point).
    ``convergence_tol`` is the eigensolve's relative tolerance on ARPACK's
    Ritz estimate and ``horizon`` caps the number of operator applications.
    Raises ``ConvergenceError`` when the cap is exceeded or the eigenvector
    is not a density.
    """
    if not config.g > 0.0:
        raise DomainError("steady_state_volatility requires g > 0")
    p_y, solver = _perron_density(config)
    return _volatility_report(config, p_y, solver)


def trace_volatility(trace: EvolutionTrace) -> VolatilityReport:
    """Steady-state report from the final density of a converged ``evolve_y`` trace.

    The solver block describes the power iteration that produced the trace:
    its last step kept ``eigenvalue`` of the mass and moved the normalised
    density by ``l1_prev``.
    """
    config = trace.config
    if not config.g > 0.0:
        raise DomainError("trace_volatility requires g > 0")
    if trace.converged_at is None:
        raise ConvergenceError(
            f"trace did not converge within horizon={config.horizon} at "
            f"tol={config.convergence_tol:g}"
        )
    last = trace.final()
    eigenvalue = 1.0 - last.new_truncation
    solver = {
        "method": "power",
        "applications": len(trace.steps) - 1,
        "eigenvalue": eigenvalue,
        "residual_l1": eigenvalue * last.l1_prev,
    }
    return _volatility_report(config, last.pdf, solver)


# ----------------------------------------------------------------------
# default grids
# ----------------------------------------------------------------------


def _grid_from(upper: float, h_target: float, n_points: int | None) -> GridSpec:
    if n_points is None:
        n_points = int(np.clip(math.ceil(upper / h_target), 64, _MAX_GRID_POINTS))
    return cell_grid(upper, n_points)


def default_z_grid(g: float, noise: NoiseModel, t_max: int,
                   n_points: int | None = None) -> GridSpec:
    """Grid sized to hold the log-production density out to t_max."""
    mean_top = ybar(-g, t_max)  # log sum of the drift factors
    if noise.kind == "lorentzian":
        upper = mean_top + 12.0 * noise.gamma + 25.0 * noise.gamma * t_max
        h = min(0.005, noise.gamma / 40.0)
    else:
        sig = math.sqrt(max(noise.variance(), 1e-30))
        if abs(g) > 1e-9:
            spread = math.sqrt(max(var_logZ_saddle(g, sig, t_max), 0.0) + sig * sig)
        else:
            spread = sig * math.sqrt(t_max + 1.0)
        upper = mean_top + 12.0 * spread + 6.0 * sig + 1.0
        # earliest step is the narrowest: width ~ sigma * e^g/(1+e^g)
        narrow = sig / (1.0 + math.exp(-g))
        h = min(0.005, max(narrow / 30.0, upper / float(_MAX_GRID_POINTS)))
    return _grid_from(upper, h, n_points)


def default_y_grid(g: float, noise: NoiseModel, n_points: int | None = None) -> GridSpec:
    """Grid sized to hold the reversed variable out to its fixed point (g > 0).

    Without ``n_points`` the spacing is at most the target spacing (1/80 of
    the fixed point's width, or gamma/40 for Lorentzian noise), and noise so
    narrow that this needs more than 2^21 points is a domain error.
    """
    if not g > 0.0:
        raise DomainError("default_y_grid requires g > 0")
    _check_drift(g)  # the sizing below overflows long before float64 does
    center = ybar(g, math.inf)
    if noise.kind == "lorentzian":
        upper = center + 12.0 * noise.gamma + 60.0 * noise.gamma / g
        target = noise.gamma / 40.0
    else:
        sig = math.sqrt(max(noise.variance(), 1e-30))
        width = sigma_y_fixed_point(g, sig)
        # stationary exponential upper tail with rate 2g/sigma^2
        tail = 9.5 * sig * sig / g
        upper = center + 12.0 * width + tail + 6.0 * sig + 0.5
        target = width / 80.0
    if n_points is None and not upper / target <= _MAX_GRID_POINTS:
        raise DomainError(f"{noise.label()} at g={g:g} needs more than the y grid's "
                          f"{_MAX_GRID_POINTS} points: cells of width {target:.3g} "
                          f"over [0, {upper:.3g}]")
    return _grid_from(upper, min(0.005, target), n_points)


def default_y_config(g: float, noise: NoiseModel, tol: float = 1e-9,
                     horizon: int = 4000, n_points: int | None = None) -> EvolutionConfig:
    """Ready-to-run configuration for the reversed recursion."""
    return EvolutionConfig(
        g=g,
        noise=noise,
        grid=default_y_grid(g, noise, n_points),
        horizon=horizon,
        convergence_tol=tol,
    )
