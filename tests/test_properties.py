"""Randomised mass accounting of the step operator and the dz involution,
randomised agreement of the exact z densities with the Monte Carlo oracle, and
the oracle's KS counts against a sort of the samples."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cumvol.evolution as ev
import cumvol.montecarlo as mc
from cumvol import (
    GridSpec,
    cell_grid,
    default_z_grid,
    gaussian,
    lorentzian,
    simulate_stream,
    tabulated,
    volatility_pdf,
    z_steps,
)
from helpers import warp_step

gs = st.floats(0.05, 1.0)
widths = st.floats(0.05, 2.0)
noises = st.one_of(
    widths.map(gaussian),
    widths.map(lorentzian),
    # asymmetric tables: the two sides have independent extents and heights
    st.tuples(widths, widths, st.floats(0.05, 1.0), st.floats(0.05, 1.0)).map(
        lambda t: tabulated([(-t[0], t[2]), (0.0, 1.0), (t[1], t[3])])),
)
grids = st.builds(cell_grid, st.floats(5.0, 40.0), st.integers(64, 1024))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(gs, noises, grids, st.booleans(), st.integers(0, 2**32 - 1))
def test_step_operator_conserves_input_mass(g, noise, grid, reverse, seed):
    # the forward (z) and the reversed (y) recursion run the same operator
    if reverse:
        g, noise = -g, noise.mirror()
    masses = np.random.default_rng(seed).random(grid.n_points)
    cells, new_trunc = ev.StepOperator(g, noise, grid).apply(masses)
    assert cells.sum() + new_trunc == pytest.approx(masses.sum(), rel=1e-12)


# short dz grids truncate the growth increment's upper tail
dz_grids = st.one_of(st.none(), st.builds(cell_grid, st.floats(2.0, 10.0), st.integers(64, 1024)))


def reversed_density(g, noise, grid, steps):
    """A reversed-variable density ``steps`` steps after the first."""
    p_y = next(z_steps(-g, noise.mirror(), grid, 1)).pdf
    for _ in range(steps):
        p_y = warp_step(p_y, noise.mirror(), -g)
    return p_y


@settings(derandomize=True, max_examples=40, deadline=None)
@given(gs, noises, grids, st.integers(0, 3), dz_grids)
def test_volatility_pdf_captures_or_truncates_all_mass(g, noise, grid, steps, dz_grid):
    p_y = reversed_density(g, noise, grid, steps)
    with mock.patch.object(ev, "_assemble", wraps=ev._assemble) as assemble:
        dz = volatility_pdf(p_y, dz_grid)
    _, cells, _, new_trunc = assemble.call_args.args
    assert cells.sum() + new_trunc == pytest.approx(1.0, abs=1e-12)
    assert dz.truncated_mass < 1.0


@settings(derandomize=True, max_examples=40, deadline=None)
@given(gs, noises, grids, st.integers(0, 3))
def test_default_dz_grid_ends_two_cells_past_where_y_mass_ends(g, noise, grid, steps):
    # volatility_pdf interpolates y's node CDF, with 0 below y's first node
    # y_1: above the image of y_k, the highest node where that CDF is below
    # 1e-11 of y's mass, it puts less than 1e-11 of the mass, and above
    # x* = -log(1 - e^{-y_1}) none. The default grid stops two cells past
    # that image and drops no more than that.
    p_y = reversed_density(g, noise, grid, steps)
    sized = []  # the grid the sizing rule builds, before it is cut

    def record(upper, n):
        sized.append(cell_grid(upper, n))
        return sized[-1]

    with mock.patch.object(ev, "cell_grid", record), \
            mock.patch.object(ev, "_assemble", wraps=ev._assemble) as assemble:
        dz = volatility_pdf(p_y)
        n, h = dz.grid.n_points, dz.grid.h
        wide = volatility_pdf(p_y, GridSpec(dz.grid.x_min, h, 4 * n))
    (_, cells, _, new_trunc), (_, wide_cells, _, _) = (c.args for c in assemble.call_args_list)
    assert cells.sum() + new_trunc == pytest.approx(1.0, abs=1e-12)
    assert np.array_equal(cells, wide_cells[:n])
    # a prefix of the sized grid: its spacing and nodes, bit for bit
    assert h == sized[0].h
    assert np.array_equal(dz.grid.points(), sized[0].points()[:n])
    masses = p_y.node_masses()
    below = np.flatnonzero(np.cumsum(masses) - 0.5 * masses < 1e-11 * masses.sum())
    y_k = p_y.grid.points()[below[-1]] if below.size else p_y.grid.x_min
    x_k = -math.log1p(-math.exp(-y_k))
    if x_k > dz.grid.x_max:
        return  # the grid's sized end comes first: nothing is cut
    if y_k == p_y.grid.x_min:
        assert not wide_cells[n:].any()
        # the cell holding x* is followed by two zero cells
        assert dz.values[-1] == dz.values[-2] == 0.0
    else:
        assert wide_cells[n:].sum() < 1e-11
    # the kept rows are the longer grid's, but for the normalisation and the
    # end weight of the last node
    np.testing.assert_allclose(dz.values[:-1], wide.values[:n - 1], rtol=1e-11, atol=0.0)
    assert dz.values[-1] == pytest.approx(2.0 * wide.values[n - 1], rel=1e-11, abs=0.0)
    assert 1.5 * h < dz.grid.x_max - x_k <= 2.5 * h


ASYMMETRIC_TABLE = tabulated([(-0.8, 0.2), (-0.1, 1.0), (0.3, 0.7), (1.2, 0.05)])
oracle_noises = st.one_of(
    st.floats(0.3, 1.5).map(gaussian),
    st.floats(0.2, 1.0).map(lorentzian),
    st.just(ASYMMETRIC_TABLE),
)


@settings(derandomize=True, max_examples=8, deadline=None)
@given(gs, oracle_noises, st.integers(1, 6))
def test_exact_z_density_agrees_with_monte_carlo(g, noise, t_max):
    # every step's exact density against 20 000 simulated paths: the largest
    # KS stays within 3/sqrt(n), the bound the benchmark's oracle check uses
    n = 20_000
    tr = list(z_steps(g, noise, default_z_grid(g, noise, t_max, n_points=8192), t_max))
    run = simulate_stream(g, noise, t_max=t_max, n_paths=n, seed=2024,
                          targets={t: tr[t - 1].pdf for t in range(1, t_max + 1)})
    assert max(run.ks.values()) < 3.0 / math.sqrt(n)


@st.composite
def prefixes(draw):
    # what GriddedPdf.from_csv returns for a file that ends before its grid
    grid = draw(grids)
    return GridSpec(grid.x_min, grid.h, draw(st.integers(16, grid.n_points)))


# grids far from 0, with h down to 1e-9 of |x_min|
far_grids = st.builds(lambda sign, mag, rel, n: GridSpec(sign * 10.0**mag, 10.0**(mag + rel), n),
                      st.sampled_from([-1.0, 1.0]), st.floats(-3.0, 12.0), st.floats(-9.0, 0.0),
                      st.integers(16, 1024))


def edge_samples(grid, seed):
    """Samples over a grid's cells, on its edges and one ulp either side of
    them, past both ends, and at +-1e300, shuffled."""
    rng = np.random.default_rng(seed)
    edges = grid.cell_edges()
    span = edges[-1] - edges[0]
    on = rng.choice(edges, 300)
    return rng.permutation(np.concatenate([
        rng.uniform(edges[0] - 0.1 * span, edges[-1] + 0.1 * span, 1000),
        on, np.nextafter(on, -np.inf), np.nextafter(on, np.inf),
        [edges[0] - span, edges[-1] + span, -1e300, 1e300],
    ]))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.one_of(grids, prefixes(), far_grids), st.integers(0, 2**32 - 1))
# every sample is searched where h is within a few ulp of the edges, or 1/h overflows
@example(GridSpec(1.0, 1e-15, 64), 0)
@example(GridSpec(1e-300, 1e-310, 64), 1)
def test_ks_counts_equal_a_search_of_the_sorted_samples(grid, seed):
    # the oracle counts samples strictly below each cell edge from a rounded
    # estimate of each sample's cell, summed over rows; the counts must be
    # those of a binary search of the edges in the sorted samples
    samples = edge_samples(grid, seed)
    counts = mc._EdgeCounts(grid, grid.cell_edges())
    for row in (samples[:700], samples[700:]):
        counts.add(row, np.empty_like(row), np.empty_like(row))
    want = np.searchsorted(np.sort(samples), grid.cell_edges(), side="left")
    assert np.array_equal(counts.below(), want)
