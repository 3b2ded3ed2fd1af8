"""Randomised mass accounting of the step operator and the dz involution, and
randomised agreement of the exact z densities with the Monte Carlo oracle."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cumvol.evolution as ev
from cumvol import (
    EvolutionConfig,
    cell_grid,
    default_z_grid,
    evolve_z,
    gaussian,
    init_first_step,
    lorentzian,
    simulate_stream,
    tabulated,
    volatility_pdf,
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


@settings(derandomize=True, max_examples=40, deadline=None)
@given(gs, noises, grids, st.integers(0, 3), dz_grids)
def test_volatility_pdf_captures_or_truncates_all_mass(g, noise, grid, steps, dz_grid):
    # a reversed-variable density a few steps from the start
    p_y = init_first_step(noise.mirror(), -g, grid)
    for _ in range(steps):
        p_y = warp_step(p_y, noise.mirror(), -g)
    with mock.patch.object(ev, "_assemble", wraps=ev._assemble) as assemble:
        dz = volatility_pdf(p_y, dz_grid)
    _, cells, _, new_trunc = assemble.call_args.args
    assert cells.sum() + new_trunc == pytest.approx(1.0, abs=1e-12)
    assert dz.truncated_mass < 1.0


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
    cfg = EvolutionConfig(g=g, noise=noise, grid=default_z_grid(g, noise, t_max, n_points=8192),
                          horizon=t_max, convergence_tol=1e-300)
    tr = evolve_z(cfg)
    run = simulate_stream(g, noise, t_max=t_max, n_paths=n, seed=2024,
                          targets={t: tr.density(t) for t in range(1, t_max + 1)})
    assert max(run.ks.values()) < 3.0 / math.sqrt(n)
