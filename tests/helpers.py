"""Density and trace helpers that only the tests use."""

import numpy as np

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
