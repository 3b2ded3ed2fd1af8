"""cumvol: exact distribution dynamics of log cumulative production.

Evolves gridded probability densities of log cumulative production under
arbitrary i.i.d. per-step noise through an exact integral recursion
(convolution with the noise density followed by a nonlinear coordinate
warp), derives the distribution of the one-step growth increment from the
reversed recursion's fixed point, and cross-validates everything against
closed-form narrow-noise formulas and a Monte Carlo path simulator.
"""

from .analytic import (dz_of_y, sigma_y_fixed_point, tail_exponent, var_dz_saddle,
                       var_logZ_saddle, ybar)
from .errors import ConvergenceError, CumvolError, DomainError, MassDefectError
from .evolution import (
    StepRecord,
    VolatilityReport,
    default_y_grid,
    default_z_grid,
    power_volatility,
    steady_state_volatility,
    volatility_pdf,
    y_steps,
    z_steps,
)
from .montecarlo import McEnsemble, simulate_stream
from .noise import (
    NoiseModel,
    gaussian,
    load_tabulated_csv,
    lorentzian,
    parse_noise_spec,
    tabulated,
)
from .pdfgrid import GriddedPdf, GridSpec, cell_grid

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "CumvolError", "MassDefectError", "ConvergenceError", "DomainError",
    "NoiseModel", "gaussian", "lorentzian", "tabulated", "parse_noise_spec",
    "load_tabulated_csv", "GridSpec", "GriddedPdf", "cell_grid",
    "StepRecord", "VolatilityReport",
    "z_steps", "y_steps", "volatility_pdf",
    "steady_state_volatility", "power_volatility", "default_z_grid", "default_y_grid",
    "dz_of_y", "ybar", "var_logZ_saddle", "var_dz_saddle", "sigma_y_fixed_point", "tail_exponent",
    "McEnsemble", "simulate_stream",
]
