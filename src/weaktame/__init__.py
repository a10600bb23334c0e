"""Stochastic numerics lab for the weakly tamed discretization of
du = -u^3 dt + u^2 dW and its EnKF origin story.

Every estimator runs one batch engine: ``brownian.increment_block`` draws
rows of increments, the schemes step loop advances a scheme along them
(``strong_error`` through ``schemes.integrate_increments``, ``moments`` and
the blowup profile through ``schemes._integrate_blocks``, which steps every
grid of a batch at once), and ``schemes.interpolant_increments`` carries
coarse rows to a finer grid.

Submodules:
    coeffs        regularized coefficients and their algebraic identities
    brownian      counter-based Brownian increments on dyadic grids
    schemes       batch integrator and frozen-coefficient interpolant
    rates         closed-form convergence-rate exponents
    strong_error  coupled-path strong-error Monte Carlo and rate fitting
    moments       a-priori moment estimates and the EM divergence profile
    enkf          ensemble Kalman inversion and its 2-particle reduction
    reports       CSV/JSON serialization of results
    cli           batch experiment driver (console script ``weaktame``)
"""

from .brownian import TimeGrid
from .schemes import (
    DRIFT_TAMED,
    INCREMENT_TAMED,
    NAIVE_EM,
    SATURATION_LIMIT,
    WEAK_TAMED_ENKF,
    SchemeSpec,
    regularized_em,
)

__all__ = [
    "TimeGrid",
    "DRIFT_TAMED",
    "INCREMENT_TAMED",
    "NAIVE_EM",
    "SATURATION_LIMIT",
    "WEAK_TAMED_ENKF",
    "SchemeSpec",
    "regularized_em",
]

__version__ = "0.1.0"
