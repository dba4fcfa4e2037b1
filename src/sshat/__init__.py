"""Effective-spread constant for the Schaefer-Schwartz two-factor bond model.

The approximate bond-price formula for this model replaces the spread in one
coefficient of the pricing equation by a constant, defined through a nonlinear
equation involving the time average of the deterministic consol-rate path.
This package computes that constant two ways: by a perturbation expansion in
the initial spread's distance from equilibrium, with every coefficient in
closed form and to arbitrary order, and by an independent numerical oracle
(Runge-Kutta integration plus safeguarded root finding) used for validation.
"""

from .epsseries import ShatExpansion, rhs1_printed, solve_shat_series
from .errors import BracketingError, DegenerateRateError, NumericalFailure
from .expseries import ExpPolySeries, ExpPolyTerm
from .oracle import (
    OracleResult,
    abar_closed_s0_equals_muhat,
    compute_oracle,
    compute_oracles,
    default_n_steps,
    integrate_ell,
    solve_shat_numeric,
)
from .params import InitialState, ModelParams, N_MAX, load_config
from .perturbation import EllExpansion, build_expansion, tau_lbar_terms

__version__ = "0.1.0"

__all__ = [
    "BracketingError",
    "DegenerateRateError",
    "EllExpansion",
    "ExpPolySeries",
    "ExpPolyTerm",
    "InitialState",
    "ModelParams",
    "N_MAX",
    "NumericalFailure",
    "OracleResult",
    "ShatExpansion",
    "abar_closed_s0_equals_muhat",
    "build_expansion",
    "compute_oracle",
    "compute_oracles",
    "default_n_steps",
    "integrate_ell",
    "load_config",
    "rhs1_printed",
    "solve_shat_numeric",
    "solve_shat_series",
    "tau_lbar_terms",
]
