"""Sharp constant for a Hardy-type averaging inequality.

Given exponents 1 < q < p and a nonnegative function h on (0, kappa] with
prescribed moments int h, int h^q, int h^p, the averaging functional
int ((1/t) int_0^t h)^p dt is bounded by t(s1, s2)^p * int h^p, where the
constant depends only on the induced parameters (s1, s2).  This package
evaluates that constant from its implicit equation, differentiates it in
s1, and verifies the surrounding sign, limit, monotonicity and inequality
claims numerically.
"""

from . import errors
from .asymptotics import (
    EndgameConstants,
    big_f,
    big_f_deriv,
    big_g,
    endgame_constants,
)
from .domain import (
    BOUNDARY_TOL,
    Membership,
    ParamPoint,
    eq_omega_curve,
    in_domain,
    lower_curve,
    threshold,
)
from .hardy import (
    MomentTriple,
    StepFunction,
    VerificationReport,
    decreasing_rearrangement,
    hardy_lhs,
    moments_to_params,
    sample_step,
    step_moments,
    verify_hardy,
)
from .sensitivity import (
    SensitivityReport,
    delta_eval,
    dt_ds1,
    dt_ds1_analytic,
    dtau_ds1,
    dtau_dt,
    gamma_eval,
    lambda_eval,
)
from .solver import BellmanSolution, alpha_eval, has_root, residual, solve_t, tau_eval
from .special import Exponents, conjugate, h_deriv, h_eval, omega, omega_deriv

__version__ = "0.1.0"

__all__ = [
    "BOUNDARY_TOL",
    "BellmanSolution",
    "EndgameConstants",
    "Exponents",
    "Membership",
    "MomentTriple",
    "ParamPoint",
    "SensitivityReport",
    "StepFunction",
    "VerificationReport",
    "alpha_eval",
    "big_f",
    "big_f_deriv",
    "big_g",
    "conjugate",
    "decreasing_rearrangement",
    "delta_eval",
    "dt_ds1",
    "dt_ds1_analytic",
    "dtau_ds1",
    "dtau_dt",
    "endgame_constants",
    "eq_omega_curve",
    "errors",
    "gamma_eval",
    "h_deriv",
    "h_eval",
    "hardy_lhs",
    "has_root",
    "in_domain",
    "lambda_eval",
    "lower_curve",
    "moments_to_params",
    "omega",
    "omega_deriv",
    "residual",
    "sample_step",
    "solve_t",
    "step_moments",
    "tau_eval",
    "threshold",
    "verify_hardy",
]
