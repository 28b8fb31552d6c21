"""Sharp constant for a Hardy-type averaging inequality.

Given exponents 1 < q < p and a nonnegative function h on (0, kappa] with
prescribed moments int h, int h^q, int h^p, the averaging functional
int ((1/t) int_0^t h)^p dt is bounded by t(s1, s2)^p * int h^p, where the
constant depends only on the induced parameters (s1, s2).  This package
evaluates that constant from its implicit equation, differentiates it in
s1, and verifies the surrounding sign, limit, monotonicity and inequality
claims numerically.

Each public name is loaded with the module that defines it, on first use
(PEP 562), so a command imports only the modules it runs: ``solve`` and
``scan`` load neither ``hardy`` nor ``asymptotics``.
"""

import importlib

__version__ = "0.1.0"

#: every public name, by the module that defines it; each module named here
#: is served too, and ``errors`` is public as a module
_PUBLIC = {
    "errors": (),
    "asymptotics": ("EndgameConstants", "big_f", "big_f_deriv", "big_g", "endgame_constants"),
    "domain": ("BOUNDARY_TOL", "Membership", "ParamPoint", "eq_omega_curve", "in_domain",
               "lower_curve", "threshold"),
    "hardy": ("MomentTriple", "StepFunction", "VerificationReport", "decreasing_rearrangement",
              "hardy_lhs", "moments_to_params", "sample_step", "step_moments", "verify_hardy"),
    "sensitivity": ("SensitivityReport", "delta_eval", "dt_ds1", "dt_ds1_analytic", "dtau_ds1",
                    "dtau_dt", "gamma_eval", "lambda_eval"),
    "solver": ("BellmanSolution", "alpha_eval", "has_root", "residual", "solve_t", "tau_eval"),
    "special": ("Exponents", "conjugate", "h_deriv", "h_eval", "omega", "omega_deriv"),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}
__all__ = sorted(["errors", *_HOME])


def __getattr__(name: str):
    """One of ``_PUBLIC``'s modules, or a public name from its module."""
    if name in _PUBLIC:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
