"""Derivative of the constant with respect to s1.

Differentiating the implicit equation gives the identity

    dt/ds1 * delta(s1, s2) = t * gamma(s1, s2)

with w = omega_q(tau) = (p - u)/(p-1) at the solve's root u (``BellmanSolution.u``),

    gamma(s1, s2) = alpha(s2) - B * (t^q / s2 - 1)
    delta(s1, s2) = B * lambda(t) + (p-q) * s1 * alpha(s2)
    lambda(t)     = q t^p - p t^q s1/s2 + (p-q) s1
    B             = (p-1) (p - q u) / (p (q-1) (1 - u)).

Written in u, B is exact and finite, as u <= u_top < 1; written in w, its
w - 1 would carry omega_q(tau)'s square-root conditioning as tau -> 1.
delta and lambda are strictly positive on the whole region, gamma is
strictly negative, hence the constant strictly decreases in s1.  All of
this is checked numerically by the verification suites; ``dt_ds1`` also
carries its own finite-difference cross-check of the analytic value.
``solver.sign_factors`` forms gamma, delta and lambda together, with B and
t^q once: on floats for ``gamma_eval``, ``delta_eval`` and a CLI row, and
on arrays of solved points for the lane solves of ``verify.sign_suite`` and
``verify.fd_suite``, where the power function it takes is np.float_power
(``lanes`` module docstring).  It lives in ``solver`` so that no command
loads ``sensitivity``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .domain import ParamPoint
from .errors import NoRootError, OutsideDomainError, StencilError
from .solver import BellmanSolution, sign_factors, solve_t, tau_denominator
from .special import Exponents

#: relative finite-difference step; balances solver noise against truncation
_FD_STEP_FRAC = 1e-6


@dataclass(frozen=True)
class SensitivityReport:
    """The solved constant with its derivative factors and FD cross-check."""

    t: float
    tau: float
    lambda_val: float
    gamma_val: float
    delta_val: float
    dt_ds1: float
    dt_ds1_fd: float
    fd_rel_err: float


def lambda_eval(e: Exponents, pt: ParamPoint, t: float) -> float:
    """lambda(t) = q t^p - p t^q s1/s2 + (p-q) s1; positive for t in [1, p/(p-1))."""
    return e.q * t**e.p - e.p * t**e.q * (pt.s1 / pt.s2) + (e.p - e.q) * pt.s1


def gamma_eval(e: Exponents, pt: ParamPoint, sol: BellmanSolution) -> float:
    """gamma = alpha(s2) - B(u) * (t^q / s2 - 1); negative in the region."""
    return sign_factors(e, pt.s1, pt.s2, sol.t, sol.u, sol.alpha, math.pow)[0]


def delta_eval(e: Exponents, pt: ParamPoint, sol: BellmanSolution) -> float:
    """delta = B(u) * lambda(t) + (p-q) s1 alpha(s2); strictly positive."""
    return sign_factors(e, pt.s1, pt.s2, sol.t, sol.u, sol.alpha, math.pow)[1]


def dt_ds1_analytic(e: Exponents, pt: ParamPoint, sol: BellmanSolution) -> float:
    """dt/ds1 = t * gamma / delta at an already-solved point."""
    gamma, delta, _ = sign_factors(e, pt.s1, pt.s2, sol.t, sol.u, sol.alpha, math.pow)
    return sol.t * gamma / delta


def dt_ds1(e: Exponents, pt: ParamPoint) -> SensitivityReport:
    """Solve at pt and report the analytic dt/ds1 with an FD cross-check.

    The central difference uses h = 1e-6 * max(s1, 1e-3); the stencil points
    must themselves be interior and solvable, otherwise StencilError is
    raised and the caller may retry with a smaller step.  The stencil shares
    the centre's s2, so its solves reuse the centre's alpha(s2) (``solver``).
    """
    sol = solve_t(e, pt)
    gamma, delta, lam = sign_factors(e, pt.s1, pt.s2, sol.t, sol.u, sol.alpha, math.pow)
    analytic = sol.t * gamma / delta

    h = _FD_STEP_FRAC * max(pt.s1, 1e-3)
    lo, hi = pt.s1 - h, pt.s1 + h
    if lo <= 0.0:
        raise StencilError(f"stencil point s1={lo} is not positive")
    ts = []
    for s1 in (hi, lo):
        try:
            ts.append(solve_t(e, ParamPoint(s1, pt.s2)).t)
        except (OutsideDomainError, NoRootError) as exc:
            raise StencilError(f"stencil point s1={s1} has no constant: {exc}") from exc
    fd = (ts[0] - ts[1]) / (2.0 * h)

    return SensitivityReport(
        t=sol.t, tau=sol.tau, lambda_val=lam, gamma_val=gamma,
        delta_val=delta, dt_ds1=analytic, dt_ds1_fd=fd,
        fd_rel_err=abs(analytic - fd) / max(abs(analytic), 1e-12),
    )


def dtau_dt(e: Exponents, pt: ParamPoint, t: float) -> float:
    """d tau/d t = ((p-q)/p) t^(p-q-1) lambda(t) / (t^(p-q) - s1/s2)^2 > 0."""
    denom = tau_denominator(e, pt, t)
    return (e.p - e.q) / e.p * t ** (e.p - e.q - 1.0) * lambda_eval(e, pt, t) / denom**2


def dtau_ds1(e: Exponents, pt: ParamPoint, t: float) -> float:
    """d tau/d s1 at frozen t: ((p-q)/p) (t^p/s2 - t^(p-q)) / (t^(p-q) - s1/s2)^2 > 0."""
    denom = tau_denominator(e, pt, t)
    return (e.p - e.q) / e.p * (t**e.p / pt.s2 - t ** (e.p - e.q)) / denom**2
