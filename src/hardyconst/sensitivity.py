"""Derivative of the constant with respect to s1.

Differentiating the implicit equation gives the identity

    dt/ds1 * delta(s1, s2) = t * gamma(s1, s2)

with, writing w = omega_q(tau) and B(w) = ((p-1) q w - p (q-1)) / (p (q-1) (w-1)),

    gamma(s1, s2) = alpha(s2) - B(w) * (t^q / s2 - 1)
    delta(s1, s2) = B(w) * lambda(t) + (p-q) * s1 * alpha(s2)
    lambda(t)     = q t^p - p t^q s1/s2 + (p-q) s1.

delta and lambda are strictly positive on the whole region, gamma is
strictly negative, hence the constant strictly decreases in s1.  All of
this is checked numerically by the verification suites; ``dt_ds1`` also
carries its own finite-difference cross-check of the analytic value.
"""

from __future__ import annotations

from dataclasses import dataclass

from .domain import ParamPoint
from .errors import NoRootError, OutsideDomainError, SingularityError, StencilError
from .solver import BellmanSolution, solve_t
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


def _bracket_factor(e: Exponents, w: float) -> float:
    """B(w) = ((p-1) q w - p (q-1)) / (p (q-1) (w - 1)); singular at w = 1."""
    if w == 1.0:
        raise SingularityError("bracket factor is singular at omega_q(tau) = 1")
    return ((e.p - 1.0) * e.q * w - e.p * (e.q - 1.0)) / (e.p * (e.q - 1.0) * (w - 1.0))


def gamma_eval(e: Exponents, pt: ParamPoint, sol: BellmanSolution) -> float:
    """gamma = alpha(s2) - B(omega_q(tau)) * (t^q / s2 - 1); negative in the region."""
    b = _bracket_factor(e, sol.omega_q_tau)
    return sol.alpha - b * (sol.t**e.q / pt.s2 - 1.0)


def delta_eval(e: Exponents, pt: ParamPoint, sol: BellmanSolution) -> float:
    """delta = B(omega_q(tau)) * lambda(t) + (p-q) s1 alpha(s2); strictly positive."""
    b = _bracket_factor(e, sol.omega_q_tau)
    return b * lambda_eval(e, pt, sol.t) + (e.p - e.q) * pt.s1 * sol.alpha


def dt_ds1_analytic(e: Exponents, pt: ParamPoint, sol: BellmanSolution) -> float:
    """dt/ds1 = t * gamma / delta at an already-solved point."""
    return sol.t * gamma_eval(e, pt, sol) / delta_eval(e, pt, sol)


def dt_ds1(e: Exponents, pt: ParamPoint) -> SensitivityReport:
    """Solve at pt and report the analytic dt/ds1 with an FD cross-check.

    The central difference uses h = 1e-6 * max(s1, 1e-3); the stencil points
    must themselves be interior and solvable, otherwise StencilError is
    raised and the caller may retry with a smaller step.  The stencil shares
    the centre's s2, so its solves reuse the centre's alpha(s2) (``solver``).
    """
    sol = solve_t(e, pt)
    gamma = gamma_eval(e, pt, sol)
    delta = delta_eval(e, pt, sol)
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
        t=sol.t,
        tau=sol.tau,
        lambda_val=lambda_eval(e, pt, sol.t),
        gamma_val=gamma,
        delta_val=delta,
        dt_ds1=analytic,
        dt_ds1_fd=fd,
        fd_rel_err=abs(analytic - fd) / max(abs(analytic), 1e-12),
    )


def dtau_dt(e: Exponents, pt: ParamPoint, t: float) -> float:
    """d tau/d t = ((p-q)/p) t^(p-q-1) lambda(t) / (t^(p-q) - s1/s2)^2 > 0."""
    denom = t ** (e.p - e.q) - pt.s1 / pt.s2
    if denom <= 0.0:
        raise SingularityError(
            f"tau denominator t^(p-q) - s1/s2 = {denom} is not positive"
        )
    return (
        (e.p - e.q)
        / e.p
        * t ** (e.p - e.q - 1.0)
        * lambda_eval(e, pt, t)
        / denom**2
    )


def dtau_ds1(e: Exponents, pt: ParamPoint, t: float) -> float:
    """d tau/d s1 at frozen t: ((p-q)/p) (t^p/s2 - t^(p-q)) / (t^(p-q) - s1/s2)^2 > 0."""
    denom = t ** (e.p - e.q) - pt.s1 / pt.s2
    if denom <= 0.0:
        raise SingularityError(
            f"tau denominator t^(p-q) - s1/s2 = {denom} is not positive"
        )
    return (e.p - e.q) / e.p * (t**e.p / pt.s2 - t ** (e.p - e.q)) / denom**2
