"""Root solve for the sharp constant t(s1, s2).

On the admissible region the constant t = t(s1, s2) in (1, p/(p-1)) is
characterized implicitly by

    q * (p*w^(q-1) - (p-1)*w^q) * (t^(p-q) - s1/s2) = (p-q) * s1 * alpha(s2)

with w = omega_q(tau),

    tau(t)    = ((p-q)/p) * (t^p - s1) / (t^(p-q) - s1/s2),
    alpha(s2) = omega_q(s2)^q / s2 - 1.

``residual`` is the left side minus the right side.  Structure exploited by
the solver: tau is strictly increasing in t (its t-derivative is a positive
multiple of lambda(t) = q t^p - p t^q s1/s2 + (p-q) s1 > 0), so the region
where the left factor p*w^(q-1) - (p-1)*w^q is positive, i.e. where
tau > H_q(p/(p-1)), is an upper t-interval; the residual is strictly
negative below it and strictly increasing on it, so there is at most one
root.  Hence residual(lo) < 0 < residual(hi) on the endpoint bracket
[lo, hi] (hi the largest t below p/(p-1) with tau(t) <= 1) holds exactly when
a root exists, and ``special._bracketed_root`` refines that bracket directly;
the same kernel finds hi as the root of tau(t) - 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .domain import Membership, ParamPoint, in_domain
from .errors import (
    DomainError,
    InfeasibleTauError,
    NoRootError,
    OutsideDomainError,
    SingularityError,
)
from .special import Exponents, _bracketed_root, omega

#: margin by which the bracket's left end stays above t = 1
_ENDPOINT_MARGIN = 1e-12
#: final root-bracket width, far inside the 1e-13 that bracket_width
#: certifies: the t returned is as close to the root as the kernel's last
#: steps, and a 1e-13 stop leaves it up to 5e-14 off
_BRACKET_WIDTH = 1e-15


@dataclass(frozen=True)
class BellmanSolution:
    """A solved constant together with its certificates.

    t             the constant, in (1, p/(p-1))
    tau           the reparameterized argument fed to omega_q, in (0, 1)
    omega_q_tau   omega_q(tau)
    residual      implicit-equation residual at t (left minus right side)
    bracket_width width of the final root bracket containing t
    """

    t: float
    tau: float
    omega_q_tau: float
    residual: float
    bracket_width: float


def tau_eval(e: Exponents, pt: ParamPoint, t: float) -> float:
    """tau(t) = ((p-q)/p) * (t^p - s1) / (t^(p-q) - s1/s2) for t >= 1."""
    if not (math.isfinite(t) and t >= 1.0):
        raise DomainError(f"tau is evaluated for t >= 1, got t={t}")
    denom = t ** (e.p - e.q) - pt.s1 / pt.s2
    if denom <= 0.0:
        raise SingularityError(
            f"tau denominator t^(p-q) - s1/s2 = {denom} is not positive"
        )
    return (e.p - e.q) / e.p * (t**e.p - pt.s1) / denom


def alpha_eval(e: Exponents, s2: float) -> float:
    """alpha(s2) = omega_q(s2)^q / s2 - 1; strictly positive on (0, 1)."""
    if not (math.isfinite(s2) and 0.0 < s2 < 1.0):
        raise DomainError(f"alpha needs s2 in (0, 1), got {s2}")
    return omega(e.q, s2) ** e.q / s2 - 1.0


def residual(e: Exponents, pt: ParamPoint, t: float) -> float:
    """Implicit-equation residual at t; zero exactly at the constant."""
    return _residual_given_alpha(e, pt, t, alpha_eval(e, pt.s2))


def _residual_given_alpha(e: Exponents, pt: ParamPoint, t: float, a2: float) -> float:
    tau = tau_eval(e, pt, t)
    if not 0.0 <= tau <= 1.0:
        raise InfeasibleTauError(
            f"tau={tau} left [0, 1] at t={t}; omega_q is undefined there"
        )
    w = omega(e.q, tau)
    lhs = (
        e.q
        * (e.p * w ** (e.q - 1.0) - (e.p - 1.0) * w**e.q)
        * (t ** (e.p - e.q) - pt.s1 / pt.s2)
    )
    return lhs - (e.p - e.q) * pt.s1 * a2


def _tau_feasible_top(e: Exponents, pt: ParamPoint, lo: float, hi: float) -> float:
    """Largest t in [lo, hi] with tau(t) <= 1, to within the bracket width.

    tau is increasing in t, so this is hi itself or the left end of the
    kernel's bracket on tau(t) - 1, where tau <= 1 holds.
    """
    tau_hi = tau_eval(e, pt, hi)
    if tau_hi <= 1.0:
        return hi
    tau_lo = tau_eval(e, pt, lo)
    if tau_lo > 1.0:
        raise NoRootError(
            f"tau exceeds 1 on the whole bracket at (s1={pt.s1}, s2={pt.s2})"
        )
    return _bracketed_root(
        lambda t: tau_eval(e, pt, t) - 1.0, lo, hi, tau_lo - 1.0, tau_hi - 1.0, _BRACKET_WIDTH
    )[0]


def _endpoint_bracket(
    e: Exponents, pt: ParamPoint
) -> tuple[float, float, float, float, float]:
    """(lo, hi, residual(lo), residual(hi), alpha(s2)) of a solvable point.

    The bracket is [1 + 1e-12, hi], where hi is the largest float below
    p/(p-1), lowered to the tau-feasibility top when tau exceeds 1 there.
    The residual is negative below an upper t-interval and strictly
    increasing on it (module docstring), so a root exists exactly when the
    residual is negative at the left end and positive at the right one.
    Raises OutsideDomainError unless in_domain(...) is INSIDE, and
    NoRootError when that sign change is missing (the point lies in the
    no-root band along the lower curve, where the root would need tau >= 1).
    """
    verdict = in_domain(e, pt)
    if verdict is not Membership.INSIDE:
        raise OutsideDomainError(
            f"({pt.s1}, {pt.s2}) is {verdict.value} for p={e.p}, q={e.q}"
        )
    a2 = alpha_eval(e, pt.s2)
    lo = 1.0 + _ENDPOINT_MARGIN
    hi = _tau_feasible_top(e, pt, lo, math.nextafter(e.p_conj, 0.0))
    f_lo = _residual_given_alpha(e, pt, lo, a2)
    f_hi = _residual_given_alpha(e, pt, hi, a2)
    if not f_lo < 0.0 < f_hi:
        raise NoRootError(
            f"residual has no sign change on [{lo}, {hi}] at "
            f"(s1={pt.s1}, s2={pt.s2}); point is operationally outside"
        )
    return lo, hi, f_lo, f_hi, a2


def has_root(e: Exponents, pt: ParamPoint) -> bool:
    """True exactly when ``solve_t(e, pt)`` returns a constant.

    The same endpoint-bracket test ``solve_t`` makes, without refining it:
    ``in_domain`` is its closed-form, geometric part, and the sign test
    decides the no-root cutoff exactly.
    """
    try:
        _endpoint_bracket(e, pt)
    except (OutsideDomainError, NoRootError):
        return False
    return True


def solve_t(e: Exponents, pt: ParamPoint) -> BellmanSolution:
    """Solve the implicit equation for the constant at an interior point.

    ``_bracketed_root`` narrows the endpoint bracket to 1e-15 (or to
    adjacent floats) and the t returned is the evaluated interior point
    with the smallest |residual|, which in practice lands within an ulp of
    the root.  Raises OutsideDomainError or NoRootError exactly when
    ``has_root`` is false.
    """
    lo, hi, f_lo, f_hi, a2 = _endpoint_bracket(e, pt)
    a, b, t = _bracketed_root(
        lambda t: _residual_given_alpha(e, pt, t, a2), lo, hi, f_lo, f_hi, _BRACKET_WIDTH
    )
    tau = tau_eval(e, pt, t)
    return BellmanSolution(
        t=t,
        tau=tau,
        omega_q_tau=omega(e.q, tau),
        residual=_residual_given_alpha(e, pt, t, a2),
        bracket_width=b - a,
    )
