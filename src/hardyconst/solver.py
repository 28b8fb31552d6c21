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

Every residual evaluation inverts omega_q, and within one solve these
inversions share their work.  tau is strictly increasing in t and omega_q
strictly decreasing, so for a new t the root w = omega_q(tau(t)) lies
between the w of the nearest evaluated tau above it and the w of the
nearest one below it.  The solve keeps each evaluation's (tau, w, H_q(w)),
with H_q(w) exactly as ``special.h_eval`` returned it, starting from
omega_q's exact ends (0, q/(q-1), 0) and (1, 1, 1) and the two endpoint
residuals.
The stored H values are then exact end values for the inner kernel, whose
sign change is certain at no extra evaluation.  When rounding leaves two
neighbours without a strict bracket, a stored w with H_q(w) = tau is
reused, and otherwise the natural bracket [1, q/(q-1)] is used.  The record
lives only inside one solve; the solution returns the tau, w and residual
of the evaluation at the returned t, and alpha(s2).
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from dataclasses import dataclass

from .domain import Membership, ParamPoint, in_domain
from .errors import (
    DomainError,
    InfeasibleTauError,
    NoRootError,
    OutsideDomainError,
    SingularityError,
)
from .special import Exponents, _bracketed_root, _omega_between, omega

#: margin by which the bracket's left end stays above t = 1
_ENDPOINT_MARGIN = 1e-12
#: final root-bracket width, far inside the 1e-13 that bracket_width
#: certifies: the t returned is as close to the root as the kernel's last
#: steps, and a 1e-13 stop leaves it up to 5e-14 off
_BRACKET_WIDTH = 1e-15


@dataclass(frozen=True)
class BellmanSolution:
    """A solved constant together with its certificates.

    tau, omega_q_tau and residual come from the solve's own residual
    evaluation at the returned t, and alpha is the alpha(s2) that every
    evaluation used; nothing is re-derived after the solve.

    t             the constant, in (1, p/(p-1))
    tau           tau(t), the reparameterized argument fed to omega_q, in (0, 1)
    omega_q_tau   the w = omega_q(tau) that evaluation inverted
    residual      the implicit-equation residual at (t, omega_q_tau)
    bracket_width width of the final root bracket containing t
    alpha         alpha(s2), the value the residual used
    """

    t: float
    tau: float
    omega_q_tau: float
    residual: float
    bracket_width: float
    alpha: float


#: one evaluation of the residual at some t: (residual, tau, w, H_q(w))
_Evaluation = tuple[float, float, float, float]


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
    return _evaluate(e, pt, t, alpha_eval(e, pt.s2), _omega_ends(e.q))[0]


def _residual_at(e: Exponents, pt: ParamPoint, t: float, w: float, a2: float) -> float:
    """Left minus right side of the implicit equation at t, with w = omega_q(tau(t))."""
    lhs = (
        e.q
        * (e.p * w ** (e.q - 1.0) - (e.p - 1.0) * w**e.q)
        * (t ** (e.p - e.q) - pt.s1 / pt.s2)
    )
    return lhs - (e.p - e.q) * pt.s1 * a2


def _omega_ends(q: float) -> list[tuple[float, float, float]]:
    """omega_q's exact ends as (tau, w, H_q(w)) triples: its natural bracket."""
    return [(0.0, q / (q - 1.0), 0.0), (1.0, 1.0, 1.0)]


def _omega_near(
    q: float, tau: float, known: list[tuple[float, float, float]]
) -> tuple[float, float]:
    """(w, H_q(w)) for w = omega_q(tau), inverted between its known neighbours.

    ``known`` holds (tau_k, w_k, H_q(w_k)) triples sorted by tau_k, starting
    with ``_omega_ends``.  omega_q is strictly decreasing, so the root lies
    between the w of the nearest tau_k above tau and the one below it, and
    their stored H values are exact end values.  When rounding (or an equal
    tau_k) leaves them no strict bracket, a stored w with H == tau is reused
    and otherwise the natural bracket is used.
    """
    i = bisect_left(known, (tau,))
    _, z_lo, h_lo = known[i]
    _, z_hi, h_hi = known[i - 1]
    if h_lo == tau:
        return z_lo, h_lo
    if h_hi == tau:
        return z_hi, h_hi
    if not (h_lo > tau > h_hi and z_lo < z_hi):
        (_, z_hi, h_hi), (_, z_lo, h_lo) = _omega_ends(q)
    return _omega_between(q, tau, z_lo, h_lo, z_hi, h_hi)


def _evaluate(
    e: Exponents,
    pt: ParamPoint,
    t: float,
    a2: float,
    known: list[tuple[float, float, float]],
) -> _Evaluation:
    """The residual at t, with omega_q(tau(t)) inverted by ``_omega_near``."""
    tau = tau_eval(e, pt, t)
    if not 0.0 <= tau <= 1.0:
        raise InfeasibleTauError(
            f"tau={tau} left [0, 1] at t={t}; omega_q is undefined there"
        )
    w, h = _omega_near(e.q, tau, known)
    return _residual_at(e, pt, t, w, a2), tau, w, h


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
) -> tuple[float, float, _Evaluation, _Evaluation, float]:
    """(lo, hi, evaluation at lo, evaluation at hi, alpha(s2)) of a solvable point.

    The bracket is [1 + 1e-12, hi], where hi is the largest float below
    p/(p-1), lowered to the tau-feasibility top when tau exceeds 1 there.
    The residual is negative below an upper t-interval and strictly
    increasing on it (module docstring), so a root exists exactly when the
    residual is negative at the left end and positive at the right one.
    Both ends invert omega_q on its natural bracket, so the decision does
    not depend on the order of evaluation.
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
    at_lo = _evaluate(e, pt, lo, a2, _omega_ends(e.q))
    at_hi = _evaluate(e, pt, hi, a2, _omega_ends(e.q))
    if not at_lo[0] < 0.0 < at_hi[0]:
        raise NoRootError(
            f"residual has no sign change on [{lo}, {hi}] at "
            f"(s1={pt.s1}, s2={pt.s2}); point is operationally outside"
        )
    return lo, hi, at_lo, at_hi, a2


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
    the root.  Each residual evaluation inverts omega_q between the nearest
    (tau, w, H_q(w)) this solve has already evaluated (module docstring);
    the record is dropped when the solve returns.  Raises
    OutsideDomainError or NoRootError exactly when ``has_root`` is false.
    """
    lo, hi, at_lo, at_hi, a2 = _endpoint_bracket(e, pt)
    known = sorted([*_omega_ends(e.q), at_lo[1:], at_hi[1:]])
    evaluated: dict[float, _Evaluation] = {}

    def f(t: float) -> float:
        ev = evaluated[t] = _evaluate(e, pt, t, a2, known)
        insort(known, ev[1:])
        return ev[0]

    a, b, t, _ = _bracketed_root(f, lo, hi, at_lo[0], at_hi[0], _BRACKET_WIDTH)
    if t not in evaluated:  # the bracket was within 1e-15 from the start
        f(t)
    res, tau, w, _ = evaluated[t]
    return BellmanSolution(
        t=t, tau=tau, omega_q_tau=w, residual=res, bracket_width=b - a, alpha=a2
    )
