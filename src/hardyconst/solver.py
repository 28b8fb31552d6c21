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
a root exists; the bracketed kernel ``special._bracketed_root`` finds hi as
the root of tau(t) - 1.

The left end's sign needs no inversion when tau(lo) < H_q(p') = threshold:
omega_q falls, so w = omega_q(tau) > p', the left factor w^(q-1) (p -
(p-1) w) is negative, and residual(lo) < -(p-q) s1 alpha < 0.  The test is
tau(lo) < threshold - d with d = max(1e-9 threshold, 2e-12 q q'^(q-1)),
q' = q/(q-1).  The relative part covers the rounding of tau and of the
threshold.  As |H_q'| <= q q'^(q-2) on [1, q'], the absolute part keeps w
at least 2e-12 q' above p', 2000 times omega's bracket width, so rounding
in omega or in the left factor cannot flip the sign the inversion would
give.  Otherwise omega_q is inverted at lo as at hi.  The test holds at
every point of the benchmark's pairs; with q near p, e.g. (20, 19), some
points fall back.

alpha(s2) and the endpoint bracket are kept in one-entry memos, keyed on
(q, s2) and (p, q, s1, s2), so callers need only ``solve_t`` and
``has_root``.  One entry suffices: a row's points (``scan``, the ``verify``
rows) and ``dt_ds1``'s stencil share s2, and ``hardy`` solves the point its
``has_root`` has just accepted.  Each memo is one (key, value) tuple, read
and replaced whole, so a thread sees a key only with its own value; an
exception is never kept.

The root is found without inverting omega_q.  With u = p - (p-1) w in
(0, 1], the left factor is w^(q-1) u, and for a given w the equation gives
t explicitly: X(u) = t^(p-q) = s1/s2 + K / (w^(q-1) u), K = (p-q) s1 alpha/q.
Substituted into H_q(w) = tau(t), whose denominator is then K / (w^(q-1) u),
and divided by w^(q-1), that leaves one explicit equation in u:

    g(u) = q - (q-1) w - c u (X^(p/(p-q)) - s1) = 0,    c = q / (p s1 alpha),

whose sign is that of H_q(w) - tau(t(u)).  As u grows, H_q(w) rises and
t(u), so tau, falls: g changes sign once, at u* with t(u*) the constant.  u
keeps full relative precision as s1 -> 0, where u* is of the order of s1.
t^p is X^(p/(p-q)) in one pow: t**p would let p amplify t's rounding.

The u bracket comes from the endpoint bracket.  At u_t = p - (p-1)
omega_q(tau(t)), g(u_t) has the sign of residual(t), so u_b = u_hi has
g > 0.  As w^(q-1) <= p'^(q-1) (p' = p/(p-1)), u_a = K / (p'^(q-1)
(hi^(p-q) - s1/s2)) has t(u_a) >= hi, so g < 0; it is tighter than u_t at
lo, which is seldom positive.  Rounding defeats an end's sign only where t
is an ulp or two below p/(p-1) (seen at s1 < 1e-14 on (5, 1.2), (10, 1.05)
and (1.5, 1.1)); that end is stepped outward.  g's rounding bounds t to a
few ulp: up to 1.0e-15 relative against a 40-digit oracle on (1.5, 1.1),
where X is near 1, and more as p - q shrinks (t = X^(1/(p-q))).

The certificate stays in t-space, so that it checks t independently of g:
tau(t), omega_q(tau) and the residual at (t, omega_q(tau)).  omega_q(tau) is
inverted from a narrow bracket around w(u*) when H_q at its ends brackets
tau strictly, and from the natural bracket otherwise.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

from .domain import Membership, ParamPoint, in_domain, threshold
from .errors import (
    ConvergenceError,
    DomainError,
    InfeasibleTauError,
    NoRootError,
    OutsideDomainError,
    SingularityError,
)
from .special import _BRACKET_REL_TOL, Exponents, _bracketed_root, _omega_between, h_eval, omega

#: margin by which the bracket's left end stays above t = 1
_ENDPOINT_MARGIN = 1e-12
#: the closed-form test at the bracket's left end needs tau below H_q(p')
#: by this much relative to H_q(p'), which covers the rounding of tau and
#: of the threshold ...
_LO_CUT_REL = 1e-9
#: ... and by at least this times q q'^(q-1): as |H_q'| <= q q'^(q-2) on
#: [1, q'], omega_q(tau) then lies at least 2e-12 q' above p', 2000 times
#: omega's bracket width
_LO_CUT_ABS = 2e-12
#: final width of the tau-feasibility top's bracket in t
_BRACKET_WIDTH = 1e-15
#: u bracket width relative to u_a <= u*, not u_b: 1e-15 u_b left t up to
#: 7.7e-15 off where u_b was 60 u*
_U_REL_WIDTH = 1e-15
#: certificate bracket half-width relative to q/(q-1): at 0.5 omega
#: tolerances 18 % of solves fell back to the natural bracket, at 4 0.3 %
_NEAR_HALF_WIDTH = 4.0 * _BRACKET_REL_TOL
#: the one-entry memos of alpha(s2) and of the endpoint bracket (module
#: docstring); the key () matches no point
_NO_MEMO: tuple = ((), None)
_alpha_memo = _bracket_memo = _NO_MEMO


@dataclass(frozen=True)
class BellmanSolution:
    """A solved constant together with its certificates.

    t comes from the explicit equation in u; tau, omega_q_tau and residual
    are recomputed from t in t-space, so they check it independently.

    t             the constant, in (1, p/(p-1))
    tau           tau(t), the reparameterized argument fed to omega_q, in (0, 1)
    omega_q_tau   omega_q(tau), inverted by special._omega_between
    residual      the implicit-equation residual at (t, omega_q_tau)
    bracket_width |t(u_a) - t(u_b)| over the final root bracket [u_a, u_b]
    alpha         alpha(s2), the value the residual used
    """

    t: float
    tau: float
    omega_q_tau: float
    residual: float
    bracket_width: float
    alpha: float


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
    return _evaluate(e, pt, t, alpha_eval(e, pt.s2))[0]


def _residual_at(e: Exponents, pt: ParamPoint, t: float, w: float, a2: float) -> float:
    """Left minus right side of the implicit equation at t, with w = omega_q(tau(t))."""
    lhs = (
        e.q
        * (e.p * w ** (e.q - 1.0) - (e.p - 1.0) * w**e.q)
        * (t ** (e.p - e.q) - pt.s1 / pt.s2)
    )
    return lhs - (e.p - e.q) * pt.s1 * a2


def _evaluate(e: Exponents, pt: ParamPoint, t: float, a2: float) -> tuple[float, float]:
    """(residual, w) at t, with w = omega_q(tau(t)) inverted on its natural bracket."""
    tau = tau_eval(e, pt, t)
    if not 0.0 <= tau <= 1.0:
        raise InfeasibleTauError(
            f"tau={tau} left [0, 1] at t={t}; omega_q is undefined there"
        )
    w = omega(e.q, tau)
    return _residual_at(e, pt, t, w, a2), w


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


def _lo_cut(e: Exponents) -> float:
    """The tau below which residual(1 + 1e-12) < 0 holds without inverting omega_q."""
    thr = threshold(e)
    return thr - max(_LO_CUT_REL * thr, _LO_CUT_ABS * e.q * e.q_conj ** (e.q - 1.0))


def _endpoint_bracket(e: Exponents, pt: ParamPoint) -> tuple[float, float, float]:
    """(hi, omega_q(tau(hi)), alpha(s2)) of a solvable point.

    The bracket is [1 + 1e-12, hi], where hi is the largest float below
    p/(p-1), lowered to the tau-feasibility top when tau exceeds 1 there.
    The residual is negative below an upper t-interval and strictly
    increasing on it (module docstring), so a root exists exactly when the
    residual is negative at the left end and positive at the right one.
    The left end's sign is decided in closed form when tau(lo) is clearly
    below H_q(p/(p-1)) (module docstring); otherwise, and always at the
    right end, omega_q is inverted on its natural bracket, so the decision
    does not depend on the order of evaluation.  The last bracket and
    alpha(s2) computed are kept (module docstring).
    Raises OutsideDomainError unless in_domain(...) is INSIDE, and
    NoRootError when that sign change is missing (the point lies in the
    no-root band along the lower curve, where the root would need tau >= 1).
    """
    global _alpha_memo, _bracket_memo
    key = (e.p, e.q, pt.s1, pt.s2)
    memo_key, bracket = _bracket_memo
    if memo_key == key:
        return bracket
    verdict = in_domain(e, pt)
    if verdict is not Membership.INSIDE:
        raise OutsideDomainError(
            f"({pt.s1}, {pt.s2}) is {verdict.value} for p={e.p}, q={e.q}"
        )
    alpha_key = (e.q, pt.s2)
    memo_key, a2 = _alpha_memo
    if memo_key != alpha_key:
        a2 = alpha_eval(e, pt.s2)
        _alpha_memo = (alpha_key, a2)
    lo = 1.0 + _ENDPOINT_MARGIN
    hi = _tau_feasible_top(e, pt, lo, math.nextafter(e.p_conj, 0.0))
    lo_negative = tau_eval(e, pt, lo) < _lo_cut(e) or _evaluate(e, pt, lo, a2)[0] < 0.0
    res_hi, w_hi = _evaluate(e, pt, hi, a2)
    if not (lo_negative and res_hi > 0.0):
        raise NoRootError(
            f"residual has no sign change on [{lo}, {hi}] at "
            f"(s1={pt.s1}, s2={pt.s2}); point is operationally outside"
        )
    bracket = (hi, w_hi, a2)
    _bracket_memo = (key, bracket)
    return bracket


def _clear_memos() -> None:
    """Forget the kept alpha(s2) and endpoint bracket."""
    global _alpha_memo, _bracket_memo
    _alpha_memo = _bracket_memo = _NO_MEMO


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


def _u_equation(
    e: Exponents, pt: ParamPoint, k: float
) -> tuple[Callable[[float], float], Callable[[float], float]]:
    """(g, t) as functions of u, given K = k; c is taken as (p-q) / (p K)."""
    p, q, s1 = e.p, e.q, pt.s1
    pm1, qm1, ratio = p - 1.0, q - 1.0, s1 / pt.s2
    c, x_to_tp, x_to_t = (p - q) / (p * k), p / (p - q), 1.0 / (p - q)

    def g(u: float) -> float:
        w = (p - u) / pm1
        return q - qm1 * w - c * u * ((ratio + k / (w**qm1 * u)) ** x_to_tp - s1)

    def t_of(u: float) -> float:
        return (ratio + k / (((p - u) / pm1) ** qm1 * u)) ** x_to_t

    return g, t_of


def _u_bracket(
    g: Callable[[float], float], u_a: float, u_b: float
) -> tuple[float, float, float, float]:
    """(u_a, u_b, g(u_a), g(u_b)) with g(u_a) < 0 < g(u_b) in floats.

    An end whose float sign rounding defeated is stepped outward: u_a
    halved (g -> -inf as u -> 0), u_b doubled up to u = 1.
    """
    while not (g_a := g(u_a)) < 0.0:
        u_a *= 0.5
    u_b = max(u_b, u_a)
    while not (g_b := g(u_b)) > 0.0:
        if u_b == 1.0:
            raise ConvergenceError(f"g(u) = {g_b} is not positive at u = 1")
        u_b = min(2.0 * u_b, 1.0)
    return u_a, u_b, g_a, g_b


def _omega_certificate(q: float, tau: float, w: float) -> float:
    """omega_q(tau), from a bracket around w if H_q there brackets tau strictly."""
    top = q / (q - 1.0)
    d = _NEAR_HALF_WIDTH * top
    z_lo, z_hi = max(1.0, w - d), min(top, w + d)
    h_lo, h_hi = h_eval(q, z_lo), h_eval(q, z_hi)
    if h_lo > tau > h_hi:
        return _omega_between(q, tau, z_lo, h_lo, z_hi, h_hi)[0]
    return omega(q, tau)


def solve_t(e: Exponents, pt: ParamPoint) -> BellmanSolution:
    """Solve the implicit equation for the constant at an interior point.

    ``_bracketed_root`` solves g(u) = 0 on the u bracket that the endpoint
    bracket gives, and t = X(u)^(1/(p-q)) (module docstring).  Raises
    OutsideDomainError or NoRootError exactly when ``has_root`` is false.
    """
    hi, w_hi, a2 = _endpoint_bracket(e, pt)
    p, q = e.p, e.q
    k = (p - q) * pt.s1 * a2 / q
    g, t_of = _u_equation(e, pt, k)
    u_enclosed = k / (e.p_conj ** (q - 1.0) * (hi ** (p - q) - pt.s1 / pt.s2))
    u_a, u_b, g_a, g_b = _u_bracket(g, u_enclosed, p - (p - 1.0) * w_hi)
    a, b, u, _ = _bracketed_root(g, u_a, u_b, g_a, g_b, _U_REL_WIDTH * u_a)
    # the root lies below hi, but X(u)^(1/(p-q)) can round up to p/(p-1)
    # (307 of 12,981 solves at s1 < 1e-11 on six pairs)
    t = min(t_of(u), hi)
    tau = tau_eval(e, pt, t)
    w = _omega_certificate(q, tau, (p - u) / (p - 1.0))
    return BellmanSolution(
        t=t, tau=tau, omega_q_tau=w, residual=_residual_at(e, pt, t, w, a2),
        bracket_width=abs(t_of(a) - t_of(b)), alpha=a2,
    )
