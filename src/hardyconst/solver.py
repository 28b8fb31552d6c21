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
root.

The root is found without inverting omega_q.  With u = p - (p-1) w in
(0, 1], the left factor is w^(q-1) u, and for a given w the equation gives
t explicitly: X(u) = t^(p-q) = s1/s2 + K / (w^(q-1) u), K = (p-q) s1 alpha/q.
Substituted into H_q(w) = tau(t), whose denominator is then K / (w^(q-1) u),
and divided by w^(q-1), that leaves one explicit equation in u:

    g(u) = q - (q-1) w - c u (X^(p/(p-q)) - s1) = 0,    c = q / (p s1 alpha),

whose sign is that of H_q(w) - tau(t(u)).  As u grows, H_q(w) rises and
t(u), so tau, falls: g changes sign once, at u* with t(u*) the constant, and
g -> -inf as u -> 0.  u keeps full relative precision as s1 -> 0, where u*
is of the order of s1.  t^p is X^(p/(p-q)) in one pow: t**p would let p
amplify t's rounding.

Solvability is decided in u (``has_root``; ``solve_t`` makes the same test
first), by the sign of g at one point.  u = 1 is w = 1, i.e. tau = 1, so a
root with tau < 1 exists exactly when g(1) = 1 - c ((s1/s2 + K)^(p/(p-q)) -
s1) > 0, explicit once alpha is known.  Two refinements:

- The frontier.  Where tau at the root is within rounding of 1, tau(t)
  rounds to 1 or above, omega_q(tau) to 1, and the bracket factor of
  ``sensitivity`` is singular there.  So g is tested at u_top, where
  H_q(w) = 1 - eps to second order (H_q(1 + d) = 1 - q (q-1) d^2 / 2 + ...),
  eps = 1e-14 p/(p-q): tau(t) carries X's rounding times about p/(p-q).  A
  root within eps of tau = 1 counts as no root.  On 3180 points within 1e-3
  relative of the g(1) = 0 frontier over ten pairs, has_root disagreed with
  a usable solve (0 < tau < 1 < omega_q(tau), gamma and delta finite) at 1
  point with 1e-16 in place of 1e-14 and at none with 1e-15.  Where
  u_top <= 0, i.e. q (q-1) < 2 eps (p-1)^2, H_q(w) > 1 - eps on all of
  [1, p'] and no point of the pair has a root that counts.
- The left end.  The root must also lie above lo = 1 + 1e-12.  phi(u) =
  w^(q-1) u is increasing and concave on (0, 1] (phi' = w^(q-2) (p - q u)
  /(p-1), phi'' = -(q-1) w^(q-3) (2p - q u)/(p-1)^2) and t(u) falls, so
  with phi(u_lo) = R = K / (lo^(p-q) - s1/s2), i.e. t(u_lo) = lo, t(u*) >
  lo exactly when g(u_lo) > 0.  Newton on phi = R from R / p'^(q-1) <= u_lo
  (w <= p') climbs by concavity; it stops once a step no longer raises u
  or u reaches 1, after 1.2 to 2.6 steps on average over 12 pairs, at most
  10.  w^(q-1) is w^(q-2) w, one pow per step: t* - 1 is small only near
  the corner (1, 1), and on 42,000 sampled points (12,000 with 1 - s2 <
  1.2e-10) lo rejected none, so u_lo need not be bit-exact.  The test is
  g(min(u_lo, u_top)) > 0, and inverts no omega_q.

The u bracket is [u_a, u_top].  As w^(q-1) <= p'^(q-1) (p' = p/(p-1)),
u_0 = K / (p'^(q-1) (cap^(p-q) - s1/s2)) has t(u_0) >= cap, the largest
float below p'.  u_a repeats that with w(u_0) in place of p': it keeps
u_a <= u* and t(u_a) >= cap, and saves 0.7 evaluations of g per solve on
(3, 2), 2.3 on (20, 19).  Where g(u_a) >= 0 the root lies at t >= cap,
within an ulp of p', and t is cap: the top cap.  Otherwise the kernel
solves g = 0 on [u_a, u_top], evaluating g(u_top) where the decision
tested u_lo, and t = min(t(u*), cap), raised to lo where t(u*) rounds
below it: X = t^(p-q) resolves t only to about 1e-16/(p-q), and the
decision has put the root above lo.  K is floored at
1e-290: below it s1 and s1/s2 are below ~1e-280, the root lies far less
than an ulp below p', and the floor keeps c and the width 1e-15 u_a normal
floats.  g's rounding bounds t to a few ulp: up to 1.0e-15 relative against
a 40-digit oracle on (1.5, 1.1), where X is near 1, and more as p - q
shrinks (t = X^(1/(p-q))).

The last alpha(s2) is kept by ``functools.lru_cache(maxsize=1)``, keyed on
(e, s2): a row's points (``scan``, the ``verify`` rows) and ``dt_ds1``'s
stencil share s2, and ``hardy`` solves the point its ``has_root`` has just
accepted.  The cache is thread-safe and never keeps an exception.

The certificate stays in t-space, so that it checks t independently of g:
tau(t), omega_q(tau) and the residual at (t, omega_q(tau)).  omega_q(tau) is
inverted from a narrow bracket around w(u*) when H_q at its ends brackets
tau strictly, and from the natural bracket otherwise.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass

from .domain import Membership, ParamPoint, in_domain
from .errors import (
    DomainError,
    InfeasibleTauError,
    NoRootError,
    OutsideDomainError,
    SingularityError,
)
from .special import _BRACKET_REL_TOL, Exponents, _bracketed_root, _omega_between, h_eval, omega

#: margin by which the root must lie above t = 1
_ENDPOINT_MARGIN = 1e-12
#: g decides solvability where H_q(w) = 1 - eps, eps = this times p/(p-q)
#: (module docstring)
_TAU_MARGIN = 1e-14
#: floor of K = (p-q) s1 alpha/q: below it t is the top cap
_K_MIN = 1e-290
#: u bracket width relative to u_a <= u*, not u_b: 1e-15 u_b left t up to
#: 7.7e-15 off where u_b was 60 u*
_U_REL_WIDTH = 1e-15
#: certificate bracket half-width relative to q/(q-1): at 0.5 omega
#: tolerances 18 % of solves fell back to the natural bracket, at 4 0.3 %
_NEAR_HALF_WIDTH = 4.0 * _BRACKET_REL_TOL


@dataclass(frozen=True)
class BellmanSolution:
    """A solved constant together with its certificates.

    t comes from the explicit equation in u; tau, omega_q_tau and residual
    are recomputed from t in t-space, so they check it independently.

    t             the constant, in (1, p/(p-1))
    tau           tau(t), the reparameterized argument fed to omega_q, in (0, 1)
    omega_q_tau   omega_q(tau), inverted by special._omega_between
    residual      the implicit-equation residual at (t, omega_q_tau)
    bracket_width |t(a) - t(b)| over the kernel's final u bracket [a, b];
                  p/(p-1) - t at the top cap
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


@functools.lru_cache(maxsize=1)
def _alpha(e: Exponents, s2: float) -> float:
    """alpha(s2), kept for the next point of the row (module docstring)."""
    return alpha_eval(e, s2)


def residual(e: Exponents, pt: ParamPoint, t: float) -> float:
    """Implicit-equation residual at t, with omega_q(tau(t)) inverted on its
    natural bracket; zero exactly at the constant."""
    a2 = alpha_eval(e, pt.s2)
    tau = tau_eval(e, pt, t)
    if not 0.0 <= tau <= 1.0:
        raise InfeasibleTauError(f"tau={tau} left [0, 1] at t={t}; omega_q is undefined there")
    return _residual_at(e, pt, t, omega(e.q, tau), a2)


def _residual_at(e: Exponents, pt: ParamPoint, t: float, w: float, a2: float) -> float:
    """Left minus right side of the implicit equation at t, with w = omega_q(tau(t))."""
    lhs = (
        e.q
        * (e.p * w ** (e.q - 1.0) - (e.p - 1.0) * w**e.q)
        * (t ** (e.p - e.q) - pt.s1 / pt.s2)
    )
    return lhs - (e.p - e.q) * pt.s1 * a2


def _u_top(e: Exponents) -> float:
    """The u at which H_q(w) = 1 - 1e-14 p/(p-q), to second order."""
    eps = _TAU_MARGIN * e.p / (e.p - e.q)
    return 1.0 - (e.p - 1.0) * math.sqrt(2.0 * eps / (e.q * (e.q - 1.0)))


def _u_lo(e: Exponents, pt: ParamPoint, k: float) -> float:
    """The u at which t(u) = 1 + 1e-12, or a u >= 1 where t > 1 + 1e-12 on
    all of (0, 1]: Newton from below on w^(q-1) u = R (module docstring)."""
    p, q = e.p, e.q
    r = k / ((1.0 + _ENDPOINT_MARGIN) ** (p - q) - pt.s1 / pt.s2)
    u = r / e.p_conj ** (q - 1.0)
    while u < 1.0:
        w = (p - u) / (p - 1.0)
        w_q2 = w ** (q - 2.0)
        step = u + (r - w_q2 * w * u) * (p - 1.0) / (w_q2 * (p - q * u))
        if not step > u:
            break
        u = step
    return u


def _decide(e: Exponents, pt: ParamPoint) -> tuple[
    float, float, Callable[[float], float], Callable[[float], float], float, float
]:
    """(alpha, K, g, t(u), u_b, g(u_b)) of a solvable point, u_b = min(u_lo, u_top).

    Raises OutsideDomainError unless in_domain(...) is INSIDE, and
    NoRootError unless g(u_b) > 0 (module docstring).
    """
    verdict = in_domain(e, pt)
    if verdict is not Membership.INSIDE:
        raise OutsideDomainError(
            f"({pt.s1}, {pt.s2}) is {verdict.value} for p={e.p}, q={e.q}"
        )
    u_top = _u_top(e)
    if not u_top > 0.0:
        raise NoRootError(
            f"u_top = {u_top} is not positive for p={e.p}, q={e.q}: tau at any "
            "root is within rounding of 1; point is operationally outside"
        )
    a2 = _alpha(e, pt.s2)
    k = max((e.p - e.q) * pt.s1 * a2 / e.q, _K_MIN)
    g, t_of = _u_equation(e, pt, k)
    u_b = min(_u_lo(e, pt, k), u_top)
    g_b = g(u_b)
    if not g_b > 0.0:
        raise NoRootError(
            f"g(u) = {g_b} is not positive at u = {u_b} at "
            f"(s1={pt.s1}, s2={pt.s2}); point is operationally outside"
        )
    return a2, k, g, t_of, u_b, g_b


def has_root(e: Exponents, pt: ParamPoint) -> bool:
    """True exactly when ``solve_t(e, pt)`` returns a constant.

    The test ``solve_t`` makes before it solves: ``in_domain``, then the
    sign of g at min(u_lo, u_top), where t is 1 + 1e-12 and where tau is
    1 - 1e-14 p/(p-q) (module docstring).
    """
    try:
        _decide(e, pt)
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


def _omega_certificate(q: float, tau: float, w: float) -> float:
    """omega_q(tau), from a bracket around w if H_q there brackets tau strictly."""
    top = q / (q - 1.0)
    d = _NEAR_HALF_WIDTH * top
    z_lo, z_hi = max(1.0, w - d), min(top, w + d)
    h_lo, h_hi = h_eval(q, z_lo), h_eval(q, z_hi)
    if h_lo > tau > h_hi:
        return _omega_between(q, tau, z_lo, h_lo, z_hi, h_hi)
    return omega(q, tau)


def solve_t(e: Exponents, pt: ParamPoint) -> BellmanSolution:
    """Solve the implicit equation for the constant at an interior point.

    ``_bracketed_root`` solves g(u) = 0 on [u_a, u_top] and t =
    X(u)^(1/(p-q)), capped at the largest float below p/(p-1) (module
    docstring).  Raises OutsideDomainError or NoRootError exactly when
    ``has_root`` is false.
    """
    a2, k, g, t_of, u_b, g_b = _decide(e, pt)
    p, q, cap = e.p, e.q, math.nextafter(e.p_conj, 0.0)
    d = cap ** (p - q) - pt.s1 / pt.s2
    u = k / (e.p_conj ** (q - 1.0) * d)
    u = k / (((p - u) / (p - 1.0)) ** (q - 1.0) * d)
    g_a = g(u)
    if g_a < 0.0:
        u_top = _u_top(e)
        g_top = g_b if u_b == u_top else g(u_top)
        a, b, u = _bracketed_root(g, u, u_top, g_a, g_top, _U_REL_WIDTH * u)
        t, width = min(max(t_of(u), 1.0 + _ENDPOINT_MARGIN), cap), abs(t_of(a) - t_of(b))
    else:
        # the root lies at or above t(u) >= cap, within an ulp of p/(p-1)
        t, width = cap, e.p_conj - cap
    tau = tau_eval(e, pt, t)
    w = _omega_certificate(q, tau, (p - u) / (p - 1.0))
    return BellmanSolution(
        t=t, tau=tau, omega_q_tau=w, residual=_residual_at(e, pt, t, w, a2),
        bracket_width=width, alpha=a2,
    )
