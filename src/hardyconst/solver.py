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
  rounds to 1 or above and the certificate's omega_q(tau) is undefined
  (``sensitivity`` reads the solve's own u < 1).  So g is tested at u_top,
  where H_q(w) = 1 - eps to second order (H_q(1 + d) = 1 - q (q-1) d^2 / 2
  + ...), eps = 1e-14 p/(p-q): tau(t) carries X's rounding times about
  p/(p-q).  A root within eps of tau = 1 counts as no root.  On 3180 points
  within 1e-3 relative of the g(1) = 0 frontier over ten pairs, has_root
  disagreed with a usable solve (0 < tau < 1 < omega_q(tau), gamma and
  delta finite) at 1 point with 1e-16 in place of 1e-14 and at none with
  1e-15.  Where u_top <= 0, i.e. q (q-1) < 2 eps (p-1)^2, H_q(w) > 1 - eps
  on all of [1, p'] and no point of the pair has a root that counts.
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
stencil share s2.  The cache is thread-safe and never keeps an exception.

The certificate stays in t-space, so that it checks t independently of g:
tau(t), omega_q(tau) and the residual at (t, omega_q(tau)).  omega_q(tau) is
``special._omega_near`` around w(u*), the path ``omega`` takes from its own
Newton estimate.

``solve_lanes`` is ``solve_t`` for a batch of points, one per lane, equal
to it bit for bit on every field and verdict: the same pipeline on numpy
arrays, with both root solves in ``special._root_lanes`` and alpha once per
run of equal s2.  A call costs ~0.7 ms with one lane against ~0.05 ms for
``solve_t``, breaks even near 100 lanes of scattered points, and takes
~8 ms for 1,000 against ~26 ms (process CPU time on (3, 2), 2 shared
x86-64 vCPUs), so ``verify.sign_suite`` solves its grid with it and
callers of single points keep ``solve_t``.  It is public in this module,
not in the package: ``verify`` may import no private solver name.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .domain import Membership, ParamPoint, _outside_lanes, in_domain
from .errors import (
    DomainError,
    InfeasibleTauError,
    NoRootError,
    OutsideDomainError,
    SingularityError,
)
from .special import (
    Exponents,
    _bracketed_root,
    _omega_lanes,
    _omega_near,
    _root_lanes,
    _scale_lanes,
    omega,
)

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


@dataclass(frozen=True)
class BellmanSolution:
    """A solved constant together with its certificates.

    t comes from the explicit equation in u; tau, omega_q_tau and residual
    are recomputed from t in t-space, so they check it independently.

    t             the constant, in (1, p/(p-1))
    u             the u whose t(u) gave t; u_a at the top cap
    tau           tau(t), the reparameterized argument fed to omega_q, in (0, 1)
    omega_q_tau   omega_q(tau), inverted by special._omega_near
    residual      the implicit-equation residual at (t, omega_q_tau)
    bracket_width |t(a) - t(b)| over the kernel's final u bracket [a, b];
                  p/(p-1) - t at the top cap
    alpha         alpha(s2), the value the residual used
    """

    t: float
    u: float
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
    """Implicit-equation residual at t, with omega_q(tau(t)) from ``omega``;
    zero exactly at the constant."""
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
    float, float, Callable[[float], float], Callable[[float], float], float, float, float
]:
    """(alpha, K, g, t(u), u_b, g(u_b), u_top) of a solvable point, u_b = min(u_lo, u_top).

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
    # g -> -inf as u -> 0+; u_lo underflows to 0 only where p' < lo: no root counts
    g_b = g(u_b) if u_b > 0.0 else -math.inf
    if not g_b > 0.0:
        raise NoRootError(
            f"g(u) = {g_b} is not positive at u = {u_b} at "
            f"(s1={pt.s1}, s2={pt.s2}); point is operationally outside"
        )
    return a2, k, g, t_of, u_b, g_b, u_top


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


def solve_t(e: Exponents, pt: ParamPoint) -> BellmanSolution:
    """Solve the implicit equation for the constant at an interior point.

    ``_bracketed_root`` solves g(u) = 0 on [u_a, u_top] and t =
    X(u)^(1/(p-q)), capped at the largest float below p/(p-1) (module
    docstring).  Raises OutsideDomainError or NoRootError exactly when
    ``has_root`` is false.
    """
    a2, k, g, t_of, u_b, g_b, u_top = _decide(e, pt)
    p, q, cap = e.p, e.q, math.nextafter(e.p_conj, 0.0)
    d = cap ** (p - q) - pt.s1 / pt.s2
    u = k / (e.p_conj ** (q - 1.0) * d)
    u = k / (((p - u) / (p - 1.0)) ** (q - 1.0) * d)
    g_a = g(u)
    if g_a < 0.0:
        g_top = g_b if u_b == u_top else g(u_top)
        a, b, u = _bracketed_root(g, u, u_top, g_a, g_top, _U_REL_WIDTH * u)
        t, width = min(max(t_of(u), 1.0 + _ENDPOINT_MARGIN), cap), abs(t_of(a) - t_of(b))
    else:
        # the root lies at or above t(u) >= cap, within an ulp of p/(p-1)
        t, width = cap, e.p_conj - cap
    tau = tau_eval(e, pt, t)
    w = _omega_near(q, tau, (p - u) / (p - 1.0))
    return BellmanSolution(
        t=t, u=u, tau=tau, omega_q_tau=w, residual=_residual_at(e, pt, t, w, a2),
        bracket_width=width, alpha=a2,
    )


@dataclass(frozen=True)
class LaneSolutions:
    """``solve_lanes``' result: each lane's verdict, and ``BellmanSolution``'s
    fields as arrays, nan where the lane has no constant.

    ok        solve_t returns a constant
    outside   solve_t raises OutsideDomainError; a lane neither ok nor
              outside is one where it raises NoRootError

    The other fields follow ``BellmanSolution``'s, in its order.
    """

    ok: np.ndarray
    outside: np.ndarray
    t: np.ndarray
    u: np.ndarray
    tau: np.ndarray
    omega_q_tau: np.ndarray
    residual: np.ndarray
    bracket_width: np.ndarray
    alpha: np.ndarray


def _g_lanes(e: Exponents, ratio, k, c, s1, u: np.ndarray) -> np.ndarray:
    """g(u) of ``_u_equation`` on lanes with their own s1/s2, K and c."""
    p, q = e.p, e.q
    w = (p - u) / (p - 1.0)
    x = ratio + k / (np.float_power(w, q - 1.0) * u)
    return q - (q - 1.0) * w - c * u * (np.float_power(x, p / (p - q)) - s1)


def _t_lanes(e: Exponents, ratio, k, u: np.ndarray) -> np.ndarray:
    """t(u) of ``_u_equation`` on lanes."""
    p, q = e.p, e.q
    w = (p - u) / (p - 1.0)
    return np.float_power(ratio + k / (np.float_power(w, q - 1.0) * u), 1.0 / (p - q))


def _lane_powers(e: Exponents) -> tuple[float, float, float]:
    """The scalar powers that ``_u_lo`` and ``solve_t`` take once per pair:
    (1 + 1e-12)^(p-q), p'^(q-1) and cap^(p-q), cap the largest float below p'."""
    cap = math.nextafter(e.p_conj, 0.0)
    return (1.0 + _ENDPOINT_MARGIN) ** (e.p - e.q), e.p_conj ** (e.q - 1.0), cap ** (e.p - e.q)


def solve_lanes(e: Exponents, s1: np.ndarray, s2: np.ndarray) -> LaneSolutions:
    """``solve_t`` on 1-D arrays of s1 and s2, one point per lane, bit for bit.

    Runs solve_t's pipeline lane-wise (``_inside_lanes``) and returns each
    lane's verdict instead of raising OutsideDomainError or NoRootError.  A
    lane whose arithmetic meets a non-finite value, or a tau where
    ``tau_eval`` or ``omega`` would raise, is solved by ``solve_t``, so it
    raises what solve_t raises; an invalid (s1, s2) raises ParamPoint's
    DomainError before anything is solved.
    """
    s1, s2 = np.asarray(s1, dtype=float), np.asarray(s2, dtype=float)
    valid = (0.0 < s1) & (s1 <= 1.0) & (0.0 < s2) & (s2 <= 1.0)
    if not valid.all():
        i = valid.argmin()
        ParamPoint(float(s1[i]), float(s2[i]))
    fields = [np.full(s1.size, np.nan) for _ in range(7)]
    ok = np.zeros(s1.size, dtype=bool)
    with np.errstate(all="ignore"):
        outside = _outside_lanes(e, s1, s2)
        idx = np.flatnonzero(~outside)
        u_top = _u_top(e)
        redo = []
        if idx.size and u_top > 0.0:
            done, redo, values = _inside_lanes(e, u_top, s1[idx], s2[idx])
            ok[idx[done]] = True
            for field, v in zip(fields, values):
                field[idx[done]] = v
            redo = idx[redo].tolist()
    for i in redo:
        try:
            sol = solve_t(e, ParamPoint(float(s1[i]), float(s2[i])))
        except NoRootError:
            continue
        ok[i] = True
        for field, v in zip(fields, vars(sol).values()):
            field[i] = v
    return LaneSolutions(ok, outside, *fields)


def _inside_lanes(
    e: Exponents, u_top: float, s1: np.ndarray, s2: np.ndarray
) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, ...]]:
    """``solve_t`` on inside lanes, given u_top > 0: (the lanes with a
    constant, the lanes for ``solve_t`` to redo, the constants' fields).

    The decision: alpha once per run of equal s2 through ``_alpha``, where
    the scalar loop computes it, K, ``_u_lo``'s Newton loop, masked, and
    g(u_b).  Then u_a and g(u_a); g(u_top) where u_b < u_top; the u solve
    through ``_root_lanes``, with each straggler on its own scalar g; t and
    its width; tau; and omega_q(tau) through ``_omega_lanes`` around w(u),
    then the residual.
    """
    p, q = e.p, e.q
    lane = np.arange(s1.size)
    start = np.flatnonzero(np.r_[True, s2[1:] != s2[:-1]])
    a2 = np.repeat([_alpha(e, x) for x in s2[start].tolist()], np.diff(np.r_[start, s2.size]))
    k = np.maximum((p - q) * s1 * a2 / q, _K_MIN)
    ratio, c = s1 / s2, (p - q) / (p * k)
    lo_pow, pc_pow, cap_pow = _lane_powers(e)
    r = k / (lo_pow - ratio)
    u_lo = r / pc_pow
    live = np.flatnonzero(u_lo < 1.0)
    while live.size:
        v = u_lo[live]
        w = (p - v) / (p - 1.0)
        w_q2 = np.float_power(w, q - 2.0)
        step = v + (r[live] - w_q2 * w * v) * (p - 1.0) / (w_q2 * (p - q * v))
        up = step > v
        live = live[up]
        u_lo[live] = step[up]
        live = live[step[up] < 1.0]
    u_b = np.where(u_top < u_lo, u_top, u_lo)
    g_b = _g_lanes(e, ratio, k, c, s1, u_b)
    redo = [lane[~np.isfinite(g_b)]]
    keep = g_b > 0.0
    lane, s1, s2, a2, k, ratio, c, u_b, g_b = (
        v[keep] for v in (lane, s1, s2, a2, k, ratio, c, u_b, g_b)
    )
    d = cap_pow - ratio
    u = k / (pc_pow * d)
    u = k / (np.float_power((p - u) / (p - 1.0), q - 1.0) * d)
    g_a = _g_lanes(e, ratio, k, c, s1, u)
    # the top cap, unless g(u_a) < 0
    cap = math.nextafter(e.p_conj, 0.0)
    t, width = np.full(lane.size, cap), np.full(lane.size, e.p_conj - cap)
    bad = ~np.isfinite(g_a)
    j = np.flatnonzero(g_a < 0.0)
    if j.size:
        ra, rk, rc, rs1, lo = ratio[j], k[j], c[j], s1[j], u[j]
        g_top, at = g_b[j], u_b[j] != u_top
        g_top[at] = _g_lanes(e, ra[at], rk[at], rc[at], rs1[at], u_top)
        xtol = _U_REL_WIDTH * lo

        def minus_g(i: int) -> Callable[[float], float]:
            g = _u_equation(e, ParamPoint(float(rs1[i]), float(s2[j[i]])), float(rk[i]))[0]
            return lambda x: -g(x)

        # g rises through its root: the kernel solves -g = 0
        a, b, u[j] = _root_lanes(
            lambda i, x: -_g_lanes(e, ra[i], rk[i], rc[i], rs1[i], x), minus_g,
            lo, np.full(j.size, u_top), -g_a[j], -g_top, xtol,
            0.2 / (u_top - lo), _scale_lanes(u_top - lo, xtol),
        )
        t_u = _t_lanes(e, ra, rk, u[j])
        t[j] = np.minimum(np.maximum(t_u, 1.0 + _ENDPOINT_MARGIN), cap)
        width[j] = np.abs(_t_lanes(e, ra, rk, a) - _t_lanes(e, ra, rk, b))
        bad[j] |= ~(np.isfinite(g_top) & np.isfinite(t_u) & np.isfinite(width[j]))
    denom = np.float_power(t, p - q) - ratio
    tau = (p - q) / p * (np.float_power(t, p) - s1) / denom
    # tau_eval raises where denom <= 0, omega where tau leaves [0, 1]
    bad |= ~((denom > 0.0) & (0.0 <= tau) & (tau <= 1.0))
    redo.append(lane[bad])
    lane, s1, a2, t, u, width, denom, tau = (
        v[~bad] for v in (lane, s1, a2, t, u, width, denom, tau)
    )
    w = _omega_lanes(q, tau, (p - u) / (p - 1.0))
    lhs = q * (p * np.float_power(w, q - 1.0) - (p - 1.0) * np.float_power(w, q)) * denom
    res = lhs - (p - q) * s1 * a2
    return lane, np.sort(np.concatenate(redo)), (t, u, tau, w, res, width, a2)
