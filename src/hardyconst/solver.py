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
s1) > 0, explicit once alpha is known.  Where tau at the root is within
rounding of 1, tau(t) rounds to 1 or above and the certificate's
omega_q(tau) is undefined (``sensitivity`` reads the solve's own u < 1).
So g is tested at u_top, where H_q(w) = 1 - eps to second order (H_q(1 + d)
= 1 - q (q-1) d^2 / 2 + ...), eps = 1e-14 p/(p-q): tau(t) carries X's
rounding times about p/(p-q).  A root within eps of tau = 1 counts as no
root.  On 3180 points within 1e-3 relative of the g(1) = 0 frontier over
ten pairs, has_root disagreed with a usable solve (0 < tau < 1 <
omega_q(tau), gamma and delta finite) at 1 point with 1e-16 in place of
1e-14 and at none with 1e-15.  The test is g(u_top) > 0: one evaluation of
g, which the u solve reuses, and no omega_q inversion.  No point of a pair
has a root that counts where u_top <= 0, i.e. q (q-1) < 2 eps (p-1)^2, as
H_q(w) > 1 - eps on all of [1, p'], or where p' = p/(p-1) <= lo = 1 +
1e-12, as no t lies in (lo, p').

The floor lo is no test: a root is taken to lie above it.  A 40-digit
oracle found none below lo on 47,000 points near the corner (1, 1) of 8
pairs, nor at s2 = 1 - k 2^-53 (k <= 1e6) within 1e-11 of the lower curve
on 12 pairs (smallest t* - 1: 1.5e-11, on (1000, 999)).  A test of g where
t = lo rejected only points with 1 - s2 <= 1.1e-15, each with t* - 1 in
[4.9e-10, 2.6e-9]: alpha's float error there, not a root below lo (ROADMAP
item 7, omega and alpha near s = 1).

The u bracket is [u_a, u_top].  As w^(q-1) <= p'^(q-1), u_0 = K / (p'^(q-1)
(cap^(p-q) - s1/s2)) has t(u_0) >= cap, the largest float below p'.  u_a
repeats that with w(u_0) in place of p': it keeps u_a <= u* and t(u_a) >=
cap, and saves 0.7 evaluations of g per solve on (3, 2), 2.3 on (20, 19).
Where g(u_a) >= 0 the root lies at t >= cap, within an ulp of p', and t is
cap: the top cap.  Otherwise the kernel solves g = 0 on [u_a, u_top] from
g(u_a) < 0 and the decision's g(u_top) > 0, and t = min(t(u*), cap), raised
to lo where t(u*) falls below it.  That keeps t >= 1: X = t^(p-q) resolves t
only to about 1e-16/(p-q), and near s2 = 1 alpha's error can put t(u*)
below lo although the root lies above it; there the residual, not
bracket_width, shows the gap.  K is floored at 1e-290: below it s1 and
s1/s2 are below ~1e-280, the root lies far less than an ulp below p', and
the floor keeps c and the width 1e-15 u_a normal floats.  g's rounding
bounds t to a few ulp: up to 1.0e-15 relative against a 40-digit oracle on
(1.5, 1.1), where X is near 1, and more as p - q shrinks (t = X^(1/(p-q))).

The last alpha(s2) is kept by ``functools.lru_cache(maxsize=1)``, keyed on
(e, s2): a row's points (``scan``, the ``verify`` rows) and ``dt_ds1``'s
stencil share s2.  The cache is thread-safe and never keeps an exception.

The certificate stays in t-space, so that it checks t independently of g:
tau(t), omega_q(tau) and the residual at (t, omega_q(tau)).  A tau(t)
outside [0, 1], on extreme pairs only (``has_root``), is an
InfeasibleTauError.  omega_q(tau) is ``special._omega_near`` around w(u*),
the path ``omega`` takes from its own Newton estimate.  w(u*) is not
Newton-converged, so 7.5 % of certificates on scan rows need the
half-width 4e-15 q' after 1e-15 q', and 0.25 % fall back to [1, q'].

``solve_lanes`` is ``solve_t`` on a batch of points, one per lane, bit for
bit, run on numpy arrays (its docstring).  A call costs ~0.17 ms with one
lane against ~0.014 ms for ``solve_t``, breaks even near 25 lanes of
scattered points, and takes ~5.2 ms for 1,000 against ~18 ms (process CPU
time on (3, 2), min of 7 rounds, 2 shared x86-64 vCPUs), so
``verify.sign_suite`` and ``verify.fd_suite`` solve their grids with it and
callers of single points keep ``solve_t``.  It is public in this module,
not in the package, as are ``tau_denominator``, tau's guarded denominator,
which ``tau_eval`` shares with ``sensitivity``, and ``sign_factors``,
gamma, delta and lambda at a solved point, which a CLI row reads without
loading ``sensitivity``: no module may import a private solver name.
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
from .special import Exponents, _bracketed_root, _omega_near, omega

#: the floor lo = 1 + this, below which t is raised to lo; no test (module
#: docstring)
_ENDPOINT_MARGIN = 1e-12
#: g decides solvability where H_q(w) = 1 - eps, eps = this times p/(p-q)
#: (module docstring)
_TAU_MARGIN = 1e-14
#: floor of K = (p-q) s1 alpha/q: below it t is the top cap
_K_MIN = 1e-290
#: u bracket width relative to u_a <= u*: relative to the bracket's upper
#: end it left t up to 7.7e-15 off where that end was 60 u*
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

    residual and bracket_width certify t given the float alpha, and cannot
    see alpha's own error, which grows as s2 -> 1: on (3, 2) at s1 =
    0.029448272933048966, s2 = 0.9999999999999716, alpha is 4.8e-4 and t
    3.6e-13 (about 1,600 eps) relative off, while bracket_width reads 0.
    Where it puts t(u) below the floor 1 + 1e-12, t is the floor and only
    the residual shows the gap: 8.9e-12 on (20, 19) at s1 =
    0.9999999999946025, s2 = 0.9999999999999998, where t* - 1 is 1.15e-9.
    """

    t: float
    u: float
    tau: float
    omega_q_tau: float
    residual: float
    bracket_width: float
    alpha: float


def tau_denominator(e: Exponents, pt: ParamPoint, t: float) -> float:
    """t^(p-q) - s1/s2, the denominator of tau; raises SingularityError unless positive."""
    denom = t ** (e.p - e.q) - pt.s1 / pt.s2
    if denom <= 0.0:
        raise SingularityError(
            f"tau denominator t^(p-q) - s1/s2 = {denom} is not positive"
        )
    return denom


def tau_eval(e: Exponents, pt: ParamPoint, t: float) -> float:
    """tau(t) = ((p-q)/p) * (t^p - s1) / (t^(p-q) - s1/s2) for t >= 1."""
    if not (math.isfinite(t) and t >= 1.0):
        raise DomainError(f"tau is evaluated for t >= 1, got t={t}")
    denom = tau_denominator(e, pt, t)
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
    return _residual_at(e, pt.s1, pt.s1 / pt.s2, t, omega(e.q, _feasible_tau(e, pt, t)), a2)


def _feasible_tau(e: Exponents, pt: ParamPoint, t: float) -> float:
    """``tau_eval``; raises InfeasibleTauError where tau leaves [0, 1]."""
    tau = tau_eval(e, pt, t)
    if not 0.0 <= tau <= 1.0:
        raise InfeasibleTauError(f"tau={tau} left [0, 1] at t={t}; omega_q is undefined there")
    return tau


def _residual_at(e: Exponents, s1: float, ratio: float, t: float, w: float, a2: float) -> float:
    """Left minus right side of the implicit equation at t, with w =
    omega_q(tau(t)) and ratio = s1/s2."""
    p, q = e.p, e.q
    lhs = q * (p * w ** (q - 1.0) - (p - 1.0) * w**q) * (t ** (p - q) - ratio)
    return lhs - (p - q) * s1 * a2


def _u_top(e: Exponents) -> float:
    """The u at which H_q(w) = 1 - 1e-14 p/(p-q), to second order."""
    eps = _TAU_MARGIN * e.p / (e.p - e.q)
    return 1.0 - (e.p - 1.0) * math.sqrt(2.0 * eps / (e.q * (e.q - 1.0)))


def _decide(e: Exponents, pt: ParamPoint) -> tuple[float, float, Callable, Callable, float, float]:
    """(alpha, K, g, t(u), u_top, g(u_top)) of a solvable point.

    Raises OutsideDomainError unless in_domain(...) is INSIDE, and
    NoRootError unless g(u_top) > 0 (module docstring).
    """
    verdict = in_domain(e, pt)
    if verdict is not Membership.INSIDE:
        raise OutsideDomainError(
            f"({pt.s1}, {pt.s2}) is {verdict.value} for p={e.p}, q={e.q}"
        )
    u_top = _u_top(e)
    if not (u_top > 0.0 and e.p_conj > 1.0 + _ENDPOINT_MARGIN):
        raise NoRootError(
            f"no root counts for p={e.p}, q={e.q}: it needs u_top = {u_top} > 0 "
            f"and p/(p-1) = {e.p_conj} > 1 + 1e-12; point is operationally outside"
        )
    a2 = _alpha(e, pt.s2)
    k = max((e.p - e.q) * pt.s1 * a2 / e.q, _K_MIN)
    g, t_of = _u_equation(e, pt.s1, pt.s1 / pt.s2, k, math.pow)
    g_top = g(u_top)
    if not g_top > 0.0:
        raise NoRootError(
            f"g(u) = {g_top} is not positive at u_top = {u_top} at "
            f"(s1={pt.s1}, s2={pt.s2}); point is operationally outside"
        )
    return a2, k, g, t_of, u_top, g_top


def has_root(e: Exponents, pt: ParamPoint) -> bool:
    """False exactly when ``solve_t(e, pt)`` raises OutsideDomainError or
    NoRootError: the test it makes before it solves, ``in_domain``, then the
    sign of g at u_top, where tau is 1 - 1e-14 p/(p-q) (module docstring).
    On extreme pairs only, a point it admits can still fail the solve, where
    tau(t) rounds above 1: ``solve_t`` raises InfeasibleTauError there
    (``TestTauAboveOne`` in tests/test_solver.py).
    """
    try:
        _decide(e, pt)
    except (OutsideDomainError, NoRootError):
        return False
    return True


def _u_equation(e: Exponents, s1, ratio, k, pw: Callable) -> tuple[Callable, Callable]:
    """(g, t) as functions of u, given s1, ratio = s1/s2 and K = k; c is
    taken as (p-q) / (p K).  Floats with pw = math.pow, lanes with pw =
    np.float_power."""
    p, q = e.p, e.q
    pm1, qm1 = p - 1.0, q - 1.0
    c, x_to_tp, x_to_t = (p - q) / (p * k), p / (p - q), 1.0 / (p - q)

    def g(u):
        w = (p - u) / pm1
        return q - qm1 * w - c * u * (pw(ratio + k / (pw(w, qm1) * u), x_to_tp) - s1)

    def t_of(u):
        return pw(ratio + k / (pw((p - u) / pm1, qm1) * u), x_to_t)

    return g, t_of


def solve_t(e: Exponents, pt: ParamPoint) -> BellmanSolution:
    """Solve the implicit equation for the constant at an interior point.

    ``_bracketed_root`` solves g(u) = 0 on [u_a, u_top], with the decision's
    g(u_top), and t = X(u)^(1/(p-q)), capped at the largest float below
    p/(p-1) and raised to the floor 1 + 1e-12 (module docstring).  Raises
    OutsideDomainError or NoRootError exactly when ``has_root`` is false,
    and InfeasibleTauError where tau(t) leaves [0, 1], on the extreme pairs
    where a point ``has_root`` admits still fails.
    """
    a2, k, g, t_of, u_top, g_top = _decide(e, pt)
    p, q, cap = e.p, e.q, math.nextafter(e.p_conj, 0.0)
    d = cap ** (p - q) - pt.s1 / pt.s2
    u = k / (e.p_conj ** (q - 1.0) * d)
    u = k / (((p - u) / (p - 1.0)) ** (q - 1.0) * d)
    g_a = g(u)
    if g_a < 0.0:
        a, b, u = _bracketed_root(g, u, u_top, g_a, g_top, _U_REL_WIDTH * u)
        t, width = min(max(t_of(u), 1.0 + _ENDPOINT_MARGIN), cap), abs(t_of(a) - t_of(b))
    else:
        # the root lies at or above t(u) >= cap, within an ulp of p/(p-1)
        t, width = cap, e.p_conj - cap
    tau = _feasible_tau(e, pt, t)
    w = _omega_near(q, tau, (p - u) / (p - 1.0))
    return BellmanSolution(
        t=t, u=u, tau=tau, omega_q_tau=w,
        residual=_residual_at(e, pt.s1, pt.s1 / pt.s2, t, w, a2),
        bracket_width=width, alpha=a2,
    )


def sign_factors(e: Exponents, s1, s2, t, u, a2, pw: Callable) -> tuple:
    """``sensitivity``'s (gamma, delta, lambda) at a solved point with its
    t, u < 1 and alpha, with B = (p-1) (p - q u) / (p (q-1) (1 - u)) and t^q
    formed once; floats with pw = math.pow, lanes with pw = np.float_power."""
    p, q = e.p, e.q
    b = (p - 1.0) * (p - q * u) / (p * (q - 1.0) * (1.0 - u))
    t_q = pw(t, q)
    lam = q * pw(t, p) - p * t_q * (s1 / s2) + (p - q) * s1
    return a2 - b * (t_q / s2 - 1.0), b * lam + (p - q) * s1 * a2, lam


def solve_lanes(e: Exponents, s1: np.ndarray, s2: np.ndarray) -> LaneSolutions:
    """``solve_t`` on 1-D arrays of s1 and s2, one point per lane, bit for bit:
    the loop that calls ``solve_t`` on each lane in order and marks the lane
    not ok where it raises NoRootError; it makes no certificate.

    The lanes run solve_t's pipeline step for step: alpha once per run of
    equal s2 through ``_alpha``, where the scalar loop computes it, K and
    g(u_top); then u_a and g(u_a), the u solve of g = 0 through
    ``lanes._root_lanes`` on the lanes where g(u_a) < 0, with that g(u_top)
    and each straggler on its scalar g, and t, the top cap elsewhere.  g
    and t are ``_u_equation``'s, with pw = np.float_power.  Where u_top <= 0
    or p/(p-1) <= 1 + 1e-12 no inside lane is ok.  Every lane the pipeline
    cannot finish bit for bit goes into one redo mask: an invalid (s1, s2),
    a point outside the region, a non-finite g(u_top), and, of the lanes
    with g(u_top) > 0, one where g(u_top) or g(u_a) is not finite or tau(t)
    is not at most 1, where ``solve_t`` raises InfeasibleTauError.
    ``solve_t`` solves the masked lanes in lane order, so the call raises
    what the loop raises first.  tau is formed for that check alone; no
    lane inverts omega_q.  t and solve_t's width need no test: w^(q-1) u
    rises with u (its u-derivative is w^(q-2) (p - q u)/(p-1) > 0 for
    u <= 1), so X(u) and t(u) = X^(1/(p-q)) fall as u rises, and t at the
    kernel's ends and root is at most t(u_a).  X(u_a) >= cap^(p-q) > 1, so
    X^(1/(p-q)) is below X^(p/(p-q)), a term of g(u_a), which is finite;
    and X > 0.  So solve_t's pow can neither overflow nor raise on those
    values.

    numpy and ``lanes`` are imported here, so that the scalar paths load
    neither; so its annotations do not resolve (``typing.get_type_hints``
    raises NameError).
    """
    import numpy as np

    from .lanes import LaneSolutions, _outside_lanes, _root_lanes
    p, q = e.p, e.q
    s1, s2 = np.asarray(s1, dtype=float), np.asarray(s2, dtype=float)
    ok, out = np.zeros(s1.size, dtype=bool), np.full((3, s1.size), np.nan)
    u_top, cap = _u_top(e), math.nextafter(e.p_conj, 0.0)
    with np.errstate(all="ignore"):
        redo = ~((0.0 < s1) & (s1 <= 1.0) & (0.0 < s2) & (s2 <= 1.0))
        redo |= _outside_lanes(e, s1, s2)
        lane = np.flatnonzero(~redo & (u_top > 0.0) & (e.p_conj > 1.0 + _ENDPOINT_MARGIN))
        x, y = s1[lane], s2[lane]  # s1 and s2 of the lanes the pipeline runs
        start = np.flatnonzero(np.diff(y, prepend=np.nan) != 0.0)
        a2 = np.repeat([_alpha(e, v) for v in y[start].tolist()], np.diff(np.r_[start, y.size]))
        k = np.maximum((p - q) * x * a2 / q, _K_MIN)
        ratio = x / y
        g_top = _u_equation(e, x, ratio, k, np.float_power)[0](u_top)
        redo[lane[~np.isfinite(g_top)]] = True
        keep = g_top > 0.0
        lane, x, a2, k, ratio, g_top = (v[keep] for v in (lane, x, a2, k, ratio, g_top))
        g, t_of = _u_equation(e, x, ratio, k, np.float_power)
        # solve_t's scalar powers, with the C pow that ** calls
        d = math.pow(cap, p - q) - ratio
        u = k / (math.pow(e.p_conj, q - 1.0) * d)
        u = k / (np.float_power((p - u) / (p - 1.0), q - 1.0) * d)
        g_a = g(u)
        j = np.flatnonzero(g_a < 0.0)
        ra, rk, rs1 = ratio[j], k[j], x[j]
        u[j] = _root_lanes(
            lambda i, z: _u_equation(e, rs1[i], ra[i], rk[i], np.float_power)[0](z),
            lambda i: _u_equation(e, float(rs1[i]), float(ra[i]), float(rk[i]), math.pow)[0],
            u[j], np.full(j.size, u_top), g_a[j], g_top[j], _U_REL_WIDTH * u[j],
        )
        t = np.where(g_a < 0.0, np.minimum(np.maximum(t_of(u), 1.0 + _ENDPOINT_MARGIN), cap), cap)
        tau = (p - q) / p * (np.float_power(t, p) - x) / (np.float_power(t, p - q) - ratio)
        # redone: a non-finite g(u_top) or g(u_a), and a tau that _feasible_tau
        # rejects.  An inside lane has s1 < 1 and s1/s2 < 1 (s2 - s1 >
        # BOUNDARY_TOL), and t >= 1 + 1e-12, so tau's denominator and tau are
        # positive; tau <= 1 is false for nan
        bad = ~(np.isfinite(g_top) & np.isfinite(g_a) & (tau <= 1.0))
        redo[lane[bad]] = True
        ok[lane[~bad]] = True
        out[:, lane[~bad]] = t[~bad], u[~bad], a2[~bad]
    for i in np.flatnonzero(redo).tolist():
        try:
            sol = solve_t(e, ParamPoint(float(s1[i]), float(s2[i])))
        except NoRootError:
            continue
        ok[i], out[:, i] = True, (sol.t, sol.u, sol.alpha)
    return LaneSolutions(ok, *out)
