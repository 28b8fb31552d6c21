"""An independent high-precision oracle for the constant, in mpmath.

Nothing here comes from ``hardyconst`` or from the benchmark's oracle: the
explicit equation in u = p - (p-1) w is written out again,

    g(u) = q - (q-1) w - c u (X^(p/(p-q)) - s1),    w = (p - u) / (p-1),
    X(u) = s1/s2 + K / (w^(q-1) u),   K = (p-q) s1 alpha/q,   c = q / (p s1 alpha),

with alpha = omega_q(s2)^q / s2 - 1 and omega_q(s2) from ``mpmath.findroot``
on sqrt(1 - H_q(z)) = sqrt(1 - s2) (``omega_q``).
g has the sign of H_q(w) - tau(t(u)), rises through one root u* in (0, 1)
when g(1) > 0, and t = X(u*)^(1/(p-q)); ``reference_sensitivity`` takes
gamma, delta and dt/ds1 (``hardyconst.sensitivity``) there.  The float
inputs are taken exactly and the working precision is -log10(s1) + 40
digits, enough to resolve p/(p-1) - t, which is of the order of s1 as
s1 -> 0.  u* is bracketed by
bisection in log u on (10^-(dps-5), 1) to a ratio of 1 + 1e-6, then
polished in log u by ``findroot``'s bracketing Anderson-Bjoerck solver.
"""

import math

import mpmath as mp


def _dps(s1: float) -> int:
    return max(int(-math.log10(s1)), 0) + 40


def omega_q(q: float, s2: float) -> mp.mpf:
    """omega_q(s2) at the working precision, for exact float inputs.

    It solves sqrt(1 - H_q(z)) = sqrt(1 - s2), which is near linear in z at
    z = 1: H_q - s2 has a double point there as s2 -> 1, and ``findroot`` on
    H_q = s2 directly stalls once 1 - s2 is below about 1.2e-10."""
    q, s2 = mp.mpf(q), mp.mpf(s2)
    return mp.findroot(
        lambda z: mp.sqrt(1 - z ** (q - 1) * (q - (q - 1) * z)) - mp.sqrt(1 - s2),
        (mp.mpf(1), q / (q - 1)), solver="anderson",
    )


def _equation(p, q, s1, s2):
    """(g, X, alpha) at the working precision, for exact float inputs."""
    w_s2 = omega_q(q, s2)
    p, q, s1, s2 = (mp.mpf(x) for x in (p, q, s1, s2))
    alpha = w_s2**q / s2 - 1
    k = (p - q) * s1 * alpha / q
    c = q / (p * s1 * alpha)

    def x_of(u):
        return s1 / s2 + k / (((p - u) / (p - 1)) ** (q - 1) * u)

    def g(u):
        return q - (q - 1) * (p - u) / (p - 1) - c * u * (x_of(u) ** (p / (p - q)) - s1)

    return g, x_of, alpha


def g_at(p: float, q: float, s1: float, s2: float, u: float) -> mp.mpf:
    """g(u) at 40 digits, which resolve it to ~1e-35 where u is not small:
    its two parts, q - (q-1) w and c u (X^(p/(p-q)) - s1), are O(1) there."""
    with mp.workdps(40):
        return +_equation(p, q, s1, s2)[0](mp.mpf(u))


def _root(p: float, q: float, s1: float, s2: float):
    """(u*, t, alpha) at the working precision, or None where g(1) <= 0."""
    g, x_of, alpha = _equation(p, q, s1, s2)
    if not g(mp.mpf(1)) > 0:
        return None
    lo, hi = mp.mpf(10) ** -(mp.mp.dps - 5), mp.mpf(1)
    assert g(lo) < 0
    while hi / lo > 1 + mp.mpf(10) ** -6:
        mid = mp.sqrt(lo * hi)
        if g(mid) < 0:
            lo = mid
        else:
            hi = mid
    # in log u, as findroot's step tolerance is absolute
    u = mp.exp(mp.findroot(lambda v: g(mp.exp(v)), (mp.log(lo), mp.log(hi)), solver="anderson"))
    assert lo <= u <= hi
    return u, x_of(u) ** (1 / (mp.mpf(p) - mp.mpf(q))), alpha


def reference_t(p: float, q: float, s1: float, s2: float) -> tuple[mp.mpf, mp.mpf] | None:
    """(t, p/(p-1) - t) at the root, or None where g(1) <= 0 (no root with tau < 1)."""
    with mp.workdps(_dps(s1)):
        root = _root(p, q, s1, s2)
        if root is None:
            return None
        t, pp = root[1], mp.mpf(p)
        return +t, +(pp / (pp - 1) - t)


def reference_sensitivity(
    p: float, q: float, s1: float, s2: float
) -> tuple[mp.mpf, mp.mpf, mp.mpf] | None:
    """(gamma, delta, dt/ds1) at the root, or None where g(1) <= 0.

    The bracket factor is written in w = (p - u*)/(p-1), as
    ((p-1) q w - p (q-1)) / (p (q-1) (w-1)): the working precision absorbs
    the cancellation in w - 1."""
    with mp.workdps(_dps(s1)):
        root = _root(p, q, s1, s2)
        if root is None:
            return None
        u, t, alpha = root
        p, q, s1, s2 = (mp.mpf(x) for x in (p, q, s1, s2))
        w = (p - u) / (p - 1)
        b = ((p - 1) * q * w - p * (q - 1)) / (p * (q - 1) * (w - 1))
        lam = q * t**p - p * t**q * s1 / s2 + (p - q) * s1
        gamma = alpha - b * (t**q / s2 - 1)
        delta = b * lam + (p - q) * s1 * alpha
        return +gamma, +delta, +(t * gamma / delta)
