"""An independent high-precision oracle for the constant, in mpmath.

Nothing here comes from ``hardyconst`` or from the benchmark's oracle: the
explicit equation in u = p - (p-1) w is written out again,

    g(u) = q - (q-1) w - c u (X^(p/(p-q)) - s1),    w = (p - u) / (p-1),
    X(u) = s1/s2 + K / (w^(q-1) u),   K = (p-q) s1 alpha/q,   c = q / (p s1 alpha),

with alpha = omega_q(s2)^q / s2 - 1 and omega_q(s2) from ``mpmath.findroot``.
g has the sign of H_q(w) - tau(t(u)), rises through one root u* in (0, 1)
when g(1) > 0, and t = X(u*)^(1/(p-q)).  The float inputs are taken exactly
and the working precision is -log10(s1) + 40 digits, enough to resolve
p/(p-1) - t, which is of the order of s1 as s1 -> 0.  u* is bracketed by
bisection in log u on (10^-(dps-5), 1) to a ratio of 1 + 1e-6, then
polished in log u by ``findroot``'s bracketing Anderson-Bjoerck solver.
"""

import math

import mpmath as mp


def _dps(s1: float) -> int:
    return max(int(-math.log10(s1)), 0) + 40


def _equation(p, q, s1, s2):
    """(g, X) at the working precision, for exact float inputs."""
    p, q, s1, s2 = (mp.mpf(x) for x in (p, q, s1, s2))
    w_s2 = mp.findroot(
        lambda z: z ** (q - 1) * (q - (q - 1) * z) - s2, (mp.mpf(1), q / (q - 1)),
        solver="anderson",
    )
    alpha = w_s2**q / s2 - 1
    k = (p - q) * s1 * alpha / q
    c = q / (p * s1 * alpha)

    def x_of(u):
        return s1 / s2 + k / (((p - u) / (p - 1)) ** (q - 1) * u)

    def g(u):
        return q - (q - 1) * (p - u) / (p - 1) - c * u * (x_of(u) ** (p / (p - q)) - s1)

    return g, x_of


def g_at(p: float, q: float, s1: float, s2: float, u: float) -> mp.mpf:
    """g(u) at 40 digits, which resolve it to ~1e-35 where u is not small:
    its two parts, q - (q-1) w and c u (X^(p/(p-q)) - s1), are O(1) there."""
    with mp.workdps(40):
        return +_equation(p, q, s1, s2)[0](mp.mpf(u))


def reference_t(p: float, q: float, s1: float, s2: float) -> tuple[mp.mpf, mp.mpf] | None:
    """(t, p/(p-1) - t) at the root, or None where g(1) <= 0 (no root with tau < 1)."""
    dps = _dps(s1)
    with mp.workdps(dps):
        g, x_of = _equation(p, q, s1, s2)
        if not g(mp.mpf(1)) > 0:
            return None
        lo, hi = mp.mpf(10) ** -(dps - 5), mp.mpf(1)
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
        pp, qq = mp.mpf(p), mp.mpf(q)
        t = x_of(u) ** (1 / (pp - qq))
        return +t, +(pp / (pp - 1) - t)
