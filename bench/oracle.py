"""Independent high-precision reference for the constant t(s1, s2).

Solves H_q(w) = tau for w = omega_q(tau) and the implicit equation

    q (p w^(q-1) - (p-1) w^q) (t^(p-q) - s1/s2) = (p-q) s1 alpha(s2)

for t in mpmath at 40 significant digits, with bracketing root finders
only, so it shares no code or iteration with the float solver under test.
"""

from __future__ import annotations

import mpmath as mp

_DPS = 40
_MAX_ITER = 2000


def _h(r, z):
    return z ** (r - 1) * (r - (r - 1) * z)


def _root(f, a, b):
    """Root of f on [a, b], f(a) f(b) < 0: Illinois regula falsi with bisection."""
    fa, fb = f(a), f(b)
    if fa == 0:
        return a
    if fb == 0:
        return b
    if (fa > 0) == (fb > 0):
        raise ValueError("no sign change on the bracket")
    tol = mp.mpf(2) ** (-mp.mp.prec + 4) * max(abs(a), abs(b))
    side = 0
    for k in range(_MAX_ITER):
        if b - a <= tol:
            break
        c = (a * fb - b * fa) / (fb - fa) if k % 4 != 3 else (a + b) / 2
        if not a < c < b:
            c = (a + b) / 2
        fc = f(c)
        if fc == 0:
            return c
        if (fc > 0) == (fa > 0):
            a, fa = c, fc
            if side == -1:
                fb /= 2
            side = -1
        else:
            b, fb = c, fc
            if side == 1:
                fa /= 2
            side = 1
    else:
        raise ValueError("bracketed iteration did not converge")
    return a if abs(fa) <= abs(fb) else b


def _omega(r, s):
    if s >= 1:
        return mp.mpf(1)
    if s <= 0:
        return r / (r - 1)
    return _root(lambda z: _h(r, z) - s, mp.mpf(1), r / (r - 1))


def reference_t(p: float, q: float, s1: float, s2: float) -> float:
    """t at 40 digits, rounded to float; raises ValueError if there is no root."""
    with mp.workdps(_DPS):
        p, q, s1, s2 = (mp.mpf(x) for x in (p, q, s1, s2))
        alpha = _omega(q, s2) ** q / s2 - 1

        def tau(t):
            return (p - q) / p * (t**p - s1) / (t ** (p - q) - s1 / s2)

        def resid(t):
            w = _omega(q, tau(t))
            return q * (p * w ** (q - 1) - (p - 1) * w**q) * (t ** (p - q) - s1 / s2) - (
                p - q
            ) * s1 * alpha

        lo = 1 + mp.mpf(10) ** (-_DPS + 5)
        hi = p / (p - 1) - mp.mpf(10) ** (-_DPS + 5)
        if tau(lo) > 1:
            raise ValueError("tau exceeds 1 on the whole bracket")
        if tau(hi) > 1:
            hi = _root(lambda t: tau(t) - 1, lo, hi)
        if not resid(lo) < 0 < resid(hi):
            raise ValueError("residual has no sign change on the feasible bracket")
        t = _root(resid, lo, hi)
        return float(t)
