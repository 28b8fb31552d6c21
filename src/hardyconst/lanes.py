"""The lane-wise twins of ``special``'s and ``domain``'s scalar functions.

A twin (each here, and ``solver.solve_lanes``) runs its scalar function on
1-D arrays, one point per lane, and returns on every lane the floats the
scalar function returns, bit for bit:
the same operations in the same order, every power through the same C pow.
A change to either side of a pair changes the other with it; tests compare
each pair.  ``_root_lanes``, the kernel's twin, is the one lane step in the
package: lock-step ITP passes over an array of brackets, each lane with its
own rising function, tolerance and k1, that hand their last lanes to the
scalar kernel.  ``_omega_lanes`` (with ``_start_lanes`` and ``_h_lanes``)
and ``solver.solve_lanes`` solve their roots through it.

Trap: every power on an array must be ``np.float_power``.  ``np.power``
(and ``**`` on arrays) may run SIMD routines that round unlike the C
library's pow, while float_power rounds like it on every lane the tests
compare.  So no lane function (named
``*_lanes``) uses ``**``, not even on a scalar: scalar powers go through
``math.pow``, the C pow that ``**`` calls, ``math.ldexp`` or a helper
outside them.  A formula that floats and lanes share (``special._h_slope``,
and ``solver``'s) is written once with no ``**``, taking the power ``pw``:
``math.pow`` on floats, ``np.float_power`` on lanes.

The scalar helpers and constants are read as attributes of ``special``, the
one binding of each.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import special
from .domain import BOUNDARY_TOL
from .errors import DomainError

#: live lanes at or below which ``_root_lanes`` stops its lock-step passes
#: and finishes each lane in the scalar kernel: a pass costs about the same
#: however few lanes it carries
_STRAGGLER_LANES = 64


def _h_lanes(r: float | np.ndarray, z: np.ndarray) -> np.ndarray:
    """``_h``'s twin, bit for bit, on an array of z and one r or one r per lane."""
    val = np.float_power(z, r - 1.0) * (r - (r - 1.0) * z)
    val[(-1e-13 < val) & (val < 0.0)] = 0.0
    return val


def _root_lanes(
    f_lanes: Callable[[np.ndarray, np.ndarray], np.ndarray],
    f_of_lane: Callable[[int], Callable[[float], float]],
    a: np.ndarray,
    b: np.ndarray,
    fa: np.ndarray,
    fb: np.ndarray,
    xtol: np.ndarray,
    k1: np.ndarray | None = None,
) -> np.ndarray:
    """``_bracketed_root``'s twin, bit for bit, in lock-step ITP passes.

    Lane i solves f_i(x) = 0 on [a_i, b_i] on ``_bracketed_root``'s
    contract, from end values fa_i < 0 < fb_i, with its own xtol and k1,
    0.2/(b_i - a_i) unless given, and the step-0 projection scale of a fresh
    run (``_itp_scale``).  f_lanes(i, x) evaluates f at x on the lanes i,
    an index array; f_of_lane(i) is lane i's scalar f.  Every lane takes
    the scalar kernel's signed step, the same best point, b replaced where
    f > 0 and a where f < 0, an early stop where f hits 0 (the best point
    is then x) and a stop where the bracket's ends are adjacent floats.
    Lanes leave the working arrays as they finish.  Once at most
    ``_STRAGGLER_LANES`` are left, each finishes in ``_bracketed_root``,
    resumed from its bracket, end values, k1, xtol, projection scale and
    best point, so it steps exactly as the passes would; a call with no more
    lanes than that finishes entirely there.
    Returns each lane's root, the scalar kernel's best point x.
    """
    out = np.empty(a.size)
    idx = np.arange(a.size)
    if k1 is None:
        k1 = 0.2 / (b - a)
    scale = special._itp_scale(b - a, xtol, np.frexp, np.ldexp)
    # working copies of the state the passes write, so no caller's array changes
    a, b, fa, fb = (np.array(v, dtype=float) for v in (a, b, fa, fb))
    best_x, best_abs = 0.5 * (a + b), np.full(a.size, np.inf)
    while True:
        mid = 0.5 * (a + b)
        live = (b - a > xtol) & (a < mid) & (mid < b)
        if not live.all():
            out[idx[~live]] = best_x[~live]
            idx, a, b, fa, fb, xtol, k1, scale, best_x, best_abs, mid = (
                v[live] for v in (idx, a, b, fa, fb, xtol, k1, scale, best_x, best_abs, mid)
            )
        if idx.size <= _STRAGGLER_LANES:
            break
        w = b - a
        radius = np.maximum(scale - 0.5 * w, 0.0)
        scale *= 0.5
        x_f = (fb * a - fa * b) / (fb - fa)
        delta = k1 * np.float_power(w, 2.0)
        # the scalar kernel's signed step, with sigma = 1 where x_f is at or
        # below mid; negating a difference is exact
        sigma = np.where(mid >= x_f, 1.0, -1.0)
        x = x_f + sigma * delta
        x = np.where(np.abs(x - mid) <= radius, x, mid - sigma * radius)
        x = np.where((delta <= sigma * (mid - x_f)) & (a < x) & (x < b), x, mid)
        # spent arrays go now: with thousands of lanes they set the peak memory
        del w, mid, radius, x_f, delta, sigma
        g = f_lanes(idx, x)
        g_abs = np.abs(g)
        better = g_abs < best_abs
        np.copyto(best_x, x, where=better)
        np.copyto(best_abs, g_abs, where=better)
        neg = g < 0.0
        pos = ~neg
        # a lane with g == 0 collapses its bracket onto x, its best point
        np.copyto(a, x, where=g <= 0.0)
        np.copyto(b, x, where=pos)
        np.copyto(fa, g, where=neg)
        np.copyto(fb, g, where=pos)
        del x, g, g_abs, better, pos, neg
    for i, *state in zip(
        *(v.tolist() for v in (idx, a, b, fa, fb, xtol, k1, scale, best_x, best_abs))
    ):
        out[i] = special._bracketed_root(f_of_lane(i), *state)[2]
    return out


def _start_lanes(exps: np.ndarray, k: np.ndarray, s: np.ndarray) -> np.ndarray:
    """``_omega_start``'s twin, bit for bit, lane i's exponent exps[k[i]]; a
    lane leaves the Newton passes once it stops."""
    poly = np.array([special._start_poly(x) for x in exps.tolist()]).reshape(-1, 5)
    a, b, c3, c4, c5 = poly[k].T
    r = exps[k]
    top, t = r / (r - 1.0), np.sqrt(1.0 - s)
    z = np.minimum(1.0 + t * (a + t * (b + t * (c3 + t * (c4 + t * c5)))) / (r - 1.0), top)
    live = np.flatnonzero(z > 1.0)
    for _ in range(special._NEWTON_STEPS):
        if not live.size:
            break
        v, r_l, top_l = z[live], r[live], top[live]
        h, slope = special._h_slope(r_l, v, np.float_power)
        step = np.minimum(np.maximum(v - (h - s[live]) / slope, 1.0), top_l)
        z[live] = step
        live = live[(np.abs(v - step) >= special._NEWTON_REL_STOP * top_l) & (step > 1.0)]
    return z


def _omega_lanes(r: float | np.ndarray, s: np.ndarray) -> np.ndarray:
    """``omega``'s twin, bit for bit, on a 1-D array of s with one r or one r
    per lane: ``_start_lanes``' estimates, one pass per rung over the lanes no
    rung before bracketed, then one ``_root_lanes`` call on s - H_r, the
    function ``omega`` solves; xtol and k1 are kept per distinct r.  A bad r
    or an s outside [0, 1] raises ``omega``'s DomainError for one such lane."""
    s = np.asarray(s, dtype=float)
    exps, k = np.unique(np.broadcast_to(r, s.shape), return_inverse=True)
    for x in exps.tolist():
        special._check_exponent(x)
    ok = (0.0 <= s) & (s <= 1.0)
    if not ok.all():
        i = ok.argmin()
        raise DomainError(f"omega_{exps[k[i]]} is defined on [0, 1], got s={s[i]}")
    top = exps / (exps - 1.0)
    xtol = special._BRACKET_REL_TOL * top
    idx = np.flatnonzero((0.0 < s) & (s < 1.0))
    k, y = k[idx], s[idx]
    near, r_of, top_of = _start_lanes(exps, k, y), exps[k], top[k]
    a, b, fa, fb = np.ones(y.size), top_of.copy(), y - 1.0, y - 0.0
    todo = np.arange(y.size)
    for width in special._NEAR_HALF_WIDTHS:
        z, d = near[todo], width * top_of[todo]
        ends = np.stack([np.maximum(1.0, z - d), np.minimum(top_of[todo], z + d)])
        # both ends in one pass; fa < 0 < fb exactly where H_r(a) > y >
        # H_r(b): y - y' is 0 only at y = y'
        f = y[todo] - _h_lanes(r_of[todo], ends)
        hit = (f[0] < 0.0) & (f[1] > 0.0)
        i, todo = todo[hit], todo[~hit]
        a[i], b[i], fa[i], fb[i] = ends[0, hit], ends[1, hit], f[0, hit], f[1, hit]
        if not todo.size:
            break
    del near, todo, z, d, ends, f, hit, i
    # where r' - 1 <= xtol the lane stops before k1 is read
    k1 = 0.2 / np.maximum(top - 1.0, xtol)
    root = _root_lanes(
        lambda i, x: y[i] - _h_lanes(r_of[i], x),
        lambda i: lambda x, r=float(r_of[i]), y=float(y[i]): y - special._h(r, x),
        a, b, fa, fb, xtol[k], k1[k],
    )
    r = np.broadcast_to(r, s.shape)
    z = np.where(s == 1.0, 1.0, r / (r - 1.0))
    z[idx] = root
    return z


def _outside_lanes(e: special.Exponents, s1: np.ndarray, s2: np.ndarray) -> np.ndarray:
    """``in_domain``'s twin, bit for bit, on lanes of valid points: True where
    it is not INSIDE."""
    lower = np.float_power(s1, (e.q - 1.0) / (e.p - 1.0))
    on_lower = np.abs(s2 - lower) <= BOUNDARY_TOL
    return on_lower | (s2 < lower) | (s2 >= 1.0) | (s1 >= 1.0)


@dataclass(frozen=True)
class LaneSolutions:
    """``solver.solve_lanes``' result: the fields of ``BellmanSolution``
    that ``verify.sign_suite`` and ``fd_suite`` read, as arrays, nan where
    the lane has no constant.

    ok        solve_t returns a constant; a lane not ok is one where it
              raises NoRootError
    t, u, alpha  solve_t's t, u and alpha
    """

    ok: np.ndarray
    t: np.ndarray
    u: np.ndarray
    alpha: np.ndarray
