"""The decreasing polynomial H_r, its inverse omega_r, and the root kernel.

For an exponent r > 1,

    H_r(z) = -(r-1) z^r + r z^(r-1) = z^(r-1) * (r - (r-1) z)

decreases strictly from H_r(1) = 1 to H_r(r') = 0 on the bracket [1, r'],
where r' = r/(r-1) is the Hoelder conjugate of r.  Its inverse

    omega_r : [0, 1] -> [1, r']

underpins everything else in this package.  Every root in the package is
found by one bracketed kernel, ``_bracketed_root``: omega_r here, and the
explicit equation for the constant in ``solver``.  The kernel is the ITP
method (Oliveira and Takahashi, ACM TOMS 2020): a regula falsi step,
truncated toward the midpoint and projected into a ball around it that
shrinks like bisection, so it keeps a sign-change bracket, converges
superlinearly on smooth functions, and never needs more than three
evaluations beyond bisection.

``omega`` is a thin wrapper over one bracketed inversion,
``_omega_between``, which returns the root z inside a given bracket
[z_lo, z_hi] whose H values are known.  ``omega`` passes the
natural bracket [1, r'] with the exact values 1 and 0; ``solver``'s
certificate passes a narrow one around its estimate of the root once the H
values at its ends bracket the target.  ITP's k1 always comes from
the natural bracket, 0.2/(r'-1), so a full-bracket call iterates exactly
as a plain ITP run on [1, r'] does.

The kernel's step arithmetic is fixed bit for bit: every float that feeds
the next point, the bracket ends or the best point must stay as it is, or
verdicts and CLI output move.  Rewrites that keep each rounding are fine:
a projection scale halved every step instead of xtol * 2^(n_max-j-1),
comparisons instead of abs and max.  Trap: (b - a) ** 2 must stay a pow;
written as (b - a) * (b - a) it changed omega on 434 of 40,000 inputs over
ten exponents, 400 of them at r = 1.05 and 1.1, because the C library's
pow(x, 2) is not always rounded like x * x.

``_root_lanes`` is the kernel's lane-wise twin, the one lane step in the
package: lock-step ITP passes over an array of brackets, each lane with
its own function, tolerance, k1 and projection scale, equal to
``_bracketed_root`` bit for bit.  It solves both roots in lanes:
``_omega_lanes``, omega's twin for batched grids (one r or one r per lane,
beside ``_h_lanes`` for ``_h``), is its setup plus one call, and so are
``solver.solve_lanes``' u solve and certificate.  A pass costs ~70 us
however few lanes are left, and the last 10-20 of a grid's 20-30 passes
carry fewer than a hundred.  So once at most ``_STRAGGLER_LANES`` lanes are
live, each finishes in ``_bracketed_root``, which takes the lane's state
as resume arguments and so steps exactly as the passes would; a call with
no more lanes than that finishes entirely in the scalar kernel before any
pass, so lanes never cost much more than scalar calls.  Only
``_root_lanes`` passes those resume arguments: ``omega`` and ``solver``'s
scalar ``solve_t`` start the kernel from scratch.  Peak memory is about
30 floats per lane in ``_omega_lanes`` (1.7 MB for inverse_suite's 7,000
lanes), reached at the first pass that drops finished lanes, and 66 in
``solver.solve_lanes`` (2.2 MB for 4,096 lanes).
Trap: every power on an array must be ``np.float_power``.  ``np.power``
(and ``**`` on arrays) may run SIMD routines that round unlike the C
library's pow: on numpy 2.4 with AVX-512, np.power(z, r - 1) differed from
Python's z ** (r - 1) on 10,285 of 200,000 uniform z at r = 2.5 and
np.power(w, 2) from w ** 2 on 163 of 200,000 w; float_power matched on all.
So no lane function (named ``*_lanes``) uses ``**``, not even on a scalar:
scalar powers go through ``math.ldexp`` or a helper outside them.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import DomainError, SingularityError

#: final width of omega's root bracket, relative to r'; an absolute width
#: this small would be below the float spacing near r' once r' >= 8
_BRACKET_REL_TOL = 1e-15
#: live lanes at or below which ``_root_lanes`` stops its lock-step passes
#: and finishes each lane in the scalar kernel.  inverse_suite plus
#: endgame_suite took 11.3 ms per verify pair with no hand-off, and 10.2,
#: 9.8, 10.2 and 10.4 ms handing off at 32, 64, 128 and 200 lanes (min of
#: 12 interleaved rounds over (2, 1.5), (3, 2) and (2.5, 1.5), process CPU
#: time, 2 shared x86-64 vCPUs)
_STRAGGLER_LANES = 64


def conjugate(r: float) -> float:
    """Hoelder conjugate r/(r-1); the right endpoint of omega_r's range."""
    _check_exponent(r)
    return r / (r - 1.0)


@dataclass(frozen=True)
class Exponents:
    """A validated exponent pair with 1 < q < p, threaded through the library."""

    p: float
    q: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.p) and math.isfinite(self.q)):
            raise DomainError("exponents must be finite")
        if not 1.0 < self.q < self.p:
            raise DomainError(
                f"exponents must satisfy 1 < q < p, got p={self.p}, q={self.q}"
            )

    @property
    def p_conj(self) -> float:
        """p/(p-1), the upper endpoint of the constant's range."""
        return self.p / (self.p - 1.0)

    @property
    def q_conj(self) -> float:
        """q/(q-1), the upper endpoint of omega_q's range."""
        return self.q / (self.q - 1.0)


def _check_exponent(r: float) -> None:
    if not (math.isfinite(r) and r > 1.0):
        raise DomainError(f"exponent must be finite and > 1, got {r}")


def h_eval(r: float, z: float) -> float:
    """Evaluate H_r(z) = -(r-1) z^r + r z^(r-1) on the bracket [1, r/(r-1)].

    The factored form z^(r-1) * (r - (r-1) z) keeps the value in [0, 1]
    without cancellation; a strayed last-bit negative at the right endpoint
    is clamped to 0.
    """
    _check_exponent(r)
    top = r / (r - 1.0)
    if not 1.0 <= z <= top:
        raise DomainError(f"H_{r} is only used on [1, {top}], got z={z}")
    return _h(r, z)


def _h(r: float, z: float) -> float:
    """``h_eval`` without its checks, for a validated r and z in [1, r']."""
    val = z ** (r - 1.0) * (r - (r - 1.0) * z)
    if -1e-13 < val < 0.0:
        return 0.0
    return val


def h_deriv(r: float, z: float) -> float:
    """Derivative H_r'(z) = r (r-1) z^(r-2) (1 - z); <= 0 on the bracket."""
    _check_exponent(r)
    top = r / (r - 1.0)
    if not 1.0 <= z <= top:
        raise DomainError(f"H_{r}' is only used on [1, {top}], got z={z}")
    return r * (r - 1.0) * z ** (r - 2.0) * (1.0 - z)


def _bracketed_root(
    f: Callable[[float], float],
    a: float,
    b: float,
    fa: float,
    fb: float,
    xtol: float,
    y: float = 0.0,
    k1: float | None = None,
    scale: float | None = None,
    best_x: float | None = None,
    best_abs: float = math.inf,
) -> tuple[float, float, float]:
    """ITP search for x in (a, b) with f(x) = y.

    fa = f(a) and fb = f(b) lie on opposite sides of y; the caller may know
    them exactly, and either may equal y.  Iterates until the bracket is at
    most xtol wide, or its ends are adjacent floats, or f hits y exactly.
    Returns the final bracket (a, b), whose ends keep the sides of fa and
    fb, and the evaluated interior point x with the smallest |f(x) - y|, or
    the initial midpoint when the bracket needed no evaluation.  ITP's
    parameters are k1 = 0.2/(b-a) unless given, k2 = 2 and n0 = 3: at most
    three evaluations more than bisection to reach xtol.  With n0 = 1 a few
    slow regula falsi steps early on use up the slack and the rest is plain
    bisection (50 evaluations for omega_2 at s = 0.99575; 11 with n0 = 3).

    scale, best_x and best_abs resume a run part-way: the projection scale
    xtol * 2^(n_max - j - 1) at the next step j, and the best point so far
    with its |f - y|.  They default to a fresh run's: the scale at j = 0,
    the initial midpoint and inf.  A resumed run passes its bracket and end
    values as they stand, with the k1 and xtol it started with.
    """
    if k1 is None:
        k1 = 0.2 / (b - a)
    fa, fb = fa - y, fb - y
    if scale is None:
        n_max = max(math.ceil(math.log2((b - a) / xtol)), 0) + 3
        # xtol * 2^(n_max - j - 1) at step j; halving a power-of-two multiple
        # of xtol is exact while it is at least xtol, and below that the
        # projection radius is 0 either way
        scale = xtol * 2.0 ** (n_max - 1)
    # b only ever takes points on fb's side
    b_pos = fb > 0.0
    if best_x is None:
        best_x = 0.5 * (a + b)
    w = b - a
    while w > xtol:
        mid = 0.5 * (a + b)
        if not a < mid < b:
            break
        # Projection radius: keeps the step close enough to the midpoint
        # that the bracket reaches xtol within n_max evaluations.
        radius = scale - 0.5 * w
        if radius < 0.0:
            radius = 0.0
        scale *= 0.5
        x_f = (fb * a - fa * b) / (fb - fa)
        # (b - a) ** 2 stays a pow: w * w rounds differently on some w
        delta = k1 * w**2
        # the truncation moves x_f by delta toward mid unless delta
        # overshoots it; the projection then keeps x within radius of mid
        if mid >= x_f:
            if delta <= mid - x_f:
                x = x_f + delta
                if not -radius <= x - mid <= radius:
                    x = mid - radius
                if not a < x < b:
                    x = mid
            else:
                x = mid
        elif delta <= x_f - mid:
            x = x_f - delta
            if not -radius <= x - mid <= radius:
                x = mid + radius
            if not a < x < b:
                x = mid
        else:
            x = mid
        g = f(x) - y
        if g > 0.0:
            if g < best_abs:
                best_x, best_abs = x, g
            if b_pos:
                b, fb = x, g
            else:
                a, fa = x, g
        else:
            if -g < best_abs:
                if g == 0.0:
                    return x, x, x
                best_x, best_abs = x, -g
            if b_pos:
                a, fa = x, g
            else:
                b, fb = x, g
        w = b - a
    return a, b, best_x


def _omega_between(
    r: float, s: float, z_lo: float, h_lo: float, z_hi: float, h_hi: float
) -> float:
    """The root z of H_r(z) = s inside [z_lo, z_hi].

    h_lo = H_r(z_lo) > s > h_hi = H_r(z_hi), as evaluated earlier or known
    exactly; [1, r'] with (1, 0) is omega's natural bracket.  r is validated
    here, once per inversion, and the kernel evaluates H_r through ``_h``
    without ``h_eval``'s per-evaluation checks.  ITP's k1 comes from the
    natural bracket, 0.2/(r'-1), on every bracket: scaled to a narrowed one
    it truncates the regula falsi step far more and costs more evaluations.
    A bracket already within the tolerance returns its midpoint.
    """
    _check_exponent(r)
    top = r / (r - 1.0)
    xtol = _BRACKET_REL_TOL * top
    if z_hi - z_lo <= xtol:
        return 0.5 * (z_lo + z_hi)
    return _bracketed_root(
        partial(_h, r), z_lo, z_hi, h_lo, h_hi, xtol, s, 0.2 / (top - 1.0)
    )[2]


def omega(r: float, s: float) -> float:
    """Invert H_r: the unique z in [1, r/(r-1)] with H_r(z) = s.

    Endpoints are short-circuited to the exact closed-form values
    omega_r(1) = 1 and omega_r(0) = r/(r-1).  Inside, it is
    ``_omega_between`` on the natural bracket [1, r/(r-1)], where the end
    values H_r = 1 and 0 are exact.
    """
    _check_exponent(r)
    if not 0.0 <= s <= 1.0:
        raise DomainError(f"omega_{r} is defined on [0, 1], got s={s}")
    top = r / (r - 1.0)
    if s == 1.0:
        return 1.0
    if s == 0.0:
        return top
    return _omega_between(r, s, 1.0, 1.0, top, 0.0)


def _h_lanes(r: float | np.ndarray, z: np.ndarray) -> np.ndarray:
    """``_h`` on an array of z and one r or one r per lane, bit for bit."""
    val = np.float_power(z, r - 1.0) * (r - (r - 1.0) * z)
    val[(-1e-13 < val) & (val < 0.0)] = 0.0
    return val


def _scale_lanes(w: np.ndarray, xtol: np.ndarray) -> np.ndarray:
    """``_bracketed_root``'s step-0 projection scale xtol * 2^(n_max - 1) on
    lanes of bracket width w, n_max = max(ceil(log2(w / xtol)), 0) + 3.

    ceil(log2(v)) is exact from frexp, except at or just above a power of
    two, where math.log2 may round down onto it; there it is math.log2's.
    """
    v = np.maximum(w / xtol, 1.0)
    m, n = np.frexp(v)
    n = n.astype(float)
    near = np.flatnonzero(m < 0.5 + 1e-12)
    n[near] = [math.ceil(math.log2(x)) for x in v[near].tolist()]
    return xtol * np.ldexp(1.0, n.astype(int) + 2)


def _root_lanes(
    f_lanes: Callable[[np.ndarray, np.ndarray], np.ndarray],
    f_of_lane: Callable[[int], Callable[[float], float]],
    a: np.ndarray,
    b: np.ndarray,
    fa: np.ndarray,
    fb: np.ndarray,
    xtol: np.ndarray,
    k1: np.ndarray,
    scale: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_bracketed_root`` on lanes, bit for bit, in lock-step ITP passes.

    Lane i solves f_i(x) = 0 on [a_i, b_i], with end values fa_i > 0 >= fb_i
    (y already subtracted), its own xtol, k1 and step-0 projection scale
    (``_scale_lanes``); a caller whose f rises from a to b passes -f, which
    takes the same steps, as negation is exact.  f_lanes(i, x) evaluates f
    at x on the lanes i, an index array; f_of_lane(i) is lane i's scalar f.
    Every lane takes the scalar kernel's steps: the same truncation and
    projection branch, the same best point, b kept where f <= 0, an early
    stop where f hits 0 (a, b and the best point are then x) and a stop
    where the bracket's ends are adjacent floats.  Lanes leave the working
    arrays as they finish.  Once at most ``_STRAGGLER_LANES`` are left, each
    finishes in ``_bracketed_root``, resumed from its bracket, end values,
    k1, xtol, projection scale and best point, so it takes the steps the
    passes would have taken; a call with no more lanes than that finishes
    entirely in the scalar kernel.  Returns each lane's final (a, b, best
    point).
    """
    out_a, out_b, out_x = np.empty(a.size), np.empty(a.size), np.empty(a.size)
    idx = np.arange(a.size)
    # working copies of the state the passes write: no caller's array
    # changes.  They add no peak memory, as the caller holds its arguments
    # until the call returns, and they halve glibc's heap trims: on
    # inverse_suite's 6,000 lanes, 303 page faults per call against 631 in
    # place, and verify_pairs' items_per_s 57.20 against 56.17 (median of
    # 8 alternating 20-s pairs, 7 wins, 2 shared x86-64 vCPUs)
    a, b, fa, fb, scale = (np.array(v, dtype=float) for v in (a, b, fa, fb, scale))
    best_x, best_abs = 0.5 * (a + b), np.full(a.size, np.inf)
    while True:
        mid = 0.5 * (a + b)
        live = (b - a > xtol) & (a < mid) & (mid < b)
        if not live.all():
            done = idx[~live]
            out_a[done], out_b[done], out_x[done] = a[~live], b[~live], best_x[~live]
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
        # the scalar kernel's two signed branches, with sigma = 1 where
        # x_f is at or below mid; negating a difference is exact
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
        pos = g > 0.0
        neg = ~pos
        # a lane with g == 0 collapses its bracket onto x, its best point
        np.copyto(a, x, where=g >= 0.0)
        np.copyto(b, x, where=neg)
        np.copyto(fa, g, where=pos)
        np.copyto(fb, g, where=neg)
        del x, g, g_abs, better, pos, neg
    for i, *state in zip(
        *(v.tolist() for v in (idx, a, b, fa, fb, xtol, k1, scale, best_x, best_abs))
    ):
        a_i, b_i, fa_i, fb_i, xtol_i, k1_i, scale_i, x_i, abs_i = state
        out_a[i], out_b[i], out_x[i] = _bracketed_root(
            f_of_lane(i), a_i, b_i, fa_i, fb_i, xtol_i, 0.0, k1_i, scale_i, x_i, abs_i
        )
    return out_a, out_b, out_x


def _omega_lanes(r: float | np.ndarray, s: np.ndarray) -> np.ndarray:
    """``omega`` on a 1-D array of s, with one r or one r per lane, bit for
    bit, through ``_root_lanes``.

    Every lane's natural bracket [1, r'], xtol, k1 and projection scale are
    its r's, kept in a table over the distinct r.  A straggler solves
    ``_h`` - s = 0: its end values have s subtracted, and (fa + s) - s need
    not round back to fa.  s = 1 and s = 0 give 1 and r' exactly; a bad r or
    an s outside [0, 1] raises the DomainError ``omega`` raises for one
    such lane.
    """
    s = np.asarray(s, dtype=float)
    exps, k = np.unique(np.broadcast_to(r, s.shape), return_inverse=True)
    for x in exps.tolist():
        _check_exponent(x)
    ok = (0.0 <= s) & (s <= 1.0)
    if not ok.all():
        i = ok.argmin()
        raise DomainError(f"omega_{exps[k[i]]} is defined on [0, 1], got s={s[i]}")
    top = exps / (exps - 1.0)
    xtol = _BRACKET_REL_TOL * top
    # where r' - 1 <= xtol the lane stops before k1 or the scale is read
    span = np.maximum(top - 1.0, xtol)
    z = np.where(s == 1.0, 1.0, top[k])
    idx = np.flatnonzero((0.0 < s) & (s < 1.0))
    k, y = k[idx], s[idx]
    r_of = exps[k]
    z[idx] = _root_lanes(
        lambda i, x: _h_lanes(r_of[i], x) - y[i],
        lambda i: lambda x, r=float(r_of[i]), y=float(y[i]): _h(r, x) - y,
        np.ones(idx.size), top[k], 1.0 - y, 0.0 - y,
        xtol[k], (0.2 / span)[k], _scale_lanes(span, xtol)[k],
    )[2]
    return z


def omega_deriv(r: float, s: float) -> float:
    """d/ds omega_r(s) = 1 / H_r'(omega_r(s)); strictly negative on (0, 1).

    Blows up like -1/sqrt(1-s) as s -> 1 because H_r' vanishes at z = 1,
    so both endpoints are rejected.
    """
    _check_exponent(r)
    if not 0.0 <= s <= 1.0:
        raise DomainError(f"omega_{r}' is defined on (0, 1), got s={s}")
    if s == 0.0 or s == 1.0:
        raise SingularityError(f"omega_{r}' is singular at s={s}")
    return 1.0 / h_deriv(r, omega(r, s))
