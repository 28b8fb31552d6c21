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

``_omega_lanes`` is omega's lane-wise twin for batched grids: one
lock-step ITP pass over an array of targets, equal to ``omega`` bit for
bit, beside ``_h_lanes`` for ``_h``.  Single inversions keep the scalar
kernel, because a one-lane call costs ~0.6 ms against ~13 us for ``omega``.
Trap: every power on an array must be ``np.float_power``.  ``np.power``
(and ``**`` on arrays) may run SIMD routines that round unlike the C
library's pow: on numpy 2.4 with AVX-512, np.power(z, r - 1) differed from
Python's z ** (r - 1) on 10,285 of 200,000 uniform z at r = 2.5 and
np.power(w, 2) from w ** 2 on 163 of 200,000 w; float_power matched on all.
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
    """
    if k1 is None:
        k1 = 0.2 / (b - a)
    fa, fb = fa - y, fb - y
    n_max = max(math.ceil(math.log2((b - a) / xtol)), 0) + 3
    # xtol * 2^(n_max - j - 1) at step j; halving a power-of-two multiple
    # of xtol is exact while it is at least xtol, and below that the
    # projection radius is 0 either way
    scale = xtol * 2.0 ** (n_max - 1)
    # b only ever takes points on fb's side
    b_pos = fb > 0.0
    best_x, best_abs = 0.5 * (a + b), math.inf
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


def _h_lanes(r: float, z: np.ndarray) -> np.ndarray:
    """``_h`` on an array of z, bit for bit (powers through float_power)."""
    val = np.float_power(z, r - 1.0) * (r - (r - 1.0) * z)
    val[(-1e-13 < val) & (val < 0.0)] = 0.0
    return val


def _omega_lanes(r: float, s: np.ndarray) -> np.ndarray:
    """``omega`` on a 1-D array of s, bit for bit, in one lock-step ITP pass.

    Every lane runs ``_bracketed_root``'s steps on omega's natural bracket
    [1, r'] with the same xtol, k1, n_max and projection scale: the same
    truncation and projection branch, the same side updated, the same best
    point, an early stop where H_r hits s exactly and a stop where the
    bracket's ends are adjacent floats.  Lanes leave the working arrays as
    they finish.  s = 1 and s = 0 give 1 and r' exactly; an s outside
    [0, 1] raises omega's DomainError.
    """
    _check_exponent(r)
    s = np.asarray(s, dtype=float)
    bad = ~((0.0 <= s) & (s <= 1.0))
    if bad.any():
        raise DomainError(f"omega_{r} is defined on [0, 1], got s={float(s[bad][0])}")
    top = r / (r - 1.0)
    z = np.where(s == 1.0, 1.0, top)
    idx = np.flatnonzero((0.0 < s) & (s < 1.0))
    xtol = _BRACKET_REL_TOL * top
    if top - 1.0 <= xtol:
        z[idx] = 0.5 * (1.0 + top)
        return z
    k1 = 0.2 / (top - 1.0)
    n_max = max(math.ceil(math.log2((top - 1.0) / xtol)), 0) + 3
    scale = xtol * 2.0 ** (n_max - 1)
    y = s[idx]
    a, b = np.full(idx.size, 1.0), np.full(idx.size, top)
    # b keeps the points with H_r(x) <= s, as in the scalar kernel
    fa, fb = 1.0 - y, 0.0 - y
    best_x, best_abs = np.full(idx.size, 0.5 * (1.0 + top)), np.full(idx.size, np.inf)
    w = b - a
    while True:
        mid = 0.5 * (a + b)
        live = (w > xtol) & (a < mid) & (mid < b)
        if not live.all():
            z[idx[~live]] = best_x[~live]
            idx, y, a, b, fa, fb, best_x, best_abs, w, mid = (
                v[live] for v in (idx, y, a, b, fa, fb, best_x, best_abs, w, mid)
            )
        if not idx.size:
            return z
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
        g = _h_lanes(r, x) - y
        g_abs = np.abs(g)
        better = g_abs < best_abs
        best_x[better] = x[better]
        best_abs[better] = g_abs[better]
        pos = g > 0.0
        # a lane with g == 0 collapses its bracket onto x, its best point
        a = np.where(pos | (g == 0.0), x, a)
        b = np.where(pos, b, x)
        fa = np.where(pos, g, fa)
        fb = np.where(pos, fb, g)
        w = b - a


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
