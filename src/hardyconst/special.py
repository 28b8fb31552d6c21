"""The decreasing polynomial H_r, its inverse omega_r, and the root kernel.

For an exponent r > 1,

    H_r(z) = -(r-1) z^r + r z^(r-1) = z^(r-1) * (r - (r-1) z)

decreases strictly from H_r(1) = 1 to H_r(r') = 0 on the bracket [1, r'],
where r' = r/(r-1) is the Hoelder conjugate of r.  Its inverse

    omega_r : [0, 1] -> [1, r']

underpins everything else in this package.  Every root in the package is
found by one bracketed kernel, ``_bracketed_root``, on one contract: f(x) =
0 on [a, b] for f rising through its root, from f(a) < 0 < f(b).  omega_r(s)
is the root of s - H_r here, and ``solver`` solves its explicit equation.
The kernel is the ITP method (Oliveira and Takahashi, ACM TOMS 2020): a
regula falsi step, truncated toward the midpoint and projected into a ball
around it that shrinks like bisection, so it keeps a sign-change bracket,
converges superlinearly on smooth functions, and needs at most four
evaluations beyond bisection: three in exact arithmetic, and one more where
the rounded bracket ends a hair above xtol after ITP's n_max steps.

``omega`` inverts in two stages.  ``_omega_start`` estimates the root by
Newton on H_r = s from a quintic in sqrt(1-s) that matches omega_r's
expansions at s = 1 and s = 0.  H_r'' = r (r-1) z^(r-3) ((r-2) - (r-1) z)
< 0 on [1, r'], so H_r is concave and decreasing there: the first step
lands right of the root and the rest fall to it monotonically.
``_omega_near`` then runs the kernel on the first [z - d, z + d], d = 1e-15
r' and then 4e-15 r', where H_r at its ends brackets s strictly, and on the
natural bracket [1, r'] where neither does: for most s with 1 - s below
1e-5, H_r varies by less than rounding across both.  ``solver``'s
certificate runs the second stage from its own estimate.  ITP's k1 always
comes from the natural bracket, 0.2/(r'-1).  At r = 1.5 omega evaluates H_r
3.8 times per call for s <= 0.9 and 4.4 for 1 - s in [1e-4, 1e-1] (4.4 and
3.8 from the wide bracket alone, 9.9 from the natural one), plus about 2
Newton steps.

The kernel's step arithmetic is fixed bit for bit: every float that feeds
the next point, the bracket ends or the best point must stay as it is, or
verdicts and CLI output move.  Rewrites that keep each rounding are fine:
a projection scale halved every step instead of xtol * 2^(n_max-j-1),
comparisons instead of abs and max, one signed step (sigma = 1 where the
regula falsi point is at or below the midpoint) for two mirrored branches.
``_itp_scale`` gives both kernels n_max with ceil(log2(w/xtol)) exact from
frexp: math.log2 rounds the first floats above 2^k down onto k for every
k >= 4 (one at 2^4, five at 2^16), one step short.  Trap: (b - a) ** 2
must stay a pow; written as (b - a) * (b - a) it changed omega on 434 of
40,000 inputs over ten exponents, 400 of them at r = 1.05 and 1.1, because
the C library's pow(x, 2) is not always rounded like x * x.  ``lanes``
holds the lane-wise twins of ``_h``, the kernel and ``omega``.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

from .errors import DomainError, SingularityError

#: final width of omega's root bracket, relative to r'; an absolute width
#: this small would be below the float spacing near r' once r' >= 8
_BRACKET_REL_TOL = 1e-15
#: half-widths, relative to r', of the brackets tried in turn around an
#: estimate of omega_r(s) before [1, r'].  Certificates on scan_rows traffic
#: invert on them and on [1, r'] in 92.3, 7.5 and 0.25 % of calls (7.7 % on
#: [1, r'] with the first alone, 18 % with 0.5 alone); inverse_suite's omega
#: on (2.5, 1.5), on the first in 5,984 of 5,988 and on the second in 4
_NEAR_HALF_WIDTHS = (1.0 * _BRACKET_REL_TOL, 4.0 * _BRACKET_REL_TOL)
#: ``_omega_start``'s Newton steps at most, and the move, relative to r',
#: after which it stops: quadratic convergence leaves the estimate within
#: rounding of the root, 2.5e-16 r' at most where 1 - s > 1e-3
_NEWTON_STEPS, _NEWTON_REL_STOP = 8, 1e-9


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
    return _h_slope(r, z, math.pow)[1]


def _bracketed_root(
    f: Callable[[float], float],
    a: float,
    b: float,
    fa: float,
    fb: float,
    xtol: float,
    k1: float | None = None,
    scale: float | None = None,
    best_x: float | None = None,
    best_abs: float = math.inf,
) -> tuple[float, float, float]:
    """ITP search for x in (a, b) with f(x) = 0, for f rising through its root.

    fa = f(a) < 0 < fb = f(b); the caller may know them exactly.  A point
    where f > 0 replaces b, one where f < 0 replaces a, and one where f = 0
    returns at once.  A falling f is solved as -f in the same steps:
    negation is exact, and so is the regula falsi point (fb a - fa b)/(fb -
    fa) with both ends negated.  Iterates until the bracket is at most xtol
    wide or its ends are adjacent floats.  Returns the final bracket (a, b)
    and the evaluated interior point x with the smallest |f(x)|, or the
    initial midpoint when the bracket needed no evaluation.  ITP's
    parameters are k1 = 0.2/(b-a) unless given, k2 = 2 and n0 = 3: at most
    n_max + 1 evaluations to reach xtol, four more than bisection.  With n0
    = 1 a few slow regula falsi steps early on use up the slack and the rest
    is plain bisection (50 evaluations for omega_2 at s = 0.99575; 11 with
    n0 = 3).

    scale, best_x and best_abs resume a run part-way: the projection scale
    xtol * 2^(n_max - j - 1) at the next step j, and the best point so far
    with its |f|.  They default to a fresh run's: ``_itp_scale``'s, the
    initial midpoint and inf.  A resumed run passes its bracket and end
    values as they stand, with the k1 and xtol it started with.
    """
    if k1 is None:
        k1 = 0.2 / (b - a)
    if scale is None:
        scale = _itp_scale(b - a, xtol, math.frexp, math.ldexp)
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
        # the truncation moves x_f by delta toward mid, sigma = 1 where x_f
        # is at or below mid; the projection keeps x within radius of mid,
        # and a delta that overshoots mid, or an x outside (a, b), gives mid
        sigma = 1.0 if mid >= x_f else -1.0
        x = x_f + sigma * delta
        if not -radius <= x - mid <= radius:
            x = mid - sigma * radius
        if not (delta <= sigma * (mid - x_f) and a < x < b):
            x = mid
        g = f(x)
        if g > 0.0:
            if g < best_abs:
                best_x, best_abs = x, g
            b, fb = x, g
        else:
            if -g < best_abs:
                if g == 0.0:
                    return x, x, x
                best_x, best_abs = x, -g
            a, fa = x, g
        w = b - a
    return a, b, best_x


def _itp_scale(w, xtol, frexp: Callable, ldexp: Callable):
    """ITP's step-0 projection scale xtol * 2^(n_max - 1) for a bracket of
    width w, n_max = max(ceil(log2(w / xtol)), 0) + 3, on floats with math's
    frexp and ldexp, on lanes with numpy's.  With w / xtol = m 2^e, 0.5 <=
    m < 1, ceil(log2(w / xtol)) is e - 1 where m = 0.5 and e otherwise."""
    m, e = frexp(w / xtol)
    n = e - (m == 0.5)
    return ldexp(xtol, n * (n > 0) + 2)  # max(n, 0) on ints and int arrays


def _h_slope(r, z, pw: Callable) -> tuple:
    """(H_r(z), H_r'(z)) for Newton, from one power: z^(r-2) serves both;
    on floats with pw = math.pow, on lanes with pw = np.float_power."""
    z_r2 = pw(z, r - 2.0)
    return z_r2 * z * (r - (r - 1.0) * z), r * (r - 1.0) * z_r2 * (1.0 - z)


def _start_poly(r: float) -> tuple[float, float, float, float, float]:
    """The t^1 to t^5 coefficients of the quintic in t = sqrt(1-s) that
    matches y = (r-1)(omega_r(s) - 1) to second order at both ends: y = a t +
    b t^2 + ..., a = sqrt(2 (r-1)/r), b = 2 (2-r)/(3r), as s -> 1, and 1 - y =
    s/c + (r-1)/r (s/c)^2 + ..., c = r'^(r-1), as s -> 0.  Exact for r = 2."""
    m = r - 1.0
    c = (r / m) ** m
    a, b = math.sqrt(2.0 * m / r), 2.0 * (1.0 - m) / (3.0 * r)
    v, d1, d2 = 1.0 - a - b, 2.0 / c - a - 2.0 * b, 2.0 / c - 8.0 * m / (r * c * c) - 2.0 * b
    c3, c5 = 10.0 * v - 4.0 * d1 + 0.5 * d2, 6.0 * v - 3.0 * d1 + 0.5 * d2
    return a, b, c3, 7.0 * d1 - 15.0 * v - d2, c5


def _omega_start(r: float, s: float) -> float:
    """omega_r(s) estimated by Newton on H_r = s from ``_start_poly``'s
    quintic (module docstring), each step kept in [1, r'], for at most
    ``_NEWTON_STEPS`` steps, up to one that moves less than
    ``_NEWTON_REL_STOP`` r', or to z = 1, where H_r' is 0."""
    top = r / (r - 1.0)
    a, b, c3, c4, c5 = _start_poly(r)
    t = math.sqrt(1.0 - s)
    z = min(1.0 + t * (a + t * (b + t * (c3 + t * (c4 + t * c5)))) / (r - 1.0), top)
    for _ in range(_NEWTON_STEPS):
        if not z > 1.0:
            break
        h, slope = _h_slope(r, z, math.pow)
        step = min(max(z - (h - s) / slope, 1.0), top)
        moved, z = abs(z - step), step
        if moved < _NEWTON_REL_STOP * top:
            break
    return z


def _omega_near(r: float, s: float, z: float) -> float:
    """omega_r(s) from the first [z - d, z + d] within [1, r'], d in
    ``_NEAR_HALF_WIDTHS`` r', where H_r at its ends brackets s strictly, else
    from [1, r']; s = 1 and 0 give 1 and r'.  z estimates the root; r must be
    valid, as it is not checked, and the ends are evaluated through ``_h``.

    The kernel solves s - H_r = 0, rising through the root, with the natural
    bracket's k1, 0.2/(r'-1) (0.2/xtol where r' - 1 <= xtol, r' may round to
    1): scaled to a narrow one it truncates the regula falsi step far more
    and costs more evaluations.  A bracket within xtol returns its midpoint."""
    top = r / (r - 1.0)
    if s == 1.0 or s == 0.0:
        return top if s == 0.0 else 1.0
    for width in _NEAR_HALF_WIDTHS:
        z_lo, z_hi = max(1.0, z - width * top), min(top, z + width * top)
        h_lo, h_hi = _h(r, z_lo), _h(r, z_hi)
        if h_lo > s > h_hi:
            break
    else:
        z_lo, h_lo, z_hi, h_hi = 1.0, 1.0, top, 0.0
    xtol = _BRACKET_REL_TOL * top
    return _bracketed_root(
        lambda x: s - _h(r, x), z_lo, z_hi, s - h_lo, s - h_hi, xtol,
        0.2 / max(top - 1.0, xtol),
    )[2]


def omega(r: float, s: float) -> float:
    """Invert H_r: the unique z in [1, r/(r-1)] with H_r(z) = s.

    ``_omega_near`` around ``_omega_start``'s estimate (module docstring).
    Endpoints are exact: omega_r(1) = 1 and omega_r(0) = r/(r-1).
    """
    _check_exponent(r)
    if not 0.0 <= s <= 1.0:
        raise DomainError(f"omega_{r} is defined on [0, 1], got s={s}")
    # s = 0 spares the Newton steps; at s = 1 the start is 1
    return _omega_near(r, s, _omega_start(r, s) if s > 0.0 else 1.0)


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
