"""The decreasing polynomial H_r, its inverse omega_r, and the root kernel.

For an exponent r > 1,

    H_r(z) = -(r-1) z^r + r z^(r-1) = z^(r-1) * (r - (r-1) z)

decreases strictly from H_r(1) = 1 to H_r(r') = 0 on the bracket [1, r'],
where r' = r/(r-1) is the Hoelder conjugate of r.  Its inverse

    omega_r : [0, 1] -> [1, r']

underpins everything else in this package.  Every root in the package is
found by one bracketed kernel, ``_bracketed_root``: omega_r here, and the
tau-feasibility top and the constant t in ``solver``.  The kernel is the ITP
method (Oliveira and Takahashi, ACM TOMS 2020): a regula falsi step,
truncated toward the midpoint and projected into a ball around it that
shrinks like bisection, so it keeps a sign-change bracket, converges
superlinearly on smooth functions, and never needs more than three
evaluations beyond bisection.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

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
    f: Callable[[float], float], a: float, b: float, fa: float, fb: float, xtol: float
) -> tuple[float, float, float]:
    """ITP root search on a < b with f(a) and f(b) of opposite signs.

    fa and fb are f's values at the ends (the caller may know them exactly;
    fa may be 0).  Iterates until the bracket is at most xtol wide, or its
    ends are adjacent floats, or f vanishes exactly.  Returns the final
    bracket (a, b), whose ends keep the signs of fa and fb, and the
    evaluated interior point with the smallest |f|, or the initial midpoint
    when the bracket needed no evaluation.  ITP's parameters are
    k1 = 0.2/(b-a), k2 = 2 and n0 = 3: at most three evaluations more than
    bisection to reach xtol.  With n0 = 1 a few slow regula falsi steps
    early on use up the slack and the rest is plain bisection (50
    evaluations for omega_2 at s = 0.99575; 11 with n0 = 3).
    """
    k1 = 0.2 / (b - a)
    n_max = max(math.ceil(math.log2((b - a) / xtol)), 0) + 3
    best_x, best_y = 0.5 * (a + b), math.inf
    j = 0
    while b - a > xtol:
        mid = 0.5 * (a + b)
        if not a < mid < b:
            break
        # Projection radius: keeps the step close enough to the midpoint
        # that the bracket reaches xtol within n_max evaluations.
        radius = max(xtol * 2.0 ** (n_max - j - 1) - 0.5 * (b - a), 0.0)
        x_f = (fb * a - fa * b) / (fb - fa)
        sigma = 1.0 if mid >= x_f else -1.0
        delta = k1 * (b - a) ** 2
        x_t = x_f + sigma * delta if delta <= abs(mid - x_f) else mid
        x = x_t if abs(x_t - mid) <= radius else mid - sigma * radius
        if not a < x < b:
            x = mid
        y = f(x)
        j += 1
        if abs(y) < abs(best_y):
            best_x, best_y = x, y
        if y == 0.0:
            return x, x, x
        if (y > 0.0) == (fb > 0.0):
            b, fb = x, y
        else:
            a, fa = x, y
    return a, b, best_x


def omega(r: float, s: float) -> float:
    """Invert H_r: the unique z in [1, r/(r-1)] with H_r(z) = s.

    Endpoints are short-circuited to the exact closed-form values
    omega_r(1) = 1 and omega_r(0) = r/(r-1).  Inside, ``_bracketed_root``
    runs on H_r(z) - s over [1, r/(r-1)], where the end values 1 - s and -s
    are exact.
    """
    _check_exponent(r)
    if not 0.0 <= s <= 1.0:
        raise DomainError(f"omega_{r} is defined on [0, 1], got s={s}")
    top = r / (r - 1.0)
    if s == 1.0:
        return 1.0
    if s == 0.0:
        return top
    return _bracketed_root(
        lambda z: h_eval(r, z) - s, 1.0, top, 1.0 - s, -s, _BRACKET_REL_TOL * top
    )[2]


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
