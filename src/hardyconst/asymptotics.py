"""Small-s1 asymptotics of the sensitivity factor gamma.

As s1 -> 0 with s2 fixed, the constant tends to p/(p-1) and gamma tends to

    F(s2) = (omega_q(s2)^q - a) / s2 - 1 + (p-1)/(q-1),
    a     = ((p-1)/(q-1)) * (p/(p-1))^q,

for every s2 in (0, 1), on both sides of the threshold H_q(p/(p-1)).  The
right side (p-q) s1 alpha(s2) of the implicit equation goes to 0, which
forces p w^(q-1) - (p-1) w^q -> 0, so w = omega_q(tau) -> p/(p-1) and
t -> p/(p-1).  There B(p/(p-1)) = (p-1)/(q-1), and
gamma = alpha(s2) - B(w) (t^q / s2 - 1) becomes F(s2).

The exact derivative of F is F'(s2) = (a - G(s2)) / s2^2 with

    G(s2) = omega_q(s2) * s2 / ((q-1) * (omega_q(s2) - 1)) + omega_q(s2)^q,

G is strictly increasing, and G(H_q(p/(p-1))) equals a exactly.  So F is
negative and strictly increasing below the threshold, F' = 0 at it, and F
is strictly decreasing above it (F' < 0 because G > a there).  F therefore
peaks at the threshold, where it takes the closed-form value
(p/(p-q) - 1) * (1 - (p-1)/(q-1)) = -q/(q-1) < 0.

The bound gamma <= -(p-q)/(q-1) is not general.  When p <= 2q the peak
-q/(q-1) lies at or below it, so the limit F satisfies it on all of (0, 1);
when p > 2q it fails near the threshold: at (p, q) = (5, 1.2) the limit
there is about -6, against a bound of -19.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .domain import threshold
from .errors import DomainError, SingularityError
from .special import Exponents, omega


@dataclass(frozen=True)
class EndgameConstants:
    """Closed-form constants of the small-s1 analysis for one exponent pair."""

    a: float
    threshold: float
    f_at_threshold: float


def _big_a(e: Exponents) -> float:
    """a = ((p-1)/(q-1)) * (p/(p-1))^q."""
    return (e.p - 1.0) / (e.q - 1.0) * e.p_conj**e.q


def endgame_constants(e: Exponents) -> EndgameConstants:
    return EndgameConstants(
        a=_big_a(e),
        threshold=threshold(e),
        f_at_threshold=(e.p / (e.p - e.q) - 1.0) * (1.0 - (e.p - 1.0) / (e.q - 1.0)),
    )


def _check_s2(s2: float) -> None:
    if not (math.isfinite(s2) and 0.0 < s2 < 1.0):
        raise DomainError(f"s2 must lie in (0, 1), got {s2}")


def big_f(e: Exponents, s2: float) -> float:
    """The gamma limit F(s2); diverges to -infinity as s2 -> 0."""
    _check_s2(s2)
    return _f_at(e, s2, omega(e.q, s2))


def big_f_deriv(e: Exponents, s2: float) -> float:
    """Exact derivative of F, including the 1/s2^2 factor: (a - G(s2))/s2^2."""
    _check_s2(s2)
    return _f_deriv_at(e, s2, omega(e.q, s2))


def big_g(e: Exponents, s2: float) -> float:
    """G(s2) = omega_q(s2) s2 / ((q-1)(omega_q(s2) - 1)) + omega_q(s2)^q."""
    _check_s2(s2)
    return _g_at(e, s2, omega(e.q, s2))


# F, F' and G at a checked s2 from a known w = omega_q(s2)
def _f_at(e: Exponents, s2: float, w: float) -> float:
    return (w**e.q - _big_a(e)) / s2 - 1.0 + (e.p - 1.0) / (e.q - 1.0)


def _f_deriv_at(e: Exponents, s2: float, w: float) -> float:
    return (_big_a(e) - _g_at(e, s2, w)) / s2**2


def _g_at(e: Exponents, s2: float, w: float) -> float:
    if w == 1.0:
        raise SingularityError("G is singular where omega_q(s2) = 1 (s2 -> 1)")
    return w * s2 / ((e.q - 1.0) * (w - 1.0)) + w**e.q
