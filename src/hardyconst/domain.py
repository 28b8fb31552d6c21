"""The admissible parameter square and its bounding curves.

A point (s1, s2) is admissible for the constant-solve when

    0 < s1 < s2^((p-1)/(q-1))  and  s2 < 1,

i.e. it lies strictly above the lower boundary curve s2 = s1^((q-1)/(p-1)).
``in_domain`` decides this closed-form, geometric part of the region
(``lanes._outside_lanes`` on arrays of points, bit for bit); it is
necessary but not sufficient for solvability.  The constant also has a
no-root cutoff: a band along the lower curve at large s2 where the root
would need tau >= 1.  ``solver.has_root`` decides it with the same test
``solve_t`` makes: one sign of one explicit equation in u, at the u just
below tau = 1.

Two more curves matter: the equal-omega curve s2 = H_q(omega_p(s1)), on
which the constant is omega_p(s1) in closed form, and the horizontal
threshold s2 = H_q(p/(p-1)).  The small-s1 limit F(s2) of gamma has one
formula on both sides of the threshold; what changes there is the sign of
F': F increases below it and decreases above it.

``_linspace`` is the evenly spaced grid of ``scan``'s s1 and ``verify``'s
suites, np.linspace's floats as a list, built without numpy.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import DomainError
from .special import Exponents, h_eval, omega

#: |s2 - lower_curve(s1)| at or below this classifies as on-lower-boundary;
#: solver behaviour degenerates there and callers need to detect it.
BOUNDARY_TOL = 1e-12


class Membership(enum.Enum):
    INSIDE = "inside"
    ON_LOWER_BOUNDARY = "on-lower-boundary"
    OUTSIDE = "outside"


@dataclass(frozen=True)
class ParamPoint:
    """A parameter point with 0 < s1 <= 1 and 0 < s2 <= 1.

    The closed corner (1, 1) is admitted so that the moment map of a
    constant step function is representable; ``in_domain`` classifies it
    as on-lower-boundary (the lower curve ends there).
    """

    s1: float
    s2: float

    def __post_init__(self) -> None:
        for label, s in (("s1", self.s1), ("s2", self.s2)):
            if not (math.isfinite(s) and 0.0 < s <= 1.0):
                raise DomainError(f"{label} must lie in (0, 1], got {s}")


def lower_curve(e: Exponents, s1: float) -> float:
    """The lower boundary s2 = s1^((q-1)/(p-1)), defined for s1 in (0, 1]."""
    if not (math.isfinite(s1) and 0.0 < s1 <= 1.0):
        raise DomainError(f"lower_curve needs s1 in (0, 1], got {s1}")
    return s1 ** ((e.q - 1.0) / (e.p - 1.0))


def eq_omega_curve(e: Exponents, s1: float) -> float:
    """The equal-omega curve s2 = H_q(omega_p(s1)) on [0, 1].

    Runs from the threshold H_q(p/(p-1)) at s1 = 0 up to 1 at s1 = 1,
    strictly above the lower boundary in between.
    """
    if not (math.isfinite(s1) and 0.0 <= s1 <= 1.0):
        raise DomainError(f"eq_omega_curve needs s1 in [0, 1], got {s1}")
    return h_eval(e.q, omega(e.p, s1))


def threshold(e: Exponents) -> float:
    """H_q(p/(p-1)) in closed form: ((p-q)/p) * (p/(p-1))^q."""
    return (e.p - e.q) / e.p * e.p_conj**e.q


def in_domain(e: Exponents, pt: ParamPoint) -> Membership:
    """Classify a point against the admissible region.

    Total on (0, 1]^2: points within BOUNDARY_TOL of the lower curve are
    on-lower-boundary, points strictly between the curve and the open top
    edge are inside, everything else is outside.
    """
    lower = pt.s1 ** ((e.q - 1.0) / (e.p - 1.0))
    if abs(pt.s2 - lower) <= BOUNDARY_TOL:
        return Membership.ON_LOWER_BOUNDARY
    if pt.s2 < lower or pt.s2 >= 1.0 or pt.s1 >= 1.0:
        return Membership.OUTSIDE
    return Membership.INSIDE


def _linspace(lo: float, hi: float, n: int) -> list[float]:
    """np.linspace(lo, hi, n).tolist() bit for bit: point i < n - 1 is i*step + lo,
    or (i/div)*(hi - lo) + lo where step underflows to 0.  Allocated whole first,
    so that a grid too large for memory, or for a list, fails at once, with
    MemoryError or OverflowError."""
    grid, div = [hi] * n, n - 1
    step = (hi - lo) / div
    grid[:-1] = (i * step + lo if step else i / div * (hi - lo) + lo for i in range(div))
    return grid

