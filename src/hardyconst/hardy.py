"""Step functions, their moments, and the averaging-inequality check.

For a finitely-valued step function h >= 0 on (0, kappa] with moments
x = int h, y = int h^q, z = int h^p, the induced parameters

    s1 = x^p / (kappa^(p-1) z),    s2 = x^q / (kappa^(q-1) y)

lie in the admissible region (strictly inside unless h is constant), and
the averaging functional obeys

    int_0^kappa ((1/t) int_0^t h)^p dt  <=  t(s1, s2)^p * int_0^kappa h^p.

``verify_hardy`` checks exactly that, with the left side computed by
per-segment Gauss-Legendre quadrature: the running average is
(A_i + v_i (t - b_{i-1})) / t on segment i, smooth within each segment,
so a 16-point rule plus one halving refinement is ample; the difference
between the two passes serves as the quadrature error estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import ParamPoint, lower_curve
from .errors import (
    BoundaryCaseError,
    ConvergenceError,
    DomainError,
    InconsistentMomentsError,
    OutsideDomainError,
)
from .solver import has_root, solve_t
from .special import Exponents

_GL_ORDER = 16
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(_GL_ORDER)

#: multiplicative slack for power-mean comparisons (pure rounding allowance)
_CHAIN_SLACK = 1e-12
#: samples whose (s1, s2) come closer than this to the region boundary are
#: redrawn; the solver is badly conditioned there
_SAMPLE_BOUNDARY_MARGIN = 1e-6


@dataclass(frozen=True)
class StepFunction:
    """A nonnegative step function on (0, kappa].

    ``values[i]`` is the value on (breakpoints[i], breakpoints[i+1]]; the
    breakpoints are strictly increasing with first 0 and last kappa, and at
    least one value must be positive.
    """

    kappa: float
    breakpoints: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "breakpoints", tuple(float(b) for b in self.breakpoints))
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if not (math.isfinite(self.kappa) and self.kappa > 0.0):
            raise DomainError(f"kappa must be positive, got {self.kappa}")
        b = self.breakpoints
        if len(b) < 2 or b[0] != 0.0 or b[-1] != self.kappa:
            raise DomainError("breakpoints must run from 0 to kappa")
        if any(b[i] >= b[i + 1] for i in range(len(b) - 1)):
            raise DomainError("breakpoints must be strictly increasing")
        if len(self.values) != len(b) - 1:
            raise DomainError("need exactly one value per segment")
        if any(not math.isfinite(v) or v < 0.0 for v in self.values):
            raise DomainError("values must be finite and nonnegative")
        if not any(v > 0.0 for v in self.values):
            raise DomainError("at least one value must be positive")

    @property
    def lengths(self) -> tuple[float, ...]:
        b = self.breakpoints
        return tuple(b[i + 1] - b[i] for i in range(len(b) - 1))


@dataclass(frozen=True)
class MomentTriple:
    """(int h, int h^q, int h^p, kappa) for a step function."""

    x: float
    y: float
    z: float
    kappa: float

    def __post_init__(self) -> None:
        if min(self.x, self.y, self.z, self.kappa) <= 0.0:
            raise DomainError("moments and kappa must be positive")


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one inequality check.

    ``ratio`` is lhs / z, the quantity that t^p must dominate;  ``passed``
    allows the quadrature error estimate plus a 1e-9 relative slack on the
    right side.
    """

    lhs: float
    rhs: float
    ratio: float
    t: float
    s1: float
    s2: float
    passed: bool
    quadrature_error_estimate: float


def step_moments(h: StepFunction, e: Exponents) -> MomentTriple:
    """Exact closed-form moments: sums of v^r * segment length for r in {1, q, p}."""
    lengths = h.lengths
    x = sum(v * d for v, d in zip(h.values, lengths))
    y = sum(v**e.q * d for v, d in zip(h.values, lengths))
    z = sum(v**e.p * d for v, d in zip(h.values, lengths))
    return MomentTriple(x=x, y=y, z=z, kappa=h.kappa)


def moments_to_params(m: MomentTriple, e: Exponents) -> ParamPoint:
    """Map moments to the induced (s1, s2).

    Validates the power-mean chain (x/k) <= (y/k)^(1/q) <= (z/k)^(1/p) up to
    rounding; genuine moments always satisfy it, with equality only for
    constant h, which maps to the corner (1, 1).
    """
    m1 = m.x / m.kappa
    mq = (m.y / m.kappa) ** (1.0 / e.q)
    mp = (m.z / m.kappa) ** (1.0 / e.p)
    if m1 > mq * (1.0 + _CHAIN_SLACK) or mq > mp * (1.0 + _CHAIN_SLACK):
        raise InconsistentMomentsError(
            f"power-mean chain violated: mean={m1}, q-mean={mq}, p-mean={mp}"
        )
    s1 = m.x**e.p / (m.kappa ** (e.p - 1.0) * m.z)
    s2 = m.x**e.q / (m.kappa ** (e.q - 1.0) * m.y)
    # The chain bounds both by 1; shave off any last-bit float excess.
    return ParamPoint(min(s1, 1.0), min(s2, 1.0))


def _piece_quad(p: float, v: float, c: float, lo: float, hi: float) -> float:
    """Gauss-Legendre integral of (v + c/t)^p over (lo, hi), 0 < lo < hi.

    v + c/t is the running average on a segment whose accumulated integral
    at its left breakpoint b0 is A: there c = A - v*b0, and the numerator
    A + v*(t - b0) = c + v*t stays nonnegative.
    """
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    t = mid + half * _GL_NODES
    return half * float(np.dot(_GL_WEIGHTS, (v + c / t) ** p))


def hardy_lhs(h: StepFunction, e: Exponents) -> tuple[float, float]:
    """The averaging functional int ((1/t) int_0^t h)^p dt with an error estimate.

    Returns (value, error_estimate): value from the per-segment halved rule,
    error estimate as |halved - unhalved|.  On the first segment the running
    average is exactly the constant v_1 (c = 0), so the rule is exact there.
    """
    coarse = 0.0
    refined = 0.0
    accum = 0.0
    for v, b0, b1 in zip(h.values, h.breakpoints, h.breakpoints[1:]):
        c = accum - v * b0
        mid = 0.5 * (b0 + b1)
        coarse += _piece_quad(e.p, v, c, b0, b1)
        refined += _piece_quad(e.p, v, c, b0, mid) + _piece_quad(e.p, v, c, mid, b1)
        accum += v * (b1 - b0)
    return refined, abs(refined - coarse)


def verify_hardy(h: StepFunction, e: Exponents) -> VerificationReport:
    """Check lhs <= t(s1, s2)^p * z for one step function.

    Constant functions (and anything else landing on the region boundary)
    are rejected with BoundaryCaseError, raised from the OutsideDomainError
    of ``solve_t``'s domain test: the bound there is the trivial
    lhs = z <= t^p z for any t >= 1 and the solver is not applicable.
    Solver no-root errors propagate.  Right after ``sample_step``, the solve
    reuses the alpha(s2) that its ``has_root`` test kept.
    """
    m = step_moments(h, e)
    pt = moments_to_params(m, e)
    try:
        sol = solve_t(e, pt)
    except OutsideDomainError as exc:
        msg = f"induced point {exc}; the trivial bound lhs <= t^p z (any t >= 1) applies"
        raise BoundaryCaseError(msg) from exc
    lhs, est = hardy_lhs(h, e)
    rhs = sol.t**e.p * m.z
    budget = est + 1e-9 * rhs
    return VerificationReport(
        lhs=lhs,
        rhs=rhs,
        ratio=lhs / m.z,
        t=sol.t,
        s1=pt.s1,
        s2=pt.s2,
        passed=lhs <= rhs + budget,
        quadrature_error_estimate=est,
    )


def sample_step(seed: int, k: int, kappa: float, e: Exponents) -> StepFunction:
    """Deterministic pseudo-random step function with k pieces.

    Draws breakpoints and positive values from a generator seeded with
    seed >= 0 (a negative seed is a DomainError), rejecting
    degenerate geometry (segments shorter than 1e-3 * kappa), samples whose
    induced (s1, s2) comes within 1e-6 of the region boundary, and samples
    whose induced point has no root (``has_root``): beyond the no-root
    cutoff, the band along the lower curve at large s2 where a root would
    need tau >= 1, the constant is not characterized by the equation solved
    here, so such samples are rejected rather than guessed at; the solver
    keeps the accepted point's alpha(s2) for ``verify_hardy``.
    """
    if seed < 0:
        raise DomainError(f"seed must be nonnegative, got {seed}")
    if k < 2:
        raise DomainError(f"need at least 2 pieces, got k={k}")
    if not (math.isfinite(kappa) and kappa > 0.0):
        raise DomainError(f"kappa must be positive, got {kappa}")
    rng = np.random.default_rng(seed)
    for _ in range(1000):
        cuts = np.sort(rng.uniform(0.0, kappa, size=k - 1))
        pts = np.concatenate(([0.0], cuts, [kappa]))
        if np.min(np.diff(pts)) < 1e-3 * kappa:
            continue
        values = rng.uniform(0.05, 4.0, size=k)
        h = StepFunction(kappa=kappa, breakpoints=tuple(pts), values=tuple(values))
        pt = moments_to_params(step_moments(h, e), e)
        margin = min(
            pt.s1,
            1.0 - pt.s1,
            1.0 - pt.s2,
            pt.s2 - lower_curve(e, pt.s1),
        )
        if margin >= _SAMPLE_BOUNDARY_MARGIN and has_root(e, pt):
            return h
    raise ConvergenceError("step-function sampling failed to find an interior sample")


def decreasing_rearrangement(h: StepFunction) -> StepFunction:
    """The nonincreasing rearrangement: same value distribution, sorted descending."""
    pairs = sorted(zip(h.values, h.lengths), key=lambda vl: -vl[0])
    cum = [0.0]
    for _, d in pairs:
        cum.append(cum[-1] + d)
    cum[-1] = h.kappa  # guard against cumulative-sum drift
    return StepFunction(
        kappa=h.kappa,
        breakpoints=tuple(cum),
        values=tuple(v for v, _ in pairs),
    )
