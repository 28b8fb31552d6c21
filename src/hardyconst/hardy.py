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
so a 16-point rule plus one halving refinement; the difference between the
two passes is the quadrature error estimate.  All segments' rules are one
numpy expression, with every sum in a fixed order (no BLAS call, whose
order follows the CPU) and ``**`` rather than ``np.float_power``, so the
floats equal a per-segment loop's bit for bit.

The ``hardy`` command checks many samples of one piece count
(``_verified_samples``): each is drawn and solved once, and the quadrature
runs as one array pass per chunk of about ``_CHUNK_SEGMENTS`` segments,
every float and error as a sample-by-sample loop gives it.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

from .domain import ParamPoint, lower_curve
from .errors import (
    BoundaryCaseError,
    ConvergenceError,
    DomainError,
    InconsistentMomentsError,
    NoRootError,
    OutsideDomainError,
)
from .solver import BellmanSolution, solve_t
from .special import Exponents

#: the 16-point Gauss-Legendre rule on [-1, 1], numpy's leggauss(16) bit for
#: bit, as tuples: no array is built at import.  Nodes and weights are
#: symmetric about 0, so the upper half is written
_GL_X = (0.09501250983763744, 0.2816035507792589, 0.45801677765722737, 0.6178762444026438,
         0.755404408355003, 0.8656312023878318, 0.9445750230732326, 0.9894009349916499)
_GL_W = (0.18945061045506864, 0.18260341504492364, 0.16915651939500265, 0.1495959888165767,
         0.12462897125553407, 0.0951585116824926, 0.062253523938647456, 0.027152459411754176)
_GL_NODES = tuple(-x for x in reversed(_GL_X)) + _GL_X
_GL_WEIGHTS = _GL_W[::-1] + _GL_W

#: multiplicative slack for power-mean comparisons (pure rounding allowance)
_CHAIN_SLACK = 1e-12
#: samples whose (s1, s2) come closer than this to the region boundary are
#: redrawn; the solver is badly conditioned there
_SAMPLE_BOUNDARY_MARGIN = 1e-6
#: segments per quadrature pass over a batch of samples: large enough that
#: numpy's per-call cost is spread thin, small enough that the node arrays
#: (48 floats per segment) stay in cache
_CHUNK_SEGMENTS = 1024


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


def _finite_sum(name: str, terms: Iterator[float]) -> float:
    """sum(terms), or a DomainError naming the moment if it leaves float range."""
    try:
        total = sum(terms)
    except OverflowError:
        total = math.inf
    if not math.isfinite(total):
        raise DomainError(f"moment {name} overflows a float")
    return total


def step_moments(h: StepFunction, e: Exponents) -> MomentTriple:
    """Exact closed-form moments: sums of v^r * segment length for r in {1, q, p}."""
    lengths = h.lengths
    x = _finite_sum("int h", (v * d for v, d in zip(h.values, lengths)))
    y = _finite_sum("int h^q", (v**e.q * d for v, d in zip(h.values, lengths)))
    z = _finite_sum("int h^p", (v**e.p * d for v, d in zip(h.values, lengths)))
    return MomentTriple(x=x, y=y, z=z, kappa=h.kappa)


def moments_to_params(m: MomentTriple, e: Exponents) -> ParamPoint:
    """Map moments to the induced (s1, s2).

    Validates the power-mean chain (x/k) <= (y/k)^(1/q) <= (z/k)^(1/p) up to
    rounding; genuine moments always satisfy it, with equality only for
    constant h, which maps to the corner (1, 1).  Where a power in s1 or s2
    leaves float range, a DomainError names the ratio.
    """
    m1 = m.x / m.kappa
    mq = (m.y / m.kappa) ** (1.0 / e.q)
    mp = (m.z / m.kappa) ** (1.0 / e.p)
    if m1 > mq * (1.0 + _CHAIN_SLACK) or mq > mp * (1.0 + _CHAIN_SLACK):
        raise InconsistentMomentsError(
            f"power-mean chain violated: mean={m1}, q-mean={mq}, p-mean={mp}"
        )
    s1 = _moment_ratio("s1 = x^p / (kappa^(p-1) z)", m.x, e.p, m.kappa, m.z)
    s2 = _moment_ratio("s2 = x^q / (kappa^(q-1) y)", m.x, e.q, m.kappa, m.y)
    # The chain bounds both by 1; shave off any last-bit float excess.
    return ParamPoint(min(s1, 1.0), min(s2, 1.0))


def _moment_ratio(name: str, x: float, r: float, kappa: float, moment: float) -> float:
    """x^r / (kappa^(r-1) moment), or a DomainError naming the ratio when a
    power or the denominator leaves float range, although the ratio is at
    most 1: Python's pow raises OverflowError, a product rounds to inf and
    a denominator that underflows to 0 would divide by zero."""
    try:
        den = kappa ** (r - 1.0) * moment
        if 0.0 < den < math.inf:
            return x**r / den
    except OverflowError:
        pass
    raise DomainError(f"induced {name} leaves float range")


def _lhs_rows(hs: Sequence[StepFunction], e: Exponents) -> Iterator[tuple[float, float]]:
    """``hardy_lhs`` of each step function in hs, in order, from one array pass.

    All of hs must have the same piece count; the first whose value leaves
    float range raises the DomainError, after the rows before it.  The
    running average on a segment (b0, b1] is v + c/t, c = int_0^b0 h -
    v*b0; c = 0 on the first, where the rule is exact.  Axis 0 of the node
    array is each segment and its left and right halves, axis 1 the step
    function.  Each rule sums its 16 products in four strided partial sums,
    as (s0 + s2) + (s1 + s3), the order of OpenBLAS's Haswell dot; c and
    each step function's totals add left to right.
    """
    import numpy as np
    v = np.array([h.values for h in hs])
    b = np.array([h.breakpoints for h in hs])
    b0, b1 = b[:, :-1], b[:, 1:]
    with np.errstate(over="ignore", invalid="ignore"):
        acc = np.cumsum(v * (b1 - b0), axis=1)[:, :-1]
        c = np.concatenate((np.zeros((len(hs), 1)), acc), axis=1) - v * b0
        mid = 0.5 * b0 + 0.5 * b1
        lo, hi = np.stack((b0, b0, mid)), np.stack((b1, mid, b1))
        half = 0.5 * (hi - lo)
        t = (0.5 * lo + 0.5 * hi)[..., None] + half[..., None] * _GL_NODES
        products = (v[..., None] + c[..., None] / t) ** e.p * _GL_WEIGHTS
        s = products.reshape(*half.shape, 4, 4).sum(axis=-2)
        quad = half * ((s[..., 0] + s[..., 2]) + (s[..., 1] + s[..., 3]))
        coarse, refined = np.cumsum((quad[0], quad[1] + quad[2]), axis=-1)[..., -1]
        est = np.abs(refined - coarse)
    for value, error in zip(refined.tolist(), est.tolist()):
        if not math.isfinite(error):
            raise DomainError("int ((1/t) int_0^t h)^p overflows a float")
        yield value, error


def hardy_lhs(h: StepFunction, e: Exponents) -> tuple[float, float]:
    """The averaging functional int ((1/t) int_0^t h)^p dt with an error estimate.

    Returns (value, error_estimate): value from the per-segment halved rule,
    error estimate as |halved - unhalved|; beyond float range, a DomainError.
    """
    return next(_lhs_rows((h,), e))


#: a step function, its moments, its induced point and the solve there
_Solved = tuple[StepFunction, MomentTriple, ParamPoint, BellmanSolution]


def _solved(h: StepFunction, e: Exponents) -> _Solved:
    """h, its moments, its induced point and the solve there, with
    ``verify_hardy``'s errors."""
    m = step_moments(h, e)
    pt = moments_to_params(m, e)
    try:
        return h, m, pt, solve_t(e, pt)
    except OutsideDomainError as exc:
        msg = f"induced point {exc}; the trivial bound lhs <= t^p z (any t >= 1) applies"
        raise BoundaryCaseError(msg) from exc


def _reports(batch: list[_Solved], e: Exponents) -> Iterator[VerificationReport]:
    """The report of each solved step function, all of one piece count, in
    order, from one quadrature pass; an overflow raises after the reports
    before it."""
    if not batch:
        return
    for (_, m, pt, sol), (lhs, est) in zip(batch, _lhs_rows([h for h, *_ in batch], e)):
        rhs = sol.t**e.p * m.z
        budget = est + 1e-9 * rhs
        yield VerificationReport(
            lhs=lhs, rhs=rhs, ratio=lhs / m.z, t=sol.t, s1=pt.s1, s2=pt.s2,
            passed=lhs <= rhs + budget, quadrature_error_estimate=est,
        )


def verify_hardy(h: StepFunction, e: Exponents) -> VerificationReport:
    """Check lhs <= t(s1, s2)^p * z for one step function.

    Constant functions (and anything else landing on the region boundary)
    are rejected with BoundaryCaseError, raised from the OutsideDomainError
    of ``solve_t``'s domain test: the bound there is the trivial
    lhs = z <= t^p z for any t >= 1 and the solver is not applicable.
    Solver no-root errors propagate.
    """
    return next(_reports([_solved(h, e)], e))


def _verified_samples(
    e: Exponents, k: int, draws: Iterable[tuple[int, float]]
) -> Iterator[VerificationReport]:
    """``verify_hardy(sample_step(seed, k, kappa, e), e)`` for each (seed,
    kappa) of draws, in order, with one quadrature pass per chunk of
    ``_CHUNK_SEGMENTS // k`` samples.

    Each sample comes from ``_draw`` with the solve that accepted it.  If
    sample i fails to draw or solve, whatever the error, the samples before
    it are reported, or the first of them whose quadrature overflows
    raises, and then i's error is raised: the output of a sample-by-sample
    loop.
    """
    per_chunk = max(_CHUNK_SEGMENTS // k, 1)
    batch: list[_Solved] = []
    for seed, kappa in draws:
        try:
            batch.append(_draw(seed, k, kappa, e))
        except Exception:
            yield from _reports(batch, e)
            raise
        if len(batch) == per_chunk:
            yield from _reports(batch, e)
            batch = []
    yield from _reports(batch, e)


def sample_step(seed: int, k: int, kappa: float, e: Exponents) -> StepFunction:
    """Deterministic pseudo-random step function with k pieces.

    Draws breakpoints and positive values from a generator seeded with
    seed >= 0 (a negative seed is a DomainError), in at most 1000 draws,
    rejecting degenerate geometry (segments shorter than 1e-3 * kappa),
    samples whose induced (s1, s2) comes within 1e-6 of the region boundary,
    and samples whose induced point has no root (``has_root``): beyond the
    no-root cutoff, the band along the lower curve at large s2 where a root
    would need tau >= 1, the constant is not characterized by the equation
    solved here, so such samples are rejected rather than guessed at.  A
    draw meets the length rule with probability (1 - k/1000)^(k-1): 1.6 % at
    k = 64, 0.14 % at 80, 3e-5 at 100.  So k > 1000 is a DomainError before
    any draw, and a k whose 1000 draws all miss the rule is one after them;
    k up to about 64 is practical.
    """
    return _draw(seed, k, kappa, e)[0]


def _draw(seed: int, k: int, kappa: float, e: Exponents) -> _Solved:
    """``sample_step``'s sample with its moments, its induced point and the
    solve there.  ``solve_t`` raises OutsideDomainError or NoRootError
    exactly when ``has_root`` is false, so its solve is the decision; its
    InfeasibleTauError (``solver.has_root``) propagates."""
    import numpy as np
    if seed < 0:
        raise DomainError(f"seed must be nonnegative, got {seed}")
    if k < 2:
        raise DomainError(f"need at least 2 pieces, got k={k}")
    if k > 1000:
        raise DomainError(f"need at most 1000 pieces of at least 1e-3 * kappa, got k={k}")
    if not (math.isfinite(kappa) and kappa > 0.0):
        raise DomainError(f"kappa must be positive, got {kappa}")
    rng = np.random.default_rng(seed)
    spaced = False
    for _ in range(1000):
        pts = (0.0, *sorted(rng.uniform(0.0, kappa, size=k - 1).tolist()), kappa)
        if min(b - a for a, b in zip(pts, pts[1:])) < 1e-3 * kappa:
            continue
        spaced = True
        values = tuple(rng.uniform(0.05, 4.0, size=k).tolist())
        h = StepFunction(kappa=kappa, breakpoints=pts, values=values)
        m = step_moments(h, e)
        pt = moments_to_params(m, e)
        margin = min(pt.s1, 1.0 - pt.s1, 1.0 - pt.s2, pt.s2 - lower_curve(e, pt.s1))
        if margin >= _SAMPLE_BOUNDARY_MARGIN:
            try:
                return h, m, pt, solve_t(e, pt)
            except (OutsideDomainError, NoRootError):
                pass
    if not spaced:
        raise DomainError(f"none of 1000 draws of k={k} pieces kept each 1e-3 * kappa long")
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
