"""Batch verification suites for the library's mathematical claims.

Each suite samples a claim on a grid and reports a ``SuiteResult``; the CLI
``verify`` subcommand runs all of them and fails if any check fails.  Grid
points beyond the no-root cutoff are skipped, not failed (``solver.has_root``).

The suites with large grids run them through the lane twins (``lanes``):
``inverse_suite`` and ``endgame_suite`` invert their omega grids through
``lanes._omega_lanes``; ``sign_suite`` and ``fd_suite`` solve through
``solver.solve_lanes``, which raises what a loop of ``solve_t`` raises
first, and form every derivative checked here with ``solver.sign_factors``.
Every s1 row (``sign_suite``'s, and ``feasible_s1_grid``'s candidates) is
spaced along the lower-curve abscissa by ``_s1_row``.  A grid too large
for memory is a DomainError.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .asymptotics import _f_at, _f_deriv_at, _g_at, big_f, endgame_constants
from .domain import ParamPoint, _linspace
from .errors import DomainError, NoRootError
from .hardy import _GL_NODES, _GL_WEIGHTS
from .lanes import _h_lanes, _omega_lanes
from .solver import has_root, sign_factors, solve_lanes, solve_t
from .special import Exponents, h_eval, omega

_MAX_REPORTED_FAILURES = 5
#: points per lane solve in sign_suite, in whole rows of its grid; a longer
#: row goes alone, so the lane solve's memory grows with n only past 4,096
_SIGN_LANES = 4096
#: sign_suite's failure messages: gamma, delta, lambda
_SIGN_MESSAGES = (
    "gamma = {} >= 0 at ({}, {})",
    "delta = {} <= 0 at ({}, {})",
    "lambda = {} <= 0 at ({}, {})",
)


@dataclass
class SuiteResult:
    name: str
    checks: int = 0
    failed: int = 0
    skipped: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.failed == 0 and self.checks > 0

    def check(self, ok: bool, message_of: Callable[[], str]) -> None:
        """One check; message_of() formats its message if it is reported."""
        self.checks += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < _MAX_REPORTED_FAILURES:
                self.failures.append(message_of())

    def check_many(self, ok: np.ndarray, message_of: Callable[[int], str]) -> None:
        """``check`` for each lane of ok in turn; message_of(i) is lane i's
        message, formatted only for failures that are reported."""
        self.checks += ok.size
        bad = np.flatnonzero(~ok)
        self.failed += bad.size
        room = max(_MAX_REPORTED_FAILURES - len(self.failures), 0)
        self.failures.extend(message_of(int(i)) for i in bad[:room])

    def summary(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        extra = f", {self.skipped} skipped" if self.skipped else ""
        line = f"[{tag}] {self.name}: {self.checks} checks{extra}"
        if self.failed:
            line += f"; {self.failed} failed (first: {self.failures[0]})"
        return line


def _grid(lo: float, hi: float, n: int) -> list[float]:
    """np.linspace(lo, hi, n).tolist() (``domain._linspace``); a grid too
    large for memory, or for a list, is a DomainError."""
    try:
        return _linspace(lo, hi, n)
    except (MemoryError, OverflowError):
        raise DomainError(f"a verify grid of {n} points does not fit in memory") from None


def _s1_row(name: str, e: Exponents, s2: float, lo: float, hi: float, n: int) -> list[float]:
    """name's row of n s1 values at s2, from lo to hi times the lower-curve
    abscissa s2^((p-1)/(q-1)) (``_grid``); a DomainError where the smallest
    s1 underflows to 0."""
    top = s2 ** ((e.p - 1.0) / (e.q - 1.0))
    if not lo * top > 0.0:
        raise DomainError(
            f"{name}: the s1 row at s2={s2} for p={e.p}, q={e.q} starts at "
            f"{lo} * s2^((p-1)/(q-1)), which underflows to 0"
        )
    return _grid(lo * top, hi * top, n)


def feasible_s1_grid(
    e: Exponents,
    s2: float,
    n: int,
    lo_frac: float = 0.02,
    hi_frac: float = 0.98,
) -> list[float]:
    """n solvable s1 values for fixed s2, evenly drawn from a scan of 2n.

    The 2n candidates are the ``_s1_row`` from lo_frac to hi_frac times the
    lower-boundary abscissa s2^((p-1)/(q-1)), a DomainError where the
    smallest underflows to 0 or the row does not fit in memory; candidates
    without a root (``has_root``) are dropped and the surviving list is
    subsampled back to n evenly spaced entries.
    """
    cands = _s1_row("feasible_s1_grid", e, s2, lo_frac, hi_frac, 2 * n)
    good = [s1 for s1 in cands if has_root(e, ParamPoint(s1, s2))]
    if len(good) < n:
        raise NoRootError(
            f"only {len(good)} of {n} requested feasible s1 values exist "
            f"at s2={s2} for p={e.p}, q={e.q}"
        )
    idx = np.round(np.linspace(0, len(good) - 1, n)).astype(int)
    return [good[i] for i in idx]


def inverse_suite(e: Exponents) -> SuiteResult:
    """Round trips H_r(omega_r(s)) = s and the r = 2 closed form 1 + sqrt(1-s),
    on 1000 evenly spaced s in [0, 1].

    All exponents' grids are inverted in one ``_omega_lanes`` call with one r
    per lane, and checked exponent by exponent in ascending order; the
    closed-form check reuses the r = 2 lanes.
    """
    res = SuiteResult("inverse round-trip")
    exps = sorted({1.3, 1.5, 2.0, 3.0, 5.0, e.p, e.q})
    grid = np.linspace(0.0, 1.0, 1000)
    r, s = np.repeat(exps, grid.size), np.tile(grid, len(exps))
    z = _omega_lanes(r, s)
    err = np.abs(_h_lanes(r, z) - s)
    res.check_many(
        err <= 1e-12, lambda i: f"round trip off by {err[i]} at r={r[i]}, s={s[i]}"
    )
    err = np.abs(z.reshape(len(exps), -1)[exps.index(2.0)] - (1.0 + np.sqrt(1.0 - grid)))
    res.check_many(
        err <= 1e-13, lambda i: f"omega_2 closed form off by {err[i]} at s={grid[i]}"
    )
    return res


def equal_omega_suite(e: Exponents, n: int = 50) -> SuiteResult:
    """On s2 = H_q(omega_p(s1)) the constant is omega_p(s1) and tau = s2."""
    res = SuiteResult("equal-omega curve identity")
    for s1 in _grid(0.05, 0.95, n):
        w = omega(e.p, s1)
        s2 = h_eval(e.q, w)
        sol = solve_t(e, ParamPoint(s1, s2))
        res.check(
            abs(sol.t - w) <= 1e-8,
            lambda: f"|t - omega_p(s1)| = {abs(sol.t - w)} at s1={s1}",
        )
        res.check(
            abs(sol.tau - s2) <= 1e-8, lambda: f"|tau - s2| = {abs(sol.tau - s2)} at s1={s1}"
        )
    return res


def sign_suite(e: Exponents, n: int = 30) -> SuiteResult:
    """gamma < 0, delta > 0 and lambda(t) > 0 across a feasible (s1, s2) grid.

    n rows of n points, s2 from 0.15 to 0.97 and s1 from 0.02 to 0.98 of
    the lower-curve abscissa (``_s1_row``: a DomainError where 0.02 of it
    underflows to 0), solved by ``solve_lanes``, one call per block of
    max(``_SIGN_LANES`` // n, 1) whole rows.  gamma, delta and lambda
    (``solver.sign_factors``) are checked in that order, point by point in
    grid order.  Points without a root are skipped; a point outside the
    region raises the OutsideDomainError ``solve_t`` raises there.
    """
    res = SuiteResult("sign suite (gamma<0, delta>0, lambda>0)")
    s2_grid = _grid(0.15, 0.97, n)
    rows = max(_SIGN_LANES // n, 1)
    for lo in range(0, n, rows):
        s2_rows = s2_grid[lo : lo + rows]
        s1 = np.concatenate([_s1_row(res.name, e, s2, 0.02, 0.98, n) for s2 in s2_rows])
        s2 = np.repeat(s2_rows, n)
        sol = solve_lanes(e, s1, s2)
        res.skipped += int((~sol.ok).sum())
        s1, s2, t, u, a2 = (v[sol.ok] for v in (s1, s2, sol.t, sol.u, sol.alpha))
        gamma, delta, lam = sign_factors(e, s1, s2, t, u, a2, np.float_power)
        vals = np.stack([gamma, delta, lam], axis=1)
        ok = np.stack([gamma < 0.0, delta > 0.0, lam > 0.0], axis=1)
        res.check_many(
            ok.ravel(),
            lambda i: _SIGN_MESSAGES[i % 3].format(
                float(vals.flat[i]), float(s1[i // 3]), float(s2[i // 3])
            ),
        )
    return res


def inequality_star_suite(e: Exponents) -> SuiteResult:
    """p s1^((p-q)/(p-1)) < (p-q) s1 + q at 200 evenly spaced s1 in (0, 1)."""
    res = SuiteResult("inequality (*)")
    s1 = np.linspace(0.0, 1.0, 202)[1:-1]
    lhs = e.p * np.float_power(s1, (e.p - e.q) / (e.p - 1.0))
    rhs = (e.p - e.q) * s1 + e.q
    res.check_many(lhs < rhs, lambda i: f"{lhs[i]} >= {rhs[i]} at s1={s1[i]}")
    return res


def endgame_suite(e: Exponents) -> SuiteResult:
    """F < 0, F' > 0 at 100 points below the threshold; G strictly increasing; a dominates.

    Every s2 read is inverted once, all in one lane-wise pass, and F, F' and
    G are formed from those omega_q(s2) as ``big_f`` and kin form them."""
    res = SuiteResult("limit-profile suite (F, G, a)")
    consts = endgame_constants(e)
    thr = consts.threshold
    interior = (thr * np.arange(1, 101) / 101).tolist()
    g_grid = np.arange(0.02, 0.98 + 1e-12, 5e-3).tolist()
    w = _omega_lanes(e.q, np.array([*interior, thr, *g_grid])).tolist()
    for s2, w_s2 in zip(interior, w):
        f, df = _f_at(e, s2, w_s2), _f_deriv_at(e, s2, w_s2)
        res.check(f < 0.0, lambda: f"F({s2}) = {f} >= 0")
        res.check(df > 0.0, lambda: f"F'({s2}) = {df} <= 0")
    err = abs(_f_at(e, thr, w[len(interior)]) - consts.f_at_threshold)
    res.check(err <= 1e-10, lambda: f"F(threshold) off closed form by {err}")
    res.check(
        (e.q / (e.q - 1.0)) ** e.q < consts.a,
        lambda: f"(q/(q-1))^q = {(e.q / (e.q - 1.0)) ** e.q} not below a = {consts.a}",
    )
    g_vals = [_g_at(e, s2, w_s2) for s2, w_s2 in zip(g_grid, w[len(interior) + 1 :])]
    for i in range(len(g_vals) - 1):
        res.check(
            g_vals[i + 1] > g_vals[i],
            lambda: f"G not increasing between {g_grid[i]} and {g_grid[i + 1]}",
        )
    return res


def fd_suite(e: Exponents, n: int = 30, tol: float = 1e-8) -> SuiteResult:
    """dt/ds1 = t gamma / delta, checked by integrating it along s1 rows.

    On each row of fixed s2 from 0.3 to 0.95, [a, b] are the first and last
    solvable s1 of ``feasible_s1_grid`` (a row without two is skipped), and
    t(a), t(b) come from ``solve_t``.  hardy's 16 Gauss-Legendre nodes x map
    to s1 = b - (b - a) (1 - v)^2, v = (1 + x)/2, clustered at b, where t
    bends next to the no-root cutoff; all rows' nodes take one
    ``solve_lanes`` call, then ``sign_factors``.  Checked: dt/ds1 < 0 at
    every node, and each row's integral meets t(b) - t(a) to tol relative
    plus 64 eps t(a) and both ends' bracket_width: t's error enters once.
    """
    res = SuiteResult("derivative identity, integrated along s1")
    rows = []
    for s2 in _grid(0.3, 0.95, min(max(n // 6, 3), 6)):
        try:
            a, b = feasible_s1_grid(e, s2, 2, lo_frac=0.05, hi_frac=0.9)
        except NoRootError:
            res.skipped += 1
            continue
        # solved while the solver's alpha cache holds this row's s2
        sa, sb = solve_t(e, ParamPoint(a, s2)), solve_t(e, ParamPoint(b, s2))
        rows.append((a, b, s2, sa.t, sb.t, sa.bracket_width + sb.bracket_width))
    a, b, y, ta, tb, width = np.reshape(rows, (-1, 6)).T
    v = (1.0 + np.array(_GL_NODES)) / 2.0
    s1, s2 = (b[:, None] - (b - a)[:, None] * (1.0 - v) ** 2).ravel(), np.repeat(y, v.size)
    sol = solve_lanes(e, s1, s2)
    gamma, delta, _ = sign_factors(e, s1, s2, sol.t, sol.u, sol.alpha, np.float_power)
    d = sol.t * gamma / delta
    res.check_many(sol.ok & (d < 0.0), lambda i: f"dt/ds1 = {d[i]} >= 0 at ({s1[i]}, {s2[i]})")
    quad = (b - a) * (np.array(_GL_WEIGHTS) * (1.0 - v) * d.reshape(-1, v.size)).sum(1)
    err, bound = abs(quad - (tb - ta)), tol * abs(tb - ta) + 64.0 * math.ulp(1.0) * ta + width
    res.check_many(err <= bound, lambda i: f"integral of dt/ds1 off by {err[i]} at s2={y[i]}")
    return res


def limit_suite(e: Exponents) -> SuiteResult:
    """Small-s1 behaviour: t -> p/(p-1) monotonically and gamma -> F(s2), on
    either side of the threshold H_q(p/(p-1)) alike (``asymptotics``)."""
    res = SuiteResult("small-s1 limit")
    top = e.p_conj
    for s2 in (0.3, 0.5, 0.65):
        # Four geometric rungs inside the region: 1e-2 ... 1e-8 unless the
        # lower-curve abscissa s1_top is smaller.  The 1e-12 floor keeps
        # p/(p-1) - t about 1000 ulp wide, so successive t stay distinct.
        hi = min(1e-2, 0.5 * s2 ** ((e.p - 1.0) / (e.q - 1.0)))
        lo = max(1e-6 * hi, 1e-12)
        if lo >= hi:
            res.skipped += 1
            continue
        prev = None
        for s1 in np.geomspace(hi, lo, 4).tolist():
            sol = solve_t(e, ParamPoint(s1, s2))
            t = sol.t
            res.check(t < top, lambda: f"t({s1}, {s2}) = {t} not below {top}")
            if prev is not None:
                res.check(
                    t > prev,
                    lambda: f"t not increasing toward the limit at s1={s1}, s2={s2}",
                )
            prev = t
        res.check(
            abs(top - prev) <= 1e-3,
            lambda: f"t({lo}, {s2}) = {prev} further than 1e-3 from {top}",
        )
        # geomspace returns lo exactly as its last rung, so sol solves at lo
        g, f = sign_factors(e, lo, s2, sol.t, sol.u, sol.alpha, math.pow)[0], big_f(e, s2)
        res.check(abs(g - f) <= 5e-2, lambda: f"gamma({lo}, {s2}) = {g} vs F = {f}")
    return res


def run_all_suites(e: Exponents, grid_n: int, tol: float) -> list[SuiteResult]:
    return [
        inverse_suite(e),
        equal_omega_suite(e, grid_n),
        sign_suite(e, grid_n),
        inequality_star_suite(e),
        endgame_suite(e),
        fd_suite(e, grid_n, tol),
        limit_suite(e),
    ]
