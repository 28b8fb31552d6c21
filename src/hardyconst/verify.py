"""Batch verification suites for the library's mathematical claims.

Each suite samples a claim on a grid and reports a ``SuiteResult``; the CLI
``verify`` subcommand runs all of them and fails if any check fails.  Grid
points beyond the no-root cutoff are skipped, not failed: the cutoff is the
band along the lower curve at large s2 where a root would need tau >= 1,
and ``solver.has_root`` decides it exactly.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .asymptotics import big_f, big_f_deriv, big_g, endgame_constants
from .domain import ParamPoint, threshold
from .errors import NoRootError, StencilError
from .sensitivity import delta_eval, dt_ds1, gamma_eval, lambda_eval
from .solver import has_root, solve_t
from .special import Exponents, _h_lanes, _omega_lanes, h_eval, omega

_MAX_REPORTED_FAILURES = 5


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

    def check(self, ok: bool, message: str) -> None:
        self.checks += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < _MAX_REPORTED_FAILURES:
                self.failures.append(message)

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


def feasible_s1_grid(
    e: Exponents,
    s2: float,
    n: int,
    lo_frac: float = 0.02,
    hi_frac: float = 0.98,
) -> list[float]:
    """n solvable s1 values for fixed s2, evenly drawn from a scan of 2n.

    Candidates span (lo_frac, hi_frac) times the lower-boundary abscissa
    s2^((p-1)/(q-1)); candidates without a root (``has_root``) are dropped
    and the surviving list is subsampled back to n evenly spaced entries.
    """
    s1_top = s2 ** ((e.p - 1.0) / (e.q - 1.0))
    cands = np.linspace(lo_frac * s1_top, hi_frac * s1_top, 2 * n)
    good = [float(s1) for s1 in cands if has_root(e, ParamPoint(float(s1), s2))]
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

    Each exponent's grid is inverted in one lane-wise pass, bit for bit the
    floats ``omega`` returns; the closed-form check reuses the r = 2 pass.
    """
    res = SuiteResult("inverse round-trip")
    exps = sorted({1.3, 1.5, 2.0, 3.0, 5.0, e.p, e.q})
    grid = np.linspace(0.0, 1.0, 1000)
    inverted = {r: _omega_lanes(r, grid) for r in exps}
    for r, z in inverted.items():
        err = np.abs(_h_lanes(r, z) - grid)
        res.check_many(
            err <= 1e-12, lambda i: f"round trip off by {err[i]} at r={r}, s={grid[i]}"
        )
    err = np.abs(inverted[2.0] - (1.0 + np.sqrt(1.0 - grid)))
    res.check_many(
        err <= 1e-13, lambda i: f"omega_2 closed form off by {err[i]} at s={grid[i]}"
    )
    return res


def equal_omega_suite(e: Exponents, n: int = 50) -> SuiteResult:
    """On s2 = H_q(omega_p(s1)) the constant is omega_p(s1) and tau = s2."""
    res = SuiteResult("equal-omega curve identity")
    for s1 in np.linspace(0.05, 0.95, n):
        s1 = float(s1)
        w = omega(e.p, s1)
        s2 = h_eval(e.q, w)
        sol = solve_t(e, ParamPoint(s1, s2))
        res.check(
            abs(sol.t - w) <= 1e-8,
            f"|t - omega_p(s1)| = {abs(sol.t - w)} at s1={s1}",
        )
        res.check(
            abs(sol.tau - s2) <= 1e-8, f"|tau - s2| = {abs(sol.tau - s2)} at s1={s1}"
        )
    return res


def sign_suite(e: Exponents, n: int = 30) -> SuiteResult:
    """gamma < 0, delta > 0 and lambda(t) > 0 across a feasible (s1, s2) grid."""
    res = SuiteResult("sign suite (gamma<0, delta>0, lambda>0)")
    for s2 in np.linspace(0.15, 0.97, n):
        s2 = float(s2)
        s1_top = s2 ** ((e.p - 1.0) / (e.q - 1.0))
        for s1 in np.linspace(0.02 * s1_top, 0.98 * s1_top, n):
            pt = ParamPoint(float(s1), s2)
            try:
                sol = solve_t(e, pt)
            except NoRootError:
                res.skipped += 1
                continue
            g = gamma_eval(e, pt, sol)
            d = delta_eval(e, pt, sol)
            lam = lambda_eval(e, pt, sol.t)
            res.check(g < 0.0, f"gamma = {g} >= 0 at ({s1}, {s2})")
            res.check(d > 0.0, f"delta = {d} <= 0 at ({s1}, {s2})")
            res.check(lam > 0.0, f"lambda = {lam} <= 0 at ({s1}, {s2})")
    return res


def inequality_star_suite(e: Exponents) -> SuiteResult:
    """p s1^((p-q)/(p-1)) < (p-q) s1 + q at 200 evenly spaced s1 in (0, 1)."""
    res = SuiteResult("inequality (*)")
    for s1 in np.linspace(0.0, 1.0, 202)[1:-1]:
        lhs = e.p * s1 ** ((e.p - e.q) / (e.p - 1.0))
        rhs = (e.p - e.q) * s1 + e.q
        res.check(lhs < rhs, f"{lhs} >= {rhs} at s1={s1}")
    return res


def endgame_suite(e: Exponents) -> SuiteResult:
    """F < 0, F' > 0 at 100 points below the threshold; G strictly increasing; a dominates."""
    res = SuiteResult("limit-profile suite (F, G, a)")
    consts = endgame_constants(e)
    thr = consts.threshold
    interior = thr * np.arange(1, 101) / 101
    for s2 in interior:
        s2 = float(s2)
        f, df = big_f(e, s2), big_f_deriv(e, s2)
        res.check(f < 0.0, f"F({s2}) = {f} >= 0")
        res.check(df > 0.0, f"F'({s2}) = {df} <= 0")
    err = abs(big_f(e, thr) - consts.f_at_threshold)
    res.check(err <= 1e-10, f"F(threshold) off closed form by {err}")
    res.check(
        (e.q / (e.q - 1.0)) ** e.q < consts.a,
        f"(q/(q-1))^q = {(e.q / (e.q - 1.0)) ** e.q} not below a = {consts.a}",
    )
    g_grid = np.arange(0.02, 0.98 + 1e-12, 5e-3)
    g_vals = [big_g(e, float(s2)) for s2 in g_grid]
    for i in range(len(g_vals) - 1):
        res.check(
            g_vals[i + 1] > g_vals[i],
            f"G not increasing between {g_grid[i]} and {g_grid[i + 1]}",
        )
    return res


def fd_suite(e: Exponents, n: int = 30, tol: float = 1e-5) -> SuiteResult:
    """Analytic dt/ds1 = t gamma / delta against central finite differences."""
    res = SuiteResult("derivative identity vs finite differences")
    n_rows = min(max(n // 6, 3), 6)
    per_row = min(max(n // 4, 4), 10)
    for s2 in np.linspace(0.3, 0.95, n_rows):
        s2 = float(s2)
        try:
            grid = feasible_s1_grid(e, s2, per_row, lo_frac=0.05, hi_frac=0.9)
        except NoRootError:
            res.skipped += per_row
            continue
        for s1 in grid:
            try:
                rep = dt_ds1(e, ParamPoint(s1, s2))
            except StencilError:
                res.skipped += 1
                continue
            res.check(
                rep.fd_rel_err <= tol,
                f"FD relative error {rep.fd_rel_err} at ({s1}, {s2})",
            )
            res.check(rep.dt_ds1 < 0.0, f"dt/ds1 = {rep.dt_ds1} >= 0 at ({s1}, {s2})")
    return res


def limit_suite(e: Exponents) -> SuiteResult:
    """Small-s1 behaviour: t -> p/(p-1) monotonically and gamma -> F(s2)."""
    res = SuiteResult("small-s1 limit")
    top = e.p_conj
    for s2 in (0.3, 0.5, 0.65):
        if s2 >= threshold(e):
            res.skipped += 1
            continue
        # Four geometric rungs inside the region: 1e-2 ... 1e-8 unless the
        # lower-curve abscissa s1_top is smaller.  The 1e-12 floor keeps
        # p/(p-1) - t about 1000 ulp wide, so successive t stay distinct.
        hi = min(1e-2, 0.5 * s2 ** ((e.p - 1.0) / (e.q - 1.0)))
        lo = max(1e-6 * hi, 1e-12)
        if lo >= hi:
            res.skipped += 1
            continue
        prev = None
        for s1 in np.geomspace(hi, lo, 4):
            s1 = float(s1)
            sol = solve_t(e, ParamPoint(s1, s2))
            t = sol.t
            res.check(t < top, f"t({s1}, {s2}) = {t} not below {top}")
            if prev is not None:
                res.check(
                    t > prev, f"t not increasing toward the limit at s1={s1}, s2={s2}"
                )
            prev = t
        res.check(
            abs(top - prev) <= 1e-3, f"t({lo}, {s2}) = {prev} further than 1e-3 from {top}"
        )
        # geomspace returns lo exactly as its last rung, so sol solves at lo
        g, f = gamma_eval(e, ParamPoint(lo, s2), sol), big_f(e, s2)
        res.check(abs(g - f) <= 5e-2, f"gamma({lo}, {s2}) = {g} vs F = {f}")
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
