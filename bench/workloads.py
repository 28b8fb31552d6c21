"""The benchmark's workloads: seeded ``hardyconst`` CLI requests and their checks.

Each workload builds its requests one cycle at a time from a seeded
generator.  A cycle has a fixed shape (the same exponent pairs, s2 strata
or step counts every time), so throughput can be taken per cycle, where
the mix of work is always the same.  Scan and hardy requests draw fresh
seeded values and never repeat; verify requests repeat every cycle (see
``verify_cycle``).  ``check`` validates one request's output and returns
the problem found, or None.
"""

from __future__ import annotations

import math
import re
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

#: benign pairs, then stiff pairs with q -> 1+ and large p
SCAN_PAIRS = ((2.0, 1.5), (3.0, 2.0), (2.5, 1.3), (5.0, 1.2))
SCAN_N = 24
#: s2 >= 0.45 keeps (5, 1.2)'s grid start above s1 ~ 1e-12, where solve_t in
#: hardyconst 0.1.0 mislabels rows as no-root (see KNOWN_DEFECTS)
SCAN_S2 = (0.45, 0.98)
SCAN_STRATA = 6
#: |residual| bound for an ok row; hardyconst 0.1.0 stays below 2e-11
SCAN_MAX_RESIDUAL = 1e-9

HARDY_PAIRS = SCAN_PAIRS
HARDY_STEPS = (2, 4, 8, 16, 32)
HARDY_SAMPLES = 4

#: verify passes only where (q-1)/(p-1) > ln 0.01 / ln 0.3 ~ 0.2614: below it
#: limit_suite's s1 = 1e-2 solve raises outside-domain at s2 = 0.3, so the
#: stiff pairs (2.5, 1.3) and (5, 1.2) run as a known-defect probe instead.
VERIFY_PAIRS = ((2.0, 1.5), (3.0, 2.0), (2.5, 1.5))
VERIFY_GRID = 10

_SUITES_LINE = re.compile(r"^(\d+)/(\d+) suites passed$")
_SAMPLE_LINE = re.compile(r"^sample \d+: ratio=\S+ ok$")


@dataclass(frozen=True)
class Request:
    argv: tuple[str, ...]
    items: int
    p: float
    q: float
    s2: float = math.nan


@dataclass(frozen=True)
class Point:
    """One ok scan row, kept for the high-precision oracle."""

    p: float
    q: float
    s1: float
    s2: float
    t: float


@dataclass(frozen=True)
class Workload:
    name: str
    item: str
    cycle: Callable[[np.random.Generator], list[Request]]
    check: Callable[[Request, int | None, str, list[Point]], str | None]
    #: cycles in the fixed request list of a traced run
    trace_cycles: int


def _num(x: float) -> str:
    return repr(float(x))


def _scan_request(p: float, q: float, s2: float) -> Request:
    """One s2 row; s1 runs from near 0 to just below the lower-curve abscissa."""
    top = s2 ** ((p - 1.0) / (q - 1.0))
    argv = (
        "scan", "--p", _num(p), "--q", _num(q), "--s2", _num(s2),
        "--s1-min", _num(1e-3 * top), "--s1-max", _num(0.999 * top), "--n", str(SCAN_N),
    )
    return Request(argv, SCAN_N, p, q, s2)


def _verify_request(p: float, q: float) -> Request:
    return Request(("verify", "--p", _num(p), "--q", _num(q), "--grid", str(VERIFY_GRID)), 1, p, q)


def scan_cycle(rng: np.random.Generator) -> list[Request]:
    """Each pair once per s2 stratum.

    s2 is drawn uniformly within each of SCAN_STRATA equal slices of SCAN_S2,
    so every cycle holds the same spread of s2 and so of work.
    """
    lo, hi = SCAN_S2
    width = (hi - lo) / SCAN_STRATA
    return [
        _scan_request(p, q, float(lo + width * (k + rng.uniform())))
        for k in range(SCAN_STRATA)
        for p, q in SCAN_PAIRS
    ]


def check_scan(req: Request, rc: int | None, out: str, points: list[Point]) -> str | None:
    from hardyconst.cli import CSV_HEADER

    if rc != 0:
        return f"exit code {rc}"
    lines = out.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        return "header differs from CSV_HEADER"
    if len(lines) != SCAN_N + 1:
        return f"{len(lines) - 1} rows, expected {SCAN_N}"
    prev_t = math.inf
    seen_cutoff = False
    for line in lines[1:]:
        f = line.split(",")
        if len(f) != 11:
            return f"row has {len(f)} fields: {line}"
        p, q, s1, s2, t, _, gamma, delta, dt, res = map(float, f[:10])
        if (p, q, s2) != (req.p, req.q, req.s2):
            return f"row echoes (p, q, s2) = {(p, q, s2)}"
        if f[10] != "ok":
            # beyond the no-root cutoff band, which borders the lower curve
            if f[10] != "no-root":
                return f"status {f[10]} at s1={s1}"
            seen_cutoff = True
            continue
        if seen_cutoff:
            return f"ok row after a no-root row at s1={s1}"
        if not 1.0 < t < p / (p - 1.0):
            return f"t={t} outside (1, p/(p-1)) at s1={s1}"
        if not (gamma < 0.0 and delta > 0.0 and dt < 0.0):
            return f"sign: gamma={gamma} delta={delta} dt_ds1={dt} at s1={s1}"
        if not abs(res) <= SCAN_MAX_RESIDUAL:
            return f"|residual|={abs(res)} at s1={s1}"
        if not t < prev_t:
            return f"t not strictly decreasing in s1 at s1={s1}"
        prev_t = t
        points.append(Point(p, q, s1, s2, t))
    return None


def hardy_cycle(rng: np.random.Generator) -> list[Request]:
    """Every pair with every step count, each with a seeded sample seed."""
    reqs = []
    for steps in HARDY_STEPS:
        for p, q in HARDY_PAIRS:
            argv = (
                "hardy", "--p", _num(p), "--q", _num(q),
                "--samples", str(HARDY_SAMPLES), "--steps", str(steps),
                "--seed", str(int(rng.integers(0, 2**31))),
            )
            reqs.append(Request(argv, HARDY_SAMPLES, p, q))
    return reqs


def check_hardy(req: Request, rc: int | None, out: str, points: list[Point]) -> str | None:
    if rc != 0:
        return f"exit code {rc}"
    lines = out.splitlines()
    if len(lines) != HARDY_SAMPLES + 1:
        return f"{len(lines)} lines, expected {HARDY_SAMPLES + 1}"
    bad = [line for line in lines[:-1] if not _SAMPLE_LINE.match(line)]
    if bad:
        return f"sample line {bad[0]!r}"
    if not lines[-1].startswith(f"samples={HARDY_SAMPLES} violations=0 solver_failures=0 "):
        return f"summary {lines[-1]!r}"
    return None


def verify_cycle(rng: np.random.Generator) -> list[Request]:
    """Every verify pair once, in a seeded order.

    The pairs are fixed rather than drawn: fd_suite's finite-difference
    check sits near its 1e-5 tolerance at small s1 for p >= 4, so nearby
    random pairs fail now and then, and a measured request must not fail.
    """
    return [_verify_request(*VERIFY_PAIRS[i]) for i in rng.permutation(len(VERIFY_PAIRS))]


def check_verify(req: Request, rc: int | None, out: str, points: list[Point]) -> str | None:
    if rc != 0:
        return f"exit code {rc}"
    lines = out.splitlines()
    m = _SUITES_LINE.match(lines[-1]) if lines else None
    if m is None or m[1] != m[2] or int(m[2]) == 0:
        return f"summary {lines[-1] if lines else ''!r}"
    return None


#: Requests that fail in hardyconst 0.1.0, run once after timing and reported but
#: not counted, because a measured workload must not fail.  Each is printed
#: with its check result, so a fix shows as the probe passing.
KNOWN_DEFECTS = {
    # limit_suite solves at s1 = 1e-2, s2 = 0.3, outside the region when
    # (q-1)/(p-1) < ln 0.01 / ln 0.3, and verify exits 2.
    "verify_pairs": [_verify_request(2.5, 1.3), _verify_request(5.0, 1.2),
                     # fd_suite's finite difference misses its 1e-5 tolerance
                     # (2.1e-5 at s1 = 8.6e-4), so verify exits 1.
                     _verify_request(4.023077022296251, 1.8959193885654708)],
    # At s1 = 4.9e-13 the root t = p/(p-1) - 3e-13 lies above solve_t's
    # bracket top p/(p-1) - 1e-12, so the first row reads no-root although
    # mpmath finds the root.
    "scan_rows": [_scan_request(5.0, 1.2, 0.3424)],
}

WORKLOADS = {
    w.name: w
    for w in (
        Workload("scan_rows", "row", scan_cycle, check_scan, trace_cycles=3),
        Workload("hardy_samples", "sample", hardy_cycle, check_hardy, trace_cycles=8),
        Workload("verify_pairs", "pair", verify_cycle, check_verify, trace_cycles=2),
    )
}
