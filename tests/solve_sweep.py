"""A 42,000-point sweep of ``solve_t`` and ``solve_lanes``: verdicts and bits.

Run from the repository root (not collected by pytest):

    PYTHONPATH=src python tests/solve_sweep.py

For each of 12 pairs, ``test_bit_equivalence.PAIRS`` plus (10, 9) and
(1.2, 1.1), it draws 3,500 seeded points: 2,500 as
``test_bit_equivalence._points`` draws them, and 1,000 more with 1 - s2
log-uniform in [1e-16, 1.2e-10] and s1 drawn against the lower curve as
``_points`` draws it.  Each pair's points are solved in order of s2, so that
``solve_t`` keeps alpha(s2) cached as it does along a row.  It prints four
lines:

- the verdict tally over all points: ok, outside (OutsideDomainError) and
  no root (NoRootError);
- one sha256 over each point's verdict and the ``.hex()`` of all seven
  ``BellmanSolution`` fields;
- the count of points where ``solve_lanes`` on the pair's points inside
  the region differs from ``solve_t``, in verdict or in the bits of t, u
  or alpha, plus the pairs where ``solve_lanes`` on all of the pair's
  points does not raise the first OutsideDomainError that ``solve_t``
  raises, message and all;
- one sha256 over the ``.hex()`` of ``omega(r, s)`` for every exponent r of
  the pairs, on 2,000 seeded s per exponent: 1,000 uniform on [0, 1] and
  1,000 with 1 - s log-uniform in [1e-16, 1e-1]; beside it, the count of s
  where ``_omega_lanes`` on the exponent's array differs from ``omega``.

A change that must keep every float prints the same four lines before and
after, with 0 mismatches.  It takes about 2.2 s of CPU.
"""

import hashlib
import math

import numpy as np
from test_bit_equivalence import FIELDS, PAIRS, SOLUTION_FIELDS, _points

from hardyconst import Exponents, ParamPoint, omega, solve_t
from hardyconst.errors import NoRootError, OutsideDomainError
from hardyconst.lanes import _omega_lanes
from hardyconst.solver import solve_lanes

SWEEP_PAIRS = PAIRS + [(10.0, 9.0), (1.2, 1.1)]
#: points per pair: drawn as ``_points`` draws them, and with s2 next to 1
N_POINTS, N_NEAR_ONE = 2500, 1000
#: the near-one band of 1 - s2, log-uniform between these
NEAR_ONE = (1e-16, 1.2e-10)
#: omega's targets per exponent: uniform, and with 1 - s log-uniform in
#: ``OMEGA_NEAR_ONE``
N_OMEGA_UNIFORM, N_OMEGA_NEAR_ONE = 1000, 1000
OMEGA_NEAR_ONE = (1e-16, 1e-1)


def _near_one_points(e: Exponents, n: int, seed: int) -> list[ParamPoint]:
    """n points with 1 - s2 log-uniform in ``NEAR_ONE``, s1 as ``_points``
    draws it below the lower-curve abscissa."""
    rng = np.random.default_rng(seed)
    lo, hi = (math.log10(x) for x in NEAR_ONE)
    pts = []
    for i in range(n):
        s2 = 1.0 - 10.0 ** float(rng.uniform(lo, hi))
        top = s2 ** ((e.p - 1.0) / (e.q - 1.0))
        frac = 10.0 ** rng.uniform(-9.0, 0.0) if i % 2 else rng.uniform(0.0, 1.05)
        pts.append(ParamPoint(float(min(max(top * frac, 1e-300), 0.999999)), s2))
    return pts


def main() -> None:
    tally = {"ok": 0, "outside": 0, "no_root": 0}
    digest = hashlib.sha256()
    mismatches = 0
    for i, pair in enumerate(SWEEP_PAIRS):
        e = Exponents(*pair)
        pts = _points(e, N_POINTS, i) + _near_one_points(e, N_NEAR_ONE, 1000 + i)
        pts.sort(key=lambda pt: (pt.s2, pt.s1))
        verdicts, sols, first = [], [], None
        for pt in pts:
            try:
                sol, verdict = solve_t(e, pt), "ok"
            except OutsideDomainError as exc:
                sol, verdict, first = None, "outside", first or str(exc)
            except NoRootError:
                sol, verdict = None, "no_root"
            tally[verdict] += 1
            verdicts.append(verdict)
            sols.append(sol)
            fields = [getattr(sol, f).hex() for f in SOLUTION_FIELDS] if sol else []
            digest.update(" ".join([verdict, *fields, "\n"]).encode())
        s1, s2 = np.array([pt.s1 for pt in pts]), np.array([pt.s2 for pt in pts])
        try:
            solve_lanes(e, s1, s2)
            raised = None
        except OutsideDomainError as exc:
            raised = str(exc)
        mismatches += raised != first
        inside = np.array([v != "outside" for v in verdicts])
        lanes = solve_lanes(e, s1[inside], s2[inside])
        pairs = [(v, sol) for v, sol in zip(verdicts, sols) if v != "outside"]
        for j, (verdict, sol) in enumerate(pairs):
            lane = "ok" if lanes.ok[j] else "no_root"
            got = [float(getattr(lanes, f)[j]).hex() for f in FIELDS] if lanes.ok[j] else []
            want = [getattr(sol, f).hex() for f in FIELDS] if sol else []
            mismatches += lane != verdict or got != want
    print("verdicts: " + " ".join(f"{k} {v}" for k, v in tally.items()))
    print(f"sha256: {digest.hexdigest()}")
    print(f"solve_lanes mismatches: {mismatches}")
    print(_omega_sweep())


def _omega_sweep() -> str:
    """The fourth line: omega's digest over every exponent of the pairs, and
    the ``_omega_lanes`` mismatches on the same targets."""
    digest = hashlib.sha256()
    mismatches = 0
    lo, hi = (math.log10(x) for x in OMEGA_NEAR_ONE)
    for i, r in enumerate(sorted({x for pair in SWEEP_PAIRS for x in pair})):
        rng = np.random.default_rng(2000 + i)
        s = np.concatenate([
            rng.uniform(0.0, 1.0, N_OMEGA_UNIFORM),
            1.0 - 10.0 ** rng.uniform(lo, hi, N_OMEGA_NEAR_ONE),
        ])
        z = [omega(r, x) for x in s.tolist()]
        digest.update(" ".join([*(x.hex() for x in z), "\n"]).encode())
        mismatches += sum(a.hex() != b.hex() for a, b in zip(_omega_lanes(r, s).tolist(), z))
    return f"omega sha256: {digest.hexdigest()} _omega_lanes mismatches: {mismatches}"


if __name__ == "__main__":
    main()
