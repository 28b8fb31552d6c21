"""``verify``'s suites over a seeded spread of exponent pairs: their verdicts.

Run from the repository root (not collected by pytest):

    PYTHONPATH=src python tests/verify_sweep.py

It draws ``N_PAIRS`` pairs from ``random.Random(SEED)``: for each, p - 1
log-uniform in [1e-3, 1e3], then (q-1)/(p-1) log-uniform in [1e-3, 0.999].
Every suite of ``run_all_suites`` runs on each pair on its own, in process,
at grid ``GRID`` and tolerance ``TOL``, the CLI's default.  It prints one
line per suite, in ``run_all_suites``' order, with the counts of pairs where
the suite passes, fails a check, makes no check (which reads FAIL), or
raises a named error (a ``HardyConstError``); any other exception stops
the sweep.  The next line gives the same counts for ``run_all_suites`` as
the CLI runs it: a named error where any suite raises one, else pass or
fail.  Then comes one line per suite that fails on at most
``NAMED_PAIRS`` pairs, with those pairs and the first message of each, and
one line per suite and named error it raises, with the number of pairs
that raise it and the first of them: the pairs ``verify`` cannot check.

A change that must keep every verdict of ``verify`` prints the same lines
before and after.  It takes about 3 s of CPU.
"""

import math
import random

from hardyconst import Exponents
from hardyconst.errors import HardyConstError
from hardyconst.verify import (
    endgame_suite,
    equal_omega_suite,
    fd_suite,
    inequality_star_suite,
    inverse_suite,
    limit_suite,
    sign_suite,
)

SEED, N_PAIRS = 35, 300
GRID, TOL = 10, 1e-8
#: a suite that fails on at most this many pairs has them named
NAMED_PAIRS = 3
#: name and run of every suite, in ``run_all_suites``' order
SUITES = {
    "inverse_suite": lambda e: inverse_suite(e),
    "equal_omega_suite": lambda e: equal_omega_suite(e, GRID),
    "sign_suite": lambda e: sign_suite(e, GRID),
    "inequality_star_suite": lambda e: inequality_star_suite(e),
    "endgame_suite": lambda e: endgame_suite(e),
    "fd_suite": lambda e: fd_suite(e, GRID, TOL),
    "limit_suite": lambda e: limit_suite(e),
}
VERDICTS = ("pass", "fail", "no_check", "named_error")


def spread(n: int, seed: int) -> list[Exponents]:
    """The n seeded pairs of the module docstring."""
    rng = random.Random(seed)
    pairs = []
    for _ in range(n):
        pm1 = 10.0 ** rng.uniform(-3.0, 3.0)
        frac = 10.0 ** rng.uniform(-3.0, math.log10(0.999))
        pairs.append(Exponents(1.0 + pm1, 1.0 + frac * pm1))
    return pairs


def verdict(run, e: Exponents) -> tuple[str, str]:
    """One suite's verdict on e, with its first failure or error message."""
    try:
        res = run(e)
    except HardyConstError as exc:
        return "named_error", f"{type(exc).name}: {exc}"
    if res.passed:
        return "pass", ""
    return ("fail", res.failures[0]) if res.checks else ("no_check", "")


def main() -> None:
    tally = {name: dict.fromkeys(VERDICTS, 0) for name in [*SUITES, "run_all_suites"]}
    failed = {name: [] for name in SUITES}
    raised = {name: {} for name in SUITES}
    for e in spread(N_PAIRS, SEED):
        got = {name: verdict(run, e) for name, run in SUITES.items()}
        for name, (v, message) in got.items():
            tally[name][v] += 1
            if v == "fail":
                failed[name].append(f"({e.p!r}, {e.q!r}): {message}")
            elif v == "named_error":
                raised[name].setdefault(message.split(":")[0], []).append(f"({e.p!r}, {e.q!r})")
        kinds = {v for v, _ in got.values()}
        overall = "named_error" if "named_error" in kinds else (
            "pass" if kinds == {"pass"} else "fail"
        )
        tally["run_all_suites"][overall] += 1
    for name, counts in tally.items():
        print(f"{name}: " + " ".join(f"{k} {v}" for k, v in counts.items()))
    for name, pairs in failed.items():
        if 0 < len(pairs) <= NAMED_PAIRS:
            print(f"{name} fails on " + "; ".join(pairs))
    for name, kinds in raised.items():
        for kind, pairs in kinds.items():
            print(f"{name} raises {kind} on {len(pairs)} pairs, first {pairs[0]}")


if __name__ == "__main__":
    main()
