"""Command-line front end: solve, scan, verify and hardy subcommands.

All numeric output is CSV with the fixed header below, reals serialized
with 17 significant digits (``format(x, ".17g")``), so reruns with identical
configuration are byte-identical.  ``solve`` and ``scan`` share one row
formatter, ``_ok_row``; ``scan`` formats "p,q," once per request and ",s2,"
once per s2, so a row formats only its own seven floats.  Each command
loads only the modules it runs: ``solve`` and ``scan`` need ``errors``,
``special``, ``domain`` and ``solver``, and no numpy (``scan``'s grid is
``domain._linspace``); ``hardy`` imports ``hardy``, and ``verify`` imports
``verify`` and with it ``hardy``, ``asymptotics`` and ``lanes``, each with
numpy, when it runs; no command loads ``sensitivity``.  ``hardy`` runs its
quadrature once per chunk of samples (``hardy._verified_samples``) and
prints each sample's line as its chunk comes out; on an error it prints the
lines of the samples before the failing one, exactly as checking one sample
at a time would.
Diagnostics go to stderr as "error: <name>: <detail>".

Exit codes: 0 all checks pass, 1 a mathematical invariant failed,
2 usage or domain error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import math
import sys
from collections.abc import Sequence
from functools import cache

from .domain import ParamPoint, _linspace
from .errors import (
    DomainError,
    HardyConstError,
    InfeasibleTauError,
    NoRootError,
    OutsideDomainError,
)
from .solver import sign_factors, solve_t
from .special import Exponents

CSV_HEADER = "p,q,s1,s2,t,tau,gamma,delta,dt_ds1,residual,status"

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_USAGE = 2
EXIT_IO = 3

_SAMPLE_KAPPAS = (0.5, 1.0, 3.0)


def _ok_row(e: Exponents, pt: ParamPoint, head: str, mid: str) -> str:
    """The CSV row of a solved point, given head = "p,q," and mid = ",s2,"."""
    sol = solve_t(e, pt)
    gamma, delta, _ = sign_factors(e, pt.s1, pt.s2, sol.t, sol.u, sol.alpha, math.pow)
    return (
        f"{head}{pt.s1:.17g}{mid}{sol.t:.17g},{sol.tau:.17g},{gamma:.17g},{delta:.17g},"
        f"{sol.t * gamma / delta:.17g},{sol.residual:.17g},ok"
    )


def cmd_solve(args: argparse.Namespace) -> int:
    e = Exponents(args.p, args.q)
    pt = ParamPoint(args.s1, args.s2)
    # domain/solver errors propagate for the exit code
    row = _ok_row(e, pt, f"{e.p:.17g},{e.q:.17g},", f",{pt.s2:.17g},")
    print(CSV_HEADER)
    print(row)
    return EXIT_OK


def cmd_scan(args: argparse.Namespace) -> int:
    if not 0.0 < args.s1_min < args.s1_max < 1.0:
        raise DomainError(
            f"need 0 < s1-min < s1-max < 1, got {args.s1_min}, {args.s1_max}"
        )
    if args.n < 2:
        raise DomainError(f"need a grid of at least 2 points, got n={args.n}")
    e = Exponents(args.p, args.q)
    try:
        grid = _linspace(args.s1_min, args.s1_max, args.n)
    except (MemoryError, OverflowError):
        raise DomainError(f"an s1 grid of --n {args.n} points does not fit in memory") from None
    head = f"{e.p:.17g},{e.q:.17g},"
    lines = [CSV_HEADER]
    for s2 in args.s2:
        mid = f",{s2:.17g},"
        for s1 in grid:
            try:
                lines.append(_ok_row(e, ParamPoint(s1, s2), head, mid))
            except (OutsideDomainError, NoRootError, InfeasibleTauError) as exc:
                lines.append(f"{head}{s1:.17g}{mid}nan,nan,nan,nan,nan,nan,{exc.name}")
    text = "\n".join(lines) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="ascii", newline="") as fh:
            fh.write(text)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    """Run every suite, exit 1 if one fails; tol > 0 bounds the relative error
    of each s1 row's integral of dt/ds1 (``verify.fd_suite``)."""
    if args.grid < 10:
        raise DomainError(f"grid must be at least 10, got {args.grid}")
    if not (math.isfinite(args.tol) and args.tol > 0.0):
        raise DomainError(f"tol must be finite and positive, got {args.tol}")
    from .verify import run_all_suites
    e = Exponents(args.p, args.q)
    results = run_all_suites(e, grid_n=args.grid, tol=args.tol)
    for res in results:
        print(res.summary())
    n_pass = sum(res.passed for res in results)
    print(f"{n_pass}/{len(results)} suites passed")
    return EXIT_OK if n_pass == len(results) else EXIT_INVARIANT


def cmd_hardy(args: argparse.Namespace) -> int:
    """Check the inequality on sample i = sample_step(seed + i, ...), seed >= 0."""
    if args.samples < 1:
        raise DomainError(f"need at least 1 sample, got {args.samples}")
    if args.steps < 2:
        raise DomainError(f"need at least 2 steps, got {args.steps}")
    from .hardy import _verified_samples
    e = Exponents(args.p, args.q)
    draws = (
        (args.seed + i, _SAMPLE_KAPPAS[i % len(_SAMPLE_KAPPAS)]) for i in range(args.samples)
    )
    violations = 0
    max_ratio = -math.inf
    for i, rep in enumerate(_verified_samples(e, args.steps, draws)):
        normalized = rep.lhs / rep.rhs
        max_ratio = max(max_ratio, normalized)
        if not rep.passed:
            violations += 1
        print(f"sample {i}: ratio={normalized:.17g} {'ok' if rep.passed else 'VIOLATION'}")
    # every sample is drawn with the solve that accepted it; the field keeps the format
    print(
        f"samples={args.samples} violations={violations} "
        f"solver_failures=0 max_ratio={max_ratio:.17g}"
    )
    return EXIT_OK if violations == 0 else EXIT_INVARIANT


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: it costs about ten parses."""
    parser = argparse.ArgumentParser(
        prog="hardyconst",
        description=(
            "Sharp constant for the Hardy-type averaging inequality: "
            "solve it, scan it, and verify its claimed properties."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    pair = argparse.ArgumentParser(add_help=False)
    pair.add_argument("--p", type=float, required=True)
    pair.add_argument("--q", type=float, required=True)

    sp = sub.add_parser("solve", parents=[pair], help="solve the constant at one (s1, s2)")
    sp.add_argument("--s1", type=float, required=True)
    sp.add_argument("--s2", type=float, required=True)
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("scan", parents=[pair], help="scan an s1 grid at fixed s2 values to CSV")
    sp.add_argument("--s2", type=float, nargs="+", required=True)
    sp.add_argument("--s1-min", dest="s1_min", type=float, required=True)
    sp.add_argument("--s1-max", dest="s1_max", type=float, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--out", type=str, default=None, help="output path (default stdout)")
    sp.set_defaults(func=cmd_scan)

    sp = sub.add_parser("verify", parents=[pair], help="run all invariant suites")
    sp.add_argument("--grid", type=int, default=30)
    sp.add_argument("--tol", type=float, default=1e-8, help="relative bound on dt/ds1's integrals")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("hardy", parents=[pair], help="verify the inequality on random step functions")
    sp.add_argument("--samples", type=int, default=100)
    sp.add_argument("--steps", type=int, default=4)
    sp.add_argument("--seed", type=int, default=7, help="sample i uses seed + i, seed >= 0")
    sp.set_defaults(func=cmd_hardy)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except HardyConstError as exc:
        print(f"error: {type(exc).name}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: io-error: {exc}", file=sys.stderr)
        return EXIT_IO
