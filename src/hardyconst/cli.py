"""Command-line front end: solve, scan, verify and hardy subcommands.

All numeric output is CSV with the fixed header below, reals serialized
with 17 significant digits, so reruns with identical configuration are
byte-identical.  Diagnostics go to stderr as "error: <name>: <detail>".

Exit codes: 0 all checks pass, 1 a mathematical invariant failed,
2 usage or domain error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cache

import numpy as np

from .domain import ParamPoint
from .errors import (
    DomainError,
    HardyConstError,
    InfeasibleTauError,
    NoRootError,
    OutsideDomainError,
)
from .hardy import sample_step, verify_hardy
from .sensitivity import delta_eval, gamma_eval
from .solver import solve_t
from .special import Exponents
from .verify import run_all_suites

CSV_HEADER = "p,q,s1,s2,t,tau,gamma,delta,dt_ds1,residual,status"

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_USAGE = 2
EXIT_IO = 3

_SAMPLE_KAPPAS = (0.5, 1.0, 3.0)


@dataclass(frozen=True)
class ScanConfig:
    """A validated scan request: an s1 grid crossed with fixed s2 values."""

    p: float
    q: float
    s2: tuple[float, ...]
    s1_min: float
    s1_max: float
    n: int
    output_path: str | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.s1_min < self.s1_max < 1.0:
            raise DomainError(
                f"need 0 < s1-min < s1-max < 1, got {self.s1_min}, {self.s1_max}"
            )
        if self.n < 2:
            raise DomainError(f"need a grid of at least 2 points, got n={self.n}")
        if not self.s2:
            raise DomainError("need at least one s2 value")


def _fmt(x: float) -> str:
    return format(x, ".17g")


def _ok_row(e: Exponents, pt: ParamPoint) -> str:
    sol = solve_t(e, pt)
    gamma = gamma_eval(e, pt, sol)
    delta = delta_eval(e, pt, sol)
    dt = sol.t * gamma / delta
    return (
        f"{_fmt(e.p)},{_fmt(e.q)},{_fmt(pt.s1)},{_fmt(pt.s2)},"
        f"{_fmt(sol.t)},{_fmt(sol.tau)},{_fmt(gamma)},{_fmt(delta)},"
        f"{_fmt(dt)},{_fmt(sol.residual)},ok"
    )


def _scan_row(e: Exponents, s1: float, s2: float) -> str:
    try:
        return _ok_row(e, ParamPoint(s1, s2))
    except (OutsideDomainError, NoRootError, InfeasibleTauError) as exc:
        nan = _fmt(math.nan)
        return (
            f"{_fmt(e.p)},{_fmt(e.q)},{_fmt(s1)},{_fmt(s2)},"
            f"{nan},{nan},{nan},{nan},{nan},{nan},{exc.name}"
        )


def cmd_solve(args: argparse.Namespace) -> int:
    e = Exponents(args.p, args.q)
    pt = ParamPoint(args.s1, args.s2)
    row = _ok_row(e, pt)  # domain/solver errors propagate for the exit code
    print(CSV_HEADER)
    print(row)
    return EXIT_OK


def cmd_scan(args: argparse.Namespace) -> int:
    cfg = ScanConfig(
        p=args.p,
        q=args.q,
        s2=tuple(args.s2),
        s1_min=args.s1_min,
        s1_max=args.s1_max,
        n=args.n,
        output_path=args.out,
    )
    e = Exponents(cfg.p, cfg.q)
    lines = [CSV_HEADER]
    for s2 in cfg.s2:
        for s1 in np.linspace(cfg.s1_min, cfg.s1_max, cfg.n):
            lines.append(_scan_row(e, float(s1), float(s2)))
    text = "\n".join(lines) + "\n"
    if cfg.output_path is None:
        sys.stdout.write(text)
    else:
        with open(cfg.output_path, "w", encoding="ascii", newline="") as fh:
            fh.write(text)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    if args.grid < 10:
        raise DomainError(f"grid must be at least 10, got {args.grid}")
    e = Exponents(args.p, args.q)
    results = run_all_suites(e, grid_n=args.grid, tol=args.tol)
    for res in results:
        print(res.summary())
    n_pass = sum(res.passed for res in results)
    print(f"{n_pass}/{len(results)} suites passed")
    return EXIT_OK if n_pass == len(results) else EXIT_INVARIANT


def cmd_hardy(args: argparse.Namespace) -> int:
    if args.samples < 1:
        raise DomainError(f"need at least 1 sample, got {args.samples}")
    if args.steps < 2:
        raise DomainError(f"need at least 2 steps, got {args.steps}")
    e = Exponents(args.p, args.q)
    violations = 0
    max_ratio = -math.inf
    for i in range(args.samples):
        kappa = _SAMPLE_KAPPAS[i % len(_SAMPLE_KAPPAS)]
        rep = verify_hardy(sample_step(args.seed + i, args.steps, kappa, e), e)
        normalized = rep.lhs / rep.rhs
        max_ratio = max(max_ratio, normalized)
        if not rep.passed:
            violations += 1
        print(f"sample {i}: ratio={_fmt(normalized)} {'ok' if rep.passed else 'VIOLATION'}")
    # sample_step returns only solvable samples; the field keeps the format
    print(
        f"samples={args.samples} violations={violations} "
        f"solver_failures=0 max_ratio={_fmt(max_ratio)}"
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

    sp = sub.add_parser("solve", help="solve the constant at one (s1, s2)")
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--q", type=float, required=True)
    sp.add_argument("--s1", type=float, required=True)
    sp.add_argument("--s2", type=float, required=True)
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("scan", help="scan an s1 grid at fixed s2 values to CSV")
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--q", type=float, required=True)
    sp.add_argument("--s2", type=float, nargs="+", required=True)
    sp.add_argument("--s1-min", dest="s1_min", type=float, required=True)
    sp.add_argument("--s1-max", dest="s1_max", type=float, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--out", type=str, default=None, help="output path (default stdout)")
    sp.set_defaults(func=cmd_scan)

    sp = sub.add_parser("verify", help="run all invariant suites")
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--q", type=float, required=True)
    sp.add_argument("--grid", type=int, default=30)
    sp.add_argument("--tol", type=float, default=1e-5)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("hardy", help="verify the inequality on random step functions")
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--q", type=float, required=True)
    sp.add_argument("--samples", type=int, default=100)
    sp.add_argument("--steps", type=int, default=4)
    sp.add_argument("--seed", type=int, default=7)
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
