"""hardyconst benchmark: one closed-loop client driving ``hardyconst.cli.main``.

    python3 bench/run.py --workload scan_rows --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  One process, one thread, one client: each request is sent only
after the previous one has returned.  Requests are generated from
``--seed`` a cycle at a time (workloads.py) until ``--seconds`` have
passed, finishing the cycle in progress, and every output is checked.

A request is timed in CPU time of the process: for these single-threaded
calls without I/O that is their wall time less the stalls the host
imposes (20-40 ms, about once a second on a shared 2-vCPU host).  Set-up
is timed in wall time.  Both are reported at a fixed reference machine
speed (calibrate.py): each request is bracketed by runs of a calibration
kernel and scaled by REFERENCE_SECONDS / mean kernel CPU time, and each
set-up is scaled by SETUP_REFERENCE_SECONDS / the time the same
interpreter then takes to import a fixed set of standard-library modules.
Raw figures, wall-clock ones included, and the machine's speed are
printed alongside.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs a fixed,
seed-determined request list twice, untraced and then traced (spans.py),
prints the per-layer metrics and writes the spans to
``bench/out/trace_<workload>.csv``.  The last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# One thread, as the load model says; this also keeps idle BLAS worker
# threads from adding spin-wait CPU time to the measured process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

from calibrate import (  # noqa: E402
    REFERENCE_SECONDS,
    SETUP_REFERENCE_IMPORTS,
    SETUP_REFERENCE_SECONDS,
    kernel_seconds,
)
from spans import Tracer, tail  # noqa: E402
from workloads import KNOWN_DEFECTS, WORKLOADS, Point  # noqa: E402

#: fresh interpreters timed for setup_s; the median is reported
SETUP_RUNS = 15
#: run in each fresh interpreter: the timed import and parser build, then
#: the timed reference import; prints both times in seconds
SETUP_CODE = """
import sys, time
sys.path.insert(0, {src!r})
t0 = time.perf_counter()
import hardyconst.cli
hardyconst.cli._build_parser()
t1 = time.perf_counter()
import {reference}
t2 = time.perf_counter()
print(t1 - t0, t2 - t1)
"""
#: ok scan rows per run checked against the mpmath oracle, a seeded uniform
#: sample of all the run's ok rows
ORACLE_POINTS = 6
ORACLE_REL_TOL = 1e-12


def to_reference(seconds: float, kernel_before: float, kernel_after: float) -> float:
    """A time scaled to the reference machine speed (calibrate.py)."""
    return seconds * 2.0 * REFERENCE_SECONDS / (kernel_before + kernel_after)


def measure_setup() -> tuple[list[float], list[float]]:
    """Raw and reference-speed wall times of fresh interpreters that import
    hardyconst.cli and build its parser."""
    code = SETUP_CODE.format(src=str(SRC), reference=SETUP_REFERENCE_IMPORTS)
    raw, scaled = [], []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                              timeout=60, capture_output=True, text=True)
        seconds, reference = map(float, proc.stdout.split())
        raw.append(seconds)
        scaled.append(seconds * SETUP_REFERENCE_SECONDS / reference)
    return raw, scaled


def call(cli, argv: tuple[str, ...]) -> tuple[int | None, float, float, str]:
    """One request through cli.main: (exit code or None if it raised, wall
    seconds, CPU seconds, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejected the request
            rc = exc.code
        except Exception:  # a leaked exception is a failed request, not a crash
            rc = None
            traceback.print_exc()
        cpu, wall = time.process_time() - c0, time.perf_counter() - t0
    if rc is None:
        print(err.getvalue(), file=sys.stderr)
    return rc, wall, cpu, out.getvalue()


class Client:
    """Sends requests in a closed loop, checks each output and times each
    request at the reference speed, with a calibration kernel run between
    consecutive requests.  ``points`` is a uniform sample of the ok scan
    rows seen, kept by reservoir sampling (Algorithm R) so that it covers
    the whole run in bounded memory."""

    def __init__(self, cli, workload, seed: int) -> None:
        self.cli, self.workload = cli, workload
        self.attempted = self.failed = 0
        self.points: list[Point] = []
        self.rows_seen = 0
        self._pick = np.random.default_rng([seed, 1])
        self.problems: list[str] = []
        self.speeds: list[float] = []
        self._kernel = kernel_seconds()

    def send(self, req) -> tuple[float, float, float, int]:
        """(wall, CPU and reference-speed latency, items completed) of one request."""
        rc, wall, cpu, out = call(self.cli, req.argv)
        kernel = kernel_seconds()
        scaled = to_reference(cpu, self._kernel, kernel)
        self.speeds.append(cpu / scaled)
        self._kernel = kernel
        self.attempted += 1
        rows: list[Point] = []
        problem = self.workload.check(req, rc, out, rows)
        if problem is None:
            self._keep(rows)
            return wall, cpu, scaled, req.items
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append(f"{' '.join(req.argv)}: {problem}")
        return wall, cpu, scaled, 0

    def _keep(self, rows: list[Point]) -> None:
        for pt in rows:
            self.rows_seen += 1
            if len(self.points) < ORACLE_POINTS:
                self.points.append(pt)
            else:
                j = int(self._pick.integers(self.rows_seen))
                if j < ORACLE_POINTS:
                    self.points[j] = pt


def check_oracle(points: list[Point], rows_seen: int) -> tuple[bool, str]:
    from oracle import reference_t

    if not points:
        return False, "oracle: no ok scan rows to check"
    worst = 0.0
    for pt in points:
        try:
            t_ref = reference_t(pt.p, pt.q, pt.s1, pt.s2)
        except ValueError as exc:
            return False, f"oracle: no reference root at {pt}: {exc}"
        err = abs(pt.t - t_ref) / t_ref
        worst = max(worst, err)
        if not err <= ORACLE_REL_TOL:
            return False, f"oracle: t={pt.t} vs {t_ref} (rel err {err:.2e}) at {pt}"
    return True, (
        f"oracle: {len(points)} of {rows_seen} ok rows, a seeded sample, agree with "
        f"mpmath at 40 digits, s2 in [{min(pt.s2 for pt in points):.3f}, "
        f"{max(pt.s2 for pt in points):.3f}], max rel err {worst:.2e} "
        f"(tolerance {ORACLE_REL_TOL:g})"
    )


def timed_run(cli, wl, seed: int, seconds: float) -> dict:
    setup_raw, setup = measure_setup()
    rng = np.random.default_rng([seed, 0])
    client = Client(cli, wl, seed)
    rates, latencies, walls, cpus = [], [], [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        sent = [client.send(req) for req in wl.cycle(rng)]
        rates.append(sum(s[3] for s in sent) / sum(s[2] for s in sent))
        for wall, cpu, scaled, _ in sent:
            walls.append(wall)
            cpus.append(cpu)
            latencies.append(scaled)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    latencies.sort()
    tail_s, tail_pct, beyond = tail(latencies)
    n = len(latencies)
    metrics = {
        "setup_s": (statistics.median(setup), "s",
                    f"median of {SETUP_RUNS} fresh interpreters, raw "
                    f"{statistics.median(setup_raw):.4g} s; no warm-up, every request is timed"),
        "items_per_s": (statistics.median(rates), "1/s",
                        f"{wl.item}s per busy second, median of {len(rates)} cycles"),
        "request_p50_ms": (1e3 * statistics.median(latencies), "ms",
                           f"{n} requests; raw CPU {1e3 * statistics.median(cpus):.4g} ms, "
                           f"wall {1e3 * statistics.median(walls):.4g} ms"),
        "request_tail_ms": (1e3 * tail_s, "ms",
                            f"p{tail_pct:.1f}, {beyond} of {n} requests beyond it; raw CPU "
                            f"{1e3 * tail(sorted(cpus))[0]:.4g} ms, "
                            f"wall {1e3 * tail(sorted(walls))[0]:.4g} ms"),
        "peak_rss_mb": (peak_rss_mb, "MB", "ru_maxrss of the benchmark process"),
    }
    print(f"workload {wl.name} seed {seed}: closed loop, 1 client, 1 thread, "
          f"{len(rates)} cycles in {seconds:g} s; times at reference speed, this "
          f"machine ran at {1.0 / statistics.median(client.speeds):.3f}x it")
    for name, (value, unit, note) in metrics.items():
        print(f"{name} {value:.6g} {unit} ({note})")
    print(f"failed_frac {client.failed / client.attempted:.6g} ratio "
          f"({client.failed} of {client.attempted} requests failed)")
    correct = client.failed == 0
    if wl.name == "scan_rows":
        ok, msg = check_oracle(client.points, client.rows_seen)
        print(msg)
        correct = correct and ok
    for req in KNOWN_DEFECTS.get(wl.name, []):
        rc, _, _, out = call(cli, req.argv)
        problem = wl.check(req, rc, out, [])
        print(f"known defect probe (not counted): {' '.join(req.argv)}: "
              f"{'still fails: ' + problem if problem else 'passes now'}")
    for problem in client.problems:
        print(f"FAILED {problem}")
    return {
        "correct": correct,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }


def traced_run(cli, wl, seed: int, per_layer: list[dict]) -> dict:
    rng = np.random.default_rng([seed, 0])
    reqs = [req for _ in range(wl.trace_cycles) for req in wl.cycle(rng)]
    items = sum(req.items for req in reqs)
    client = Client(cli, wl, seed)
    untraced = sum(client.send(req)[2] for req in reqs)
    tracer = Tracer()
    with tracer.install():
        traced = sum(client.send(req)[2] for req in reqs)
    speed = statistics.median(client.speeds[len(reqs):])
    values = tracer.metrics(items, 1.0 / speed)
    values["trace.overhead_frac"] = traced / untraced - 1.0
    out_path = BENCH / "out" / f"trace_{wl.name}.csv"
    tracer.write(out_path)
    print(f"workload {wl.name} seed {seed}: {len(reqs)} requests, {items} {wl.item}s, "
          f"run untraced then traced; {len(tracer.names)} spans written to "
          f"{out_path.relative_to(ROOT)}; times at reference speed")
    metrics = {}
    for m in per_layer:
        value = values[m["name"]]
        print(f"{m['name']} {value:.6g} {m['unit']}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    for problem in client.problems:
        print(f"FAILED {problem}")
    return {
        "correct": client.failed == 0,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": metrics,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "hardyconst" / "cli.py").is_file():
        print(f"error: no hardyconst package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import hardyconst.cli as cli

    wl = WORKLOADS[args.workload]
    if args.trace:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        result = traced_run(cli, wl, args.seed, spec["per_layer"])
    else:
        result = timed_run(cli, wl, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
