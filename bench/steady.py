"""Steadiness self-check: run the benchmark repeatedly and judge its spread.

    python3 bench/steady.py

For each workload in BENCHMARK.json, runs ``bench/run.py --trace 0`` for
BENCHMARK.json's run_seconds once per seed 1..RUNS in each of SETS sets,
interleaving the sets.  For every end-to-end metric it reports each set's
median and its spread, the distance between the first and third quartile
as a share of the median, against the metric's bound in BENCHMARK.json:
the spread must stay within the bound and the later sets' medians must not
be worse than the first set's by more than the bound.  It then makes two
traced runs on seed 1 and checks that every per-layer count repeats
exactly (times, in ms or us, and the tracing overhead are not counts).
Exits 0 iff every check holds.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
TIME_UNITS = ("ms", "us")
RUNS = 10
SETS = 2


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{' '.join(cmd)} reported a failure:\n{proc.stdout}")
    return result


def spread(values: list[float]) -> tuple[float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def is_count(metric: dict) -> bool:
    return metric["unit"] not in TIME_UNITS and metric["name"] != "trace.overhead_frac"


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]

    ok = True
    report: dict[str, dict] = {}
    for wl in (w["name"] for w in spec["workloads"]):
        values = {m["name"]: [[] for _ in range(SETS)] for m in spec["end_to_end"]}
        for seed in range(1, RUNS + 1):
            order = range(SETS) if seed % 2 else reversed(range(SETS))
            for s in order:
                res = run(wl, seed, seconds, 0)
                print(f"{wl} seed {seed} set {s}: " + " ".join(
                    f"{k}={v['value']:.5g}" for k, v in res["metrics"].items()), flush=True)
                for name, per_set in values.items():
                    per_set[s].append(res["metrics"][name]["value"])
        report[wl] = {}
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            sign = 1.0 if m["better"] == "lower" else -1.0
            stats = [spread(v) for v in values[name]]
            first = stats[0][0]
            worst_drift = max(sign * (med - first) / first for med, _ in stats)
            spread_ok = all(sp <= bound for _, sp in stats)
            drift_ok = worst_drift <= bound
            ok = ok and spread_ok and drift_ok
            report[wl][name] = {"medians": [med for med, _ in stats],
                                "spreads": [sp for _, sp in stats],
                                "bound": bound, "worst_drift": worst_drift}
            print(f"{wl:14s} {name:16s} medians " + " ".join(f"{med:10.5g}" for med, _ in stats)
                  + "  spreads " + " ".join(f"{sp:6.3f}" for _, sp in stats)
                  + f"  bound {bound:.2f} (third {bound / 3:.3f})  drift {worst_drift:+.3f}"
                  + ("" if spread_ok and drift_ok else "  NOT STEADY"))
        traced = [run(wl, 1, seconds, 1)["metrics"] for _ in range(2)]
        differ = [m["name"] for m in spec["per_layer"]
                  if is_count(m) and traced[0][m["name"]]["value"] != traced[1][m["name"]]["value"]]
        ok = ok and not differ
        report[wl]["per_layer_counts_repeat"] = not differ
        print(f"{wl:14s} per-layer counts repeat exactly: "
              f"{'yes' if not differ else 'NO: ' + ', '.join(differ)}")
    print(json.dumps({"steady": ok, "workloads": report}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
