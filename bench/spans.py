"""In-memory span tracing of ``hardyconst`` from outside the package.

``Tracer.install`` replaces each traced public function at every module
binding that holds it (``hardyconst.verify.solve_t``,
``hardyconst.solver.omega``, ``hardyconst.special.h_eval``, ...), so calls
between modules and within a module are both seen, and no file of the
package changes.  Spans (name, parent, start, end, raised error) are kept
in parallel lists and written out when the run ends.  The innermost
function, ``h_eval``, is only counted, per enclosing span: one ``h_eval``
call inside ``omega`` is one iteration.
"""

from __future__ import annotations

import importlib
import statistics
import time
from collections import Counter
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from pathlib import Path

#: (module, function) pairs that get a span; the span is named module.function
SPANNED = (
    ("cli", "main"),
    ("verify", "inverse_suite"),
    ("verify", "equal_omega_suite"),
    ("verify", "sign_suite"),
    ("verify", "inequality_star_suite"),
    ("verify", "endgame_suite"),
    ("verify", "fd_suite"),
    ("verify", "limit_suite"),
    ("verify", "feasible_s1_grid"),
    ("hardy", "sample_step"),
    ("hardy", "verify_hardy"),
    ("hardy", "hardy_lhs"),
    ("hardy", "step_moments"),
    ("sensitivity", "dt_ds1"),
    ("sensitivity", "gamma_eval"),
    ("sensitivity", "delta_eval"),
    ("sensitivity", "lambda_eval"),
    ("asymptotics", "endgame_constants"),
    ("asymptotics", "big_f"),
    ("asymptotics", "big_f_deriv"),
    ("asymptotics", "big_g"),
    ("solver", "solve_t"),
    ("solver", "alpha_eval"),
    ("domain", "in_domain"),
    ("special", "omega"),
)
MODULES = ("cli", "verify", "hardy", "sensitivity", "asymptotics", "solver", "domain", "special")
SUITES = tuple(f for m, f in SPANNED if m == "verify" and f.endswith("_suite"))
PROBES = ("verify.feasible_s1_grid", "hardy.sample_step")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.errors: dict[int, str] = {}
        #: span id -> h_eval calls made directly inside that span
        self.h_evals: Counter[int] = Counter()
        self.skipped = 0
        self._stack = [-1]

    def _spanned(self, name: str, fn: Callable) -> Callable:
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        stack, errors, clock = self._stack, self.errors, time.perf_counter_ns
        suite = name.endswith("_suite")

        def wrapper(*args, **kwargs):
            sid = len(starts)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                errors[sid] = type(exc).__name__
                raise
            finally:
                ends[sid] = clock()
                stack.pop()
            if suite:
                self.skipped += result.skipped
            return result

        return wrapper

    def _counted(self, fn: Callable) -> Callable:
        stack, h_evals = self._stack, self.h_evals

        def wrapper(*args, **kwargs):
            h_evals[stack[-1]] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def install(self) -> Iterator[None]:
        """Wrap every binding of the traced functions; restore them on exit."""
        mods = {m: importlib.import_module(f"hardyconst.{m}") for m in MODULES}
        wrappers = {}
        for m, f in SPANNED:
            wrappers[id(getattr(mods[m], f))] = self._spanned(f"{m}.{f}", getattr(mods[m], f))
        # called too often to span
        wrappers[id(mods["special"].h_eval)] = self._counted(mods["special"].h_eval)
        saved = []
        for mod in mods.values():
            for attr, val in list(vars(mod).items()):
                if id(val) in wrappers:
                    saved.append((mod, attr, val))
                    setattr(mod, attr, wrappers[id(val)])
        try:
            yield
        finally:
            for mod, attr, val in saved:
                setattr(mod, attr, val)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="ascii") as fh:
            fh.write("id,parent,name,start_ns,end_ns,error,h_eval_calls\n")
            for sid, name in enumerate(self.names):
                fh.write(
                    f"{sid},{self.parents[sid]},{name},{self.starts[sid]},"
                    f"{self.ends[sid]},{self.errors.get(sid, '')},"
                    f"{self.h_evals.get(sid, 0)}\n"
                )

    def metrics(self, items: int, scale: float) -> dict[str, float]:
        """Per-layer metrics over all recorded spans.

        ``items`` is the base of the per-item ratios; times are multiplied by
        ``scale`` to bring them to the reference machine speed (calibrate.py).
        """
        names, parents = self.names, self.parents
        dur = [e - s for s, e in zip(self.starts, self.ends)]
        child = [0] * len(names)
        for sid, par in enumerate(parents):
            if par >= 0:
                child[par] += dur[sid]
        calls: Counter[str] = Counter(names)
        self_ns: Counter[str] = Counter()
        for sid, name in enumerate(names):
            self_ns[name] += dur[sid] - child[sid]

        def self_ms(*span_names: str) -> float:
            return scale * sum(self_ns[n] for n in span_names) / 1e6

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        def under(name: str, parent_names: tuple[str, ...]) -> int:
            return sum(
                1
                for sid, n in enumerate(names)
                if n == name and parents[sid] >= 0 and names[parents[sid]] in parent_names
            )

        solves = [sid for sid, n in enumerate(names) if n == "solver.solve_t"]
        solve_us = sorted(scale * dur[sid] / 1e3 for sid in solves)
        omegas = [sid for sid, n in enumerate(names) if n == "special.omega"]
        iters = [self.h_evals.get(sid, 0) for sid in omegas]
        in_solve = 0
        for sid in omegas:
            a = parents[sid]
            while a >= 0 and names[a] != "solver.solve_t":
                a = parents[a]
            in_solve += a >= 0
        errors = Counter(self.errors[sid] for sid in solves if sid in self.errors)
        n_samples = calls["hardy.sample_step"]
        n_dt = calls["sensitivity.dt_ds1"]
        out = {
            "special.omega.calls": calls["special.omega"],
            "special.omega.self_ms": self_ms("special.omega"),
            "special.omega.iters_per_call_mean": ratio(sum(iters), len(iters)),
            "special.omega.iters_per_call_max": max(iters, default=0),
            "solver.solve_t.calls": len(solves),
            "solver.solve_t.self_ms": self_ms("solver.solve_t"),
            "solver.solve_t.p50_us": statistics.median(solve_us) if solve_us else 0.0,
            "solver.solve_t.tail_us": tail(solve_us)[0],
            "solver.omega_calls_per_solve": ratio(in_solve, len(solves)),
            "solver.solve_t.no_root": errors["NoRootError"],
            "solver.solve_t.outside": errors["OutsideDomainError"],
            "solver.solve_t.useful_frac": ratio(
                len(solves) - under("solver.solve_t", PROBES), len(solves)
            ),
            "solver.alpha_eval.calls_per_item": ratio(calls["solver.alpha_eval"], items),
            "domain.in_domain.calls": calls["domain.in_domain"],
            "domain.in_domain.self_ms": self_ms("domain.in_domain"),
            "sensitivity.dt_ds1.calls": n_dt,
            "sensitivity.solves_per_dt_ds1": ratio(
                under("solver.solve_t", ("sensitivity.dt_ds1",)), n_dt
            ),
            "sensitivity.self_ms": self_ms(*(n for n in calls if n.startswith("sensitivity."))),
            "asymptotics.self_ms": self_ms(*(n for n in calls if n.startswith("asymptotics."))),
            "hardy.solves_per_sample": ratio(
                under("solver.solve_t", ("hardy.sample_step", "hardy.verify_hardy")), n_samples
            ),
            "hardy.draws_per_sample": ratio(
                under("hardy.step_moments", ("hardy.sample_step",)), n_samples
            ),
            "hardy.hardy_lhs.self_ms": self_ms("hardy.hardy_lhs"),
            "hardy.sample_step.self_ms": self_ms("hardy.sample_step"),
        }
        for suite in SUITES:
            out[f"verify.{suite}.self_ms"] = self_ms(f"verify.{suite}")
        out["verify.feasible_s1_grid.probe_solves"] = under(
            "solver.solve_t", ("verify.feasible_s1_grid",)
        )
        out["verify.skipped"] = self.skipped
        out["cli.self_ms"] = self_ms("cli.main")
        out["trace.spans"] = len(names)
        out["trace.items"] = items
        return out


def tail(sorted_values: list[float], beyond: int = 10) -> tuple[float, float, int]:
    """(value, percentile, count beyond) at the highest percentile with >= beyond samples above.

    With fewer than beyond + 1 samples the maximum is returned.
    """
    n = len(sorted_values)
    if n == 0:
        return 0.0, 0.0, 0
    i = n - 1 - beyond if n > beyond else n - 1
    return sorted_values[i], 100.0 * (i + 1) / n, n - 1 - i
