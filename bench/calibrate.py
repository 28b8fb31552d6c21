"""Machine-speed calibration for the benchmark's timings.

The hosts this benchmark runs on share their cores.  The speed of one
pure-Python thread drifts by up to 1.6x over minutes as neighbours come
and go, and CPU time drifts with it, so it cannot be removed by choosing a
clock.  Every timing is therefore expressed at a fixed reference speed: it
is multiplied by REFERENCE_SECONDS / c, where c is the mean CPU time of
this fixed kernel run right before and right after the measured work.  The
kernel does the same kind of work as the package (a safeguarded Newton
inversion of H_r through small helper functions, float powers, and
17-digit CSV formatting) but shares no code with it, so a change to the
package cannot move it.

Set-up time, an import, follows the host's file-system and loader load
more than its compute speed, which this kernel does not track.  It is
scaled instead by an import-shaped reference: the wall time the same fresh
interpreter takes, right after the timed import, to import
SETUP_REFERENCE_IMPORTS.  Neither hardyconst nor numpy imports these
standard-library modules; were the package to start importing one of them,
the reference would shrink and set-up would read higher.
"""

from __future__ import annotations

import time

#: kernel CPU time at the reference speed; only a unit scale (seconds at that speed)
REFERENCE_SECONDS = 2.0e-3
#: imported, and timed, after the measured import in each set-up interpreter
SETUP_REFERENCE_IMPORTS = (
    "asyncio, difflib, email.parser, http.client, sqlite3, tarfile, unittest, xml.dom.minidom"
)
#: their import time at the reference speed
SETUP_REFERENCE_SECONDS = 0.065
_EXPONENTS = (1.3, 2.0, 3.5)
_POINTS = 64


def _h(r: float, z: float) -> float:
    if not 1.0 <= z <= r / (r - 1.0):
        raise ValueError(z)
    return z ** (r - 1.0) * (r - (r - 1.0) * z)


def _dh(r: float, z: float) -> float:
    return r * (r - 1.0) * z ** (r - 2.0) * (1.0 - z)


def _invert(r: float, s: float) -> float:
    lo, hi = 1.0, r / (r - 1.0)
    z = 1.0 + (hi - 1.0) * (1.0 - s) ** 0.5
    for _ in range(100):
        f = _h(r, z) - s
        if f > 0.0:
            lo = z
        elif f < 0.0:
            hi = z
        else:
            return z
        z_new = z - f / _dh(r, z)
        if not lo < z_new < hi:
            z_new = 0.5 * (lo + hi)
        if abs(z_new - z) <= 1e-15 * z:
            return z_new
        z = z_new
    return z


def kernel() -> str:
    rows = []
    for r in _EXPONENTS:
        for i in range(1, _POINTS):
            s = i / _POINTS
            rows.append(f"{r:.17g},{s:.17g},{_invert(r, s):.17g}")
    return "\n".join(rows)


def kernel_seconds(reps: int = 1) -> float:
    """Median CPU time of reps kernel runs."""
    times = []
    for _ in range(reps):
        t0 = time.process_time()
        kernel()
        times.append(time.process_time() - t0)
    return sorted(times)[reps // 2]
