"""omega's error in ulp against a 40-digit bisection, per exponent and band.

Run from the repository root (not collected by pytest):

    PYTHONPATH=src python tests/omega_ulps.py [--points N] [--flat N]

For each r in ``R_SWEEP`` it draws seeded s in two bands: uniform s in
[0, 0.9] (``--points``, 5,000 by default), and the flat band, 1 - s
log-uniform in [1e-4, 1e-1] (``--flat``, 250), where H_r is flat near its
root and a narrow bracket around omega's estimate may fail to bracket s.
The reference root comes from ``reference_omega``: bisection on [1, r'] at
40 digits for the exact float s.  The sign test is that of s - H_r(z),
which is the sign of sqrt(1 - H_r(z)) - sqrt(1 - s), so it keeps no
cancellation near z = 1 that the working precision does not cover.  Each
line prints the max, the 99.9th percentile and the mean of
|omega(r, s) - z| / ulp(z), and the points beyond 2 ulp.
"""

import argparse
import math

import mpmath as mp
import numpy as np

from hardyconst import omega

R_SWEEP = (1.05, 1.2, 1.5, 2.0, 2.5, 3.0, 5.0, 20.0, 100.0)
#: the two bands: (name, seed offset, s drawn from a generator and a count)
BANDS = (
    ("s<=0.9", 0, lambda rng, n: rng.uniform(0.0, 0.9, n)),
    ("1-s in [1e-4,1e-1]", 1, lambda rng, n: 1.0 - 10.0 ** rng.uniform(-4.0, -1.0, n)),
)


def reference_omega(r: float, s: float) -> mp.mpf:
    """omega_r(s) for the exact floats r and s, by bisection on [1, r'] at 40
    digits to a bracket below 1e-32 r' wide."""
    with mp.workdps(40):
        r_, s_ = mp.mpf(r), mp.mpf(s)
        lo, hi = mp.mpf(1), r_ / (r_ - 1)
        tol = hi * mp.mpf(10) ** -32
        while hi - lo > tol:
            mid = (lo + hi) / 2
            if mid ** (r_ - 1) * (r_ - (r_ - 1) * mid) > s_:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2


def ulp_errors(r: float, s: np.ndarray) -> np.ndarray:
    """|omega(r, s) - omega_r(s)| in ulp of the reference root, per s."""
    out = []
    for x in s.tolist():
        z = reference_omega(r, x)
        out.append(float(abs(mp.mpf(omega(r, x)) - z)) / math.ulp(float(z)))
    return np.array(out)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--points", type=int, default=5000, help="s per r in s <= 0.9")
    ap.add_argument("--flat", type=int, default=250, help="s per r in the flat band")
    args = ap.parse_args()
    print("band r max p99.9 mean beyond_2ulp")
    for name, offset, draw in BANDS:
        n = args.points if offset == 0 else args.flat
        for i, r in enumerate(R_SWEEP):
            err = ulp_errors(r, draw(np.random.default_rng([i, offset]), n))
            print(
                f"{name} {r:g} {err.max():.2f} {np.quantile(err, 0.999):.2f} "
                f"{err.mean():.3f} {np.count_nonzero(err > 2.0)}"
            )


if __name__ == "__main__":
    main()
