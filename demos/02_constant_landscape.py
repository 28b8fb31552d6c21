"""The admissible region, its curves, and the constant t(s1, s2) on it.

The region for (s1, s2) sits above the lower curve s2 = s1^((q-1)/(p-1));
the constant lives in (1, p/(p-1)], equals omega_p(s1) exactly on the
equal-omega curve s2 = H_q(omega_p(s1)), tends to p/(p-1) as s1 -> 0, and
strictly decreases in s1.
"""

import numpy as np

from hardyconst import (
    Exponents,
    ParamPoint,
    eq_omega_curve,
    has_root,
    in_domain,
    lower_curve,
    omega,
    solve_t,
    threshold,
)
from hardyconst.errors import NoRootError

e = Exponents(2.0, 1.5)
print(f"Exponents p = {e.p}, q = {e.q}: the constant ranges over (1, {e.p_conj}].")
print(f"Threshold H_q(p/(p-1)) = {threshold(e):.15f}\n")

print("The two curves at a few abscissae (lower < equal-omega < 1):")
for s1 in (0.1, 0.3, 0.5, 0.7, 0.9):
    print(f"  s1 = {s1}: lower = {lower_curve(e, s1):.6f}, "
          f"equal-omega = {eq_omega_curve(e, s1):.6f}")

print("\nMembership of a few points:")
for s1, s2 in ((0.75, 0.9185586535436918), (0.25, 0.5), (0.81, 0.5)):
    print(f"  ({s1}, {s2}): {in_domain(e, ParamPoint(s1, s2)).value}")

print("\nOn the equal-omega curve the solve reproduces omega_p(s1) exactly:")
for s1 in (0.2, 0.5, 0.75, 0.9):
    s2 = eq_omega_curve(e, s1)
    sol = solve_t(e, ParamPoint(s1, s2))
    print(f"  s1 = {s1}: t = {sol.t:.12f}, omega_p(s1) = {omega(e.p, s1):.12f}, "
          f"tau - s2 = {sol.tau - s2:+.2e}")

print("\nFixing s2 = 0.92 and walking s1 upward, t strictly decreases:")
for s1 in np.linspace(0.05, 0.8, 6):
    sol = solve_t(e, ParamPoint(float(s1), 0.92))
    print(f"  s1 = {s1:.3f}: t = {sol.t:.12f}  (residual {sol.residual:+.1e})")

print("\nAs s1 -> 0 the constant climbs to p/(p-1) = 2:")
for s1 in (1e-2, 1e-4, 1e-6, 1e-8):
    print(f"  s1 = {s1:.0e}: t = {solve_t(e, ParamPoint(s1, 0.5)).t:.12f}")

print("\nIn the no-root band along the lower curve at large s2 the root would")
print("need tau >= 1: has_root is false there and solve_t raises NoRootError:")
e3 = Exponents(3.0, 2.0)
beyond = ParamPoint(0.98 * 0.85**2, 0.85)
print(f"  in_domain: {in_domain(e3, beyond).value}, has_root: {has_root(e3, beyond)}")
try:
    solve_t(e3, beyond)
except NoRootError as exc:
    print(f"  NoRootError: {exc}")
