#!/usr/bin/env python3
"""Diagnostics tour: initial-data checks, the energy report, the budget
between free-energy decay and the scheme's own dissipation, the second-moment
balance along a run, and the finite stationarity window of the threshold
profile (a saddle of the flow).

Run:  python demos/06_energy_budget_and_stationarity.py   (under ten seconds)
"""

import json
from dataclasses import asdict

import numpy as np

from aggdiff import (
    ModelParams,
    RadialGrid,
    SimConfig,
    build_kernel,
    compute_thresholds,
    derive_exponents,
    energy_report,
    field_from_function,
    hypothesis_check,
    lp_norm,
    mass,
    run,
    solve_extremal,
    support_radius,
    threshold_field,
    virial_check,
)

exps = derive_exponents(ModelParams(3, 1.1, 1.2))

print("--- a smooth subcritical blob ---")
grid = RadialGrid(512, 8.0)
kernel = build_kernel(grid, exps.lam)
u0 = field_from_function(grid, lambda r: 0.5 * np.exp(-(r**2)))

rep = hypothesis_check(u0, exps)
print(f"initial data: mass {rep.mass:.4f}, sup {rep.linf:.4f}, "
      f"second moment {rep.second_moment:.4f}, |d_r u^m|_2 {rep.grad_um_l2:.4f}")
print(f"support clear of the domain boundary: {rep.support_clear_of_boundary}")

print()
print("energy report (every scalar functional of u0, as JSON):")
print(json.dumps(asdict(energy_report(u0, exps, kernel)), indent=2))

lhs, rhs = virial_check(u0, exps, kernel)
print(f"\nsecond-moment balance at t = 0: operator {lhs:+.4f} vs identity {rhs:+.4f} "
      f"({abs(lhs - rhs)/abs(rhs):.2%} apart)")

trace = run(u0, SimConfig(t_end=0.3, record_every=10), kernel, exps)
drop = trace.F[0] - trace.F[-1]
budget = np.trapezoid(trace.dissipation, trace.t)
print(f"\nrun to t = {trace.t[-1]:.2f}: {trace.outcome.value}")
print(f"  free energy dropped by {drop:.5f}")
print(f"  time-integrated dissipation  {budget:.5f}  "
      f"(they differ by {abs(drop-budget)/drop:.1e} of the drop: the time-step error)")
print(f"  mass drift {abs(trace.mass[-1]-trace.mass[0])/trace.mass[0]:.2e}, "
      f"energy monotone: {bool(np.all(np.diff(trace.F) <= 1e-6*abs(trace.F[0])))}")

print()
print("--- the threshold profile: a stationary saddle ---")
profile = solve_extremal(exps, RadialGrid(512, 4.0))
thr = compute_thresholds(profile, exps)
wt = threshold_field(profile, exps)
kernel_wt = build_kernel(wt.grid, exps.lam)
R = support_radius(wt)
t_char = R**2 * (exps.m - 1.0) / (2 * exps.d * exps.m
                                  * lp_norm(wt, np.inf) ** (exps.m - 1.0))
print(f"support-diffusion time of the profile: {t_char:.2f}")
print("evolving the exact threshold member; per-checkpoint drift from u0:")
u, t = wt, 0.0
for k in (1.0, 3.0, 5.0):
    tr = run(u, SimConfig(t_end=k * t_char - t, record_every=10**9), kernel_wt, exps)
    u, t = tr.final, k * t_char
    drift = np.sum(np.abs(u.values - wt.values) * wt.grid.volumes) / mass(wt)
    prod = mass(u) ** exps.a * lp_norm(u, exps.m) ** exps.m
    print(f"  t = {k:.0f} diffusion times: |u - u0|_1 / mass = {drift:.2e}, "
          f"product/x_star = {prod/thr.x_star:.6f}")
print("discretization error feeds the unstable mode, so the profile holds")
print("its ground for a finite window before the dichotomy takes over.")
