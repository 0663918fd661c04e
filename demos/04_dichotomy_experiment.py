#!/usr/bin/env python3
"""The dichotomy in action: amplitudes 0.8x and 1.2x of the threshold profile
are classified first, then integrated -- the small one spreads forever, the
large one focuses until blow-up detection.

Run:  python demos/04_dichotomy_experiment.py        (a few seconds)
Writes:  trace_kappa_*.csv (current directory)
"""

import numpy as np

from aggdiff import (
    ModelParams,
    RadialGrid,
    SimConfig,
    agrees,
    barrier_check,
    build_kernel,
    classify,
    compute_thresholds,
    derive_exponents,
    lp_norm,
    run,
    solve_extremal,
    support_radius,
    threshold_field,
    trace_to_csv,
)

exps = derive_exponents(ModelParams(3, 1.1, 1.2))
profile = solve_extremal(exps, RadialGrid(512, 4.0))
thr = compute_thresholds(profile, exps)
wt = threshold_field(profile, exps)
kernel = build_kernel(wt.grid, exps.lam)
print(f"threshold profile ready: support {support_radius(wt):.2f}, "
      f"domain {wt.grid.r_max:.1f}, n = {wt.grid.n}")
print(f"x_star = {thr.x_star:.4e}, g(x_star) = {thr.g_at_xstar:.4e}")

for kappa in (0.8, 1.2):
    print()
    print(f"=== amplitude kappa = {kappa} ===")
    u0 = wt.with_values(kappa * wt.values)
    cls = classify(u0, thr, exps, kernel)
    print(f"  classifier: {cls.verdict.value}")
    print(f"    product/x_star  = {cls.product/thr.x_star:.4f} "
          f"(margin {cls.product_margin:+.3f})")
    print(f"    energy/g(x_star) = {cls.energy_lhs/thr.g_at_xstar:.4f} "
          f"(hypothesis {'holds' if cls.energy_ok else 'fails'})")

    cfg = SimConfig(t_end=60.0, record_every=400)
    trace = run(u0, cfg, kernel, exps)
    print(f"  simulation: {trace.outcome.value}"
          + (f" at t = {trace.t_detect:.2f}" if trace.t_detect else
             f" (reached t = {trace.t[-1]:.1f})"))
    print(f"    sup norm: {trace.linf[0]:.3f} -> {trace.linf[-1]:.3f}")
    print(f"    mass drift: {abs(trace.mass[-1]-trace.mass[0])/trace.mass[0]:.2e}")
    print(f"    free energy: {trace.F[0]:.4e} -> {trace.F[-1]:.4e} "
          f"({'monotone' if np.all(np.diff(trace.F) <= 1e-6*abs(trace.F[0])) else 'NOT monotone'})")
    rep = barrier_check(trace, thr, exps)
    side = "below" if rep.stayed_below else ("above" if rep.stayed_above else "crossed")
    print(f"    invariant product stayed {side} x_star "
          f"(range {rep.min_ratio:.4f} .. {rep.max_ratio:.4f})")
    print(f"  run bears out the verdict: {agrees(cls, trace, rep).value}")
    trace_to_csv(trace, f"trace_kappa_{kappa:g}.csv")
    print(f"    wrote trace_kappa_{kappa:g}.csv")

print()
print("Exactly at kappa = 1 the profile is a steady state (a saddle): the")
print("classifier reports Indeterminate inside its tolerance band, mirroring")
print("the strict inequalities of the underlying dichotomy.")
u1 = wt
print(f"  kappa = 1 verdict: {classify(u1, thr, exps, kernel).verdict.value}")
