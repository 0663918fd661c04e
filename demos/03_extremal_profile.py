#!/usr/bin/env python3
"""Compute the maximizer of the interaction quotient, inspect its optimal
constant and stationarity residual, verify the steady-state structure of the
threshold-scaled member, and export the profile.

Run:  python demos/03_extremal_profile.py
Writes:  extremal_profile.csv, threshold_profile.csv (current directory)
"""

import numpy as np

from aggdiff import (
    ModelParams,
    RadialGrid,
    build_kernel,
    chemical_potential,
    compute_thresholds,
    derive_exponents,
    dissipation,
    energy_report,
    field_to_csv,
    hls_sharp_constant,
    lp_norm,
    mass,
    solve_extremal,
    support_radius,
    threshold_profile,
    virial_check,
)

exps = derive_exponents(ModelParams(3, 1.1, 1.2))

print("solving the quotient maximization on n = 1024 ...")
profile = solve_extremal(exps, RadialGrid(1024, 4.0))
print(f"  converged in {profile.iterations} iterations")
print(f"  optimal constant  cstar = {profile.cstar:.10f}")
print(f"  sharp upper bound       = {hls_sharp_constant(3, exps.lam):.10f}")
print(f"  stationarity residual   = {profile.el_residual:.3e}")
print(f"  support radius          = {profile.support_radius:.6f} "
      f"(grid reaches {profile.w.grid.r_max:.3f})")
print(f"  norms of W: ||W||_1 = {mass(profile.w):.12f}, "
      f"||W||_m = {lp_norm(profile.w, exps.m):.12f}")
print(f"  quotient ascent: J went {profile.j_history[0]:.6f} -> "
      f"{profile.j_history[-1]:.6f} over {len(profile.j_history)} accepted steps")

thr = compute_thresholds(profile, exps)
print()
print("dichotomy thresholds")
print(f"  x_star     = {thr.x_star:.6e}")
print(f"  g(x_star)  = {thr.g_at_xstar:.6e}")

wt = threshold_profile(profile, exps)
kernel = build_kernel(wt.grid, exps.lam)
print()
print("threshold-scaled member (sup norm 1, invariant product = x_star)")
print(f"  support radius = {support_radius(wt):.4f}, mass = {mass(wt):.4f}")
rep = energy_report(wt, exps, kernel)
print(f"  product/x_star - 1 = {rep.product/thr.x_star - 1:+.2e}")
print(f"  scaled energy H / g(x_star) - 1 = {rep.barrier/thr.g_at_xstar - 1:+.2e}")

mu = chemical_potential(wt, exps, kernel)
on = wt.values > 1e-6 * wt.values.max()
spread = mu[on].max() - mu[on].min()
print(f"  chemical potential on support: mean {mu[on].mean():.6f}, "
      f"spread {spread:.2e}  (steady state: constant)")
print(f"  dissipation integral = {dissipation(wt, exps, kernel):.3e}")
lhs, rhs = virial_check(wt, exps, kernel)
print(f"  second-moment balance: operator {lhs:+.3e}, identity {rhs:+.3e} "
      f"(both vanish at threshold)")

field_to_csv(profile.w, "extremal_profile.csv")
field_to_csv(wt, "threshold_profile.csv")
print()
print("wrote extremal_profile.csv and threshold_profile.csv")
