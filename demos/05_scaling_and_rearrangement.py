#!/usr/bin/env python3
"""Structure tools: the exact two-parameter rescaling and its invariants,
the unit-norm normalization, and the symmetric decreasing rearrangement
(which never lowers the interaction energy).

Run:  python demos/05_scaling_and_rearrangement.py
"""

import numpy as np

from aggdiff import (
    ModelParams,
    RadialGrid,
    apply_dynamic_scaling,
    build_kernel,
    derive_exponents,
    energy_report,
    field_from_function,
    interaction,
    lp_norm,
    mass,
    normalize_both_norms,
    rearrange_decreasing,
    vhls_quotient,
)

exps = derive_exponents(ModelParams(3, 1.1, 1.2))
grid = RadialGrid(1024, 8.0)
kernel = build_kernel(grid, exps.lam)

u = field_from_function(grid, lambda r: np.maximum(1 - (r / 1.8) ** 2, 0.0) ** 2)
print("test field: compact parabolic bump, support radius 1.8")
print(f"  mass {mass(u):.6f}, ||u||_m {lp_norm(u, exps.m):.6f}, "
      f"||u||_p {lp_norm(u, exps.p):.6f}")

print()
print("dynamic rescaling u -> lam^(2s/(2-m)) u(lam x): exact invariants")
print("  lam    ||.||_p          product          scaled energy")
for lam in (0.5, 1.0, 2.0, 4.0):
    v = apply_dynamic_scaling(u, lam, exps)
    rep = energy_report(v, exps, kernel)
    print(f"  {lam:4.1f}  {lp_norm(v, exps.p):.12f}  {rep.product:.10e}  {rep.barrier:+.8e}")

print()
v, lam, alpha = normalize_both_norms(u.with_values(3.0 * u.values), exps)
print("normalization to unit mass and unit L^m norm:")
print(f"  lam = {lam:.6f}, alpha = {alpha:.6f}")
print(f"  ||.||_1 = {mass(v):.15f}, ||.||_m = {lp_norm(v, exps.m):.15f}")
print(f"  quotient J before/after: {vhls_quotient(u, exps, kernel):.10f} / "
      f"{vhls_quotient(v, exps, kernel):.10f}  (invariant)")

print()
print("rearrangement: an annulus collapses into the ball of equal volume")
r1, r2 = 1.0, 2.0
ann = field_from_function(grid, lambda r: 1.0 * ((r > r1) & (r < r2)))
ball = rearrange_decreasing(ann)
r_eq = (r2**3 - r1**3) ** (1 / 3)
print(f"  annulus ({r1}, {r2}) -> ball radius {r_eq:.6f}")
k = np.searchsorted(grid.centers, [0.5 * r_eq, r_eq + 0.1])
print(f"  rearranged value inside: {ball.values[k[0]]:.6f}, outside: {ball.values[k[1]]:.6f}")
print(f"  mass before/after: {mass(ann):.10f} / {mass(ball):.10f}")
h0, h1 = interaction(ann, kernel), interaction(ball, kernel)
print(f"  interaction energy h: {h0:.6f} -> {h1:.6f}  "
      f"(rearranging raised it by {(h1/h0 - 1)*100:.1f}%)")
print(f"  quotient J: {vhls_quotient(ann, exps, kernel):.6f} -> "
      f"{vhls_quotient(ball, exps, kernel):.6f}")
