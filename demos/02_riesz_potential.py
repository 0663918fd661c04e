#!/usr/bin/env python3
"""The radial convolution machinery: potential of a Gaussian blob against
adaptive quadrature, far-field decay, the attraction force, and the
interaction energy.

Run:  python demos/02_riesz_potential.py
"""

import numpy as np
from scipy import integrate

from aggdiff import (
    ModelParams,
    RadialGrid,
    build_kernel,
    derive_exponents,
    field_from_function,
    interaction,
    mass,
    pad_grid,
    potential_at,
)

exps = derive_exponents(ModelParams(3, 1.1, 1.2))
lam = exps.lam

grid = RadialGrid(1024, 8.0)
u = field_from_function(grid, lambda r: np.exp(-(r**2)))
kernel = build_kernel(grid, lam)
print(f"grid: n = {grid.n}, r_max = {grid.r_max}, kernel power lam = {lam}")
print(f"Gaussian blob, mass = {mass(u):.10f}  (exact pi^1.5 = {np.pi**1.5:.10f})")
print()


def oracle(r):
    if r == 0.0:
        val, _ = integrate.quad(lambda rp: 4*np.pi*rp**(2-lam)*np.exp(-rp**2), 0, 8)
        return val
    f = lambda rp: 2*np.pi*rp/((2-lam)*r)*((r+rp)**(2-lam)-abs(r-rp)**(2-lam))*np.exp(-rp**2)
    val, _ = integrate.quad(f, 0, 8, points=[r], limit=200)
    return val


print("potential (no prefactor) vs adaptive quadrature:")
print("  r      exact rows     oracle         rel err")
for rt in (0.0, 0.5, 1.0, 2.0, 4.0):
    mine = potential_at(u, np.array([rt]), lam)[0]
    ora = oracle(rt)
    print(f"  {rt:4.1f}  {mine:.10f}  {ora:.10f}  {abs(mine-ora)/ora:.2e}")

print()
print("far-field: r^lam * phi(r) / mass -> 1")
big = pad_grid(u, 45.0)
for rt in (10.0, 20.0, 40.0):
    val = potential_at(big, np.array([rt]), lam)[0]
    print(f"  r = {rt:4.0f}:  {val * rt**lam / mass(u):.8f}")

print()
print("attraction force d_r c (nonpositive for a peaked blob), as c_ds times a")
print("centred difference of the potential at rho +- dh:")
dh = 1e-5
for rho in (0.5, 1.0, 2.0):
    lo, hi = potential_at(u, np.array([rho - dh, rho + dh]), lam)
    print(f"  rho = {rho:.3f}:  {exps.c_ds * (hi - lo) / (2 * dh):+.8e}")

print()
h = interaction(u, kernel)
print(f"interaction energy h(u) = {h:.8f}")
print(f"quadratic homogeneity: h(2u)/h(u) = "
      f"{interaction(u.with_values(2*u.values), kernel)/h:.12f}  (exact 4)")
