"""Seeded test densities and one measure per invariant of the lab.

Shared by the property-test suite, the acceptance battery and the built-in
self-test command, so that all of them exercise the same family of fields
(random mixtures of Gaussian shells, compact bumps, and ball indicators,
with occasional cusps) and compute each invariant the same way.  A measure
returns the worst figure it finds, NaN if any figure is NaN (so a bound
check fails); each caller holds its own bound.  All randomness flows
through a caller-supplied numpy Generator.
"""

from __future__ import annotations

import numpy as np

from .evolve import SimTrace, _face_system, _solve, _sweep_system, _thomas
from .field import (RadialField, RadialGrid, apply_dynamic_scaling, field_from_function,
                    mass, rearrange_decreasing, scale_field)
from .functionals import energy_report, vhls_quotient
from .params import Exponents, ModelParams, derive_exponents, hls_sharp_constant
from . import riesz
from .riesz import ReducedKernel, interaction

__all__ = ["random_density", "trial_densities", "exponent_identity_defect",
           "max_hls_ratio", "scale_invariance_defect", "rearrangement_loss",
           "kernel_symmetry_defect", "mass_drift", "tridiagonal_solve_defect",
           "symmetric_product_defect"]


def random_density(grid: RadialGrid, rng: np.random.Generator) -> RadialField:
    """One random nonnegative density with support well inside the grid."""
    r_scale = grid.r_max / 4.0
    kind = rng.integers(0, 3)
    n_comp = int(rng.integers(1, 4))

    # freeze the random component parameters before vector evaluation
    comps = []
    for _ in range(n_comp):
        comps.append(
            (
                rng.uniform(0.1, 3.0),
                rng.uniform(0.15, 1.0) * r_scale,
                rng.uniform(0.0, 1.5) * r_scale,
            )
        )

    def frozen_profile(r):
        out = np.zeros_like(r)
        for amp, width, center in comps:
            if kind == 0:
                out += amp * np.exp(-(((r - center) / width) ** 2))
            elif kind == 1:
                out += amp * np.maximum(1.0 - ((r - center) / width) ** 2, 0.0)
            else:
                out += amp * (np.abs(r - center) < width).astype(float)
        return out

    return field_from_function(grid, frozen_profile)


def trial_densities(grid: RadialGrid, m: float) -> list[RadialField]:
    """A fixed gallery of 20 candidate maximizer shapes: Gaussians of several
    widths, uniform balls, parabolic and high-power bumps, exponential cusps,
    and annuli (useful after rearrangement)."""
    r0 = grid.r_max / 4.0
    gallery = []
    for w in (0.4, 0.7, 1.0, 1.4):
        gallery.append(lambda r, w=w: np.exp(-((r / (w * r0)) ** 2)))
    for w in (0.5, 0.8, 1.2):
        gallery.append(lambda r, w=w: (r < w * r0).astype(float))
    for p in (1.0, 2.0, 1.0 / (m - 1.0)):
        gallery.append(lambda r, p=p: np.maximum(1.0 - (r / r0) ** 2, 0.0) ** p)
    for w in (0.5, 1.0, 1.5):
        gallery.append(lambda r, w=w: np.exp(-r / (w * r0)))
    for (ri, ro) in ((0.3, 0.8), (0.5, 1.0), (0.2, 1.2)):
        gallery.append(
            lambda r, ri=ri, ro=ro: ((r > ri * r0) & (r < ro * r0)).astype(float)
        )
    for w in (0.6, 0.9):
        gallery.append(lambda r, w=w: 1.0 / (1.0 + (r / (w * r0)) ** 4))
    gallery.append(lambda r: np.exp(-((r / r0) ** 4)))
    gallery.append(lambda r: np.maximum(1.0 - r / r0, 0.0))
    return [field_from_function(grid, f) for f in gallery[:20]]


def exponent_identity_defect(rng: np.random.Generator, count: int) -> float:
    """Worst relative defect of b0 = m beta and a + a0 = a beta over count
    random regime triples: d in 3..7, s in (1.05, d/2 - 0.05), m in the
    middle 90% of its window.  Triples with a > 3 are redrawn: near the upper
    m end a diverges, and the defect would only measure float granularity."""
    defects = []
    while len(defects) < count:
        d = int(rng.integers(3, 8))
        s = rng.uniform(1.0 + 0.05, d / 2.0 - 0.05)
        lo, hi = 2.0 * d / (d + 2.0 * s), 2.0 - 2.0 * s / d
        m = rng.uniform(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo))
        e = derive_exponents(ModelParams(d, s, m))
        if e.a <= 3.0:
            defects.append([abs(e.b0 - e.m * e.beta) / max(1.0, abs(e.b0)),
                            abs(e.a + e.a0 - e.a * e.beta) / max(1.0, abs(e.a * e.beta))])
    return float(np.max(defects))


def _nonzero_densities(grid: RadialGrid, rng: np.random.Generator,
                       count: int) -> list[RadialField]:
    """count random densities less the zero ones (possible on very coarse grids)."""
    fields = [random_density(grid, rng) for _ in range(count)]
    return [u for u in fields if mass(u) > 0.0]


def max_hls_ratio(exps: Exponents, kernel: ReducedKernel,
                  rng: np.random.Generator, count: int) -> float:
    """Largest J(u) / C_HLS(d, lam) over count random densities on the
    kernel's grid; the sharp bound says it is at most 1."""
    c_hls = hls_sharp_constant(exps.d, exps.lam)
    ratios = [vhls_quotient(u, exps, kernel) / c_hls
              for u in _nonzero_densities(kernel.grid, rng, count)]
    return float(np.max(ratios, initial=0.0))


def scale_invariance_defect(u: RadialField, exps: Exponents,
                            kernel: ReducedKernel) -> float:
    """Worst relative change of J under every rescaling alpha u(lam x), and of
    J, the product ||u||_1^a ||u||_m^m and the scaled energy ||u||_1^a F(u)
    under the dynamic rescaling; alpha, lam in {1/2, 1, 2}."""

    def invariants(v):
        rep = energy_report(v, exps, kernel)
        return np.array([rep.vhls_quotient, rep.product, rep.barrier])

    ref = invariants(u)
    defects = []
    for lam in (0.5, 1.0, 2.0):
        for alpha in (0.5, 1.0, 2.0):
            j = vhls_quotient(scale_field(u, alpha, lam), exps, kernel)
            defects.append(abs(j - ref[0]) / ref[0])
        moved = invariants(apply_dynamic_scaling(u, lam, exps))
        defects.extend(np.abs(moved - ref) / np.abs(ref))
    return float(np.max(defects))


def rearrangement_loss(kernel: ReducedKernel, rng: np.random.Generator,
                       count: int) -> float:
    """Largest relative drop of the interaction energy h under the symmetric
    decreasing rearrangement over count random densities on the kernel's
    grid; 0 when rearranging never lowers h (Riesz's inequality)."""
    drops = [1.0 - interaction(rearrange_decreasing(u), kernel) / interaction(u, kernel)
             for u in _nonzero_densities(kernel.grid, rng, count)]
    return float(np.max(drops, initial=0.0))


def kernel_symmetry_defect(kernel: ReducedKernel, rng: np.random.Generator) -> float:
    """Relative asymmetry |v.S u - u.S v| / |v.S u| of the interaction
    operator S (kernel.sym) on two random vectors, by gemv on the whole of
    S: dsymv reads one triangle, so it would not see the other's defects."""
    sym = kernel.sym
    u, v = rng.random(kernel.grid.n), rng.random(kernel.grid.n)
    lhs, rhs = v @ (sym @ u), u @ (sym @ v)
    return float(abs(lhs - rhs) / abs(lhs))


def mass_drift(trace: SimTrace) -> float:
    """Largest relative departure of a run's recorded mass from its start."""
    return float(np.max(np.abs(trace.mass - trace.mass[0])) / trace.mass[0])


def tridiagonal_solve_defect(u: RadialField, exps: Exponents,
                             kernel: ReducedKernel) -> float:
    """Largest difference between the time step's tridiagonal solve and the
    Thomas reference on the sweep system of u at cfl = 1, relative to the
    largest reference value; 0 where the solve is the Thomas loop itself."""
    op = _face_system(u, exps, kernel)
    system = _sweep_system(u, op, u.grid.dr / (3.0 * op[0]))
    want = np.asarray(_thomas(*system))
    got = _solve(*(a.copy() for a in system))
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def symmetric_product_defect(kernel: ReducedKernel, rng: np.random.Generator) -> float:
    """Largest difference between the whole-grid product of the operator and
    the gemv reference on a random density, relative to the largest
    reference value; 0 where the product is that gemv itself (no dsymv)."""
    sym, u = kernel.sym, random_density(kernel.grid, rng).values
    want = sym @ u
    got = want if riesz._symv is None else riesz._symv(sym, u)
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))
