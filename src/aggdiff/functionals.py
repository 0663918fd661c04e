"""Scalar functionals of a density: free energy, chemical potential, the
sharp interaction quotient, the barrier function g and its maximizer, and
the energy dissipation of the upwind scheme.

Conventions.  h(u) denotes the plain interaction energy
iint u(x)u(y)|x-y|^(-lam) dx dy (module riesz).  The free energy is

    F(u) = (1/(m-1)) int u^m  -  (c_ds/2) h(u),

the chemical potential mu = m/(m-1) u^(m-1) - c drives the flow u_t =
div(u grad mu), and the quotient

    J(u) = h(u) / (||u||_1^a0 ||u||_m^b0)

is invariant under u -> alpha u(lam x).  Its supremum cstar feeds the
barrier g(x) = x/(m-1) - (c_ds/2) cstar x^beta, whose unique interior
maximizer x_star separates globally existing from blowing-up initial data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RegimeError, ZeroField
from .field import RadialField, lp_norm, mass, second_moment
from .params import Exponents
# force has no caller here; the benchmark's tracer wraps functionals.force
from .riesz import ReducedKernel, _support_extent, force, interaction, potential

__all__ = [
    "EnergyReport",
    "Thresholds",
    "free_energy",
    "chemical_potential",
    "vhls_quotient",
    "barrier_g",
    "xstar_threshold",
    "dissipation",
    "energy_report",
]


@dataclass(frozen=True)
class EnergyReport:
    """Snapshot of every scalar functional of one density."""

    entropy_term: float
    interaction_term: float
    free_energy: float
    mass: float
    lm_norm: float
    product: float
    barrier: float
    vhls_quotient: float
    second_moment: float


@dataclass(frozen=True)
class Thresholds:
    """Dichotomy thresholds derived from the optimal quotient constant.

    x_star      location of the barrier maximum,
                ( 2 / ((m-1) c_ds cstar beta) )^(1/(beta-1))
    g_at_xstar  barrier height g(x_star) = x_star (beta-1) / ((m-1) beta)
    cstar       the optimal constant the thresholds were computed from
    """

    x_star: float
    g_at_xstar: float
    cstar: float


def free_energy(u: RadialField, exps: Exponents, kernel: ReducedKernel) -> float:
    """F(u) = (1/(m-1)) int u^m - (c_ds/2) h(u)."""
    m = exps.m
    entropy = lp_norm(u, m) ** m / (m - 1.0)
    return entropy - 0.5 * exps.c_ds * interaction(u, kernel)


def chemical_potential(
    u: RadialField, exps: Exponents, kernel: ReducedKernel
) -> RadialField:
    """mu = m/(m-1) u^(m-1) - c, cellwise.  At u = 0 the entropy part is 0
    (m > 1), so mu = -c there.

    The potential is evaluated through the symmetrized weights, which makes
    mu the exact variational derivative of the discrete free energy; the
    flow u_t = div(u grad mu) then dissipates that energy by construction.
    """
    c = exps.c_ds * potential(u, kernel)
    return RadialField(u.grid, _pressure(u.values, exps.m) - c)


def _pressure(values: np.ndarray, m: float) -> np.ndarray:
    """The pressure p = m/(m-1) u^(m-1) of cell values (0 where u = 0)."""
    return np.where(values > 0.0, values, 0.0) ** (m - 1.0) * (m / (m - 1.0))


def _face_system(u: RadialField, exps: Exponents, kernel: ReducedKernel) -> tuple:
    """The upwind face system of u (module evolve), frozen for any dt, on
    the window [0, w) of cells a step solves, one past the support.  At its
    faces 1..w-1, v_f = -d_r mu = (dc - dp) / dr picks the upwind cell k_f
    (f-1 if v_f > 0), inner_f = (D_f + a_f [v_f > 0]) dr and outer_f =
    inner_f - a_f dr, so that the face flux F_f = A_f (inner_f u_(f-1) -
    outer_f u_f) / dr is A_f u_k v_f at u.  Returns max |v_f| over the faces
    next to mass, v_f, inner and outer."""
    n, v, extent = u.grid.n, u.values, _support_extent(u.values)
    w = min(extent + 1, n)
    c = exps.c_ds * potential(u, kernel, rows=min(w + 1, n), extent=extent)
    if w < n and c[w] > c[w - 1]:
        # attraction points outward at the window face: nothing bounds the
        # new support short of the whole grid
        w = n
        c = exps.c_ds * potential(u, kernel, rows=n, extent=extent)
    p = _pressure(v[:w], exps.m)
    dp, dc = p[1:w] - p[: w - 1], c[1:w] - c[: w - 1]
    vel = (dc - dp) / u.grid.dr
    outward = vel > 0.0
    left, right = v[: w - 1], v[1:w]  # cells f-1 and f meet at face f
    du = right - left
    # between equal cells D_f dr is u p'(u) = (m-1) p(u), 0 between empty ones
    mobility = np.divide(np.where(outward, left, right) * dp, du,
                         out=(exps.m - 1.0) * p[1:w], where=du != 0.0)
    inner = mobility + np.where(outward, dc, 0.0)
    return float(np.max(np.abs(vel[:extent]), initial=0.0)), vel, inner, inner - dc


def _upwind_flux(u: RadialField, exps: Exponents, kernel: ReducedKernel) -> tuple:
    """The upwind face flux F_f of _face_system out through the faces 0..w
    of the window [0, w), and v_f at its faces 1..w-1.  Every other face
    carries an exact zero flux: both its cells are empty, or it is r = 0
    (zero area) or r = r_max."""
    _, vel, inner, outer = _face_system(u, exps, kernel)
    w, v = len(vel) + 1, u.values
    flux = np.zeros(w + 1)
    flux[1:w] = u.grid.face_areas[1:w] * (inner * v[: w - 1] - outer * v[1:w]) / u.grid.dr
    return flux, vel


def vhls_quotient(u: RadialField, exps: Exponents, kernel: ReducedKernel) -> float:
    """J(u) = h(u) / (||u||_1^a0 ||u||_m^b0); scale invariant by construction."""
    n1 = mass(u)
    if n1 <= 0.0:
        raise ZeroField("quotient undefined for the zero field")
    nm = lp_norm(u, exps.m)
    return interaction(u, kernel) / (n1**exps.a0 * nm**exps.b0)


def barrier_g(x: float, exps: Exponents, cstar: float) -> float:
    """g(x) = x/(m-1) - (c_ds/2) cstar x^beta, increasing up to x_star and
    decreasing beyond."""
    if cstar <= 0.0:
        raise ValueError("cstar must be positive")
    x = np.asarray(x, dtype=float)
    out = x / (exps.m - 1.0) - 0.5 * exps.c_ds * cstar * x**exps.beta
    return float(out) if out.ndim == 0 else out


def _power(x: float, p: float, name: str, exps: Exponents) -> float:
    """x**p of floats; RegimeError past float64 (1/(beta - 1) and a grow as m -> 2 - 2s/d)."""
    try:
        return x**p
    except OverflowError:
        raise RegimeError(f"{name} overflows float64: m = {exps.m} lies too close to "
                          f"2 - 2s/d = {2.0 - 2.0 * exps.s / exps.d:.6g}") from None


def xstar_threshold(exps: Exponents, cstar: float) -> Thresholds:
    """Maximizer of the barrier and its value, both positive for beta > 1.
    Raises RegimeError if x_star overflows float64."""
    if cstar <= 0.0:
        raise ValueError("cstar must be positive")
    beta, m = exps.beta, exps.m
    x_star = _power(2.0 / ((m - 1.0) * exps.c_ds * cstar * beta), 1.0 / (beta - 1.0),
                    "x_star", exps)
    g_star = x_star * (beta - 1.0) / ((m - 1.0) * beta)
    return Thresholds(x_star=float(x_star), g_at_xstar=float(g_star), cstar=float(cstar))


def dissipation(u: RadialField, exps: Exponents, kernel: ReducedKernel) -> float:
    """The scheme's own dissipation D_h = sum_f F_f v_f dr, with F_f = A_f
    u_(k_f) v_f the upwind face flux of _face_system, the one `step` solves.
    mu is the exact variational derivative of the discrete free energy, so
    the semi-discrete flow (the rate of `step` as dt -> 0) has dF/dt = -D_h
    exactly.  Nonnegative; 0 at steady states."""
    flux, vel = _upwind_flux(u, exps, kernel)
    return float(flux[1:-1] @ vel) * u.grid.dr


def energy_report(u: RadialField, exps: Exponents, kernel: ReducedKernel) -> EnergyReport:
    """Assemble all scalar functionals of u in one pass.  Raises RegimeError
    if ||u||_1^a overflows float64."""
    m = exps.m
    n1 = mass(u)
    n1_a = _power(n1, exps.a, "||u||_1^a", exps)
    nm = lp_norm(u, m)
    entropy = nm**m / (m - 1.0)
    h = interaction(u, kernel)
    inter = 0.5 * exps.c_ds * h
    fe = entropy - inter
    product = n1_a * nm**m
    return EnergyReport(
        entropy_term=entropy,
        interaction_term=inter,
        free_energy=fe,
        mass=n1,
        lm_norm=nm,
        product=product,
        barrier=n1_a * fe,
        vhls_quotient=h / (n1**exps.a0 * nm**exps.b0) if n1 > 0 else float("nan"),
        second_moment=second_moment(u),
    )
