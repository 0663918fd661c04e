"""Scalar functionals of a density: free energy, chemical potential, the
sharp interaction quotient, the barrier function g and its maximizer, and
the pointwise dissipation diagnostic.

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

import json
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ZeroField
from .field import RadialField, lp_norm, mass, second_moment
from .params import Exponents
from .riesz import ReducedKernel, _scale_factor, force, interaction

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

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)


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
    pressure, c = _chemical_potential_parts(u, exps, kernel)
    return RadialField(u.grid, pressure - c)


def _chemical_potential_parts(
    u: RadialField,
    exps: Exponents,
    kernel: ReducedKernel,
    *,
    rows: int | None = None,
    extent: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """The two parts of mu on cells [0, rows): the pressure m/(m-1) u^(m-1)
    and the attraction potential c, so that mu = pressure - c."""
    m = exps.m
    v = u.values[:rows]
    c = exps.c_ds * (_scale_factor(kernel, u.grid, 0.0) * kernel.interaction_matvec(
        u.values, rows=rows, extent=extent
    ))
    pressure = np.where(v > 0.0, v, 0.0) ** (m - 1.0) * (m / (m - 1.0))
    return pressure, c


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


def xstar_threshold(exps: Exponents, cstar: float) -> Thresholds:
    """Maximizer of the barrier and its value, both positive for beta > 1."""
    if cstar <= 0.0:
        raise ValueError("cstar must be positive")
    beta, m = exps.beta, exps.m
    x_star = (2.0 / ((m - 1.0) * exps.c_ds * cstar * beta)) ** (1.0 / (beta - 1.0))
    g_star = x_star * (beta - 1.0) / ((m - 1.0) * beta)
    return Thresholds(x_star=float(x_star), g_at_xstar=float(g_star), cstar=float(cstar))


def dissipation(u: RadialField, exps: Exponents, kernel: ReducedKernel) -> float:
    """Discrete integral of | 2m/(2m-1) d_r u^(m-1/2) - sqrt(u) d_r c |^2.

    Both gradients are evaluated at interior faces (centered differences of
    cell values; the analytic face force for d_r c) and integrated with the
    face-centered volume weight 4 pi rho_f^2 dr.  Vanishes when the flow is
    stationary, since the integrand equals u |grad mu|^2.
    """
    m = exps.m
    dr = u.grid.dr
    v = u.values
    w = v ** (m - 0.5)
    g1 = (2.0 * m / (2.0 * m - 1.0)) * (w[1:] - w[:-1]) / dr
    frc = force(u, kernel, exps.c_ds)[1:-1]
    u_face = 0.5 * (v[1:] + v[:-1])
    g2 = np.sqrt(u_face) * frc
    rho = u.grid.edges[1:-1]
    return float(np.sum((g1 - g2) ** 2 * 4.0 * np.pi * rho**2 * dr))


def energy_report(u: RadialField, exps: Exponents, kernel: ReducedKernel) -> EnergyReport:
    """Assemble all scalar functionals of u in one pass."""
    m = exps.m
    n1 = mass(u)
    nm = lp_norm(u, m)
    entropy = nm**m / (m - 1.0)
    inter = 0.5 * exps.c_ds * interaction(u, kernel)
    fe = entropy - inter
    product = n1**exps.a * nm**m
    return EnergyReport(
        entropy_term=entropy,
        interaction_term=inter,
        free_energy=fe,
        mass=n1,
        lm_norm=nm,
        product=product,
        barrier=n1**exps.a * fe,
        vhls_quotient=vhls_quotient(u, exps, kernel) if n1 > 0 else float("nan"),
        second_moment=second_moment(u),
    )
