"""Scalar functionals of a density: free energy, chemical potential, the
sharp interaction quotient, and the barrier function g and its maximizer.
The upwind scheme's face system and dissipation live with the scheme, in
module evolve.

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

from .errors import RegimeError, UnsupportedDimension, ZeroField
from .field import RadialField, lp_norm, mass, second_moment
from .params import Exponents
# force has no caller here; the benchmark's tracer wraps functionals.force
from .riesz import ReducedKernel, force, interaction, potential

__all__ = [
    "EnergyReport",
    "Thresholds",
    "free_energy",
    "chemical_potential",
    "vhls_quotient",
    "barrier_g",
    "xstar_threshold",
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


def _check_kernel(exps: Exponents, kernel: ReducedKernel) -> None:
    """Raise unless kernel is the one exps describe: the kernel tables and
    the shell volumes are three-dimensional (UnsupportedDimension for
    d != 3), and the kernel's power must be exps.lam to 1e-12 relative
    (ValueError)."""
    if exps.d != 3:
        raise UnsupportedDimension(f"the radial kernel and shell volumes need d = 3, "
                                   f"got d = {exps.d}")
    if abs(kernel.lam - exps.lam) > 1e-12 * abs(exps.lam):
        raise ValueError(f"kernel power lam = {kernel.lam!r} differs from the "
                         f"exponents' lam = {exps.lam!r}")


def free_energy(u: RadialField, exps: Exponents, kernel: ReducedKernel) -> float:
    """F(u) = (1/(m-1)) int u^m - (c_ds/2) h(u)."""
    _check_kernel(exps, kernel)
    m = exps.m
    entropy = lp_norm(u, m) ** m / (m - 1.0)
    return entropy - 0.5 * exps.c_ds * interaction(u, kernel)


def chemical_potential(
    u: RadialField, exps: Exponents, kernel: ReducedKernel
) -> np.ndarray:
    """The cell values of mu = m/(m-1) u^(m-1) - c, as potential returns
    c's: mu is signed, not a density.  At u = 0 the entropy part is 0
    (m > 1), so mu = -c there.

    The potential is evaluated through the symmetrized weights, which makes
    mu the exact variational derivative of the discrete free energy; the
    flow u_t = div(u grad mu) then dissipates that energy by construction.
    """
    _check_kernel(exps, kernel)
    c = exps.c_ds * potential(u, kernel)
    return _pressure(u.values, exps.m) - c


def _pressure(values: np.ndarray, m: float) -> np.ndarray:
    """The pressure p = m/(m-1) u^(m-1) of cell values (0 where u = 0)."""
    return np.where(values > 0.0, values, 0.0) ** (m - 1.0) * (m / (m - 1.0))


def vhls_quotient(u: RadialField, exps: Exponents, kernel: ReducedKernel) -> float:
    """J(u) = h(u) / (||u||_1^a0 ||u||_m^b0); scale invariant by construction."""
    _check_kernel(exps, kernel)
    n1 = mass(u)
    if n1 <= 0.0:
        raise ZeroField("quotient undefined for the zero field")
    nm = lp_norm(u, exps.m)
    return interaction(u, kernel) / (n1**exps.a0 * nm**exps.b0)


def barrier_g(x: float, exps: Exponents, cstar: float) -> float:
    """g(x) = x/(m-1) - (c_ds/2) cstar x^beta, increasing up to x_star and
    decreasing beyond."""
    if not 0.0 < cstar < np.inf:
        raise ValueError("cstar must be positive and finite")
    x = np.asarray(x, dtype=float)
    out = x / (exps.m - 1.0) - 0.5 * exps.c_ds * cstar * x**exps.beta
    return float(out) if out.ndim == 0 else out


def _finite(value, name: str, exps: Exponents):
    """value, a float if 0-d; RegimeError if any entry of it is not finite."""
    if not np.isfinite(value).all():
        raise RegimeError(f"{name} overflows float64 at m = {exps.m} (a and 1/(beta - 1) grow "
                          f"without bound as m -> 2 - 2s/d = {2.0 - 2.0 * exps.s / exps.d:.6g})")
    return float(value) if np.ndim(value) == 0 else value


def xstar_threshold(exps: Exponents, cstar: float) -> Thresholds:
    """Maximizer of the barrier and its value, both positive for beta > 1.
    cstar must be positive and finite (ValueError otherwise); raises
    RegimeError if x_star overflows float64."""
    if not 0.0 < cstar < np.inf:
        raise ValueError("cstar must be positive and finite")
    beta, m = exps.beta, exps.m
    with np.errstate(over="ignore"):
        x_star = _finite(np.float64(2.0 / ((m - 1.0) * exps.c_ds * cstar * beta))
                         ** (1.0 / (beta - 1.0)), "x_star", exps)
    g_star = x_star * (beta - 1.0) / ((m - 1.0) * beta)
    return Thresholds(x_star=x_star, g_at_xstar=g_star, cstar=float(cstar))


def _scaled(exps: Exponents, n1, x=1.0, name: str = "||u||_1^a"):
    """||u||_1^a x of a field's mass and scalar, or of a trace's columns, by the
    scalar or the array power as given (the two can differ in the last bit)."""
    with np.errstate(over="ignore", invalid="ignore"):
        n1_a = _finite(np.asarray(n1, dtype=float)[()] ** exps.a, "||u||_1^a", exps)
        return _finite(n1_a * x, name, exps)


def _moment_rate(exps: Exponents, F: float, lm_m: float) -> float:
    """The virial rate 2 lam F + (2d - 2 lam/(m-1)) lm_m, lam = d - 2s: the
    second moment's time derivative at free energy F and ||u||_m^m = lm_m."""
    return 2.0 * exps.lam * F + (2.0 * exps.d - 2.0 * exps.lam / (exps.m - 1.0)) * lm_m


def energy_report(u: RadialField, exps: Exponents, kernel: ReducedKernel) -> EnergyReport:
    """Assemble all scalar functionals of u in one pass.  Raises RegimeError
    if ||u||_1^a, the product or the scaled energy (barrier) overflows float64."""
    _check_kernel(exps, kernel)
    m = exps.m
    n1 = mass(u)
    nm = lp_norm(u, m)
    entropy = nm**m / (m - 1.0)
    h = interaction(u, kernel)
    inter = 0.5 * exps.c_ds * h
    fe = entropy - inter
    return EnergyReport(
        entropy_term=entropy,
        interaction_term=inter,
        free_energy=fe,
        mass=n1,
        lm_norm=nm,
        product=_scaled(exps, n1, nm**m, "the product"),
        barrier=_scaled(exps, n1, fe, "the scaled energy"),
        vhls_quotient=h / (n1**exps.a0 * nm**exps.b0) if n1 > 0 else float("nan"),
        second_moment=second_moment(u),
    )
