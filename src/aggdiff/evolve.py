"""Explicit finite-volume time integration of the radial aggregation-
diffusion flow

    u_t = div( u grad mu ),
    mu  = m/(m-1) u^(m-1) - c,

with c the attraction potential of u.  The porous-medium diffusion is
carried inside mu, so the whole update is a single conservative upwind
flux: at each interior face the velocity is -d_r mu (centered difference of
cell values) and the transported density is the upwind cell value.
No-flux conditions hold at r = 0 (zero face area) and at r = r_max.

Mass is conserved to roundoff by telescoping; positivity is preserved under
the time-step restriction

    dt = cfl * min( dr^2 / (2d m ||u||_inf^(m-1)),
                    dr / (3 max |v_face|) ),

where the factor 3 accounts for the worst area/volume ratio of the
innermost shell, and max |v_face| is taken over the faces next to mass
(every other face carries no flux).  A step computes only the cells up to
one past the support; the rest stay exactly as they are, and a step of the
zero field changes nothing.  Blow-up is detected, not resolved: once the
sup norm crosses blowup_factor * max(1, ||u0||_inf) the run stops and
reports the detection time.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field as dataclass_field
from enum import Enum

import numpy as np

from .errors import NonFiniteValue, UnsupportedDimension
from .field import RadialField, lp_norm, mass, second_moment
from .functionals import _chemical_potential_values, dissipation, free_energy
from .params import Exponents
from .riesz import ReducedKernel, _support_extent

__all__ = [
    "SimConfig",
    "Outcome",
    "SimTrace",
    "HypothesisReport",
    "step",
    "run",
    "virial_check",
    "hypothesis_check",
    "trace_to_csv",
]


@dataclass(frozen=True)
class SimConfig:
    """Run controls: horizon, Courant factor, abort threshold for the time
    step, sup-norm growth trigger, and diagnostic cadence (in steps)."""

    t_end: float
    cfl: float = 0.45
    dt_min: float = 1e-12
    blowup_factor: float = 1e3
    record_every: int = 100

    def __post_init__(self):
        if not self.t_end > 0:
            raise ValueError("t_end must be positive")
        if not 0.0 < self.cfl <= 1.0:
            raise ValueError("cfl must lie in (0, 1]")
        if not self.dt_min > 0:
            raise ValueError("dt_min must be positive")
        if not self.blowup_factor > 1.0:
            raise ValueError("blowup_factor must exceed 1")


class Outcome(str, Enum):
    COMPLETED_BOUNDED = "CompletedBounded"
    BLOWUP_DETECTED = "BlowupDetected"
    INCONCLUSIVE = "Inconclusive"


@dataclass
class SimTrace:
    """Diagnostic time series plus the terminal outcome.

    Columns: time, mass, L^m norm, sup norm, free energy, second moment,
    dissipation, and the step size in use at each record.
    """

    t: np.ndarray
    mass: np.ndarray
    lm: np.ndarray
    linf: np.ndarray
    F: np.ndarray
    m2: np.ndarray
    dissipation: np.ndarray
    dt: np.ndarray
    outcome: Outcome
    t_detect: float | None = None
    final: RadialField | None = dataclass_field(default=None, repr=False)


def _flux_divergence(
    u: RadialField, exps: Exponents, kernel: ReducedKernel, extent: int | None = None
) -> tuple[np.ndarray, float]:
    """Cellwise divergence of the upwind gradient-flow flux, and the maximum
    face speed.  The flux vanishes at both boundary faces; at each interior
    face it is the face area times the upwind cell value times -d_r mu.

    With the support extent e of u, only cells [0, w), w = min(e + 1, n),
    are computed and the returned divergence has length w: every face from
    w on has empty cells on both sides, so its flux and the divergence
    beyond w are exactly zero, and the speed is the maximum over the faces
    next to mass."""
    grid = u.grid
    w = grid.n if extent is None else min(extent + 1, grid.n)
    v = u.values[:w]
    mu = _chemical_potential_values(u, exps, kernel, rows=w, extent=extent)
    vel = -(mu[1:] - mu[:-1]) / grid.dr
    up = np.where(vel > 0.0, v[:-1], v[1:])
    flux = np.zeros(w + 1)
    flux[1:-1] = grid.face_areas[1:w] * up * vel
    return (flux[:-1] - flux[1:]) / grid.volumes[:w], float(np.max(np.abs(vel)))


def _stable_dt(grid, umax: float, vmax: float, exps: Exponents, cfg: SimConfig) -> float:
    dr = grid.dr
    diff = exps.m * umax ** (exps.m - 1.0) if umax > 0.0 else 0.0
    dt_par = dr**2 / (2.0 * exps.d * diff) if diff > 0.0 else np.inf
    dt_adv = dr / (3.0 * vmax) if vmax > 0.0 else np.inf
    return cfg.cfl * min(dt_par, dt_adv)


def step(
    u: RadialField,
    kernel: ReducedKernel,
    exps: Exponents,
    cfg: SimConfig,
    dt: float | None = None,
) -> tuple[RadialField, float]:
    """One conservative explicit update; returns the new field and the step
    actually taken (chosen by the stability rule when dt is None)."""
    if exps.d != 3:
        raise UnsupportedDimension("the spherical-shell scheme requires d = 3")
    v = u.values
    extent = _support_extent(v)
    if extent == 0:
        # no mass, no flux: the zero field is a stationary solution
        return RadialField(u.grid, v), float(np.inf if dt is None else dt)
    div, vmax = _flux_divergence(u, exps, kernel, extent)
    if dt is None:
        dt = _stable_dt(u.grid, float(np.max(v[:extent])), vmax, exps, cfg)
    w = len(div)
    v_new = v.copy()
    v_new[:w] += dt * div
    if not np.all(np.isfinite(v_new[:w])):
        raise NonFiniteValue("non-finite value produced by time step")
    # roundoff-level negatives only; the CFL rule keeps the update monotone
    np.maximum(v_new[:w], 0.0, out=v_new[:w])
    return RadialField(u.grid, v_new), float(dt)


@dataclass(frozen=True)
class HypothesisReport:
    """Measures of initial data that hypothesis_check found finite: mass,
    sup norm, second moment, and the L^2 norm of d_r(u^m), plus a flag if
    the support already touches the outer 5% of the domain."""

    mass: float
    linf: float
    second_moment: float
    grad_um_l2: float
    support_clear_of_boundary: bool


def hypothesis_check(u0: RadialField, exps: Exponents) -> HypothesisReport:
    v = u0.values
    if not np.all(np.isfinite(v)):
        raise NonFiniteValue("initial data contains NaN or infinity")
    m0 = mass(u0)
    linf = lp_norm(u0, np.inf)
    m2 = second_moment(u0)
    um = v**exps.m
    g = (um[1:] - um[:-1]) / u0.grid.dr
    rho = u0.grid.edges[1:-1]
    grad_l2 = float(np.sqrt(np.sum(g**2 * 4.0 * np.pi * rho**2 * u0.grid.dr)))
    tail = v[int(0.95 * u0.grid.n):]
    clear = bool(np.all(tail <= 1e-12 * max(linf, 1.0)))
    if not clear:
        warnings.warn("initial support touches the outer 5% of the domain")
    return HypothesisReport(
        mass=m0,
        linf=linf,
        second_moment=m2,
        grad_um_l2=grad_l2,
        support_clear_of_boundary=clear,
    )


def run(
    u0: RadialField,
    cfg: SimConfig,
    kernel: ReducedKernel,
    exps: Exponents,
) -> SimTrace:
    """Integrate to t_end, the blow-up trigger, or time-step collapse.

    Records diagnostics every cfg.record_every steps (plus the initial and
    final states).  Outcomes: CompletedBounded when t_end is reached;
    BlowupDetected when the sup norm crosses the trigger (or the step
    collapses while the sup norm is growing); Inconclusive otherwise.
    """
    hypothesis_check(u0, exps)
    linf0 = lp_norm(u0, np.inf)
    trigger = cfg.blowup_factor * max(1.0, linf0)

    rows: list[tuple] = []

    def record(u: RadialField, t: float, dt: float):
        rows.append(
            (
                t,
                mass(u),
                lp_norm(u, exps.m),
                lp_norm(u, np.inf),
                free_energy(u, exps, kernel),
                second_moment(u),
                dissipation(u, exps, kernel),
                dt,
            )
        )

    u = u0
    t = 0.0
    outcome = Outcome.INCONCLUSIVE
    t_detect = None
    nstep = 0
    record(u, t, 0.0)
    warned_truncation = False

    while True:
        if t >= cfg.t_end:
            outcome = Outcome.COMPLETED_BOUNDED
            break
        try:
            u_probe, dt_stable = step(u, kernel, exps, cfg)
        except NonFiniteValue:
            outcome = Outcome.INCONCLUSIVE
            break
        if dt_stable < cfg.dt_min:
            # the stability rule collapsed; growing sup norm means focusing
            linf = lp_norm(u, np.inf)
            outcome = (
                Outcome.BLOWUP_DETECTED
                if linf > 1.5 * max(linf0, 1e-300)
                else Outcome.INCONCLUSIVE
            )
            t_detect = t if outcome is Outcome.BLOWUP_DETECTED else None
            break
        if t + dt_stable > cfg.t_end:
            # retake the final step exactly to the horizon
            u_new, dt = step(u, kernel, exps, cfg, dt=cfg.t_end - t)
        else:
            u_new, dt = u_probe, dt_stable
        u = u_new
        t += dt
        nstep += 1

        linf = lp_norm(u, np.inf)
        if linf > trigger:
            outcome = Outcome.BLOWUP_DETECTED
            t_detect = t
            break
        if nstep % cfg.record_every == 0:
            record(u, t, dt)
        if not warned_truncation:
            tail = slice(int(0.95 * u.grid.n), None)
            tail_mass = float(u.values[tail] @ u.grid.volumes[tail])
            if tail_mass > 1e-8 * max(mass(u), 1e-300):
                warnings.warn("mass reached the outer 5% of the domain; "
                              "whole-space emulation degraded")
                warned_truncation = True

    if not rows or rows[-1][0] < t:
        record(u, t, rows[-1][-1] if rows else 0.0)
    cols = list(zip(*rows))
    return SimTrace(
        t=np.asarray(cols[0]),
        mass=np.asarray(cols[1]),
        lm=np.asarray(cols[2]),
        linf=np.asarray(cols[3]),
        F=np.asarray(cols[4]),
        m2=np.asarray(cols[5]),
        dissipation=np.asarray(cols[6]),
        dt=np.asarray(cols[7]),
        outcome=outcome,
        t_detect=t_detect,
        final=u,
    )


def virial_check(
    u: RadialField, exps: Exponents, kernel: ReducedKernel
) -> tuple[float, float]:
    """Instantaneous second-moment balance.

    rhs is the exact identity (2d - 2(d-2s)/(m-1)) int u^m + 2(d-2s) F(u);
    lhs sums r^2 times the flux divergence that `step` applies to u.  The
    two agree up to discretization error, and both vanish at the threshold
    steady profile.
    """
    d, s, m = exps.d, exps.s, exps.m
    if d != 3:
        raise UnsupportedDimension("the discrete moment flux requires d = 3")
    um_int = lp_norm(u, m) ** m
    rhs = (2.0 * d - 2.0 * (d - 2.0 * s) / (m - 1.0)) * um_int \
        + 2.0 * (d - 2.0 * s) * free_energy(u, exps, kernel)

    div, _ = _flux_divergence(u, exps, kernel)
    lhs = float(div @ u.grid.moment_weights)
    return lhs, float(rhs)


def trace_to_csv(trace: SimTrace, path) -> None:
    """Write the diagnostic series as CSV with header
    t,mass,lm,linf,F,m2,dissipation,dt at 14 significant digits."""
    with open(path, "w", newline="\n") as fh:
        fh.write("t,mass,lm,linf,F,m2,dissipation,dt\n")
        for k in range(len(trace.t)):
            fh.write(
                ",".join(
                    f"{x:.14e}"
                    for x in (
                        trace.t[k], trace.mass[k], trace.lm[k], trace.linf[k],
                        trace.F[k], trace.m2[k], trace.dissipation[k], trace.dt[k],
                    )
                )
                + "\n"
            )


def trace_footer(trace: SimTrace, meta: dict | None = None) -> dict:
    """Outcome and metadata for the JSON sidecar accompanying a trace CSV."""
    out = {
        "outcome": trace.outcome.value,
        "t_detect": trace.t_detect,
        "t_final": float(trace.t[-1]),
        "records": int(len(trace.t)),
    }
    if meta:
        out["meta"] = meta
    return out
