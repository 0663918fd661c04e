"""Linearly implicit finite-volume time integration of the radial
aggregation-diffusion flow

    u_t = div( u grad mu ),
    mu  = p(u) - c,    p(u) = m/(m-1) u^(m-1),

with c the attraction potential of u.  At each interior face f, between
cells f-1 and f, the velocity v_f = -d_r mu (centred difference of cell
values) picks the upwind cell k_f, and its attraction part a_f = d_r c
carries the mass there.  The porous-medium part is taken implicitly through
the frozen secant mobility

    D_f = u_k (p(u_f) - p(u_(f-1))) / ((u_f - u_(f-1)) dr)

of the current state (u p'(u) between equal cells, 0 between empty ones),
so the outward flux at the new time level is

    F_f = D_f (u_(f-1) - u_f) + a_f u_k.

At the current state F_f is the explicit upwind flux u_k v_f, so the
semi-discrete scheme, its steady states and mu as the exact variational
derivative of the discrete free energy are those of the explicit scheme.
No flux crosses r = 0 (zero face area) or r = r_max.

One step solves V u_new + dt (flux differences) = V u: a tridiagonal
matrix with column sums V.  In each sign case of (v_f, a_f) its off-
diagonals are nonpositive (for v_f > 0 > a_f, D_f >= -d_r p > -a_f because
u_f >= 0, and symmetrically), so it is a column diagonally dominant
M-matrix: mass is conserved and positivity preserved for every dt.  The
step size is therefore an accuracy choice,

    dt = cfl * dr / (3 max |v_f|),

where the factor 3 accounts for the worst area/volume ratio of the
innermost shell, and max |v_f| is taken over the faces next to mass.  A
step solves only the cells up to one past the support: every face beyond
has empty cells on both sides, so no mobility, and while the attraction
points inward at the first of them (c is radially decreasing) no mass
crosses it; otherwise the step solves the whole grid.  The cells outside
stay exactly as they are, and a step of the zero field changes nothing.  Blow-up is detected, not resolved: once the sup norm
crosses blowup_factor * max(1, ||u0||_inf) the run stops and reports the
detection time.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field as dataclass_field, fields
from enum import Enum

import numpy as np

from .errors import NonFiniteValue, UnsupportedDimension
from .field import RadialField, _write_csv, lp_norm, mass, second_moment
from .functionals import _chemical_potential_parts, dissipation, free_energy
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
    step, sup-norm growth trigger, and diagnostic cadence (in steps).

    The implicit step conserves mass and positivity for every dt, so cfl
    is an accuracy factor only: the step is dt = cfl * dr / (3 max |v_f|),
    cfl times the advective bound of the explicit upwind scheme.  The
    default 0.05 keeps the time error well below the spatial one."""

    t_end: float
    cfl: float = 0.05
    dt_min: float = 1e-12
    blowup_factor: float = 1e3
    record_every: int = 100

    def __post_init__(self):
        if not 0.0 < self.t_end < np.inf:
            raise ValueError("t_end must be positive and finite")
        if not 0.0 < self.cfl <= 1.0:
            raise ValueError("cfl must lie in (0, 1]")
        if not 0.0 < self.dt_min < np.inf:
            raise ValueError("dt_min must be positive and finite")
        if not self.blowup_factor > 1.0:
            raise ValueError("blowup_factor must exceed 1")
        if not self.record_every >= 1:
            raise ValueError("record_every must be at least 1")


class Outcome(str, Enum):
    COMPLETED_BOUNDED = "CompletedBounded"
    BLOWUP_DETECTED = "BlowupDetected"
    INCONCLUSIVE = "Inconclusive"


@dataclass
class SimTrace:
    """Diagnostic time series plus the terminal outcome.

    Columns, in CSV order: time, mass, L^m norm, sup norm, free energy,
    second moment, dissipation, and the step size in use at each record.
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


# the trace columns: SimTrace's array fields (annotations are strings here)
_COLUMNS = tuple(f.name for f in fields(SimTrace) if f.type == "np.ndarray")


def _face_velocities(
    u: RadialField, exps: Exponents, kernel: ReducedKernel, rows: int, extent: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """On cells [0, rows): the pressure p = m/(m-1) u^(m-1).  At the faces
    1..rows-1 between them: the differences dp of p and dc of the attraction
    potential c across each face, and the velocity v_f = -d_r mu =
    (dc - dp) / dr.  extent is the support extent of u."""
    p, c = _chemical_potential_parts(u, exps, kernel, rows=rows, extent=extent)
    dp, dc = p[1:] - p[:-1], c[1:] - c[:-1]
    return p, dp, dc, (dc - dp) / u.grid.dr


def _solve_tridiagonal(
    lower: np.ndarray, diag: np.ndarray, upper: np.ndarray, rhs: np.ndarray
) -> np.ndarray:
    """Thomas sweep for the tridiagonal system whose row i is lower[i - 1],
    diag[i], upper[i].  No pivoting: the step's matrices are column
    diagonally dominant M-matrices, whose pivots stay positive.  With
    nonpositive off-diagonals and a nonnegative right-hand side every update
    adds nonnegative terms, so the solution comes out nonnegative.  The
    recurrence is sequential, so it runs on Python floats."""
    a, b, c, x = lower.tolist(), diag.tolist(), upper.tolist(), rhs.tolist()
    q, y = b[0], x[0]
    for i in range(1, len(b)):
        f = a[i - 1] / q
        q = b[i] = b[i] - f * c[i - 1]
        y = x[i] = x[i] - f * y
    x[-1] = y = y / q
    for i in range(len(b) - 2, -1, -1):
        x[i] = y = (x[i] - c[i] * y) / b[i]
    return np.array(x)


def step(
    u: RadialField,
    kernel: ReducedKernel,
    exps: Exponents,
    cfg: SimConfig,
    dt: float | None = None,
) -> tuple[RadialField, float]:
    """One linearly implicit upwind update (see the module docstring);
    returns the new field and the step actually taken (chosen by the
    accuracy rule when dt is None)."""
    if exps.d != 3:
        raise UnsupportedDimension("the spherical-shell scheme requires d = 3")
    grid, v = u.grid, u.values
    n = grid.n
    extent = _support_extent(v)
    if extent == 0:
        # no mass, no flux: the zero field is a stationary solution
        return RadialField(grid, v), float(np.inf if dt is None else dt)
    w = min(extent + 1, n)
    p, dp, dc, vel = _face_velocities(u, exps, kernel, min(w + 1, n), extent)
    if w < n and dc[w - 1] > 0.0:
        # attraction points outward at the window face: nothing bounds the
        # new support short of the whole grid
        w = n
        p, dp, dc, vel = _face_velocities(u, exps, kernel, n, extent)
    vmax = float(np.max(np.abs(vel[:extent])))
    if vmax == 0.0:
        # no face next to mass moves it: u solves the system for any dt
        return RadialField(grid, v), float(np.inf if dt is None else dt)
    if dt is None:
        dt = cfg.cfl * grid.dr / (3.0 * vmax)

    # interior faces 1..w-1 of the window; cells f-1 and f meet at face f
    left, right = v[: w - 1], v[1:w]
    outward = vel[: w - 1] > 0.0
    dp, dc, du = dp[: w - 1], dc[: w - 1], right - left
    # D_f dr, the frozen secant mobility; between equal cells it is
    # u p'(u) = (m-1) p(u), which is 0 between empty ones
    mobility = np.divide(np.where(outward, left, right) * dp, du,
                         out=(exps.m - 1.0) * p[1:w], where=du != 0.0)
    # dt area_f F_f = upper_f u_f - lower_f u_(f-1) at the new time level;
    # lower_f and upper_f <= 0 are the off-diagonals of rows f and f-1
    total = mobility + np.where(outward, dc, 0.0)  # (D_f + a_f [v_f > 0]) dr
    scale = (-dt / grid.dr) * grid.face_areas[1:w]
    lower, upper = scale * total, scale * (total - dc)
    volumes = grid.volumes[:w]
    diag = volumes.copy()
    diag[:-1] -= lower
    diag[1:] -= upper
    new = _solve_tridiagonal(lower, diag, upper, volumes * v[:w])
    if not np.all(np.isfinite(new)):
        raise NonFiniteValue("non-finite value produced by time step")
    # roundoff-level negatives only; the M-matrix keeps the solve monotone
    np.maximum(new, 0.0, out=new)
    return RadialField(grid, np.concatenate((new, v[w:]))), float(dt)


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
        # one value per trace column, in the order of _COLUMNS
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
    tail = slice(int(0.95 * u0.grid.n), None)  # the outer 5% of the domain

    while True:
        if t >= cfg.t_end:
            outcome = Outcome.COMPLETED_BOUNDED
            break
        try:
            u_probe, dt_rule = step(u, kernel, exps, cfg)
        except NonFiniteValue:
            outcome = Outcome.INCONCLUSIVE
            break
        if dt_rule < cfg.dt_min:
            # the step-size rule collapsed; growing sup norm means focusing
            linf = lp_norm(u, np.inf)
            outcome = (
                Outcome.BLOWUP_DETECTED
                if linf > 1.5 * max(linf0, 1e-300)
                else Outcome.INCONCLUSIVE
            )
            t_detect = t if outcome is Outcome.BLOWUP_DETECTED else None
            break
        if t + dt_rule > cfg.t_end:
            # retake the final step exactly to the horizon
            u_new, dt = step(u, kernel, exps, cfg, dt=cfg.t_end - t)
        else:
            u_new, dt = u_probe, dt_rule
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
            tail_mass = float(u.values[tail] @ u.grid.volumes[tail])
            if tail_mass > 1e-8 * max(mass(u), 1e-300):
                warnings.warn("mass reached the outer 5% of the domain; "
                              "whole-space emulation degraded")
                warned_truncation = True

    if rows[-1][0] < t:
        record(u, t, rows[-1][-1])
    return SimTrace(
        **{name: np.asarray(col) for name, col in zip(_COLUMNS, zip(*rows))},
        outcome=outcome,
        t_detect=t_detect,
        final=u,
    )


def virial_check(
    u: RadialField, exps: Exponents, kernel: ReducedKernel
) -> tuple[float, float]:
    """Instantaneous second-moment balance.

    rhs is the exact identity (2d - 2(d-2s)/(m-1)) int u^m + 2(d-2s) F(u);
    lhs sums r^2 times the semi-discrete flux divergence at u, the rate of
    `step` as dt -> 0 (same face velocities and upwind cells).  The two agree
    up to discretization error, and both vanish at the threshold steady
    profile.
    """
    d, s, m = exps.d, exps.s, exps.m
    if d != 3:
        raise UnsupportedDimension("the discrete moment flux requires d = 3")
    um_int = lp_norm(u, m) ** m
    rhs = (2.0 * d - 2.0 * (d - 2.0 * s) / (m - 1.0)) * um_int \
        + 2.0 * (d - 2.0 * s) * free_energy(u, exps, kernel)

    # the semi-discrete operator: the explicit upwind flux of every face
    grid, v = u.grid, u.values
    *_, vel = _face_velocities(u, exps, kernel, grid.n, _support_extent(v))
    flux = np.zeros(grid.n + 1)
    flux[1:-1] = grid.face_areas[1:-1] * np.where(vel > 0.0, v[:-1], v[1:]) * vel
    div = (flux[:-1] - flux[1:]) / grid.volumes
    lhs = float(div @ grid.moment_weights)
    return lhs, float(rhs)


def trace_to_csv(trace: SimTrace, path) -> None:
    """Write the diagnostic series as CSV with header
    t,mass,lm,linf,F,m2,dissipation,dt at 14 significant digits."""
    _write_csv(path, ",".join(_COLUMNS), [getattr(trace, name) for name in _COLUMNS])


def trace_footer(trace: SimTrace, meta: dict) -> dict:
    """Outcome and metadata for the JSON sidecar accompanying a trace CSV."""
    return {
        "outcome": trace.outcome.value,
        "t_detect": trace.t_detect,
        "t_final": float(trace.t[-1]),
        "records": int(len(trace.t)),
        "meta": meta,
    }
