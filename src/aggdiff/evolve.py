"""Second-order linearly implicit finite-volume time integration of the
radial aggregation-diffusion flow

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
_face_system builds this system once per state, for d = 3 only and a kernel
of the exponents' power: `step`, `dissipation` and `virial_check` all read
it.
No flux crosses r = 0 (zero face area) or r = r_max.

A sweep S(u, dt) solves V u_new + dt (flux differences) = V u: a
tridiagonal matrix with column sums V.  In each sign case of (v_f, a_f) its
off-diagonals are nonpositive (for v_f > 0 > a_f, D_f >= -d_r p > -a_f
because u_f >= 0, and symmetrically), so it is a column diagonally dominant
M-matrix: mass is conserved and positivity preserved for every dt.  Its
elimination needs no row interchange: each pivot is at least the entry
below it, as the reduced matrices stay column diagonally dominant.  Where
numpy links the ILP64 scipy-openblas, LAPACK's dgtsv solves it through
ctypes; its partial pivoting never swaps, so it runs the operations of the
Python-float Thomas recurrence (_thomas, the solve on every other numpy
build) in the same order, and the two agree bit for bit.  A step
extrapolates the first-order S by step doubling, 2 S(S(u, dt/2), dt/2) -
S(u, dt): second order, mass still exact, and the system frozen at u shared
by the first two sweeps.  Negatives within 64 eps of its sup norm are
roundoff, set to 0; a larger one makes the step S(S(u, dt/2), dt/2).  The
step size is an accuracy choice,

    dt = cfl * dr / (3 max |v_f|),

where the factor 3 accounts for the worst area/volume ratio of the
innermost shell, and max |v_f| is taken over the faces next to mass.  A
sweep solves only the cells up to one past the support: every face beyond
has empty cells on both sides, so no mobility, and while the attraction
points inward at the first of them (c is radially decreasing) no mass
crosses it; otherwise it solves the whole grid.  The cells outside stay
exactly as they are, and a step of the zero field changes nothing.
Blow-up is detected, not resolved: once the sup norm crosses blowup_factor
* max(1, ||u0||_inf) the run stops and reports the detection time.  A run
counts as focusing once the sup norm exceeds _FOCUSING * ||u0||_inf.
"""

from __future__ import annotations

import ctypes
import warnings
import weakref
from dataclasses import dataclass, field as dataclass_field, fields
from enum import Enum

import numpy as np

from .errors import NonFiniteValue
from .field import RadialField, _check_density, _write_csv, lp_norm, mass, second_moment
from .functionals import _check_kernel, _moment_rate, _pressure, free_energy
from .params import Exponents
from .riesz import ReducedKernel, _openblas, potential

__all__ = [
    "SimConfig",
    "Outcome",
    "SimTrace",
    "HypothesisReport",
    "step",
    "dissipation",
    "run",
    "virial_check",
    "hypothesis_check",
    "trace_to_csv",
]

# sup-norm growth over the initial data that marks a run as focusing
_FOCUSING = 1.5
# negatives of a step down to this fraction of its sup norm are roundoff
_ROUNDOFF = 64.0 * np.finfo(float).eps


@dataclass(frozen=True)
class SimConfig:
    """Run controls: horizon, Courant factor, sup-norm growth trigger, and
    diagnostic cadence (in steps).

    The step conserves mass and positivity for every dt (see the module
    docstring for its fallback), so cfl is an accuracy factor only: dt =
    cfl * dr / (3 max |v_f|), cfl times the advective bound of the explicit
    upwind scheme.  The time error is second order in cfl; the default 0.4
    keeps it well below the spatial one."""

    t_end: float
    cfl: float = 0.4
    blowup_factor: float = 1e3
    record_every: int = 100

    def __post_init__(self):
        if not 0.0 < self.t_end < np.inf:
            raise ValueError("t_end must be positive and finite")
        if not 0.0 < self.cfl <= 1.0:
            raise ValueError("cfl must lie in (0, 1]")
        if not self.blowup_factor > 1.0:
            raise ValueError("blowup_factor must exceed 1")
        if not (isinstance(self.record_every, (int, np.integer)) and self.record_every >= 1):
            raise ValueError(f"record_every must be an integer of at least 1, "
                             f"got {self.record_every!r}")


class Outcome(str, Enum):
    COMPLETED_BOUNDED = "CompletedBounded"
    BLOWUP_DETECTED = "BlowupDetected"
    INCONCLUSIVE = "Inconclusive"


@dataclass(eq=False)
class SimTrace:
    """Diagnostic time series plus the terminal outcome.

    Columns, in CSV order: time, mass, L^m norm, sup norm, free energy,
    second moment, the scheme's own dissipation (`dissipation`),
    and the last step taken before each record (0 before the first step).
    Traces compare by identity, as the fields they hold do.
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


def _thomas(lower, diag, upper, rhs) -> list:
    """The Thomas recurrence on Python floats, without pivoting: the
    reference solve, and the fallback where dgtsv is not found."""
    a, b, c, x = lower.tolist(), diag.tolist(), upper.tolist(), rhs.tolist()
    q, y = b[0], x[0]
    for i in range(1, len(x)):
        f = a[i - 1] / q
        q = b[i] = b[i] - f * c[i - 1]
        y = x[i] = x[i] - f * y
    x[-1] = y = y / q
    for i in range(len(x) - 2, -1, -1):
        x[i] = y = (x[i] - c[i] * y) / b[i]
    return x


def _lapack_gtsv():
    """LAPACK dgtsv from the ILP64 scipy-openblas numpy links (else None): a
    solve like _thomas that overwrites its float64 arrays."""
    gtsv = _openblas("scipy_dgtsv_64_", 8)
    if gtsv is None:
        return None
    one = ctypes.byref(ctypes.c_int64(1))

    def lapack_dgtsv(lower, diag, upper, rhs):
        w = len(diag)
        # dgtsv writes w - 1, w, w - 1 and w doubles through the pointers
        if (lower.shape, diag.shape, upper.shape, rhs.shape) != ((w - 1,), (w,), (w - 1,), (w,)) \
                or not all(a.dtype == np.float64 and a.flags.c_contiguous and a.flags.writeable
                           for a in (lower, diag, upper, rhs)):
            raise ValueError("dgtsv needs writable C-contiguous float64 vectors")
        n, info = ctypes.c_int64(w), ctypes.c_int64()
        gtsv(ctypes.byref(n), one, lower.ctypes.data, diag.ctypes.data,
             upper.ctypes.data, rhs.ctypes.data, ctypes.byref(n), ctypes.byref(info))
        if info.value:
            raise NonFiniteValue(f"dgtsv failed with INFO = {info.value}")
        return rhs

    return lapack_dgtsv


# the solve every sweep uses, chosen once at import
_solve = _lapack_gtsv() or _thomas


def _face_system(u: RadialField, exps: Exponents, kernel: ReducedKernel) -> tuple:
    """The upwind face system of u (module docstring), frozen for any dt, on
    the window [0, w) of cells a step solves, one past the support.  At its
    faces 1..w-1, v_f = -d_r mu = (dc - dp) / dr picks the upwind cell k_f
    (f-1 if v_f > 0), inner_f = (D_f + a_f [v_f > 0]) dr and outer_f =
    inner_f - a_f dr, so that the face flux F_f = A_f (inner_f u_(f-1) -
    outer_f u_f) / dr is A_f u_k v_f at u.  Returns max |v_f| over the faces
    next to mass, v_f, inner and outer, all read-only.

    The system is kept on u (frozen, its values read-only) and returned
    again for the same exps and kernel objects: a recorded state's
    dissipation and the step from it build one.  u holds the kernel weakly,
    so a kept field (a trace's final one) does not keep its operator."""
    _check_kernel(exps, kernel)
    held = u.__dict__.get("_face_system")
    if held is not None and held[0] is exps and held[1]() is kernel:
        return held[2]
    n, v, extent = u.grid.n, u.values, u.extent
    w = min(extent + 1, n)
    c = exps.c_ds * potential(u, kernel, rows=min(w + 1, n))
    if w < n and c[w] > c[w - 1]:
        # attraction points outward at the window face: nothing bounds the
        # new support short of the whole grid
        w = n
        c = exps.c_ds * potential(u, kernel, rows=n)
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
    system = float(np.abs(vel[:extent]).max(initial=0.0)), vel, inner, inner - dc
    for a in system[1:]:
        a.setflags(write=False)
    u.__dict__["_face_system"] = exps, weakref.ref(kernel), system
    return system


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


def dissipation(u: RadialField, exps: Exponents, kernel: ReducedKernel) -> float:
    """The scheme's own dissipation D_h = sum_f F_f v_f dr, with F_f = A_f
    u_(k_f) v_f the upwind face flux of _face_system, the one `step` solves.
    mu is the exact variational derivative of the discrete free energy, so
    the semi-discrete flow (the rate of `step` as dt -> 0) has dF/dt = -D_h
    exactly.  Nonnegative; 0 at steady states."""
    flux, vel = _upwind_flux(u, exps, kernel)
    return float(flux[1:-1] @ vel) * u.grid.dr


def _sweep_system(u: RadialField, op: tuple, dt: float) -> tuple:
    """Fresh sub-, main and superdiagonal and right-hand side of the system
    of S(u, dt) on the window [0, w), with op frozen at u (_face_system)."""
    grid, v = u.grid, u.values
    _, _, inner, outer = op
    w = len(inner) + 1
    # dt area_f F_f = upper_f u_f - lower_f u_(f-1); lower_f and
    # upper_f <= 0 are the off-diagonals of rows f and f-1
    scale = (-dt / grid.dr) * grid.face_areas[1:w]
    lower, upper = scale * inner, scale * outer
    volumes = grid.volumes[:w]
    diag = volumes.copy()
    diag[:-1] -= lower
    diag[1:] -= upper
    return lower, diag, upper, volumes * v[:w]


def _sweep(u: RadialField, op: tuple, dt: float) -> np.ndarray:
    """S(u, dt): the values after one first-order step of size dt, by
    _solve.  With nonpositive off-diagonals and a nonnegative right-hand
    side every update of the elimination adds nonnegative terms, so the
    solution comes out nonnegative."""
    x = _solve(*_sweep_system(u, op, dt))
    # roundoff-level negatives only; the M-matrix keeps the solve monotone
    return np.concatenate((np.maximum(x, 0.0), u.values[len(x):]))


def step(
    u: RadialField,
    kernel: ReducedKernel,
    exps: Exponents,
    cfg: SimConfig,
    dt: float | None = None,
) -> tuple[RadialField, float]:
    """One extrapolated step 2 S(S(u, dt/2), dt/2) - S(u, dt) (see the
    module docstring); returns the new field and the step actually taken
    (chosen by the accuracy rule when dt is None)."""
    grid = u.grid
    op = _face_system(u, exps, kernel)
    if op[0] == 0.0:
        # no face next to mass (if any) moves it: u solves the system for any dt
        return RadialField(grid, u.values), float(np.inf if dt is None else dt)
    if dt is None:
        dt = cfg.cfl * grid.dr / (3.0 * op[0])
    half = RadialField(grid, _sweep(u, op, 0.5 * dt))
    two = _sweep(half, _face_system(half, exps, kernel), 0.5 * dt)
    new = 2.0 * two - _sweep(u, op, dt)
    if not np.isfinite(new).all():
        raise NonFiniteValue("non-finite value produced by time step")
    new = two if new.min() < -_ROUNDOFF * new.max() else np.maximum(new, 0.0)
    return RadialField(grid, new), float(dt)


@dataclass(frozen=True)
class HypothesisReport:
    """Measures of initial data that hypothesis_check admitted: mass,
    sup norm, second moment, and the L^2 norm of d_r(u^m), plus whether the
    data stays clear of the outer 5% of the domain (see _reaches_boundary)."""

    mass: float
    linf: float
    second_moment: float
    grad_um_l2: float
    support_clear_of_boundary: bool


def _reaches_boundary(u: RadialField) -> bool:
    """Whether more than 1e-8 of the mass of u lies in the outer 5% of the
    domain, where the truncated domain stops emulating whole space."""
    tail = slice(int(0.95 * u.grid.n), None)
    return float(u.values[tail] @ u.grid.volumes[tail]) > 1e-8 * max(mass(u), 1e-300)


def hypothesis_check(u0: RadialField, exps: Exponents) -> HypothesisReport:
    """Check that initial data is finite and nonnegative (ValueError
    otherwise) and measure what the dichotomy's hypotheses ask of it: mass,
    sup norm, second moment and the L^2 norm of d_r(u^m).  Warns if the data
    already reaches the outer 5% of the domain."""
    _check_density(u0.values, "hypothesis_check")
    um = u0.values**exps.m
    g = (um[1:] - um[:-1]) / u0.grid.dr
    rho = u0.grid.edges[1:-1]
    grad_l2 = float(np.sqrt(np.sum(g**2 * 4.0 * np.pi * rho**2 * u0.grid.dr)))
    clear = not _reaches_boundary(u0)
    if not clear:
        warnings.warn("initial support touches the outer 5% of the domain")
    return HypothesisReport(
        mass=mass(u0),
        linf=lp_norm(u0, np.inf),
        second_moment=second_moment(u0),
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

    u0 passes hypothesis_check first.  Records diagnostics every
    cfg.record_every steps (plus the initial and final states).  The step
    collapses when it no longer advances t.
    Outcomes: CompletedBounded when t_end is reached; BlowupDetected when
    the sup norm crosses the trigger (or the step collapses while the run
    is focusing); Inconclusive otherwise, as when any step, the final one
    retaken to land on t_end included, raises NonFiniteValue.  If the
    innermost shell cannot hold the trigger's mass, run warns once the run
    starts focusing.
    """
    rep = hypothesis_check(u0, exps)
    warned_truncation = not rep.support_clear_of_boundary
    trigger = cfg.blowup_factor * max(1.0, rep.linf)
    focusing = _FOCUSING * max(rep.linf, 1e-300)
    # blow-up is only seen once the trigger's mass fits in the innermost shell
    need = trigger * float(u0.grid.volumes[0])
    too_coarse = need > 0.8 * rep.mass > 0.0

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
    dt = 0.0  # the last step taken
    record(u, t, dt)

    while True:
        if t >= cfg.t_end:
            outcome = Outcome.COMPLETED_BOUNDED
            break
        try:
            u_new, dt_new = step(u, kernel, exps, cfg)
            if t + dt_new > cfg.t_end:
                # retake the final step exactly to the horizon
                u_new, dt_new = step(u, kernel, exps, cfg, dt=cfg.t_end - t)
        except NonFiniteValue:
            break  # Inconclusive
        if t + dt_new == t:
            # the step-size rule collapsed; growing sup norm means focusing
            if lp_norm(u, np.inf) > focusing:
                outcome, t_detect = Outcome.BLOWUP_DETECTED, t
            break
        u, dt = u_new, dt_new
        t += dt
        nstep += 1

        linf = lp_norm(u, np.inf)
        if linf > trigger:
            outcome = Outcome.BLOWUP_DETECTED
            t_detect = t
            break
        if too_coarse and linf > focusing:
            warnings.warn(f"grid too coarse for the blow-up trigger: it needs {need:.3g} mass "
                          f"in the innermost shell, {rep.mass:.3g} available; refine the grid "
                          "or lower blowup_factor")
            too_coarse = False
        if nstep % cfg.record_every == 0:
            record(u, t, dt)
        if not warned_truncation and _reaches_boundary(u):
            warnings.warn("mass reached the outer 5% of the domain; "
                          "whole-space emulation degraded")
            warned_truncation = True

    if rows[-1][0] < t:
        record(u, t, dt)
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

    rhs is the exact identity functionals._moment_rate at F(u) and int u^m;
    lhs sums r^2 times the divergence of the upwind face flux at u (the one
    `dissipation` reads), the rate of `step` as dt -> 0.  The two agree up
    to discretization error, and both vanish at the threshold steady
    profile.
    """
    flux, _ = _upwind_flux(u, exps, kernel)
    rhs = _moment_rate(exps, free_energy(u, exps, kernel), lp_norm(u, exps.m) ** exps.m)
    w = len(flux) - 1  # the window; the divergence vanishes beyond it
    lhs = float((flux[:-1] - flux[1:]) / u.grid.volumes[:w] @ u.grid.moment_weights[:w])
    return lhs, float(rhs)


def trace_to_csv(trace: SimTrace, path) -> None:
    """Write the diagnostic series as CSV with header
    t,mass,lm,linf,F,m2,dissipation,dt at 15 significant digits."""
    _write_csv(path, ",".join(_COLUMNS), [getattr(trace, name) for name in _COLUMNS])
