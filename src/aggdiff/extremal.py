"""Maximizer of the interaction quotient and the dichotomy thresholds.

The quotient J(u) = h(u) / (||u||_1^a0 ||u||_m^b0) attains its supremum
cstar at a nonnegative, radial, nonincreasing, compactly supported profile W
(normalized here to ||W||_1 = ||W||_m = 1).  At the maximum, W satisfies the
stationarity condition

    2 phi(r) = b0 cstar W^(m-1)(r) + a0 cstar      on the support,

with phi the plain potential of W.  The solver iterates exactly this
relation as a damped fixed point: evaluate phi and C_k = h(W_k), invert the
stationarity condition for a raw update, mix with the current iterate,
renormalize, and backtrack on the damping whenever the quotient would
decrease.  Because the renormalization rescales the grid exactly (no
resampling) and the kernel tables are homogeneous in the grid length, one
dense kernel serves the whole iteration.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .errors import NoConvergence, NotConverged, UnsupportedDimension, ZeroField
from .field import (
    RadialField,
    RadialGrid,
    field_from_function,
    lp_norm,
    normalize_both_norms,
    rearrange_decreasing,
    resample_to,
    scale_field,
)
from .functionals import Thresholds, xstar_threshold
from .params import Exponents
from .riesz import ReducedKernel, build_kernel, interaction, potential_symmetric

__all__ = [
    "ExtremalOptions",
    "ExtremalProfile",
    "solve_extremal",
    "el_residual",
    "threshold_profile",
    "compute_thresholds",
    "support_radius",
]

_SUPPORT_CUTOFF = 1e-12


@dataclass(frozen=True)
class ExtremalOptions:
    """Solver knobs: quotient stagnation tolerance (relative), stationarity
    residual tolerance, iteration budget, and initial damping weight."""

    tol_j: float = 1e-10
    tol_res: float = 1e-4
    max_iter: int = 800
    damping: float = 0.5

    def __post_init__(self):
        if not self.tol_j >= 0:
            raise ValueError("tol_j must be nonnegative")
        if not self.tol_res > 0:
            raise ValueError("tol_res must be positive")
        if not self.max_iter >= 1:
            raise ValueError("max_iter must be at least 1")
        if not 0.0 < self.damping <= 1.0:
            raise ValueError("damping must lie in (0, 1]")


@dataclass(frozen=True)
class ExtremalProfile:
    """Converged (or best-so-far) maximizer with diagnostics.

    w is normalized to unit mass and unit L^m norm; cstar = h(w) equals the
    quotient J(w) under that normalization.  j_history records the quotient
    at every accepted iteration (it must be nondecreasing).
    """

    w: RadialField
    cstar: float
    support_radius: float
    el_residual: float
    iterations: int
    converged: bool
    j_history: np.ndarray = dataclass_field(repr=False, default=None)


def support_radius(w: RadialField) -> float:
    """Largest cell-center radius with w above 1e-12 * max(w)."""
    vmax = float(np.max(w.values))
    if vmax <= 0.0:
        return 0.0
    idx = np.nonzero(w.values > _SUPPORT_CUTOFF * vmax)[0]
    return float(w.grid.centers[idx[-1]])


def el_residual(
    w: RadialField, cstar: float, exps: Exponents, kernel: ReducedKernel
) -> float:
    """Normalized sup-norm of the stationarity defect on the support:

        sup_{w > 0} | 2 phi - b0 cstar w^(m-1) - a0 cstar | / (a0 cstar).
    """
    vmax = float(np.max(w.values))
    if vmax <= 0.0 or cstar <= 0.0:
        raise ZeroField("stationarity residual needs a nonzero profile")
    phi = potential_symmetric(w, kernel).values
    on = w.values > _SUPPORT_CUTOFF * vmax
    defect = 2.0 * phi[on] - exps.b0 * cstar * w.values[on] ** (exps.m - 1.0) \
        - exps.a0 * cstar
    return float(np.max(np.abs(defect)) / (exps.a0 * cstar))


def _initial_field(grid: RadialGrid, kind: str, exps: Exponents) -> RadialField:
    r0 = grid.r_max / 4.0
    if kind == "bump":
        expo = 1.0 / (exps.m - 1.0)
        return field_from_function(
            grid, lambda r: np.maximum(1.0 - (r / r0) ** 2, 0.0) ** expo
        )
    if kind == "gaussian":
        return field_from_function(grid, lambda r: np.exp(-((r / r0) ** 2)))
    raise ValueError(f"unknown initialization {kind!r}")


def _is_nonincreasing(values: np.ndarray, slack: float) -> bool:
    return bool(np.all(np.diff(values) <= slack))


def solve_extremal(
    exps: Exponents,
    grid: RadialGrid,
    opts: ExtremalOptions | None = None,
    init: str = "bump",
) -> ExtremalProfile:
    """Compute the quotient maximizer by damped fixed-point iteration.

    init names the starting profile on grid: "bump", (1 - (r/r0)^2)_+^(1/(m-1)),
    or "gaussian", exp(-(r/r0)^2), with r0 = grid.r_max / 4.
    Raises NoConvergence (with the best profile attached) if the iteration
    budget runs out before both the quotient has stagnated to tol_j and the
    stationarity residual is below tol_res.
    """
    if exps.d != 3:
        raise UnsupportedDimension("the radial maximizer solver requires d = 3")
    opts = opts or ExtremalOptions()

    kernel = build_kernel(grid, exps.lam)
    w, _, _ = normalize_both_norms(_initial_field(grid, init, exps), exps)

    omega = opts.damping
    j_hist: list[float] = []
    c_k = interaction(w, kernel)
    j_hist.append(c_k)
    res = np.inf
    converged = False
    rebuilds = 0
    it = 0

    while it < opts.max_iter:
        it += 1

        # Keep the support comfortably inside the domain and resolved: the
        # grid tracks the profile, the kernel rescales with it for free.
        r_sup = support_radius(w)
        if r_sup > 0.8 * w.grid.r_max or (r_sup > 0.0 and r_sup < w.grid.r_max / 10.0):
            if rebuilds < 12:
                rebuilds += 1
                new_grid = RadialGrid(w.grid.n, 4.0 * r_sup)
                w = resample_to(w, new_grid)
                w, _, _ = normalize_both_norms(w, exps)

        phi = potential_symmetric(w, kernel).values
        c_k = float((w.values * w.grid.volumes) @ phi)
        raw = np.maximum(2.0 * phi - exps.a0 * c_k, 0.0) / (exps.b0 * c_k)
        w_hat = raw ** (1.0 / (exps.m - 1.0))

        accepted = False
        om = omega
        for _ in range(40):
            trial_vals = (1.0 - om) * w.values + om * w_hat
            trial = RadialField(w.grid, trial_vals)
            if not _is_nonincreasing(trial_vals, _SUPPORT_CUTOFF * trial_vals.max()):
                trial = rearrange_decreasing(trial)
            trial, _, _ = normalize_both_norms(trial, exps)
            c_new = interaction(trial, kernel)
            if c_new >= c_k * (1.0 - 1e-12):
                accepted = True
                break
            om *= 0.5
        if not accepted:
            break
        omega = min(max(om * 1.5, 1e-6), opts.damping)

        dj = abs(c_new - c_k)
        w = trial
        c_k = c_new
        j_hist.append(c_k)
        res = el_residual(w, c_k, exps, kernel)
        if dj <= opts.tol_j * c_k and res <= opts.tol_res:
            converged = True
            break

    profile = ExtremalProfile(
        w=w,
        cstar=c_k,
        support_radius=support_radius(w),
        el_residual=res if np.isfinite(res) else el_residual(w, c_k, exps, kernel),
        iterations=it,
        converged=converged,
        j_history=np.asarray(j_hist),
    )
    if not converged:
        raise NoConvergence(
            f"no convergence in {opts.max_iter} iterations "
            f"(residual {profile.el_residual:.3e})",
            profile=profile,
        )
    return profile


def threshold_profile(profile: ExtremalProfile, exps: Exponents) -> RadialField:
    """The member alpha * W(lam x) of the maximizer family that sits exactly
    at the barrier maximum: ||.||_1^a ||.||_m^m = x_star, with sup-norm one
    for numerical conditioning.  Exact because the rescaling is exact."""
    if not profile.converged:
        raise NotConverged("threshold profile requires a converged maximizer")
    thr = xstar_threshold(exps, profile.cstar)
    w_inf = lp_norm(profile.w, np.inf)
    alpha = 1.0 / w_inf
    # product(alpha * W(lam x)) = alpha^(a+m) lam^(-d(a+1)) for unit-norm W
    d_a1 = exps.d * (exps.a + 1.0)
    lam = (thr.x_star * w_inf ** (exps.a + exps.m)) ** (-1.0 / d_a1)
    return scale_field(profile.w, alpha, lam)


def compute_thresholds(profile: ExtremalProfile, exps: Exponents) -> Thresholds:
    """Barrier maximizer location and height from the converged constant."""
    if not profile.converged:
        raise NotConverged("thresholds require a converged maximizer")
    return xstar_threshold(exps, profile.cstar)
