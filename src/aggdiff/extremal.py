"""Maximizer of the interaction quotient and the dichotomy thresholds.

The quotient J(u) = h(u) / (||u||_1^a0 ||u||_m^b0) attains its supremum
cstar at a nonnegative, radial, nonincreasing, compactly supported profile W
(normalized here to ||W||_1 = ||W||_m = 1).  At the maximum, W satisfies the
stationarity condition

    2 phi(r) = b0 cstar W^(m-1)(r) + a0 cstar      on the support,

with phi the plain potential of W.  The solver iterates exactly this
relation as a damped fixed point: invert it at phi and C_k = h(W_k) for a
raw update, mix that into W_k by the fixed damping weight, renormalize, and
take the phi and h of the result, which serve the next update and the
residual, from one kernel product.  Because the renormalization rescales
the grid exactly (no resampling) and the kernel tables are homogeneous in
the grid length, one dense kernel serves the whole iteration.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .errors import NoConvergence, ZeroField
from .field import (
    RadialField,
    RadialGrid,
    field_from_function,
    lp_norm,
    normalize_both_norms,
    pad_grid,
    rearrange_decreasing,
    resample_to,
    scale_field,
)
from .functionals import Thresholds, _check_kernel, xstar_threshold
from .params import Exponents, hls_sharp_constant
# interaction, rearrange_decreasing: unused here; the benchmark's tracer wraps them
from .riesz import ReducedKernel, build_kernel, interaction, potential

__all__ = [
    "ExtremalOptions",
    "ExtremalProfile",
    "solve_extremal",
    "el_residual",
    "threshold_profile",
    "threshold_field",
    "compute_thresholds",
    "support_radius",
]

_SUPPORT_CUTOFF = 1e-12
# the weight of the raw update in each damped fixed-point step
_DAMPING = 0.5
# the values of ExtremalOptions.init: starting profiles in r, r0 = r_max / 4 and m
_INITS = {
    "bump": lambda r, r0, m: np.maximum(1.0 - (r / r0) ** 2, 0.0) ** (1.0 / (m - 1.0)),
    "gaussian": lambda r, r0, m: np.exp(-((r / r0) ** 2)),
}


@dataclass(frozen=True)
class ExtremalOptions:
    """Solver knobs: the stationarity residual at which the solve stops, the
    iteration budget and the starting profile on the grid (_INITS)."""

    tol_res: float = 1e-4
    max_iter: int = 800
    init: str = "bump"

    def __post_init__(self):
        if not 0.0 < self.tol_res < np.inf:
            raise ValueError("tol_res must be positive and finite")
        if not (isinstance(self.max_iter, (int, np.integer)) and self.max_iter >= 1):
            raise ValueError(f"max_iter must be an integer of at least 1, got {self.max_iter!r}")
        if self.init not in _INITS:
            raise ValueError(f"unknown extremal.init {self.init!r}; "
                             f"expected one of {', '.join(_INITS)}")


@dataclass(frozen=True, eq=False)
class ExtremalProfile:
    """Converged (or best-so-far) maximizer with diagnostics.

    w is normalized to unit mass and unit L^m norm; cstar = h(w) equals the
    quotient J(w) under that normalization.  j_history records the quotient
    at every accepted iteration (it must be nondecreasing).  Profiles
    compare by identity, as their fields do.
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
    _check_kernel(exps, kernel)
    return _residual(w, potential(w, kernel), cstar, exps)


def _residual(w: RadialField, phi: np.ndarray, cstar: float, exps: Exponents) -> float:
    """el_residual of w, given its potential phi."""
    vmax = float(np.max(w.values))
    if vmax <= 0.0 or cstar <= 0.0:
        raise ZeroField("stationarity residual needs a nonzero profile")
    on = w.values > _SUPPORT_CUTOFF * vmax
    defect = 2.0 * phi[on] - exps.b0 * cstar * w.values[on] ** (exps.m - 1.0) \
        - exps.a0 * cstar
    return float(np.max(np.abs(defect)) / (exps.a0 * cstar))


def _phi_and_h(w: RadialField, kernel: ReducedKernel) -> tuple[np.ndarray, float]:
    """The potential phi of w and h(w) = (w V) . phi, from one kernel product."""
    phi = potential(w, kernel)
    return phi, float((w.values * w.grid.volumes) @ phi)


def solve_extremal(
    exps: Exponents,
    grid: RadialGrid,
    opts: ExtremalOptions | None = None,
) -> ExtremalProfile:
    """Compute the quotient maximizer by damped fixed-point iteration from
    the starting profile opts.init on grid.

    The solve stops at the first accepted update whose stationarity residual
    is at most tol_res.  Raises NoConvergence (with the best profile
    attached) if an update would lower the quotient by more than 1e-12
    relative, if the iteration budget runs out first, or if the converged
    constant exceeds the sharp bound hls_sharp_constant(d, lam), which no
    maximizer can (Hoelder interpolation): such a constant is a grid artefact.
    """
    opts = opts or ExtremalOptions()
    kernel = build_kernel(grid, exps.lam)
    _check_kernel(exps, kernel)
    start = field_from_function(grid, lambda r: _INITS[opts.init](r, grid.r_max / 4.0, exps.m))
    w, _, _ = normalize_both_norms(start, exps)
    phi, c_k = _phi_and_h(w, kernel)
    j_hist = [c_k]
    converged = False
    fall = 0.0
    c_hls = hls_sharp_constant(exps.d, exps.lam)

    for it in range(1, opts.max_iter + 1):
        # Keep the support comfortably inside the domain and resolved: the
        # grid tracks the profile, the kernel rescales with it for free.
        r_sup = support_radius(w)
        if r_sup > 0.8 * w.grid.r_max or 0.0 < r_sup < w.grid.r_max / 10.0:
            w = resample_to(w, RadialGrid(w.grid.n, 4.0 * r_sup))
            w, _, _ = normalize_both_norms(w, exps)
            phi, c_k = _phi_and_h(w, kernel)

        raw = np.maximum(2.0 * phi - exps.a0 * c_k, 0.0) / (exps.b0 * c_k)
        w_hat = raw ** (1.0 / (exps.m - 1.0))
        mixed = (1.0 - _DAMPING) * w.values + _DAMPING * w_hat
        trial, _, _ = normalize_both_norms(RadialField(w.grid, mixed), exps)
        phi_new, c_new = _phi_and_h(trial, kernel)
        if c_new < c_k * (1.0 - 1e-12):
            fall = (c_k - c_new) / c_k
            break

        w, phi, c_k = trial, phi_new, c_new
        j_hist.append(c_k)
        if _residual(w, phi, c_k, exps) <= opts.tol_res:
            converged = c_k <= c_hls
            break

    profile = ExtremalProfile(
        w=w,
        cstar=c_k,
        support_radius=support_radius(w),
        el_residual=_residual(w, phi, c_k, exps),
        iterations=it,
        converged=converged,
        j_history=np.asarray(j_hist),
    )
    if not converged:
        why = f"iteration budget of {opts.max_iter} spent after {it} iterations"
        if fall:
            why = f"iteration {it} lowers the quotient by {fall:.3e} relative"
        elif profile.el_residual <= opts.tol_res:
            why = (f"iteration {it} converges to cstar {c_k:.6g} = {c_k / c_hls:.4f} C_HLS, "
                   f"above the sharp bound C_HLS(d, lam) = {c_hls:.6g}")
        raise NoConvergence(f"{why} (residual {profile.el_residual:.3e})",
                            profile=profile)
    return profile


def threshold_profile(profile: ExtremalProfile, exps: Exponents) -> RadialField:
    """The member alpha * W(lam x) of the maximizer family that sits exactly
    at the barrier maximum: ||.||_1^a ||.||_m^m = x_star, with sup-norm one
    for numerical conditioning.  Exact because the rescaling is exact; lam is
    rooted factor by factor, so it overflows nowhere x_star is finite."""
    thr = compute_thresholds(profile, exps)
    w_inf = lp_norm(profile.w, np.inf)
    # product(alpha W(lam x)) = alpha^(a+m) lam^(-d(a+1)) for unit-norm W; rooted per factor
    d_a1 = exps.d * (exps.a + 1.0)
    lam = thr.x_star ** (-1.0 / d_a1) * w_inf ** (-(exps.a + exps.m) / d_a1)
    return scale_field(profile.w, 1.0 / w_inf, lam)


def threshold_field(profile: ExtremalProfile, exps: Exponents) -> RadialField:
    """The dichotomy's run field: threshold_profile padded to 8x its support
    radius, room to spread (the product stays x_star; a re-pad returns it)."""
    wt = threshold_profile(profile, exps)
    return pad_grid(wt, 8.0 * support_radius(wt))


def compute_thresholds(profile: ExtremalProfile, exps: Exponents) -> Thresholds:
    """Barrier maximizer location and height from the converged constant;
    NoConvergence, with the profile attached, if it did not converge."""
    if not profile.converged:
        raise NoConvergence("thresholds require a converged maximizer", profile=profile)
    return xstar_threshold(exps, profile.cstar)
