"""Radial convolution with the attraction kernel |x - y|^(-lam) in d = 3.

For radial densities the convolution reduces to a one-dimensional integral:
averaging the kernel over the sphere of source radius r' gives

    K(r, r') = 2 pi / ((2 - lam) r r') * [ (r + r')^(2-lam) - |r - r'|^(2-lam) ],

to be integrated against u(r') r'^2 dr'.  The factor in brackets has
closed-form antiderivatives in r', so the influence of each source shell on
each target radius is integrated exactly for a piecewise-constant density;
the mild kink of |r - r'|^(2-lam) at r = r' therefore costs no accuracy.
The per-pair weights are assembled once per grid into dense tables, making
potential evaluation a matrix-vector product.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .errors import GridMismatch, UnsupportedDimension
from .field import RadialField, RadialGrid

__all__ = [
    "ReducedKernel",
    "build_kernel",
    "potential",
    "potential_symmetric",
    "potential_at",
    "force",
    "interaction",
]

_CHUNK = 256


@dataclass(frozen=True)
class ReducedKernel:
    """Precomputed shell-to-shell interaction weights on one grid.

    pot[i, j]   plain potential weight: phi(r_i) = sum_j pot[i, j] u_j, where
                phi is the convolution of u with |x|^(-lam) (no prefactor).
                The two estimates of a shell-pair integral, V_i pot[i, j] and
                V_j pot[j, i], agree to discretization accuracy; their exact
                average is used by interaction_matvec so that the interaction
                energy is an exactly symmetric quadratic form, while the raw
                rows keep the pointwise potential second-order consistent
                with the face force.
    frc[f, j]   radial derivative of the plain potential at face f (the face
                at r = 0 is zero by symmetry).
    """

    grid: RadialGrid
    lam: float
    pot: np.ndarray = dataclass_field(repr=False)
    frc: np.ndarray = dataclass_field(repr=False)

    def __post_init__(self):
        self.pot.flags.writeable = False
        self.frc.flags.writeable = False

    def interaction_matvec(self, values: np.ndarray) -> np.ndarray:
        """Symmetrized potential (S u)_i / V_i with S = (V W + W^T V)/2.

        The quadratic form (uV) . result is the interaction energy; its
        kernel matrix S is exactly symmetric, while the raw rows W keep the
        target evaluation exact for the pointwise potential.  The build-grid
        volumes cancel between the two halves, so the result is valid on any
        length-rescaled grid once multiplied by the outer scale factor."""
        volumes = self.grid.volumes
        uv = values * volumes
        return 0.5 * (self.pot @ values + (self.pot.T @ uv) / volumes)


def _shell_integral(r: np.ndarray, a: np.ndarray, b: np.ndarray, t: float) -> np.ndarray:
    """Integral over source cells [a, b] of x [(r + x)^t - |x - r|^t] for a
    column of target radii r, by its closed-form antiderivatives P and M."""

    def P(x):
        return (r + x) ** (t + 2.0) / (t + 2.0) - r * (r + x) ** (t + 1.0) / (t + 1.0)

    def M(x):
        w = x - r
        aw = np.abs(w)
        return r * np.sign(w) * aw ** (t + 1.0) / (t + 1.0) + aw ** (t + 2.0) / (t + 2.0)

    return (P(b[None, :]) - M(b[None, :])) - (P(a[None, :]) - M(a[None, :]))


def _pot_rows_exact(r: np.ndarray, a: np.ndarray, b: np.ndarray, lam: float) -> np.ndarray:
    """Exact integral over source cells [a, b] of the reduced kernel, for
    strictly positive target radii r.  Returns shape (len(r), len(a))."""
    t = 2.0 - lam
    r = r[:, None]
    return (2.0 * np.pi / t) * _shell_integral(r, a, b, t) / r


def _pot_row_origin(a: np.ndarray, b: np.ndarray, lam: float) -> np.ndarray:
    """Limit of the reduced kernel row at target r = 0: 4 pi r'^(-lam) r'^2."""
    t = 2.0 - lam
    return 4.0 * np.pi * (b ** (t + 1.0) - a ** (t + 1.0)) / (t + 1.0)


def _frc_rows_exact(r: np.ndarray, a: np.ndarray, b: np.ndarray, lam: float) -> np.ndarray:
    """Exact radial derivative of the potential rows at radii r > 0."""
    t = 2.0 - lam
    r = r[:, None]

    def P2(x):
        return (r + x) ** (t + 1.0) / (t + 1.0) - r * (r + x) ** t / t

    def G(x):
        w = x - r
        aw = np.abs(w)
        return -r * aw**t / t - np.sign(w) * aw ** (t + 1.0) / (t + 1.0)

    I = _shell_integral(r, a, b, t)
    D = t * ((P2(b[None, :]) - G(b[None, :])) - (P2(a[None, :]) - G(a[None, :])))
    return (2.0 * np.pi / t) * (-I / r**2 + D / r)


def build_kernel(grid: RadialGrid, lam: float, *, d: int = 3) -> ReducedKernel:
    """Assemble the dense potential and force weight tables for one grid.

    Only d = 3 is supported (the angular reduction above is specific to it);
    the kernel power must satisfy 0 < lam < 1.
    """
    if d != 3:
        raise UnsupportedDimension(f"radial kernel reduction requires d = 3, got d = {d}")
    if not (0.0 < lam < 1.0):
        raise ValueError(f"kernel power must satisfy 0 < lam < 1, got {lam}")

    e = grid.edges
    a, b = e[:-1], e[1:]
    centers = grid.centers
    n = grid.n

    pot = np.empty((n, n))
    for lo in range(0, n, _CHUNK):
        hi = min(lo + _CHUNK, n)
        pot[lo:hi] = _pot_rows_exact(centers[lo:hi], a, b, lam)

    faces = e
    frc = np.empty((n + 1, n))
    frc[0] = 0.0
    for lo in range(1, n + 1, _CHUNK):
        hi = min(lo + _CHUNK, n + 1)
        frc[lo:hi] = _frc_rows_exact(faces[lo:hi], a, b, lam)

    return ReducedKernel(grid=grid, lam=lam, pot=pot, frc=frc)


def _scale_factor(kernel: ReducedKernel, grid: RadialGrid, power_offset: float) -> float:
    """Length-rescaling factor between the kernel's build grid and a target
    grid with the same cell count.  The pure power kernel is homogeneous, so
    its weight tables on a grid scaled by c are the original ones times
    c^(3 - lam) (potential) or c^(2 - lam) (force); on the build grid itself
    c = 1 exactly and so is the factor."""
    if grid.n != kernel.grid.n:
        raise GridMismatch(
            f"kernel built for n = {kernel.grid.n}, field has n = {grid.n}"
        )
    c = grid.r_max / kernel.grid.r_max
    return c ** (3.0 - kernel.lam - power_offset)


def potential(u: RadialField, kernel: ReducedKernel, c_ds: float) -> RadialField:
    """Attraction potential c = c_ds * (u convolved with |x|^(-lam)) at cell
    centers.  Nonnegative, and radially nonincreasing whenever u is."""
    fac = _scale_factor(kernel, u.grid, 0.0)
    return RadialField(u.grid, c_ds * fac * (kernel.pot @ u.values))


def force(u: RadialField, kernel: ReducedKernel, c_ds: float) -> np.ndarray:
    """Radial derivative of the potential at the n+1 cell faces (zero at
    r = 0 by symmetry); nonpositive for nonincreasing u."""
    fac = _scale_factor(kernel, u.grid, 1.0)
    return c_ds * fac * (kernel.frc @ u.values)



def potential_symmetric(u: RadialField, kernel: ReducedKernel) -> RadialField:
    """Plain potential through the volume-symmetrized weights (the variant
    whose quadratic form against u V is exactly the interaction energy)."""
    fac = _scale_factor(kernel, u.grid, 0.0)
    return RadialField(u.grid, fac * kernel.interaction_matvec(u.values))


def interaction(u: RadialField, kernel: ReducedKernel) -> float:
    """Interaction energy h(u) = iint u(x) u(y) |x - y|^(-lam) dx dy (no
    prefactor): an exactly symmetric, nonnegative quadratic form in u."""
    fac = _scale_factor(kernel, u.grid, 0.0)
    phi = kernel.interaction_matvec(u.values)
    return float(fac * ((u.values * u.grid.volumes) @ phi))


def potential_at(u: RadialField, r_targets: np.ndarray, lam: float) -> np.ndarray:
    """Plain potential of u (no prefactor) at arbitrary target radii.

    Rows are integrated on the fly with the same exact antiderivatives as
    build_kernel but without the volume symmetrization; targets at or very
    near r = 0 use the analytic limit of the reduced kernel.
    """
    r_targets = np.atleast_1d(np.asarray(r_targets, dtype=float))
    e = u.grid.edges
    a, b = e[:-1], e[1:]
    out = np.empty(len(r_targets))
    tiny = r_targets < 1e-10 * u.grid.r_max
    if np.any(tiny):
        out[tiny] = _pot_row_origin(a, b, lam) @ u.values
    if np.any(~tiny):
        out[~tiny] = _pot_rows_exact(r_targets[~tiny], a, b, lam) @ u.values
    return out
