"""Radial grids, nonnegative density fields, and their basic functionals.

Fields are radially symmetric densities on a uniform cell-centered grid in
the radius r, with exact spherical-shell volumes (d = 3).  Cell values are
interpreted as shell averages, so sums like sum(u_i * V_i) are the discrete
integrals.  Density values are finite and nonnegative: _check_density is
the one definition, run at each door values come in by (field_from_values,
field_from_csv, hypothesis_check and so run, and classify).  All reductions
(mass, norms, moments) are defined here, together with the exact
two-parameter rescaling u -> alpha * u(lambda x), which acts on (values,
grid) jointly without any interpolation: the grid radii divide by lambda and
the values multiply by alpha, so every power-law transformation rule holds
to machine precision.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import ZeroField
from .params import Exponents

__all__ = [
    "RadialGrid",
    "RadialField",
    "field_from_function",
    "field_from_values",
    "mass",
    "lp_norm",
    "second_moment",
    "scale_field",
    "apply_dynamic_scaling",
    "normalize_both_norms",
    "rearrange_decreasing",
    "resample_to",
    "pad_grid",
    "field_to_csv",
    "field_from_csv",
]

# Gauss-Legendre nodes for the per-cell construction quadrature.  Six points
# integrate the smooth profiles used here to far below the grid truncation
# error.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(6)


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _support_extent(values: np.ndarray) -> int:
    """Index of the last nonzero cell plus one (0 for the zero field)."""
    nonzero = values.nonzero()[0]
    return int(nonzero[-1]) + 1 if nonzero.size else 0


def _check_density(values: np.ndarray, what: str) -> None:
    """Raise ValueError, naming what, unless values are finite and nonnegative."""
    if not np.isfinite(values).all():
        raise ValueError(f"{what}: non-finite density value")
    if (values < 0.0).any():
        raise ValueError(f"{what}: negative density value")


@dataclass(frozen=True)
class RadialGrid:
    """Uniform cell-centered radial grid on [0, r_max] with n shells.

    volumes[i] is the exact shell volume (4pi/3)(r_{i+1/2}^3 - r_{i-1/2}^3)
    and moment_weights[i] the exact shell integral of r^2, so that
    sum(u * moment_weights) is the discrete second moment.
    """

    n: int
    r_max: float

    def __post_init__(self):
        if not (isinstance(self.n, (int, np.integer)) and self.n >= 2):
            raise ValueError(f"grid needs an integer count of at least 2 cells, got {self.n!r}")
        if not 0.0 < self.r_max < np.inf:
            raise ValueError("r_max must be positive and finite")

    @property
    def dr(self) -> float:
        return self.r_max / self.n

    @cached_property
    def edges(self) -> np.ndarray:
        return _frozen(np.linspace(0.0, self.r_max, self.n + 1))

    @cached_property
    def centers(self) -> np.ndarray:
        return _frozen((np.arange(self.n) + 0.5) * self.dr)

    @cached_property
    def volumes(self) -> np.ndarray:
        e = self.edges
        return _frozen((4.0 * np.pi / 3.0) * (e[1:] ** 3 - e[:-1] ** 3))

    @cached_property
    def moment_weights(self) -> np.ndarray:
        e = self.edges
        return _frozen((4.0 * np.pi / 5.0) * (e[1:] ** 5 - e[:-1] ** 5))

    @cached_property
    def face_areas(self) -> np.ndarray:
        return _frozen(4.0 * np.pi * self.edges**2)

    def __reduce__(self):
        # pickled as (n, r_max): the tables are rebuilt read-only on first use
        return RadialGrid, (self.n, self.r_max)

    def compatible(self, other: "RadialGrid") -> bool:
        return self.n == other.n and np.isclose(
            self.r_max, other.r_max, rtol=1e-13, atol=0.0
        )


@dataclass(frozen=True, eq=False)
class RadialField:
    """Nonnegative radial density: per-cell values on a RadialGrid, and their
    support extent (_support_extent, set once by the constructor).  The
    constructor checks the shape only: values from outside are checked at
    their door (_check_density).  Fields compare by identity."""

    grid: RadialGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.n,):
            raise ValueError(
                f"values shape {v.shape} does not match grid n = {self.grid.n}"
            )
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "extent", _support_extent(v))

    def __reduce__(self):
        # rebuilt by the constructor: read-only values, no cache kept on it
        return RadialField, (self.grid, self.values)

    def with_values(self, values: np.ndarray) -> "RadialField":
        return RadialField(self.grid, values)


def field_from_values(grid: RadialGrid, values: np.ndarray) -> RadialField:
    """The field of finite, nonnegative cell values (ValueError otherwise)."""
    values = np.asarray(values, dtype=float)
    _check_density(values, "field_from_values")
    return RadialField(grid, values)


def field_from_function(grid: RadialGrid, f: Callable[[np.ndarray], np.ndarray]) -> RadialField:
    """Build a field by volume-averaging f over each shell.

    The average uses Gauss-Legendre quadrature of the integrand 4*pi*r^2*f(r),
    which makes the discrete mass agree with the continuum integral of f to
    quadrature precision (not just to O(dr^2) midpoint accuracy).
    """
    e = grid.edges
    a, b = e[:-1], e[1:]
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    acc = np.zeros(grid.n)
    for x, w in zip(_GL_NODES, _GL_WEIGHTS):
        r = mid + half * x
        acc += w * half * 4.0 * np.pi * r**2 * np.asarray(f(r), dtype=float)
    values = np.maximum(acc / grid.volumes, 0.0)
    return RadialField(grid, values)


def mass(u: RadialField) -> float:
    """Total mass sum(u_i V_i), the discrete integral of u."""
    return float(u.values @ u.grid.volumes)


def lp_norm(u: RadialField, q: float) -> float:
    """Discrete L^q norm (sum(u_i^q V_i))^(1/q); q = inf gives max u_i."""
    if q == np.inf:
        return float(np.max(u.values))
    if not q >= 1.0:
        raise ValueError(f"lp_norm needs q >= 1 or q = inf, got {q}")
    return float((u.values**q) @ u.grid.volumes) ** (1.0 / q)


def second_moment(u: RadialField) -> float:
    """Discrete integral of r^2 u, with r^2 integrated exactly per shell."""
    return float(u.values @ u.grid.moment_weights)


def scale_field(u: RadialField, alpha: float, lam: float) -> RadialField:
    """Exact two-parameter rescaling x -> alpha * u(lam * x).

    Implemented by moving the grid: the new grid has r_max / lam, the values
    multiply by alpha.  No resampling occurs, so all norm transformation laws
    are exact: ||out||_q^q = alpha^q lam^(-3) ||u||_q^q.
    """
    if not lam > 0 or not alpha > 0:
        raise ValueError("alpha and lam must be positive")
    new_grid = RadialGrid(u.grid.n, u.grid.r_max / lam)
    return RadialField(new_grid, alpha * u.values)


def apply_dynamic_scaling(u: RadialField, lam: float, exps: Exponents) -> RadialField:
    """Apply the invariant rescaling u_lam(x) = lam^(2s/(2-m)) u(lam x) exactly:
    the grid is rescaled (see scale_field), with no interpolation."""
    alpha = lam ** (2.0 * exps.s / (2.0 - exps.m))
    return scale_field(u, alpha, lam)


def resample_to(u: RadialField, grid: RadialGrid) -> RadialField:
    """Linearly interpolate u onto another grid, clamping at zero; mass past
    grid.r_max is dropped."""
    vals = np.interp(grid.centers, u.grid.centers, u.values, left=u.values[0], right=0.0)
    return RadialField(grid, np.maximum(vals, 0.0))


def pad_grid(u: RadialField, r_max_new: float) -> RadialField:
    """Extend the domain to at least r_max_new by appending zero cells.

    Existing values are copied unchanged and the cell width is kept up to
    roundoff: the new grid re-derives dr and its edges from n_new * dr, so
    dr may differ in its last bits and the old outer edge r_max move by a
    few ulps.  Each of the first n shell volumes agrees with the old one to
    a relative 4 n eps (n the old cell count; the difference of cubes in a
    volume amplifies an edge's shift by up to the cell index), and so do
    mass, norms and moments, which are sums over those volumes.  For a field
    spread over its grid, mass agrees far closer, to about 1e-14 relative.
    """
    if r_max_new <= u.grid.r_max:
        return u
    dr = u.grid.dr
    n_new = int(np.ceil(r_max_new / dr - 1e-12))
    vals = np.zeros(n_new)
    vals[: u.grid.n] = u.values
    return RadialField(RadialGrid(n_new, n_new * dr), vals)


def normalize_both_norms(
    u: RadialField, exps: Exponents
) -> tuple[RadialField, float, float]:
    """Rescale a field so both its mass and its L^m norm equal one.

    Returns (u_bar, lam, alpha) with u_bar(x) = alpha * u(lam x), where

        lam   = ||u||_1^(m/(d(m-1))) * ||u||_m^(-m/(d(m-1)))
        alpha = lam^d / ||u||_1.

    Because the rescaling moves the grid instead of resampling, both discrete
    norms come out equal to one up to floating-point roundoff.  A field that
    is already normalized is a fixed point: lam = alpha = 1.
    """
    m, d = exps.m, exps.d
    n1 = mass(u)
    if n1 <= 0.0:
        raise ZeroField("cannot normalize the zero field")
    nm = lp_norm(u, m)
    lam = n1 ** (m / (d * (m - 1.0))) * nm ** (-m / (d * (m - 1.0)))
    alpha = lam**d / n1
    return scale_field(u, alpha, lam), float(lam), float(alpha)


def rearrange_decreasing(u: RadialField) -> RadialField:
    """Symmetric decreasing rearrangement onto the same grid.

    Works through the distribution function in the volume coordinate
    v = (4pi/3) r^3: cells are ranked by value, their volumes accumulated,
    and each output shell receives the volume average of the rearranged
    profile over its own volume interval.  This preserves mass exactly and
    the measure of every superlevel set to within one shell volume, and is
    idempotent on already nonincreasing fields.
    """
    vals = u.values
    vols = u.grid.volumes
    order = np.argsort(-vals, kind="stable")
    v_sorted = vals[order]
    vol_sorted = vols[order]
    knots = np.concatenate(([0.0], np.cumsum(vol_sorted)))
    cum_int = np.concatenate(([0.0], np.cumsum(v_sorted * vol_sorted)))
    e = u.grid.edges
    cell_bounds = (4.0 * np.pi / 3.0) * e**3
    s = np.interp(cell_bounds, knots, cum_int)
    out = np.diff(s) / vols
    return RadialField(u.grid, np.maximum(out, 0.0))


def _write_csv(path, header: str, columns) -> None:
    """Write equal-length columns under a header line as CSV rows of %.14e
    values (15 significant digits); every CSV the package writes uses it."""
    np.savetxt(path, np.column_stack(columns), fmt="%.14e", delimiter=",",
               header=header, comments="")


def field_to_csv(u: RadialField, path) -> None:
    """Write the field as CSV with header r,u and 15 significant digits."""
    _write_csv(path, "r,u", (u.grid.centers, u.values))


def field_from_csv(path) -> RadialField:
    """Read a field written by field_to_csv: header r,u, then one finite row
    per cell centre of a uniform grid whose first centre is dr/2, with a
    nonnegative density.  A file that is not such a table raises ValueError
    (a missing one, OSError)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # header-only file: caught below
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[0] < 2 or data.shape[1] != 2:
        raise ValueError(f"field CSV needs columns r,u and at least 2 rows, "
                         f"got shape {data.shape}")
    r = data[:, 0]
    vals = data[:, 1]
    _check_density(vals, "field CSV")
    n = len(r)
    dr = r[1] - r[0]
    if not np.allclose(np.diff(r), dr, rtol=1e-10):
        raise ValueError("field CSV must be on a uniform radial grid")
    if not np.isclose(r[0], 0.5 * dr, rtol=1e-10, atol=0.0):
        raise ValueError(f"field CSV radii must start at dr/2, got {r[0]:g}")
    return RadialField(RadialGrid(n, n * dr), vals)
