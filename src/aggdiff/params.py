"""Model parameters, regime validation, and derived exponents.

The model couples porous-medium diffusion of order ``m`` with attraction
through a Riesz potential of order ``s`` in dimension ``d``.  Everything
downstream is controlled by a handful of exponents derived from (d, s, m);
this module is the single place where they are computed, so that the
algebraic identities between them can be checked once and relied upon
everywhere else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import RegimeError

__all__ = [
    "ModelParams",
    "Exponents",
    "validate",
    "derive_exponents",
    "riesz_constant",
    "hls_sharp_constant",
]


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters: dimension d, Riesz order s and diffusion
    exponent m of u_t = div(u grad mu), mu = m/(m-1) u^(m-1) - c, where c is
    the Riesz potential of order s of u."""

    d: int
    s: float
    m: float


@dataclass(frozen=True)
class Exponents:
    """Derived exponents and constants.

    p       exponent of the norm left invariant by the dynamical scaling,
            p = d(2-m)/(2s)
    a       threshold exponent a = ((d+2s)m - 2d)/(2d - 2s - dm)
    a0      mass exponent of the sharp interaction bound,
            a0 = ((d+2s)m - 2d)/(d(m-1))
    b0      L^m exponent of the sharp interaction bound,
            b0 = m(d-2s)/(d(m-1))
    beta    homogeneity exponent beta = (d-2s)/(d(m-1)) > 1
    lam     kernel power lam = d - 2s, so the kernel is |x-y|^(-lam)
    c_ds    normalization of the Riesz potential,
            Gamma(d/2-s) / (pi^(d/2) 4^s Gamma(s))

    Exact identities used as self-checks: b0 = m*beta and a + a0 = a*beta.
    """

    d: int
    s: float
    m: float
    p: float
    a: float
    a0: float
    b0: float
    beta: float
    lam: float
    c_ds: float


def validate(params: ModelParams) -> None:
    """Check the supercritical regime, raising RegimeError if violated.

    Requires strictly 2 < 2s < d and 2d/(d+2s) < m < 2 - 2s/d (with d >= 3,
    which follows from 2 < 2s < d for integer d).
    """
    d, s, m = params.d, params.s, params.m
    if not d >= 3:
        raise RegimeError(f"d >= 3 fails: d = {d}")
    if not 2.0 < 2.0 * s:
        raise RegimeError(f"2 < 2s fails: 2s = {2 * s}")
    if not 2.0 * s < d:
        raise RegimeError(f"2s < d fails: 2s = {2 * s}, d = {d}")
    lo = 2.0 * d / (d + 2.0 * s)
    hi = 2.0 - 2.0 * s / d
    if not lo < m:
        raise RegimeError(f"2d/(d+2s) < m fails: 2d/(d+2s) = {lo}, m = {m}")
    if not m < hi:
        raise RegimeError(f"m < 2-2s/d fails: 2-2s/d = {hi}, m = {m}")


def derive_exponents(params: ModelParams) -> Exponents:
    """Derive every exponent and the kernel constant from validated params."""
    validate(params)
    d, s, m = params.d, params.s, params.m
    p = d * (2.0 - m) / (2.0 * s)
    a = ((d + 2.0 * s) * m - 2.0 * d) / (2.0 * d - 2.0 * s - d * m)
    a0 = ((d + 2.0 * s) * m - 2.0 * d) / (d * (m - 1.0))
    b0 = m * (d - 2.0 * s) / (d * (m - 1.0))
    beta = (d - 2.0 * s) / (d * (m - 1.0))
    lam = d - 2.0 * s
    return Exponents(
        d=d, s=s, m=m,
        p=p, a=a, a0=a0, b0=b0, beta=beta, lam=lam,
        c_ds=riesz_constant(d, s),
    )


def riesz_constant(d: int, s: float) -> float:
    """Normalization constant of the Riesz potential of order s in R^d:
    Gamma(d/2 - s) / (pi^(d/2) 4^s Gamma(s)).

    Evaluated with log-gamma for stability; requires 0 < s < d/2 so that
    both gamma arguments are positive.
    """
    if not (0.0 < s < d / 2.0):
        raise ValueError(f"riesz_constant needs 0 < s < d/2, got d={d}, s={s}")
    log_c = (
        math.lgamma(d / 2.0 - s)
        - (d / 2.0) * math.log(math.pi)
        - s * math.log(4.0)
        - math.lgamma(s)
    )
    return math.exp(log_c)


def hls_sharp_constant(d: int, lam: float) -> float:
    """Sharp constant of the diagonal convolution inequality

        iint f(x) f(y) |x-y|^(-lam) dx dy <= C(d, lam) ||f||_q^2,
        q = 2d/(2d - lam),

    namely  C(d, lam) = pi^(lam/2) Gamma(d/2 - lam/2) / Gamma(d - lam/2)
                        * (Gamma(d/2)/Gamma(d))^(lam/d - 1).
    """
    if not (0.0 < lam < d):
        raise ValueError(f"hls_sharp_constant needs 0 < lam < d, got {lam}")
    log_c = (
        (lam / 2.0) * math.log(math.pi)
        + math.lgamma(d / 2.0 - lam / 2.0)
        - math.lgamma(d - lam / 2.0)
        + (lam / d - 1.0) * (math.lgamma(d / 2.0) - math.lgamma(d))
    )
    return math.exp(log_c)
