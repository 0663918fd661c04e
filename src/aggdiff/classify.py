"""Decision rule for global existence versus finite-time blow-up.

Initial data u0 is compared against the two threshold quantities derived
from the extremal profile: the barrier height g(x_star) bounds the scaled
free energy ||u0||_1^a F(u0), and x_star separates the invariant product
||u0||_1^a ||u0||_m^m.  Strictly below both thresholds the flow stays
bounded; above x_star (with the energy hypothesis still satisfied) it
focuses in finite time.  Data violating the energy hypothesis, or landing
inside the tolerance band around x_star, is deliberately left unclassified:
the underlying dichotomy says nothing about it, and the computed thresholds
carry discretization error of their own.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .field import RadialField, lp_norm, mass
from .functionals import Thresholds, free_energy
from .params import Exponents
from .riesz import ReducedKernel

__all__ = ["Verdict", "Classification", "classify", "barrier_check", "BarrierReport"]


class Verdict(str, Enum):
    GLOBAL_EXISTENCE = "GlobalExistence"
    FINITE_TIME_BLOWUP = "FiniteTimeBlowup"
    INDETERMINATE = "Indeterminate"


@dataclass(frozen=True)
class Classification:
    """Verdict plus the numbers it was based on.

    margins holds the signed relative distances to the two thresholds:
    product_margin = (x_star - product)/x_star (positive: below threshold),
    energy_margin = (g_at_xstar - energy_lhs)/|g_at_xstar| (positive: the
    energy hypothesis holds).
    """

    verdict: Verdict
    energy_ok: bool
    product: float
    x_star: float
    energy_lhs: float
    g_at_xstar: float
    product_margin: float
    energy_margin: float

    def to_json(self) -> str:
        payload = {
            "verdict": self.verdict.value,
            "product": self.product,
            "x_star": self.x_star,
            "energy_lhs": self.energy_lhs,
            "g_at_xstar": self.g_at_xstar,
            "margins": {
                "product": self.product_margin,
                "energy": self.energy_margin,
            },
        }
        return json.dumps(payload, indent=2)


def classify(
    u0: RadialField,
    thresholds: Thresholds,
    exps: Exponents,
    kernel: ReducedKernel,
    tol: float = 1e-3,
) -> Classification:
    """Apply the dichotomy rule with a relative tolerance band around x_star.

    GlobalExistence requires the energy hypothesis and product strictly
    below x_star by more than the band; FiniteTimeBlowup the same with the
    product above; anything else is Indeterminate.
    """
    n1 = mass(u0)
    nm = lp_norm(u0, exps.m)
    product = n1**exps.a * nm**exps.m
    energy_lhs = n1**exps.a * free_energy(u0, exps, kernel)
    x_star, g_star = thresholds.x_star, thresholds.g_at_xstar

    energy_ok = bool(energy_lhs < g_star)
    product_margin = (x_star - product) / x_star
    energy_margin = (g_star - energy_lhs) / abs(g_star)

    if not energy_ok or abs(product - x_star) <= tol * x_star:
        verdict = Verdict.INDETERMINATE
    elif product < x_star:
        verdict = Verdict.GLOBAL_EXISTENCE
    else:
        verdict = Verdict.FINITE_TIME_BLOWUP

    return Classification(
        verdict=verdict,
        energy_ok=energy_ok,
        product=product,
        x_star=x_star,
        energy_lhs=energy_lhs,
        g_at_xstar=g_star,
        product_margin=float(product_margin),
        energy_margin=float(energy_margin),
    )


@dataclass(frozen=True)
class BarrierReport:
    """Whether the recorded invariant product stayed on its side of x_star
    along a run, and the extreme ratio observed."""

    ratios: np.ndarray
    max_ratio: float
    min_ratio: float
    stayed_below: bool
    stayed_above: bool


def barrier_check(trace, thresholds: Thresholds, exps: Exponents) -> BarrierReport:
    """Evaluate product(t)/x_star along a recorded trace.

    For a run classified as globally existing the ratio must stay below one
    for all time; for a blow-up run it must stay above one up to detection.
    """
    product = trace.mass**exps.a * trace.lm**exps.m
    ratios = product / thresholds.x_star
    return BarrierReport(
        ratios=ratios,
        max_ratio=float(np.max(ratios)),
        min_ratio=float(np.min(ratios)),
        stayed_below=bool(np.all(ratios < 1.0)),
        stayed_above=bool(np.all(ratios > 1.0)),
    )
