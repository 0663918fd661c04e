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

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .evolve import Outcome, SimTrace
from .field import RadialField, _check_density
from .functionals import Thresholds, _moment_rate, energy_report
from .params import Exponents
from .riesz import ReducedKernel

__all__ = ["Verdict", "Agreement", "Classification", "classify", "agrees", "barrier_check",
           "BarrierReport"]

# the slack on t_virial: the scheme's M2 rate meets the virial identity to
# 2%, so M2 falls at 0.98 delta or more and blows up before t_virial / 0.98
_VIRIAL_SLACK = 1.05
# the relative band around x_star left Indeterminate (module docstring)
_BAND = 1e-3


class Verdict(str, Enum):
    GLOBAL_EXISTENCE = "GlobalExistence"
    FINITE_TIME_BLOWUP = "FiniteTimeBlowup"
    INDETERMINATE = "Indeterminate"


class Agreement(str, Enum):
    AGREES = "agrees"
    UNDECIDED = "undecided"
    DISAGREES = "disagrees"


@dataclass(frozen=True)
class Classification:
    """Verdict plus the numbers it was based on.

    margins holds the signed relative distances to the two thresholds:
    product_margin = (x_star - product)/x_star (positive: below threshold),
    energy_margin = (g_at_xstar - energy_lhs)/|g_at_xstar| (positive: the
    energy hypothesis holds).  For a FiniteTimeBlowup verdict, delta is the
    least rate at which the second moment falls,

        delta = -[2(d-2s) F(u0) + (2d - 2(d-2s)/(m-1)) x_star / ||u0||_1^a],

    positive by the energy hypothesis, and t_virial = M2(u0) / delta bounds
    the blow-up time; both are None for the other verdicts.
    """

    verdict: Verdict
    energy_ok: bool
    product: float
    x_star: float
    energy_lhs: float
    g_at_xstar: float
    product_margin: float
    energy_margin: float
    delta: float | None = None
    t_virial: float | None = None


def classify(
    u0: RadialField,
    thresholds: Thresholds,
    exps: Exponents,
    kernel: ReducedKernel,
) -> Classification:
    """Apply the dichotomy rule with the relative band _BAND around x_star
    to u0, which must be finite and nonnegative (ValueError otherwise).

    GlobalExistence requires the energy hypothesis and product strictly
    below x_star by more than the band; FiniteTimeBlowup the same with the
    product above; anything else is Indeterminate.
    """
    _check_density(u0.values, "classify")
    rep = energy_report(u0, exps, kernel)
    product, energy_lhs = rep.product, rep.barrier
    x_star, g_star = thresholds.x_star, thresholds.g_at_xstar

    energy_ok = bool(energy_lhs < g_star)
    product_margin = (x_star - product) / x_star
    energy_margin = (g_star - energy_lhs) / abs(g_star)

    if not energy_ok or abs(product - x_star) <= _BAND * x_star:
        verdict = Verdict.INDETERMINATE
    elif product < x_star:
        verdict = Verdict.GLOBAL_EXISTENCE
    else:
        verdict = Verdict.FINITE_TIME_BLOWUP

    delta = t_virial = None
    if verdict is Verdict.FINITE_TIME_BLOWUP:
        # M2' = _moment_rate(F, ||u||_m^m), with F <= F(u0) and ||u||_m^m >=
        # x_star / ||u0||_1^a while the product stays above
        delta = -_moment_rate(exps, rep.free_energy, x_star / rep.mass**exps.a)
        t_virial = rep.second_moment / delta

    return Classification(
        verdict=verdict,
        energy_ok=energy_ok,
        product=product,
        x_star=x_star,
        energy_lhs=energy_lhs,
        g_at_xstar=g_star,
        product_margin=float(product_margin),
        energy_margin=float(energy_margin),
        delta=delta,
        t_virial=t_virial,
    )


@dataclass(frozen=True, eq=False)
class BarrierReport:
    """Whether the recorded invariant product stayed on its side of x_star
    along a run, and the extreme ratio observed.  Compares by identity."""

    ratios: np.ndarray
    max_ratio: float
    min_ratio: float
    stayed_below: bool
    stayed_above: bool


def barrier_check(trace: SimTrace, thresholds: Thresholds, exps: Exponents) -> BarrierReport:
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


def agrees(cls: Classification, trace: SimTrace, barrier: BarrierReport) -> Agreement:
    """Whether a run bears out its verdict: GlobalExistence needs a run that
    completed bounded with the product below x_star throughout,
    FiniteTimeBlowup a detected blow-up with the product above it.  A
    blow-up leg that completed bounded with the product above x_star, but
    ended before _VIRIAL_SLACK * t_virial, is undecided: its horizon was too
    short to tell.  Indeterminate makes no prediction, so every run agrees
    with it."""
    if cls.verdict is Verdict.GLOBAL_EXISTENCE:
        ok = trace.outcome is Outcome.COMPLETED_BOUNDED and barrier.stayed_below
    elif cls.verdict is Verdict.FINITE_TIME_BLOWUP:
        if trace.outcome is Outcome.COMPLETED_BOUNDED and barrier.stayed_above \
                and trace.t[-1] < _VIRIAL_SLACK * cls.t_virial:
            return Agreement.UNDECIDED
        ok = trace.outcome is Outcome.BLOWUP_DETECTED and barrier.stayed_above
    else:
        ok = True
    return Agreement.AGREES if ok else Agreement.DISAGREES
