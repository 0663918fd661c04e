"""Numerical laboratory for supercritical aggregation-diffusion dynamics.

The package computes the extremal profile and optimal constant of the sharp
interaction inequality governing the model, the dichotomy thresholds that
classify initial data into global existence versus finite-time blow-up,
and integrates the radial flow with conservation, energy, and second-moment
diagnostics.
"""

from .classify import (Agreement, BarrierReport, Classification, Verdict, agrees,
                       barrier_check, classify)
from .errors import (
    GridMismatch,
    NoConvergence,
    NonFiniteValue,
    RegimeError,
    UnsupportedDimension,
    ZeroField,
)
from .evolve import (
    HypothesisReport,
    Outcome,
    SimConfig,
    SimTrace,
    hypothesis_check,
    run,
    step,
    trace_to_csv,
    virial_check,
)
from .extremal import (
    ExtremalOptions,
    ExtremalProfile,
    compute_thresholds,
    el_residual,
    solve_extremal,
    support_radius,
    threshold_profile,
)
from .field import (
    RadialField,
    RadialGrid,
    apply_dynamic_scaling,
    field_from_csv,
    field_from_function,
    field_from_values,
    field_to_csv,
    lp_norm,
    mass,
    normalize_both_norms,
    pad_grid,
    rearrange_decreasing,
    resample_to,
    scale_field,
    second_moment,
)
from .functionals import (
    EnergyReport,
    Thresholds,
    barrier_g,
    chemical_potential,
    dissipation,
    energy_report,
    free_energy,
    vhls_quotient,
    xstar_threshold,
)
from .params import (
    Exponents,
    ModelParams,
    derive_exponents,
    hls_sharp_constant,
    riesz_constant,
    validate,
)
from .riesz import (
    ReducedKernel,
    build_kernel,
    force,
    interaction,
    potential,
    potential_at,
)

__version__ = "0.1.0"
