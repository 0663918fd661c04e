"""Numerical laboratory for supercritical aggregation-diffusion dynamics.

The package computes the extremal profile and optimal constant of the sharp
interaction inequality governing the model, the dichotomy thresholds that
classify initial data into global existence versus finite-time blow-up,
and integrates the radial flow with conservation, energy, and second-moment
diagnostics.  Its public names are those each module lists in __all__.
"""

from .classify import *
from .errors import *
from .evolve import *
from .extremal import *
from .field import *
from .functionals import *
from .params import *
from .riesz import *

__version__ = "0.1.0"
