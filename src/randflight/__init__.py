"""Transition densities of multidimensional random flights.

A particle moves at constant speed and re-draws its direction at the
events of a Poisson process.  This package evaluates the resulting
position density three mutually validating ways: Monte Carlo
simulation, the spatial convolution recurrence over turn-count layers,
and the characteristic-function (spectral) route.
"""

from .cf import (CFLadder, laplace_identity_error, layer_fourier, sphere_cf,
                 volterra_cf)
from .convolution import (DensityLayer, StepConfig, ac_profile, next_layer,
                          residual_check, seed_layer, transition_density)
from .core import (DensityField, FlightParams, PolarGrid, RadialGrid,
                   poisson_weight, tail_mass)
from .dissipation import (CircularGaussianLaw, DissipationLaw, UniformLaw,
                          law_from_config)
from .errors import DomainError, EstimationError, NumericError
from .sampler import DensityEstimate, estimate_density, simulate_batch

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "FlightParams", "RadialGrid", "PolarGrid",
    "DensityLayer", "DensityField", "poisson_weight", "tail_mass",
    "DissipationLaw", "UniformLaw", "CircularGaussianLaw", "law_from_config",
    "DensityEstimate", "simulate_batch", "estimate_density",
    "StepConfig", "seed_layer", "next_layer", "transition_density",
    "ac_profile", "residual_check",
    "CFLadder", "sphere_cf", "volterra_cf", "laplace_identity_error",
    "layer_fourier",
    "DomainError", "NumericError", "EstimationError",
]
