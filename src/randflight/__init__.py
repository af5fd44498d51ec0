"""Transition densities of multidimensional random flights.

A particle moves at constant speed and re-draws its direction at the
events of a Poisson process.  This package evaluates the resulting
position density three mutually validating ways: Monte Carlo
simulation, the spatial convolution recurrence over turn-count layers,
and the characteristic-function (spectral) route.
"""

from .analytic import SingularLayer, one_turn_profile, singular_layer
from .cf import (CFLadder, laplace_identity_error, layer_fourier,
                 next_conv_power, psi_ladder, sphere_cf, volterra_cf)
from .convolution import (StepConfig, ac_profile, conditional_layer,
                          next_layer, residual_check, seed_layer,
                          transition_density)
from .core import (DensityField, DensityLayer, FlightParams, PolarGrid,
                   RadialGrid, poisson_weight, tail_mass)
from .dissipation import (CircularGaussianLaw, DissipationLaw, UniformLaw,
                          law_from_config)
from .errors import DomainError, EstimationError, NumericError
from .sampler import DensityEstimate, estimate_density, simulate_batch
from .specfun import SeriesControl, bessel_j0, gamma_half, gauss_2f1

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "FlightParams", "RadialGrid", "PolarGrid",
    "DensityLayer", "DensityField", "poisson_weight", "tail_mass",
    "SeriesControl", "gauss_2f1", "bessel_j0", "gamma_half",
    "DissipationLaw", "UniformLaw", "CircularGaussianLaw", "law_from_config",
    "SingularLayer", "singular_layer", "one_turn_profile",
    "DensityEstimate", "simulate_batch", "estimate_density",
    "StepConfig", "seed_layer", "next_layer", "conditional_layer",
    "transition_density", "ac_profile", "residual_check",
    "CFLadder", "sphere_cf", "psi_ladder", "next_conv_power", "volterra_cf",
    "laplace_identity_error", "layer_fourier",
    "DomainError", "NumericError", "EstimationError",
]
