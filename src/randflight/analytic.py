"""Closed-form densities used as recurrence seeds and as test oracles."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import FlightParams
from .dissipation import DissipationLaw
from .errors import DomainError
from .specfun import gamma_half

__all__ = [
    "SingularLayer",
    "singular_layer",
    "one_turn_profile",
    "one_turn_coefficient",
]


def one_turn_coefficient(params: FlightParams, t: float) -> float:
    """Prefactor of the one-turn joint density for isotropic scattering."""
    m, c, lam = params.m, params.c, params.lam
    return (lam * math.exp(-lam * t) * 2.0 ** (m - 3) * gamma_half(m)
            / (math.pi ** (m / 2.0) * c**m * t ** (m - 1)))


def one_turn_profile(params: FlightParams, r: np.ndarray, t) -> np.ndarray:
    """Vectorized one-turn density over radii, isotropic law, m in {2, 3};
    ``t`` broadcasts against ``r``."""
    r = np.asarray(r, dtype=float)
    ct = params.radius(np.asarray(t, dtype=float))
    if np.any(r >= ct):
        raise DomainError("one_turn_profile needs all radii < ct")
    lam, c = params.lam, params.c
    if params.m == 2:
        w = np.sqrt(ct * ct - r * r)
        return lam * np.exp(-lam * t) / (2.0 * math.pi * c) / w
    if params.m == 3:
        base = lam * np.exp(-lam * t) / (2.0 * math.pi * c**3 * t**2)
        u = r / ct
        # log((1+u)/(1-u)) / (2u) = 1 + u^2/3 + u^4/5 + ... bridges the
        # removable singularity at r -> 0
        small = u < 1e-4
        u_safe = np.where(small, 0.5, u)
        full = np.log((1.0 + u_safe) / (1.0 - u_safe)) / (2.0 * u_safe)
        series = 1.0 + u * u / 3.0 + u**4 / 5.0
        return base * np.where(small, series, full)
    raise DomainError("one_turn_profile supports m in {2, 3}")


@dataclass(frozen=True)
class SingularLayer:
    """The zero-turn component: mass exp(-lam*t) spread over the sphere
    of radius c*t with the (scaled) dissipation density."""

    params: FlightParams
    law: DissipationLaw
    t: float
    weight: float
    radius: float

    def surface_density(self, x) -> float:
        """Density per unit surface measure of the radius-c*t sphere.

        The unit-sphere value chi(x/(ct)) is divided by the surface
        Jacobian (ct)^{m-1}, then carries the zero-turn weight, so the
        surface integral of this function equals ``weight``.
        """
        chi = self.law.sphere_density(x, self.t)
        return self.weight * chi / self.radius ** (self.params.m - 1)


def singular_layer(params: FlightParams, law: DissipationLaw,
                   t: float) -> SingularLayer:
    if not t > 0:
        raise DomainError(f"time must be positive, got {t}")
    return SingularLayer(params, law, t,
                         weight=math.exp(-params.lam * t),
                         radius=params.radius(t))
