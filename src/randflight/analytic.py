"""Closed-form densities used as recurrence seeds and as test oracles."""

from __future__ import annotations

import math

import numpy as np

from .core import FlightParams
from .errors import DomainError

__all__ = [
    "one_turn_profile",
    "one_turn_coefficient",
]


def one_turn_coefficient(params: FlightParams, t: float) -> float:
    """Prefactor of the one-turn joint density for isotropic scattering."""
    m, c, lam = params.m, params.c, params.lam
    return (lam * math.exp(-lam * t) * 2.0 ** (m - 3) * math.gamma(m / 2)
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
