"""Closed-form densities used as recurrence seeds and as test oracles."""

from __future__ import annotations

import math

import numpy as np

from .core import FlightParams, _check_positive, _unscaled
from .errors import DomainError

__all__ = [
    "one_turn_profile",
]


def _one_turn_shape(m: int, sigma) -> np.ndarray:
    """The one-turn layer of the isotropic law given one turn, for the
    flight with c = t = 1, at scaled radii ``sigma`` < 1, m in {2, 3}.
    Free of lam, c and t: every one-turn layer is pi_1(lam t) (ct)^(-m)
    times it at sigma = r/(ct)."""
    sigma = np.asarray(sigma, dtype=float)
    if m == 2:
        return 1.0 / (2.0 * math.pi * np.sqrt(1.0 - sigma * sigma))
    # log((1+u)/(1-u)) / (2u) = 1 + u^2/3 + u^4/5 + ... bridges the
    # removable singularity at r -> 0
    small = sigma < 1e-4
    u = np.where(small, 0.5, sigma)
    full = np.log((1.0 + u) / (1.0 - u)) / (2.0 * u)
    series = 1.0 + sigma * sigma / 3.0 + sigma**4 / 5.0
    return np.where(small, series, full) / (2.0 * math.pi)


def one_turn_profile(params: FlightParams, r: np.ndarray, t) -> np.ndarray:
    """Vectorized one-turn density over radii, isotropic law, m in {2, 3};
    ``t`` broadcasts against ``r``."""
    r = np.asarray(r, dtype=float)
    t = np.asarray(t, dtype=float)
    ct = params.radius(t)
    if np.any(r >= ct):
        raise DomainError("one_turn_profile needs all radii < ct")
    if params.m not in (2, 3):
        raise DomainError("one_turn_profile supports m in {2, 3}")
    with np.errstate(over="ignore"):  # an infinite product fails the check
        lt = params.lam * t
    _check_positive("lam*t", lt)
    return _unscaled(_one_turn_shape(params.m, r / ct), lt * np.exp(-lt),
                     params.m, ct)
