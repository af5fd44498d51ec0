"""Direction-switching laws on the unit sphere and their exact samplers.

A dissipation law carries a density ``chi`` with respect to the surface
measure of the unit sphere S^{m-1}.  Its image on the sphere of radius
c*t has density ``chi(x / (c t))`` in the same unit-sphere normalization;
every integral over the radius-c*t sphere therefore multiplies by the
surface Jacobian (c t)^{m-1} exactly once, which is done at the
integration sites and never here.
"""

from __future__ import annotations

import math
import numbers
from abc import ABC, abstractmethod

import numpy as np

from .core import FlightParams
from .errors import DomainError, NumericError

__all__ = [
    "DissipationLaw",
    "UniformLaw",
    "CircularGaussianLaw",
    "law_from_config",
]


class DissipationLaw(ABC):
    """Common interface of the supported direction laws.  A density depends
    on the direction u only through u1, so every layer is even in theta:
    `randflight.convolution` evaluates angular layers at distinct |theta|."""

    def __init__(self, params: FlightParams):
        self.params = params

    @abstractmethod
    def density_from_axis_cos(self, ux):
        """chi(u) as a function of u's first coordinate, vectorized.

        The one evaluator of the law's density; valid because both
        supported laws depend on the direction only through its first
        component (trivially for the uniform law).
        """

    @abstractmethod
    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` exact unit-vector samples, shape (size, m)."""


class UniformLaw(DissipationLaw):
    """Isotropic scattering: constant density 1/area(S^{m-1})."""

    def __init__(self, params: FlightParams):
        super().__init__(params)
        m = params.m
        self._value = math.gamma(m / 2) / (2.0 * math.pi ** (m / 2.0))

    def density_from_axis_cos(self, ux):
        return np.broadcast_to(self._value, np.shape(ux)).copy() \
            if np.ndim(ux) else self._value

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        v = rng.standard_normal((size, self.params.m))
        v /= np.sqrt(np.einsum("ij,ij->i", v, v))[:, None]
        return v


class CircularGaussianLaw(DissipationLaw):
    """Planar law with density exp(k cos(theta)) / (2 pi I0(k)), the von
    Mises law of the direction angle.

    ``k = 0`` degenerates to the uniform law on the circle; positive k
    concentrates directions around the +x1 axis.  I0 is numpy's
    ``np.i0``, which overflows past |k| ~ 709.8, so |k| > 700 raises
    ``NumericError`` and a k that is not finite `DomainError`.  Sampling
    is exact: numpy's von Mises sampler (Best & Fisher 1979), for any k.
    """

    def __init__(self, params: FlightParams, k: float):
        if params.m != 2:
            raise DomainError("circular Gaussian law is planar only (m=2)")
        super().__init__(params)
        self.k = float(k)
        if not math.isfinite(self.k):
            raise DomainError(f"concentration k must be finite, got {k!r}")
        if abs(self.k) > 700.0:
            raise NumericError(f"I0 overflow for |k|={abs(self.k)} > 700")
        self._norm = 1.0 / (2.0 * math.pi * float(np.i0(self.k)))

    def density_from_axis_cos(self, ux):
        # the argument is the cosine of an angle; clipping guards the
        # exponential against ill-conditioned geometry near rho -> 0
        ux = np.clip(np.asarray(ux, dtype=float), -1.0, 1.0)
        return self._norm * np.exp(self.k * ux)

    def sample_angles(self, rng: np.random.Generator, size: int) -> np.ndarray:
        # exp(k cos(theta)) with k < 0 is the von Mises law about pi
        return rng.vonmises(0.0 if self.k >= 0 else np.pi, abs(self.k), size)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        th = self.sample_angles(rng, size)
        out = np.empty((size, 2))
        np.cos(th, out=out[:, 0])
        np.sin(th, out=out[:, 1])
        return out


def law_from_config(config: dict, params: FlightParams) -> DissipationLaw:
    """Build a law from its run-config object, which is exactly
    ``{"kind": "uniform"}`` or ``{"kind": "circular_gaussian", "k": k}``
    with k a real number; anything else raises `DomainError`."""
    if config == {"kind": "uniform"}:
        return UniformLaw(params)
    k = config.get("k") if isinstance(config, dict) else None
    if config == {"kind": "circular_gaussian", "k": k} and \
            isinstance(k, numbers.Real) and not isinstance(k, bool):
        return CircularGaussianLaw(params, k)
    raise DomainError('a law is {"kind": "uniform"} or {"kind": '
                      f'"circular_gaussian", "k": <number>}}, got {config!r}')
