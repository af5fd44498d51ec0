"""Domain types, grids and Poisson-weight bookkeeping shared by all pipelines.

All types are immutable after construction and safe to share across
parallel workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, NumericError

__all__ = [
    "FlightParams",
    "RadialGrid",
    "PolarGrid",
    "DensityLayer",
    "DensityField",
    "poisson_weight",
    "tail_mass",
]

#: relative standoff from the support boundary kept by default grids;
#: layer values blow up approaching the sphere in low dimensions.
DEFAULT_EPS_REL = 1e-3


@dataclass(frozen=True)
class FlightParams:
    """Dimension, speed and switching rate of the flight.

    ``m`` is the ambient dimension (>= 2), ``c`` the constant speed and
    ``lam`` the rate of the Poisson process driving direction changes.
    """

    m: int
    c: float
    lam: float

    def __post_init__(self) -> None:
        if self.m < 2:
            raise DomainError(f"dimension m must be >= 2, got {self.m}")
        if not self.c > 0:
            raise DomainError(f"speed c must be positive, got {self.c}")
        if not self.lam > 0:
            raise DomainError(f"rate lam must be positive, got {self.lam}")

    def radius(self, t: float) -> float:
        """Support radius c*t of the law at time t."""
        return self.c * t


def _clustered_nodes(r_max: float, n: int) -> np.ndarray:
    # sine map: roughly uniform near 0, quadratically clustered near r_max
    i = np.arange(n)
    return r_max * np.sin(0.5 * np.pi * i / (n - 1))


def _grid_nodes(nodes, name: str) -> np.ndarray:
    """A grid's radii as a read-only array: 1-D, at least two of them,
    strictly increasing."""
    nodes = np.asarray(nodes, dtype=float)
    nodes.flags.writeable = False
    if nodes.ndim != 1 or len(nodes) < 2:
        raise DomainError(f"{name} needs a 1-D array of at least two radii")
    if np.any(np.diff(nodes) <= 0):
        raise DomainError(f"{name} radii must be strictly increasing")
    return nodes


@dataclass(frozen=True)
class RadialGrid:
    """Increasing radii in [0, c*t - epsilon] for rotation-invariant data."""

    t: float
    nodes: np.ndarray
    epsilon: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", _grid_nodes(self.nodes, "RadialGrid"))
        if not self.epsilon > 0:
            raise DomainError("boundary standoff epsilon must be positive")

    @classmethod
    def build(cls, params: FlightParams, t: float, n_r: int = 64,
              eps_rel: float = DEFAULT_EPS_REL) -> "RadialGrid":
        """Clustered grid (denser toward the boundary) on [0, ct - eps]."""
        r_cap = params.radius(t)
        eps = eps_rel * r_cap
        return cls(t, _clustered_nodes(r_cap - eps, n_r), eps)

    @classmethod
    def build_uniform(cls, params: FlightParams, t: float, n_r: int = 64,
                      eps_rel: float = DEFAULT_EPS_REL) -> "RadialGrid":
        """Equal-step grid, used for Monte Carlo binning."""
        r_cap = params.radius(t)
        eps = eps_rel * r_cap
        return cls(t, np.linspace(0.0, r_cap - eps, n_r), eps)

    @property
    def n_r(self) -> int:
        return len(self.nodes)

    @property
    def support_radius(self) -> float:
        return float(self.nodes[-1]) + self.epsilon


@dataclass(frozen=True)
class PolarGrid:
    """Tensor grid (radii x angles) for planar, non-symmetric data.

    Angular nodes are equispaced on [-pi, pi); ``n_theta`` must be even
    and at least 8 so that the axis directions 0 and pi are both nodes.
    """

    t: float
    nodes: np.ndarray
    thetas: np.ndarray
    epsilon: float

    def __post_init__(self) -> None:
        thetas = np.asarray(self.thetas, dtype=float)
        thetas.flags.writeable = False
        object.__setattr__(self, "nodes", _grid_nodes(self.nodes, "PolarGrid"))
        object.__setattr__(self, "thetas", thetas)
        if len(thetas) < 8 or len(thetas) % 2:
            raise DomainError("PolarGrid needs an even n_theta >= 8")
        if not self.epsilon > 0:
            raise DomainError("boundary standoff epsilon must be positive")

    @classmethod
    def build(cls, params: FlightParams, t: float, n_r: int = 48,
              n_theta: int = 16, eps_rel: float = DEFAULT_EPS_REL) -> "PolarGrid":
        r_cap = params.radius(t)
        eps = eps_rel * r_cap
        thetas = -np.pi + 2.0 * np.pi * np.arange(n_theta) / n_theta
        return cls(t, _clustered_nodes(r_cap - eps, n_r), thetas, eps)

    @property
    def n_r(self) -> int:
        return len(self.nodes)

    @property
    def n_theta(self) -> int:
        return len(self.thetas)

    @property
    def support_radius(self) -> float:
        return float(self.nodes[-1]) + self.epsilon


@dataclass(frozen=True)
class DensityLayer:
    """Grid-sampled density of position jointly with (or conditioned on)
    exactly ``n`` direction changes, at the fixed time of its grid.

    ``ladder`` holds the layer's table (a ``convolution._Ladder``)
    when the recurrence built it; ``next_layer`` consumes it.
    """

    n: int
    grid: RadialGrid | PolarGrid
    values: np.ndarray
    kind: str = "joint"
    ladder: object = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise DomainError("layer index n must be >= 1")
        if self.kind not in ("joint", "conditional"):
            raise DomainError(f"unknown layer kind {self.kind!r}")
        values = np.asarray(self.values, dtype=float)
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        if np.any(values < 0):
            raise DomainError("layer values must be nonnegative")


def _ball_volume(r, m: int):
    """Volume of the ball of radius ``r`` in dimension m in {2, 3}."""
    if m == 2:
        return np.pi * r**2
    if m == 3:
        return 4.0 / 3.0 * np.pi * r**3
    raise DomainError(f"ball volume not implemented for m={m}")


@dataclass(frozen=True)
class DensityField:
    """Assembled transition density: singular layer, truncated stack of
    absolutely continuous layers, and the Poisson tail bound."""

    params: FlightParams
    t: float
    singular: object  # analytic.SingularLayer
    layers: tuple
    layer_masses: tuple
    tail: float
    law: object = None

    @property
    def singular_weight(self) -> float:
        return self.singular.weight

    def total_mass(self) -> float:
        return self.singular_weight + sum(self.layer_masses) + self.tail


def poisson_weight(n: int, params: FlightParams, t: float) -> float:
    """P(N(t) = n) = exp(-lam*t) (lam*t)^n / n! for the switching count."""
    if n < 0:
        raise DomainError(f"event count must be nonnegative, got {n}")
    if not t > 0:
        raise DomainError(f"time must be positive, got {t}")
    lt = params.lam * t
    # log form: robust for large lam*t and large n
    return math.exp(n * math.log(lt) - lt - math.lgamma(n + 1)) if n else math.exp(-lt)


def tail_mass(K: int, params: FlightParams, t: float) -> float:
    """P(N(t) > K) = 1 - sum_{n<=K} poisson_weight(n)."""
    if K < 0:
        raise DomainError(f"truncation index must be nonnegative, got {K}")
    total = 0.0
    for n in range(K + 1):
        total += poisson_weight(n, params, t)
    return 1.0 - total


def conditional_weight_or_raise(n: int, params: FlightParams, t: float) -> float:
    """Poisson weight guarded against underflow when used as a divisor."""
    w = poisson_weight(n, params, t)
    if w < 1e-290:
        raise NumericError(
            f"poisson weight underflow: n={n}, lam*t={params.lam * t}")
    return w
