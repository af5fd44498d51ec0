"""Domain types, grids and Poisson-weight bookkeeping shared by all pipelines.

All types are immutable after construction and safe to share across
parallel workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "FlightParams",
    "RadialGrid",
    "PolarGrid",
    "DensityField",
    "poisson_weight",
    "tail_mass",
]

#: relative standoff from the support boundary kept by default grids;
#: layer values blow up approaching the sphere in low dimensions.
DEFAULT_EPS_REL = 1e-3


def _is_count(x) -> bool:
    """Whether ``x`` is a nonnegative integer (not a bool)."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool) and x >= 0


def _check_positive(name: str, x) -> None:
    """Raise `DomainError` unless ``x``, a number or an array of them, is
    positive and finite; the message names ``name``."""
    x_arr = np.asarray(x, dtype=float)
    if not np.all((x_arr > 0.0) & (x_arr < math.inf)):
        raise DomainError(f"{name} must be positive and finite, got {x!r}")


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
        if not (_is_count(self.m) and self.m >= 2):
            raise DomainError(f"dimension m must be an integer >= 2, "
                              f"got {self.m!r}")
        _check_positive("speed c", self.c)
        _check_positive("rate lam", self.lam)

    def radius(self, t: float) -> float:
        """Support radius c*t of the law at time t."""
        return self.c * t


def _clustered_nodes(r_max: float, n: int) -> np.ndarray:
    # sine map: roughly uniform near 0, quadratically clustered near r_max
    i = np.arange(n)
    return r_max * np.sin(0.5 * np.pi * i / (n - 1))


def _angles(n: int) -> np.ndarray:
    return -np.pi + 2.0 * np.pi * np.arange(n) / n


@dataclass(frozen=True)
class _Grid:
    """Finite radii in [0, c*t - epsilon]: 1-D, at least two, strictly
    increasing; t and epsilon positive and finite."""

    def __post_init__(self) -> None:
        name = type(self).__name__
        nodes = np.asarray(self.nodes, dtype=float)
        nodes.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)
        if nodes.ndim != 1 or len(nodes) < 2:
            raise DomainError(f"{name} needs a 1-D array of at least two radii")
        if not np.all(np.isfinite(nodes)) or np.any(np.diff(nodes) <= 0):
            raise DomainError(f"{name} radii must be finite and strictly increasing")
        _check_positive("t", self.t)
        _check_positive("boundary standoff epsilon", self.epsilon)

    @property
    def n_r(self) -> int:
        return len(self.nodes)

    @property
    def support_radius(self) -> float:
        return float(self.nodes[-1]) + self.epsilon


@dataclass(frozen=True)
class RadialGrid(_Grid):
    """Increasing radii in [0, c*t - epsilon] for rotation-invariant data."""

    t: float
    nodes: np.ndarray
    epsilon: float

    @classmethod
    def build(cls, params: FlightParams, t: float, n_r: int = 64) -> "RadialGrid":
        """Clustered grid (denser toward the boundary) on [0, ct - eps]."""
        r_cap = params.radius(t)
        eps = DEFAULT_EPS_REL * r_cap
        return cls(t, _clustered_nodes(r_cap - eps, n_r), eps)

    @classmethod
    def build_uniform(cls, params: FlightParams, t: float,
                      n_r: int = 64) -> "RadialGrid":
        """Equal-step grid, used for Monte Carlo binning."""
        r_cap = params.radius(t)
        eps = DEFAULT_EPS_REL * r_cap
        return cls(t, np.linspace(0.0, r_cap - eps, n_r), eps)


@dataclass(frozen=True)
class PolarGrid(_Grid):
    """Tensor grid (radii x angles) for planar, non-symmetric data.

    The angles must be -pi + 2 pi k / n_theta, k = 0..n_theta-1 (to
    1e-12), the layout Monte Carlo bins on; ``n_theta`` must be even and
    at least 8 so that the axis directions 0 and pi are both nodes.
    """

    t: float
    nodes: np.ndarray
    thetas: np.ndarray
    epsilon: float

    def __post_init__(self) -> None:
        super().__post_init__()
        thetas = np.asarray(self.thetas, dtype=float)
        thetas.flags.writeable = False
        object.__setattr__(self, "thetas", thetas)
        if thetas.ndim != 1 or len(thetas) < 8 or len(thetas) % 2:
            raise DomainError("PolarGrid needs a 1-D array of an even "
                              "n_theta >= 8 angles")
        if np.max(np.abs(thetas - _angles(len(thetas)))) > 1e-12:
            raise DomainError("PolarGrid angles must be -pi + 2 pi k / n_theta")

    @classmethod
    def build(cls, params: FlightParams, t: float, n_r: int = 48,
              n_theta: int = 16) -> "PolarGrid":
        r_cap = params.radius(t)
        eps = DEFAULT_EPS_REL * r_cap
        return cls(t, _clustered_nodes(r_cap - eps, n_r), _angles(n_theta),
                   eps)

    @property
    def n_theta(self) -> int:
        return len(self.thetas)


def check_grid_time(grid: RadialGrid | PolarGrid, t: float) -> None:
    """Raise `DomainError` unless ``grid`` was built for time ``t``, a
    positive finite time."""
    _check_positive("t", t)
    if abs(grid.t - t) > 1e-12 * t:
        raise DomainError(f"grid built for t={grid.t!r} used at t={t!r}")


def _ball_volume(r, m: int):
    """Volume of the ball of radius ``r`` in dimension m in {2, 3}."""
    if m == 2:
        return np.pi * r**2
    if m == 3:
        return 4.0 / 3.0 * np.pi * r**3
    raise DomainError(f"ball volume not implemented for m={m}")


@dataclass(frozen=True)
class DensityField:
    """Assembled transition density: the weight of the singular layer
    (exp(-lam t) times chi(x/(ct)) / (ct)^(m-1) on the radius-ct sphere),
    truncated stack of absolutely continuous layers, and the Poisson tail."""

    params: FlightParams
    t: float
    layers: tuple
    layer_masses: tuple
    tail: float
    law: object = None

    @property
    def singular_weight(self) -> float:
        return math.exp(-self.params.lam * self.t)

    def total_mass(self) -> float:
        return self.singular_weight + sum(self.layer_masses) + self.tail


# log(n!) - log(sqrt(2 pi n) (n/e)^n) for n = 1..15, where its series is
# too short to converge
_STIRLERR = (0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
             0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
             0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
             0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
             0.006408994188004207, 0.0059513701127588475, 0.005554733551962801)


def _stirlerr(n: int) -> float:
    """The error of Stirling's formula, log(n!) - log(sqrt(2 pi n) (n/e)^n)."""
    if n <= len(_STIRLERR):
        return _STIRLERR[n - 1]
    nn = float(n) * n
    # the asymptotic series 1/(12n) - 1/(360n^3) + 1/(1260n^5) - ...,
    # as many terms as reach double precision at this n
    terms = (1 / 12, 1 / 360, 1 / 1260, 1 / 1680, 1 / 1188)
    k = 2 if n > 500 else 3 if n > 80 else 4 if n > 35 else 5
    acc = terms[k - 1]
    for a in reversed(terms[:k - 1]):
        acc = a - acc / nn
    return acc / n


def _bd0(x: float, mu: float) -> float:
    """x log(x / mu) + mu - x, the Poisson deviance term, summed as a
    series in v = (x - mu) / (x + mu) where the plain form cancels."""
    if abs(x - mu) >= 0.1 * (x + mu):
        return x * math.log(x / mu) + mu - x
    v = (x - mu) / (x + mu)
    s = (x - mu) * v
    ej = 2.0 * x * v
    for j in range(1, 1000):
        ej *= v * v
        s_next = s + ej / (2 * j + 1)
        if s_next == s:
            break
        s = s_next
    return s


def poisson_weight(n: int, params: FlightParams, t: float) -> float:
    """P(N(t) = n) = exp(-lam*t) (lam*t)^n / n! for the switching count.

    Loader's saddle-point form exp(-stirlerr(n) - bd0(n, lam t)) /
    sqrt(2 pi n) keeps full relative precision where n log(lam t), lam t
    and log(n!) are large and nearly cancel (C. Loader, "Fast and
    accurate computation of binomial probabilities", 2000).
    """
    if not _is_count(n):
        raise DomainError(f"event count n must be a nonnegative integer, "
                          f"got {n!r}")
    _check_positive("time t", t)
    lt = params.lam * t
    _check_positive("lam*t", lt)
    if n == 0:
        return math.exp(-lt)
    return math.exp(-_stirlerr(n) - _bd0(n, lt)) / math.sqrt(2.0 * math.pi * n)


def _joint_scale(n: int, params: FlightParams, t: float):
    """pi_n(lam t) (ct)^(-m), which turns g_n (n >= 1 turns, c = t = 1) into
    the joint layer n at time t, formed in log space, where a subnormal pi_n
    keeps its bits.  Where the deviance is plain, n log(lam t / n) - m log(ct)
    is summed as n log(lam / (c n)) + (n - m) log(ct), exact at n = m."""
    lt, log_ct, m = params.lam * t, math.log(params.radius(t)), params.m
    if abs(n - lt) >= 0.1 * (n + lt):
        log_s = n * (math.log(params.lam) - math.log(params.c) - math.log(n)
                     + 1.0) + (n - m) * log_ct - lt
    else:
        log_s = -_bd0(n, lt) - m * log_ct
    return np.exp(log_s - _stirlerr(n) - 0.5 * math.log(2.0 * math.pi * n))


def tail_mass(K: int, params: FlightParams, t: float) -> float:
    """P(N(t) > K): summed from above when its first class is at or past
    the mean, else 1 - sum_{n<=K} poisson_weight(n), which is then >~ 1/2."""
    if not _is_count(K):
        raise DomainError(f"truncation index K must be a nonnegative integer, "
                          f"got {K!r}")
    lt = params.lam * t
    _check_positive("lam*t", lt)
    if K + 1 < lt:
        return 1.0 - sum(poisson_weight(n, params, t) for n in range(K + 1))
    terms = [poisson_weight(K + 1, params, t)]  # falling geometrically
    while terms[-1] > 1e-17 * terms[0]:
        terms.append(terms[-1] * lt / (K + 1 + len(terms)))
    return math.fsum(terms)
