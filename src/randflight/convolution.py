"""Layer recurrence for the absolutely continuous density components.

The joint density of position and n+1 turns is a time integral of
surface integrals of the n-turn density over the set

    M(x, tau) = S(x, c(t - tau))  intersected with  int B(0, c tau),

the part of the last-leg sphere whose starting points are reachable in
the first tau of the flight.  Depending on tau this set is empty, a
spherical cap, or the whole sphere; the regimes switch at
tau = t/2 -+ |x|/(2c).

Numerical scheme
----------------
Given n turns, X(t)/(ct) is a Dirichlet-weighted sum of iid directions,
so its law does not depend on lam, c or t, and the n-turn joint layer
is self-similar:

    f_n(x, tau) = pi_n(lam tau) (c tau)^(-m) g_n(|x| / (c tau), theta).

The engine steps the layers g_n given n turns of the flight with
c = t = 1, free of lam, c and t.  A layer keeps one table of g_n and its
mass pi_n(lam t) as a weight; g_n is its density given n turns.  As
pi_n(lam tau) lam e^{-lam (t - tau)} = pi_{n+1}(lam t) (n+1) tau^n / t^(n+1),
the step's kernel is (n+1) tau^n, and it reads g_n at every time tau:

    tau^(-m) g_n(s / tau) = tau^(-m) E_n(sigma) h_n(sigma),  sigma = s / tau.

E_n is the planar edge factor (1 - sigma^2)^((n-2)/2), exact for the
uniform law's closed form g_n = n / (2 pi) (1 - sigma^2)^((n-2)/2) and
used for every planar law; it is 1 in dimension 3.  For n = 1 it is the
inverse-square-root divergence of the planar one-turn layer at the
support boundary, so h_1 is that layer's regular factor.  The tables
hold h_n on sigma nodes equispaced in u = arcsin(sigma / sigma_max);
reads interpolate them with a 4-point Lagrange stencil in u, and masses
and transforms integrate them in u by composite Simpson.  Each step
evaluates the next table, together with the layer's values at the grid
nodes sigma = r / (ct).  Stepped tables share their nodes, so a regular
step's geometry holds each read's stencil, its Lagrange weights times
the quadrature weight, and the log of its read base B, with
tau^(n-m) E_n(sigma) = B^((n-m)/2): a step from layer n >= 3 takes one
exp and four gathers per quadrature point.  Every layer is even in
theta (`DissipationLaw`), so angular layers are evaluated only at
distinct |theta| (`_fold`).

Surface integrals over caps are taken in the chord-radius variable
s = |xi| (planar case: both arc branches summed), where the geometric
and boundary singularities appear as inverse square roots at the
interval ends; every panel is mapped through sin^2, which integrates
those ends exactly.  Time panels split at the cap/full-sphere
transition, where the integrand has a kink.  Consuming the one-turn
layer it also has a logarithmic spike there and that layer's edge at
tau = 1, endpoint singularities that a tanh-sinh rule integrates
(`_time_rule`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, partial

import numpy as np

from .core import (DensityField, FlightParams, PolarGrid, RadialGrid, _angles,
                   _ball_volume, _clustered_nodes, _is_count, _joint_scale,
                   check_grid_time, poisson_weight, tail_mass)
from .dissipation import CircularGaussianLaw, DissipationLaw, UniformLaw
from .errors import DomainError, NumericError
from .specfun import gauss_2f1  # noqa: F401  perfbench counts calls through it

__all__ = [
    "StepConfig",
    "DensityLayer",
    "seed_layer",
    "next_layer",
    "transition_density",
    "ac_profile",
    "residual_check",
]

_TINY = 1e-300
_SIGMA_CAP = 1.0 - 1e-4  # stepped tables stop short of the measure-zero edge
_R_TINY_REL = 1e-7
_SEED_QUAD = 32  # order of the planar one-turn quadrature


# --------------------------------------------------------------------------
# quadrature helpers
# --------------------------------------------------------------------------

@lru_cache(maxsize=32)
def _gl_cached(n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def _sin2_panels(a: np.ndarray, b: np.ndarray, order: int,
                 with_gaps: bool = False):
    """Gauss-Legendre nodes mapped through sin^2 onto per-row intervals.

    The map's derivative vanishes at both ends, which integrates
    inverse-square-root endpoint singularities exactly and softens
    logarithmic ones.  Returns nodes and weights of shape
    ``a.shape + (order,)``; with ``with_gaps`` also the distances
    node - a and b - node in the forms width * sin^2 and width * cos^2,
    which stay meaningful when the interval is so narrow that the
    plain subtractions cancel to zero.
    """
    z, w = _gl_cached(order)
    width = (b - a)[..., None]
    s2 = np.sin(0.5 * np.pi * z) ** 2
    nodes = a[..., None] + width * s2
    weights = w * width * (0.5 * np.pi) * np.sin(np.pi * z)
    if with_gaps:
        return nodes, weights, width * s2, width * (1.0 - s2)
    return nodes, weights


# --------------------------------------------------------------------------
# layer tables
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class StepConfig:
    """Resolution knobs of the layer engine."""

    # unused and left out of == and the hash: a layer keeps one table, and
    # the step from the seed has no graded panels
    ladder_slots: int = field(default=64, compare=False)
    n_sigma: int = 65            # table nodes over the scaled radius (odd)
    n_theta: int = 16            # angular table nodes (non-symmetric laws)
    time_order: int = 16         # Gauss-Legendre order per time panel; the
                                 # step from the seed takes 4x in tanh-sinh
    arc_order: int = 24          # Gauss-Legendre order per surface panel
    seed_grade: tuple = field(default=(1e-3, 1e-2, 1e-1, 1.0), compare=False)

    def __post_init__(self) -> None:
        # each field that would otherwise mis-integrate or fail in numpy
        for name, low, parity, rule in (
                ("n_sigma", 5, 1, "an odd integer >= 5 (Simpson in u)"),
                ("n_theta", 8, 0, "an even integer >= 8"),
                ("time_order", 1, None, "an integer >= 1"),
                ("arc_order", 1, None, "an integer >= 1")):
            x = getattr(self, name)
            if not (_is_count(x) and x >= low
                    and (parity is None or x % 2 == parity)):
                raise DomainError(f"{name} must be {rule}, got {x!r}")


def _finite(x, name: str, nonnegative: bool = False) -> np.ndarray:
    """``x`` as floats; `DomainError` naming ``name`` unless finite and,
    if asked, nonnegative."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)) or nonnegative and np.any(x < 0.0):
        raise DomainError(f"{name} must be finite" + nonnegative * " and nonnegative")
    return x


def _fold(th: np.ndarray) -> tuple:
    """The distinct |th| wrapped into [0, pi], each an exact member's, and
    each angle's index among them, in the shape of ``th``.  Folded angles
    within 1e-9 count as one, as residuals do in `DensityLayer.read_turned`."""
    folded = np.abs(th - 2.0 * np.pi * np.round(th / (2.0 * np.pi))).ravel()
    _, first, back = np.unique(np.round(folded, 9), return_index=True,
                               return_inverse=True)
    return folded[first], back.reshape(th.shape)


def _edge(m: int, n: int, one_minus_sig2):
    """Edge factor E_n of layer n at 1 - sigma^2: (1 - sigma^2)^((n-2)/2)
    in the plane, 1 in dimension 3."""
    x = np.asarray(one_minus_sig2, dtype=float)
    if m == 3:
        return np.ones_like(x)
    return np.maximum(x, _TINY) ** (0.5 * (n - 2))


def _clipped(at_nodes: np.ndarray, grid: RadialGrid | PolarGrid) -> np.ndarray:
    """Node values in the grid's shape, clipped at 0."""
    return np.maximum(at_nodes[:, 0] if isinstance(grid, RadialGrid) else
                      np.broadcast_to(at_nodes, (grid.n_r, grid.n_theta)), 0.0)


def _default_config(law: DissipationLaw) -> StepConfig:
    # the skewed planar pipeline carries full angular tables; keep its
    # default resolution laptop-friendly
    if isinstance(law, CircularGaussianLaw):
        return StepConfig(n_sigma=49, n_theta=16, time_order=12, arc_order=16)
    return StepConfig()


@dataclass(frozen=True, eq=False)
class DensityLayer:
    """The density of position jointly with exactly ``n`` direction
    changes at time ``t``: ``weight`` (ct)^(-m) g_n(r / (ct)), with
    ``weight`` pi_n(lam t), its mass, and g_n the layer given n turns of
    the flight with c = t = 1, free of lam, c and t.  The density given
    n turns is ``values / weight``, or ``g_at_nodes`` in scaled units.

    ``g_at_nodes`` holds g_n at the nodes of ``grid``, shape (n_r,
    n_theta of the grid, or 1 for isotropic tables); ``at_nodes`` is the
    layer there and ``values`` that clipped at 0 in the grid's shape,
    (n_r,) or (n_r, n_theta) (`NumericError` where they leave the float
    range).  ``tab`` holds h_n = g_n / E_n at the nodes
    ``sigma``, shape (n_sigma, n_theta), with n_theta = 1 (``thetas``
    None) for rotation-invariant data; the m=3 seed, consumed through its
    closed form, has none.  ``cfg`` is the resolution the layer was built
    at and ``source`` the layer its step consumed (None for the seed):
    values away from the grid nodes re-apply that step.  ``geometry`` is
    the n-independent part of a regular step (one that consumed a layer
    n >= 2) at the table nodes and at the grid nodes, for ``cfg``: each
    read's stencil and read base (`_Arcs`).  The next step at ``cfg``
    reuses it, as every stepped table has the same nodes.
    """

    n: int
    params: FlightParams
    law: DissipationLaw
    t: float
    grid: RadialGrid | PolarGrid
    g_at_nodes: np.ndarray
    sigma: np.ndarray
    thetas: np.ndarray | None
    tab: np.ndarray | None
    cfg: StepConfig
    weight: float
    source: "DensityLayer | None" = field(default=None, repr=False)
    geometry: tuple | None = field(default=None, repr=False)
    values: np.ndarray = field(init=False, repr=False)
    at_nodes: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise DomainError("layer index n must be >= 1")
        with np.errstate(over="ignore"):
            at_nodes = self._view(self.g_at_nodes)
        if not np.all(np.isfinite(at_nodes)):
            raise NumericError(f"layer {self.n} leaves the float range at t={self.t!r}")
        values = _clipped(at_nodes, self.grid)  # the view is a positive scale
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "at_nodes", at_nodes)

    def _view(self, g) -> np.ndarray:
        """Scaled values ``g`` at radius r: weight (ct)^(-m) g, with the
        factor formed in log space (`_joint_scale`)."""
        return _joint_scale(self.n, self.params, self.t) * g

    def check_source(self, params: FlightParams, law=None) -> None:
        """Raise `DomainError` unless ``params`` and ``law`` (its type and
        concentration) are those the layer was built with."""
        if params != self.params or law is not None and (
                type(law) is not type(self.law)
                or getattr(law, "k", None) != getattr(self.law, "k", None)):
            raise DomainError(f"arguments differ from the layer's own "
                              f"{self.params} and {type(self.law).__name__}")

    def radial(self, arcs: "_Arcs", scratch: dict) -> tuple:
        """The radial part of the reads of ``arcs`` (from `_geometry`),
        found once for every read angle: the four table rows of each
        read's stencil, weighted by its kept Lagrange weights (which carry
        the quadrature weight) and summed.  Returns the rows, shape points
        for an isotropic table (its values) or points + (2 n_theta,) for
        an angular one, whose rows run twice round the angle nodes, so
        that a column index shifted by up to n_theta - 1 needs no wrap;
        for an angular table the flat index of each point's row (None
        otherwise); and the read factor tau^(n-m) E_n(sigma) =
        B^((n-m)/2) of each point, from its kept log B.  The rows live in
        ``scratch`` (see `_buffer`) until its next use."""
        angular = self.tab.shape[1] > 1
        tab = self.tab if angular else self.tab[:, 0]
        ax = (..., None) if angular else ...
        lag = arcs.lag
        i0 = _buffer(scratch, "first_row", arcs.i0.shape, np.intp)
        i0[...] = arcs.i0  # one widening, not one per gather
        rows = _buffer(scratch, "rows", i0.shape + tab.shape[1:])
        doubled = _buffer(scratch, "doubled", (2 * rows.size,))
        f = doubled[:rows.size].reshape(rows.shape)  # unused until filled below
        # i0 is clipped to the table; "raise" would copy ``out``
        np.take(tab, i0, axis=0, out=rows, mode="clip")
        rows *= lag[0][ax]
        for k in (1, 2, 3):
            np.take(tab[k:], i0, axis=0, out=f, mode="clip")
            f *= lag[k][ax]
            rows += f
        factor = np.exp((0.5 * (self.n - self.params.m)) * arcs.log_base)
        if not angular:
            return rows, None, factor
        n_th = tab.shape[1]
        doubled = doubled.reshape(i0.shape + (2 * n_th,))
        doubled[..., :n_th] = rows
        doubled[..., n_th:] = rows
        return (doubled, np.arange(0, doubled.size, 2 * n_th).reshape(i0.shape),
                factor)

    def read_turned(self, rows: np.ndarray, base: np.ndarray,
                    thetas: np.ndarray, omega: np.ndarray):
        """Yield (sign, j, values) for each arc branch sign = +-1 and target
        angle ``thetas[j]``: the weighted table reads at the points of
        ``rows`` and ``base`` (from `radial`, angular table) and angles
        thetas[j] + sign ``omega``, without the read factor.

        In table columns, a target's coordinate (theta + pi) / dtheta is an
        integer m_j plus a residual e_j, so a point reads column
        m_j + floor(e_j + s) at the fraction of e_j + s, s = sign omega /
        dtheta.  Floor, fraction and column index are found once per branch
        and distinct residual (one for angles on table nodes; residuals
        within 1e-9 of a column, rounding noise, count as one), and each
        angle takes two gathers there from the rows shifted by m_j columns.
        """
        n_th = rows.shape[-1] // 2
        flat = rows.ravel()
        x = (thetas + np.pi) / (2.0 * np.pi / n_th)
        near = np.rint(x)
        e = x - near
        shift = near.astype(int) % n_th
        _, first, group = np.unique(np.round(e, 9), return_index=True,
                                    return_inverse=True)
        s = omega / (2.0 * np.pi / n_th)
        for sgn in (1.0, -1.0):
            for g, j in enumerate(first):
                frac = e[j] + s if sgn > 0 else e[j] - s
                fl = np.floor(frac)
                frac -= fl
                col = fl.astype(int)
                col %= n_th
                col += base
                for li in np.flatnonzero(group == g):
                    v0 = flat[shift[li]:].take(col)
                    v = flat[shift[li] + 1:].take(col)
                    v -= v0
                    v *= frac
                    v += v0
                    yield sgn, li, v

    def top_values(self, r, theta=None):
        """Exact layer values at time t: ``at_nodes`` when every point is
        a grid node; otherwise the one-turn closed form (m=3) or
        quadrature (planar) for the seed, and the step re-applied to
        ``source`` for a stepped layer.  ``theta`` (default 0) has the
        shape of ``r``; isotropic layers ignore it.  Radii must be finite
        and nonnegative (a seed's below ct), and angles finite."""
        r = _finite(r, "radii", True)
        th = np.zeros_like(r) if theta is None or self.thetas is None \
            else _finite(theta, "theta")
        stored = self._stored(r, th)
        if stored is not None:
            return stored
        sig = r / self.params.radius(self.t)
        if self.source is None:
            return self._view(_seed_values(self.params.m, self.law, sig, th))
        out = np.empty(r.shape)
        angles, back = _fold(th)
        for g, a in enumerate(angles):
            mask = back == g
            out[mask] = _step_values(self.source, sig[mask], np.array([a]),
                                     self.cfg)[:, 0]
        return self._view(out)

    def _stored(self, r: np.ndarray, th: np.ndarray):
        """``at_nodes`` at the points (r, th) when each is a grid node,
        None otherwise."""
        nodes = self.grid.nodes
        i = np.minimum(np.searchsorted(nodes, r), len(nodes) - 1)
        if not np.array_equal(nodes[i], r):
            return None
        if self.thetas is None:
            return self.at_nodes[i, 0]
        ths = self.grid.thetas
        j = np.minimum(np.searchsorted(ths, th), len(ths) - 1)
        if not np.array_equal(ths[j], th):
            return None
        return self.at_nodes[i, j]

    def moment(self, kern=None) -> float:
        """Integral of the layer against ``kern(r, theta)``, a vectorized
        real weight; the mass when ``kern`` is None.  It is integrated
        over sigma = r/(ct) and multiplied by the weight.  A kernel that
        returns exactly 1 (a transform at zero frequency) gives the mass
        to the last bit."""
        m, n, ct = self.params.m, self.n, self.params.radius(self.t)
        ths = np.zeros(1) if self.thetas is None else self.thetas
        kern = kern or (lambda r, th: np.ones_like(r * th))
        if n == 1 and m == 2:
            # sigma = sin(u) cancels the boundary inverse square root,
            # leaving the smooth regular factor
            z, w = _gl_cached(128)
            u = 0.5 * np.pi * z
            sig = np.sin(u)
            ws = 0.5 * np.pi * w * sig
            angles, back = _fold(ths)
            g = _one_turn_reg_planar(self.law, sig[:, None], angles)
            acc = 0.0
            for th, j in zip(ths, back):
                th_s = np.full_like(sig, th)
                acc += float(np.sum(ws * g[:, j] * kern(ct * sig, th_s)))
            return self.weight * 2.0 * math.pi * acc / len(ths)
        if n == 1:
            # the exact mass (primitive of sigma log((1+sigma)/(1-sigma)))
            # carries the kernel's value at the log-singular edge sigma = 1;
            # quadrature takes only the departure from it, which vanishes
            # there
            sig, ws = _sin2_panels(np.zeros(1), np.ones(1), 160)
            sig, ws = sig[0], ws[0]
            k = kern(ct * np.append(sig, 1.0), np.zeros(len(sig) + 1))
            dk = k[:-1] - k[-1]
            return self.weight * float(k[-1] + 4.0 * math.pi * np.sum(
                ws * _one_turn_shape(sig) * dk * sig * sig))
        # composite Simpson in u over h_n * kern (averaged over the table
        # angles) * E_n * the volume element, with sigma = sigma_max sin(u)
        sig, n_s, cap = self.sigma, len(self.sigma), float(self.sigma[-1])
        u = 0.5 * np.pi * np.arange(n_s) / (n_s - 1)
        prof = (self.tab * kern(ct * sig[:, None], ths[None, :])).mean(axis=1)
        w = np.where(np.arange(n_s) % 2, 4.0, 2.0)
        w[[0, -1]] = 1.0
        dv = (2.0 * np.pi * sig if m == 2 else 4.0 * np.pi * sig * sig) \
            * cap * np.cos(u)
        body = u[1] / 3.0 * np.sum(w * prof * _edge(m, n, 1.0 - sig**2) * dv)
        # past the last node h_n is held at its last value; the sliver
        # integral of E_n is exact
        if m == 2:
            sliver = np.pi * (1.0 - cap * cap) ** (0.5 * n) / (0.5 * n)
        else:
            sliver = _ball_volume(1.0, 3) - _ball_volume(cap, 3)
        return self.weight * float(body + prof[-1] * sliver)

    mass = moment  # the moment against 1


# --------------------------------------------------------------------------
# one-turn seeds
# --------------------------------------------------------------------------

def _one_turn_reg_planar(law: DissipationLaw, sig, theta):
    """Regular factor g_1(sigma, theta) sqrt(1 - sigma^2) of the planar
    one-turn layer given one turn, any dissipation law, in units
    c = t = 1.

    A one-turn path is a first leg of length tau and a last leg of
    length 1 - tau meeting at one of the two intersection points of
    the circles with those radii around 0 and x; collapsing the two
    circle deltas leaves the inverse of twice the triangle area as the
    Jacobian.  Substituting 2 tau - 1 = sigma sin(s) absorbs both
    endpoint singularities of the time integral together with the
    boundary factor, leaving a smooth integral of the product of the
    two direction densities over s in (-pi/2, pi/2).
    """
    z, w = _gl_cached(_SEED_QUAD)
    ang = -0.5 * np.pi + np.pi * z
    ws = np.pi * w
    sin_s = np.sin(ang)
    ss = sig[..., None]
    a = 0.5 * (1.0 + ss * sin_s)         # first-leg length
    rho = 0.5 * (1.0 - ss * sin_s)       # last-leg length
    dpar = 0.5 * (ss + sin_s)            # turn point along the axis of x
    # a^2 - dpar^2 = (1 - sigma^2) cos^2(s) / 4 exactly
    h = 0.5 * np.sqrt(np.maximum(1.0 - ss * ss, 0.0)) * np.abs(np.cos(ang))
    cth = np.cos(theta)[..., None]
    sth = np.sin(theta)[..., None]
    acc = 0.0
    for sgn in (1.0, -1.0):
        u1x = (cth * dpar - sth * sgn * h) / np.maximum(a, _TINY)
        u2x = (cth * (ss - dpar) + sth * sgn * h) / np.maximum(rho, _TINY)
        acc = acc + (law.density_from_axis_cos(u1x)
                     * law.density_from_axis_cos(u2x))
    return np.sum(ws * acc, axis=-1)


def _one_turn_shape(sigma) -> np.ndarray:
    """The m=3 uniform law's one-turn layer given one turn, for the flight
    with c = t = 1, at scaled radii ``sigma`` < 1: log((1+sigma)/(1-sigma))
    / (4 pi sigma)."""
    sigma = np.asarray(sigma, dtype=float)
    # log((1+u)/(1-u)) / (2u) = 1 + u^2/3 + u^4/5 + ... bridges the
    # removable singularity at r -> 0
    small = sigma < 1e-4
    u = np.where(small, 0.5, sigma)
    full = np.log((1.0 + u) / (1.0 - u)) / (2.0 * u)
    series = 1.0 + sigma * sigma / 3.0 + sigma**4 / 5.0
    return np.where(small, series, full) / (2.0 * math.pi)


def _seed_values(m: int, law: DissipationLaw, sig: np.ndarray,
                 th: np.ndarray) -> np.ndarray:
    """The one-turn layer given one turn at scaled radii ``sig`` < 1 and
    angles ``th`` (the shape of ``sig``), in units c = t = 1: the closed
    form (m=3) or quadrature (planar)."""
    if np.any(sig >= 1.0):
        raise DomainError("the one-turn layer needs all radii < ct")
    if m == 3:
        return _one_turn_shape(sig)
    g = _one_turn_reg_planar(law, sig, th)
    return g / np.sqrt(np.maximum(1.0 - sig * sig, _TINY))


# --------------------------------------------------------------------------
# the recurrence step
# --------------------------------------------------------------------------

def _tanh_sinh_panels(a: np.ndarray, b, n: int):
    """Tanh-sinh nodes and weights on per-row intervals (a, b), shape
    ``a.shape + (n,)``: z = (1 + tanh s) / 2, s = (pi/2) sinh t, at ``n``
    points t equispaced on [-3.1, 3.1], with trapezoid weights.  Upper-half
    nodes are b - width (1 - z), as precise near b as a + width z is near
    a: on a panel wider than a sixth of |b|, none rounds onto an end."""
    t = np.linspace(-3.1, 3.1, n)
    s = 0.5 * np.pi * np.sinh(t)
    z, zc = 1.0 / (1.0 + np.exp(-2.0 * s)), 1.0 / (1.0 + np.exp(2.0 * s))
    width = (b - a)[..., None]
    nodes = np.where(z < 0.5, a[..., None] + width * z,
                     np.asarray(b)[..., None] - width * zc)
    return nodes, width * (6.2 / (n - 1) * np.pi) * np.cosh(t) * z * zc


def _time_rule(layer: DensityLayer, sig: np.ndarray | None, cfg: StepConfig):
    """Time nodes and weights of the step from ``layer`` at target radii
    ``sig``, shape (targets, nodes), or at the origin (``sig`` None),
    shape (nodes,): one panel over the cap stretch (tau_-, tau_+) and one
    over the full-sphere stretch (tau_+, 1), tau_-+ = (1 -+ sigma) / 2; at
    the origin the cap stretch has width 0.  A regular step maps
    ``cfg.time_order`` Gauss nodes per panel through sin^2.  The step from
    the one-turn layer meets a logarithmic spike at tau_+ and the one-turn
    edge at tau = 1, endpoint singularities that its 4 ``cfg.time_order``
    tanh-sinh nodes per panel integrate with near-exponential convergence
    (Takahasi and Mori, 1974)."""
    tp = np.full(1, 0.5) if sig is None else 0.5 + 0.5 * sig
    bounds = [(tp, 1.0)] if sig is None else [(0.5 - 0.5 * sig, tp), (tp, 1.0)]
    rule = partial(_tanh_sinh_panels, n=4 * cfg.time_order) if layer.n == 1 \
        else partial(_sin2_panels, order=cfg.time_order)
    tau, wt = (np.concatenate(x, axis=-1)
               for x in zip(*(rule(a, b) for a, b in bounds)))
    return (tau, wt) if sig is not None else (tau[0], wt[0])


def _log_primitive(s: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Primitive of log((a+s)/(a-s)) in s; finite at s = a."""
    lo = a - s
    return (a + s) * np.log(np.maximum(a + s, _TINY)) \
        + np.where(lo > 0, lo * np.log(np.maximum(lo, _TINY)), 0.0)


_TARGET_BLOCK = 8  # targets per pass of the step: bounds its scratch arrays


def _buffer(scratch: dict, key: str, shape: tuple, dtype=float) -> np.ndarray:
    """An uninitialised array of ``shape`` kept in ``scratch`` under ``key``
    and reused, grown as needed, by the next block of a step: arrays of a
    block's size, allocated afresh for each block, cost page faults."""
    size = math.prod(shape)
    if key not in scratch or scratch[key].size < size:
        scratch[key] = np.empty(size, dtype)
    return scratch[key][:size].reshape(shape)


@dataclass(frozen=True, eq=False)
class _Points:
    """The quadrature points of a step at a block of targets, free of the
    consumed layer: chord radius ``s`` and time ``tau`` of each point,
    with sigma = s / tau, and in the plane ``gap`` = tau - s in a
    cancellation-free form (None in dimension 3, which has no edge
    factor), all of shape (targets, time, arc) or broadcast to it; and
    the weight ``w`` of each point.

    Where the reads do not depend on the target angle, chi is folded in:
    an isotropic table's ``w`` carries it (one constant), summed over both
    arc branches or, at the origin, over the turn angles.  At the origin
    an angular table's ``w`` is the time weight and ``cols`` one weight
    per table column: chi at the turn angles times their reads'
    linear-in-theta weights.  Elsewhere it needs chi and the read angle
    per target angle: ``w`` is the kernel alone, and ``chi_args`` =
    ((r - d1) / rho, d2 / rho, omega) gives both on each arc branch.
    """

    s: np.ndarray
    tau: np.ndarray
    gap: np.ndarray | None
    w: np.ndarray
    chi_args: tuple | None = None
    cols: np.ndarray | None = None


@dataclass(frozen=True, eq=False)
class _Arcs:
    """The part of a step at a block of targets that does not depend on
    the consumed layer's index, for tables of one size ending at one
    node: of each quadrature point (`_Points`), the first table row
    ``i0`` of its read's 4-point stencil in u, in the smallest unsigned
    type that holds the table's row numbers, the stencil's Lagrange
    weights ``lag`` times the point's weight, shape (4,) + points, and
    ``log_base``, the log of its read base B, so that the read factor
    tau^(n-m) E_n(sigma) of layer n is B^((n-m)/2): B = (tau - s)(tau + s)
    in the plane and tau^2 in dimension 3.  ``chi_args`` and ``cols`` are
    the points'.
    """

    i0: np.ndarray
    lag: np.ndarray
    log_base: np.ndarray
    chi_args: tuple | None = None
    cols: np.ndarray | None = None


def _blocks(sig_targets: np.ndarray):
    """Yield (indices, radii) of the targets a block at a time, skipping
    the targets at the origin, then (indices, None) of those."""
    origin = sig_targets < _R_TINY_REL
    for b in range(0, len(sig_targets), _TARGET_BLOCK):
        idx = b + np.flatnonzero(~origin[b:b + _TARGET_BLOCK])
        if len(idx):
            yield idx, sig_targets[idx]
    if np.any(origin):
        yield np.flatnonzero(origin), None


def _window(layer: DensityLayer, sig: np.ndarray, cfg: StepConfig):
    """Time nodes ``tau`` of the step at target radii ``sig``
    (`_time_rule`), the last-leg radius rho = 1 - tau, the
    chord-radius bounds of each cap, and the time weights, zero where
    the cap is empty, so that they also zero its reads.  The kernel's
    tau^n travels with the reads, and its n+1 is applied per step."""
    tau, wt = _time_rule(layer, sig, cfg)
    rho = 1.0 - tau
    s_lo = np.abs(sig[:, None] - rho)
    s_hi = np.minimum(sig[:, None] + rho, tau)
    return tau, rho, s_lo, s_hi, np.where(s_hi > s_lo, wt, 0.0)


def _points(layer: DensityLayer, sig: np.ndarray | None,
            cfg: StepConfig) -> _Points:
    """The quadrature points of the step at target radii ``sig`` (None:
    the origin).  Planar surface integrals run in the chord-radius
    variable s over both arc branches; the angle-to-radius Jacobian is
    2 s / sqrt(((r+rho)^2 - s^2)(s^2 - (r-rho)^2)), whose endpoint
    singularities the sin^2 panel map integrates exactly.  In dimension
    3 the cap integral reduces to (1 / (2 rho r)) int s f(s) ds."""
    m = layer.params.m
    if sig is None:
        tau, kw = _time_rule(layer, None, cfg)
        rho = 1.0 - tau
        col = (None, slice(None), None)  # (one target, time, angle)
        if m == 3:
            return _Points(rho[col], tau[col], None, kw[col])
        phi = _angles(64)  # the turn angles, each read along rho
        chi = layer.law.density_from_axis_cos(-np.cos(phi)) * (2.0 * np.pi / len(phi))
        at = partial(_Points, rho[col], tau[col], (2.0 * tau - 1.0)[col])
        if layer.thetas is None:  # one read serves every turn angle
            return at(kw[col] * np.sum(chi))
        # a read is linear in theta: a hat of one column's width around
        # each table column, in the periodic distance d in columns
        n_th = len(layer.thetas)
        d = (phi[:, None] - layer.thetas) * (n_th / (2.0 * np.pi))
        hat = np.maximum(1.0 - np.abs(d - n_th * np.round(d / n_th)), 0.0)
        return at(kw[col], cols=chi @ hat)
    tau, rho, s_lo, s_hi, kw = _window(layer, sig, cfg)
    rr = sig[:, None]
    if m == 3:
        ss, ws = _sin2_panels(s_lo, s_hi, cfg.arc_order)
        w = (kw / np.maximum(2.0 * rho * rr, _TINY))[..., None] * ws * ss
        return _Points(ss, tau[..., None], None, w)
    ss, ws, lo_gap, hi_gap = _sin2_panels(s_lo, s_hi, cfg.arc_order,
                                          with_gaps=True)
    # endpoint distances in cancellation-free form: to the inner
    # support sphere (exact when s_hi is the sphere itself) and to
    # the two roots of the arc Jacobian
    gap = np.maximum(tau - s_hi, 0.0)[..., None] + hi_gap
    gap_outer = np.maximum((rr + rho) - s_hi, 0.0)[..., None] + hi_gap
    # the product of the four root distances is (2 r d2)^2, with d2 the
    # turn point's distance from the axis of x; s^2 - d1^2 would cancel
    # at the arc ends
    two_r_d2 = np.sqrt(np.maximum(
        gap_outer * ((rr + rho)[..., None] + ss)
        * lo_gap * (s_lo[..., None] + ss), _TINY))
    ker = 2.0 * ss / two_r_d2
    at = partial(_Points, ss, tau[..., None], gap)
    wk = kw[..., None] * ws * ker
    if layer.thetas is None:  # isotropic: chi is one constant on both branches
        return at(wk * (2.0 * layer.law.density_from_axis_cos(1.0)))
    d1 = (rr[..., None] ** 2 + ss**2 - (rho**2)[..., None]) \
        / np.maximum(2.0 * rr[..., None], _TINY)
    d2 = np.divide(two_r_d2, 2.0 * rr[..., None], out=two_r_d2)
    omega = np.arctan2(d2, d1)
    rho3 = np.maximum(rho[..., None], _TINY)  # chi's arguments over rho, once
    a = np.divide(np.subtract(rr[..., None], d1, out=d1), rho3, out=d1)
    return at(wk, (a, np.divide(d2, rho3, out=d2), omega))


def _stencil(layer: DensityLayer, pts: _Points,
             scratch: dict | None = None) -> _Arcs:
    """The reads of ``layer``'s table at the points ``pts``, in the form
    `_Arcs` keeps: it depends on the table's size and last node, not on
    the layer's index.  Its arrays live in ``scratch`` (`_buffer`) until
    its next use when given, for a geometry used block by block and kept
    by no one; otherwise they are the geometry's own."""
    m, cap, n_s = layer.params.m, layer.sigma[-1], len(layer.sigma)
    s, tau = pts.s, pts.tau
    buf = partial(_buffer, {} if scratch is None else scratch)
    shape = np.broadcast_shapes(s.shape, tau.shape)
    log_base = buf("log_base", shape if m == 2 else tau.shape)
    if m == 2:
        np.add(tau, s, out=log_base)
        log_base *= pts.gap
    else:
        np.multiply(tau, tau, out=log_base)
    np.maximum(log_base, _TINY, out=log_base)
    np.log(log_base, out=log_base)
    # the nodes are equispaced in u = arcsin(sigma / cap), so the stencil's
    # index is a floor.  A step's arrays are large: the arithmetic runs in
    # place
    d = buf("u", shape)
    np.divide(s, np.maximum(tau, _TINY), out=d)
    d /= cap
    np.clip(d, 0.0, 1.0, out=d)
    np.arcsin(d, out=d)
    d *= (n_s - 1) / (0.5 * np.pi)
    low = buf("low", shape)
    np.floor(d, out=low)
    low -= 1.0
    np.clip(low, 0.0, n_s - 4, out=low)
    d -= low
    i0 = buf("i0", shape, np.min_scalar_type(n_s))  # kept compact
    i0[...] = low
    lag = buf("lag", (4,) + shape)
    d3 = np.subtract(d, 3.0, out=low)
    d2 = np.subtract(d, 2.0, out=lag[1])
    d1 = np.subtract(d, 1.0, out=lag[0])
    np.multiply(d, d1, out=lag[3])
    np.multiply(lag[3], d3, out=lag[2])
    lag[2] *= -0.5   # -d(d-1)(d-3)/2
    lag[3] *= d2
    lag[3] /= 6.0    # d(d-1)(d-2)/6
    lag[0] *= d2
    lag[0] *= d3
    lag[0] /= -6.0   # -(d-1)(d-2)(d-3)/6
    lag[1] *= d
    lag[1] *= d3
    lag[1] *= 0.5    # d(d-2)(d-3)/2
    lag *= pts.w
    return _Arcs(i0, lag, log_base, pts.chi_args, pts.cols)


def _geometry(layer: DensityLayer, sig_targets: np.ndarray, cfg: StepConfig,
              scratch: dict | None = None):
    """Yield (target indices, `_Arcs`) of the step from ``layer``, a block
    of targets at a time.  With ``scratch``, each block's `_Arcs` lives
    in it only until the next block is made (`_stencil`)."""
    for idx, sig in _blocks(sig_targets):
        yield idx, _stencil(layer, _points(layer, sig, cfg), scratch)


def _apply(layer: DensityLayer, arcs: _Arcs, th_targets: np.ndarray,
           scratch: dict) -> np.ndarray:
    """The reads of ``layer``'s table that ``arcs`` weighs, summed per
    target: shape (targets, target angles), or (targets, 1) when every
    angle gets the same."""
    rows, base, factor = layer.radial(arcs, scratch)
    if base is None:
        rows *= factor
        return np.sum(rows, axis=(1, 2))[:, None]
    if arcs.chi_args is None:  # the origin: one weight per table column
        v = rows[..., :len(arcs.cols)] @ arcs.cols
        return np.sum(factor * v, axis=(1, 2))[:, None]
    out = np.zeros((len(factor), len(th_targets)))
    a, d2, omega = arcs.chi_args
    for sgn, li, v in layer.read_turned(rows, base, th_targets, omega):
        th = th_targets[li]  # the arc branch sgn: chi times the read
        v *= layer.law.density_from_axis_cos(
            math.cos(th) * a + math.sin(th) * sgn * d2)
        out[:, li] += np.einsum("tpa,tpa->t", factor, v)
    return out


def _step_values(layer: DensityLayer, sig_targets: np.ndarray,
                 th_targets: np.ndarray, cfg: StepConfig,
                 geometry: tuple | None = None,
                 scratch: dict | None = None) -> np.ndarray:
    """The scaled layer g_{n+1} after ``layer`` at scaled radii
    ``sig_targets`` and angles ``th_targets``, shape (len(sig_targets),
    len(th_targets)): one application of the recurrence, a block of
    targets at a time.  ``geometry`` is the step's kept `_geometry` at
    these targets; without it the step builds it block by block and
    keeps none.  A read's position does not depend on the angle, so it
    is found once for every target angle and arc branch; where the
    reads do not depend on the angle either, one column serves every
    angle.  ``scratch`` holds the block-sized arrays of the reads
    (`_buffer`); calls that share one reuse them.

    The m=3 one-turn layer is consumed through its closed form, where
    the inner cap integral has the exact primitive
    (a+s) log(a+s) + (a-s) log(a-s).
    """
    sig_targets = np.asarray(sig_targets, dtype=float)
    th_targets, back = (th_targets, slice(None)) if layer.thetas is None \
        else _fold(th_targets)
    out = np.zeros((len(sig_targets), len(th_targets)))
    if layer.n > 1 or layer.params.m == 2:
        scratch = {} if scratch is None else scratch
        for idx, arcs in geometry if geometry is not None else \
                _geometry(layer, sig_targets, cfg, scratch):
            out[idx] += _apply(layer, arcs, th_targets, scratch)
    else:
        for idx, sig in _blocks(sig_targets):  # the m=3 seed's closed form
            if sig is None:
                tau, kw = _time_rule(layer, None, cfg)
                rho = np.minimum(1.0 - tau, tau * (1.0 - 1e-12))
                out[idx] += np.sum(kw * _one_turn_shape(rho / tau) / tau**2)
                continue
            tau, rho, s_lo, s_hi, kw = _window(layer, sig, cfg)
            # s tau^-2 g_1(s / tau) = B log((tau + s) / (tau - s))
            B = 1.0 / (4.0 * math.pi * tau)
            inner = B * (_log_primitive(s_hi, tau) - _log_primitive(s_lo, tau))
            out[idx] += np.sum(kw * inner / np.maximum(2.0 * rho * sig[:, None],
                                                       _TINY), axis=-1)[:, None]
    return (layer.n + 1) * out[:, back]  # the kernel's n+1


def _node_angles(layer: DensityLayer) -> np.ndarray:
    """The angles a step from ``layer`` takes at its grid's nodes: every
    grid angle for an angular table, one for an isotropic one."""
    return np.zeros(1) if layer.thetas is None else layer.grid.thetas


def _step_layer(layer: DensityLayer, cfg: StepConfig) -> DensityLayer:
    """Full recurrence step: consume the table of layer n and make the
    joint layer n+1 on the same grid: its table, and its values at the
    grid nodes sigma = r/(ct).  A regular step (n >= 2) keeps its
    geometry on the new layer."""
    p, grid = layer.params, layer.grid
    sigma = _clustered_nodes(_SIGMA_CAP, cfg.n_sigma)
    targets = ((sigma, np.zeros(1) if layer.thetas is None else layer.thetas),
               (grid.nodes / p.radius(layer.t), _node_angles(layer)))
    geometry = layer.geometry if cfg == layer.cfg else None
    if geometry is None and layer.n >= 2:
        geometry = tuple(tuple(_geometry(layer, r, cfg)) for r, _ in targets)
    scratch: dict = {}
    raw, g_at_nodes = (_step_values(layer, r, th, cfg, geo, scratch)
                       for (r, th), geo in zip(targets, geometry or (None, None)))
    n = layer.n + 1
    tab = raw / _edge(p.m, n, 1.0 - sigma**2)[:, None]
    return DensityLayer(n, p, layer.law, layer.t, grid, g_at_nodes, sigma,
                        layer.thetas, tab, cfg, poisson_weight(n, p, layer.t),
                        source=layer, geometry=geometry)


# --------------------------------------------------------------------------
# public layer operations
# --------------------------------------------------------------------------

def _check_grid(params: FlightParams, law: DissipationLaw, t: float,
                grid: RadialGrid | PolarGrid) -> None:
    if grid.nodes[-1] >= params.radius(t):
        raise DomainError("grid reaches the support boundary; keep a standoff")
    check_grid_time(grid, t)
    if isinstance(law, CircularGaussianLaw) and not isinstance(grid, PolarGrid):
        raise DomainError("non-symmetric laws need a PolarGrid")


def seed_layer(params: FlightParams, law: DissipationLaw, t: float,
               grid: RadialGrid | PolarGrid,
               config: StepConfig | None = None) -> DensityLayer:
    """The one-turn joint layer (n = 1), the seed of the recurrence.

    ``at_nodes`` holds the closed form (m=3) or the two-point reduction
    of the sphere-sphere convolution (planar, any law; see
    `_one_turn_reg_planar`), which also gives the table that
    :func:`next_layer` consumes.  Raises
    `NumericError` where the layer's values leave the float range (m=3
    at t below about 3e-155 for lam = c = 1).
    """
    if params.m not in (2, 3):
        raise DomainError(
            "the convolution engine covers m in {2, 3}; higher symmetric "
            "dimensions need the cap-measure reduction derived for that m")
    cfg = config or _default_config(law)
    _check_grid(params, law, t, grid)
    if params.m == 3 and not isinstance(law, UniformLaw):
        raise DomainError("dimension 3 supports the uniform law only")
    sigma, sig = _clustered_nodes(1.0, cfg.n_sigma), grid.nodes / params.radius(t)
    angular = isinstance(law, CircularGaussianLaw)
    thetas = _angles(cfg.n_theta) if angular else None

    def folded(f, s, th):  # f at radii s and angles th, once per distinct |th|
        angles, back = _fold(th if angular else np.zeros(1))
        return f(s[:, None], angles)[:, back]

    # h_1 = g_1 sqrt(1 - sigma^2): the regular factor
    tab = folded(partial(_one_turn_reg_planar, law), sigma, thetas) \
        if params.m == 2 else None
    g_at_nodes = folded(partial(_seed_values, params.m, law), sig,
                        grid.thetas if angular else None)
    return DensityLayer(1, params, law, t, grid, g_at_nodes, sigma, thetas, tab,
                        cfg, poisson_weight(1, params, t))


def next_layer(params: FlightParams, law: DissipationLaw,
               layer: DensityLayer,
               config: StepConfig | None = None) -> DensityLayer:
    """Apply the recurrence once: joint layer n -> joint layer n+1 on the
    layer's grid, at the resolution the layer was built at unless
    ``config`` is given.  ``params`` and ``law`` must be those the layer
    was built with.  A step at the layer's own resolution reuses the step
    geometry the layer keeps (layers 3 and up).  The new layer's values
    at other radii come from `DensityLayer.top_values` and `ac_profile`."""
    layer.check_source(params, law)
    _check_grid(params, law, layer.t, layer.grid)
    return _step_layer(layer, config or layer.cfg)


def transition_density(params: FlightParams, law: DissipationLaw, t: float,
                       K: int, grid: RadialGrid | PolarGrid,
                       config: StepConfig | None = None) -> DensityField:
    """Assemble the transition density: singular layer, layers 1..K of
    the recurrence, and the Poisson tail of the truncation."""
    if not (_is_count(K) and K >= 1):
        raise DomainError(f"K must be an integer >= 1, got {K!r}")
    layers = [seed_layer(params, law, t, grid, config)]
    for _ in range(K - 1):
        layers.append(next_layer(params, law, layers[-1], config=config))
    masses = tuple(layer.mass() for layer in layers)
    return DensityField(params, t, tuple(layers), masses,
                        tail_mass(K, params, t), law=law)


def ac_profile(field_obj: DensityField, r, theta=None) -> np.ndarray:
    """Absolutely continuous density of an assembled field at radius r;
    zero outside the support.  A field with angular tables (a
    non-symmetric law) needs ``theta``, broadcast against ``r``; an
    isotropic field ignores it.  Radii must be finite and nonnegative, and
    angles finite."""
    r = np.atleast_1d(_finite(r, "radii", True))
    angular = field_obj.layers[0].thetas is not None
    if angular and theta is None:
        raise DomainError("a field with angular tables needs theta")
    if angular:
        r, theta = np.broadcast_arrays(r, _finite(theta, "theta"))
    R = field_obj.params.radius(field_obj.t)
    inside = r < R
    out = np.zeros(r.shape)
    if np.any(inside):
        th = theta[inside] if angular else None
        acc = 0.0
        for layer in field_obj.layers:
            acc = acc + layer.top_values(r[inside], th)
        out[inside] = acc
    return out


def residual_check(field_obj: DensityField,
                   config: StepConfig | None = None) -> float:
    """Sup-norm defect of the assembled field in the renewal-type
    integral equation p = p0 + lam * int (p0 * p) dtau, over the
    epsilon-interior grid.

    The right-hand side reapplies the singular-layer convolution
    operator to the field: the p0*p0 term is the one-turn layer and the
    operator applied to the truncated stack gives layers 2..K+1.  Each
    layer is stepped at the resolution it was built at unless ``config``
    is given; where that step made the field's next layer, its node
    values are reused, and the last layer's step reuses the geometry
    it keeps.  So by default the residual is exactly the first
    dropped layer up to rounding and sees no quadrature error; only an
    explicit ``config`` other than the build one compares two
    resolutions.  The field's layers must share one grid.
    """
    layers, grid = tuple(field_obj.layers), field_obj.layers[0].grid
    if any(layer.grid is not grid for layer in layers):
        raise DomainError("residual_check needs every layer on one grid")
    p, t = field_obj.params, field_obj.t
    lhs = sum(layer.at_nodes for layer in layers)
    rhs = layers[0].at_nodes
    for layer, nxt in zip(layers, layers[1:] + (None,)):
        cfg = config or layer.cfg
        if nxt is not None and nxt.source is layer and nxt.cfg == cfg:
            rhs = rhs + nxt.at_nodes
            continue
        geo = layer.geometry[1] if layer.geometry and cfg == layer.cfg else None
        g = _step_values(layer, grid.nodes / p.radius(t), _node_angles(layer),
                         cfg, geo)
        rhs = rhs + _joint_scale(layer.n + 1, p, t) * g
    return float(np.max(np.abs(lhs - rhs)))
