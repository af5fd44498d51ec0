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

A layer therefore keeps one table over the scaled radius sigma = r/(ct)
at the final time t and reads every earlier time exactly:

    f_n(s, tau) = e^{lam (t - tau)} (tau / t)^(n - m) E_n(sigma) h_n(sigma),
    sigma = s / (c tau).

E_n is the planar edge factor (1 - sigma^2)^((n-2)/2), exact for the
uniform law's closed form g_n = n / (2 pi) (1 - sigma^2)^((n-2)/2) and
used for every planar law; it is 1 in dimension 3.  For n = 1 it is the
inverse-square-root divergence of the planar one-turn layer at the
support boundary, so h_1 is that layer's regular factor.  The tables
hold h_n on sigma nodes equispaced in u = arcsin(sigma / sigma_max);
reads interpolate them with a 4-point Lagrange stencil in u, and masses
and transforms integrate them in u by composite Simpson.  Each step
evaluates the next table at the one time t, together with the layer's
values at the grid nodes.  The step integrates the reads against the
kernel lam e^{-lam (t - tau)}, whose exponential cancels the read's
e^{lam (t - tau)}; both are left out, so no factor overflows at large
lam t.

Surface integrals over caps are taken in the chord-radius variable
s = |xi| (planar case: both arc branches summed), where the geometric
and boundary singularities appear as inverse square roots at the
interval ends; every panel is mapped through sin^2, which integrates
those ends exactly.  Time panels split at the cap/full-sphere
transition, where the integrand has a kink (and, while consuming the
one-turn layer, a mild logarithmic spike), with extra graded panels in
the latter case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .analytic import one_turn_coefficient, one_turn_profile
from .core import (DensityField, FlightParams, PolarGrid, RadialGrid, _angles,
                   _ball_volume, _clustered_nodes, check_grid_time,
                   conditional_weight_or_raise, poisson_weight, tail_mass)
from .dissipation import CircularGaussianLaw, DissipationLaw, UniformLaw
from .errors import DomainError
from .specfun import gauss_2f1

__all__ = [
    "StepConfig",
    "DensityLayer",
    "seed_layer",
    "next_layer",
    "conditional_layer",
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

    ladder_slots: int = 64       # unused: a layer keeps one table
    n_sigma: int = 65            # table nodes over the scaled radius (odd)
    n_theta: int = 16            # angular table nodes (non-symmetric laws)
    time_order: int = 16         # Gauss-Legendre order per time panel
    arc_order: int = 24          # Gauss-Legendre order per surface panel
    seed_grade: tuple = (1e-3, 1e-2, 1e-1, 1.0)  # decade subpanels

    def __post_init__(self) -> None:
        if self.n_sigma < 5 or self.n_sigma % 2 == 0:
            raise DomainError("n_sigma must be odd and >= 5 (Simpson in u)")
        if self.n_theta < 8 or self.n_theta % 2:
            raise DomainError("n_theta must be even and >= 8")


def _radii(r) -> np.ndarray:
    """``r`` as floats; `DomainError` unless finite and nonnegative."""
    r = np.asarray(r, dtype=float)
    if not (np.all(np.isfinite(r)) and np.all(r >= 0.0)):
        raise DomainError("radii must be finite and nonnegative")
    return r


def _edge(m: int, n: int, one_minus_sig2):
    """Edge factor E_n of layer n at 1 - sigma^2: (1 - sigma^2)^((n-2)/2)
    in the plane, 1 in dimension 3."""
    x = np.asarray(one_minus_sig2, dtype=float)
    if m == 3:
        return np.ones_like(x)
    return np.maximum(x, _TINY) ** (0.5 * (n - 2))


def _default_config(law: DissipationLaw) -> StepConfig:
    # the skewed planar pipeline carries full angular tables; keep its
    # default resolution laptop-friendly
    if isinstance(law, CircularGaussianLaw):
        return StepConfig(n_sigma=49, n_theta=16, time_order=12, arc_order=16,
                          seed_grade=(1e-2, 1e-1, 1.0))
    return StepConfig()


@dataclass(frozen=True, eq=False)
class DensityLayer:
    """The density of position jointly with (``kind`` "conditional":
    given) exactly ``n`` direction changes at time ``t``.

    ``values`` holds it at the nodes of ``grid`` clipped at 0, shape
    (n_r,) or (n_r, n_theta); ``at_nodes`` unclipped, shape (n_r,
    n_theta of the grid, or 1 for isotropic tables).  ``tab`` holds
    h_n = f_n(sigma c t, t) / E_n(sigma) at the nodes ``sigma``, shape
    (n_sigma, n_theta), with n_theta = 1 (``thetas`` None) for
    rotation-invariant data; the m=3 seed, consumed through its closed
    form, has none.  ``cfg`` is the resolution the layer was built at
    and ``source`` the joint layer its step consumed (None for the
    seed): values away from the grid nodes re-apply that step.
    """

    n: int
    params: FlightParams
    law: DissipationLaw
    t: float
    grid: RadialGrid | PolarGrid
    values: np.ndarray
    at_nodes: np.ndarray
    sigma: np.ndarray
    thetas: np.ndarray | None
    tab: np.ndarray | None
    cfg: StepConfig
    source: "DensityLayer | None" = field(default=None, repr=False)
    kind: str = "joint"

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

    def check_source(self, params: FlightParams, law=None) -> None:
        """Raise `DomainError` unless ``params`` and ``law`` (its type and
        concentration) are those the layer was built with."""
        if params != self.params or law is not None and (
                type(law) is not type(self.law)
                or getattr(law, "k", None) != getattr(self.law, "k", None)):
            raise DomainError(f"arguments differ from the layer's own "
                              f"{self.params} and {type(self.law).__name__}")

    def radial(self, s, tau, support_gap=None) -> tuple:
        """Where points (radius s, time tau) fall in the table: the flat
        index into ``tab`` of the first node of the 4-point stencil in u
        (angle node 0), and the stencil's four weights, each carrying the
        read factor (tau/t)^(n-m) E_n(sigma); the step cancels the exact
        read's e^{lam (t - tau)} against its kernel.

        Callers probing close to the support sphere pass ``support_gap``
        = c*tau - s computed in a cancellation-free form.
        """
        s = np.asarray(s, dtype=float)
        tau = np.asarray(tau, dtype=float)
        p, n = self.params, self.n
        n_s, n_th = self.tab.shape
        av = p.c * tau
        gap = av - s if support_gap is None else support_gap
        scale = ((tau / self.t) ** (n - p.m)
                 * _edge(p.m, n, gap * (av + s) / np.maximum(av * av, _TINY)))
        # the nodes are equispaced in u, so the stencil's index is a floor
        sig = np.clip(s / np.maximum(av, _TINY) / self.sigma[-1], 0.0, 1.0)
        x = np.arcsin(sig) * ((n_s - 1) / (0.5 * np.pi))
        i0 = np.clip(np.floor(x).astype(int) - 1, 0, n_s - 4)
        d = x - i0
        w = (-(d - 1.0) * (d - 2.0) * (d - 3.0) / 6.0,
             0.5 * d * (d - 2.0) * (d - 3.0),
             -0.5 * d * (d - 1.0) * (d - 3.0),
             d * (d - 1.0) * (d - 2.0) / 6.0)
        return i0 * n_th, tuple(scale * wk for wk in w)

    def read(self, rad: tuple, theta) -> np.ndarray:
        """Layer values at the points ``rad`` (from `radial`) and angles
        ``theta``, linear between angle nodes; isotropic tables ignore
        ``theta``."""
        base, sig_w = rad
        flat = self.tab.ravel()
        n_th = self.tab.shape[1]
        if n_th == 1:
            return sum(w * flat[base + k] for k, w in enumerate(sig_w))
        tf = (np.asarray(theta, dtype=float) + np.pi) / (2.0 * np.pi / n_th)
        fl = np.floor(tf)
        k0 = fl.astype(int) % n_th
        k1 = (k0 + 1) % n_th
        fh = tf - fl
        out = 0.0
        for k, w in enumerate(sig_w):
            row = base + k * n_th
            out = out + w * ((1.0 - fh) * flat[row + k0] + fh * flat[row + k1])
        return out

    def top_values(self, r, theta=None):
        """Exact layer values at time t: ``at_nodes`` when every point is
        a grid node; otherwise the one-turn closed form (m=3) or
        quadrature (planar) for the seed, and the step re-applied to
        ``source`` for a stepped layer.  ``theta`` (default 0) has the
        shape of ``r``; isotropic layers ignore it.  Radii must be finite
        and nonnegative."""
        r = _radii(r)
        th = np.zeros_like(r) if theta is None or self.thetas is None \
            else np.asarray(theta, dtype=float)
        stored = self._stored(r, th)
        if stored is not None:
            return stored
        if self.source is None:
            return self._scale * _seed_values(self.params, self.law, r, th, self.t)
        out = np.empty(r.shape)
        for a in np.unique(th):
            mask = th == a
            out[mask] = _step_values(self.source, r[mask], np.array([a]),
                                     self.cfg)[:, 0]
        return self._scale * out

    @property
    def _scale(self) -> float:  # takes the joint closed forms to this kind
        w = 1.0 if self.kind == "joint" else poisson_weight(self.n, self.params, self.t)
        return 1.0 / w

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
        real weight; the mass when ``kern`` is None.  A kernel that
        returns exactly 1 (a transform at zero frequency) gives the mass
        to the last bit."""
        p, n = self.params, self.n
        R = p.radius(self.t)
        ths = np.zeros(1) if self.thetas is None else self.thetas
        kern = kern or (lambda r, th: np.ones_like(r * th))
        if n == 1 and p.m == 2:
            # r = R sin(u) cancels the boundary inverse square root,
            # leaving the smooth regular factor
            z, w = _gl_cached(128)
            u = 0.5 * np.pi * z
            r = R * np.sin(u)
            wr = 0.5 * np.pi * w * R * np.sin(u)
            acc = 0.0
            for th in ths:
                th_r = np.full_like(r, th)
                g = _one_turn_reg_planar(p, self.law, r, th_r, self.t)
                acc += float(np.sum(wr * g * kern(r, th_r)))
            return self._scale * 2.0 * math.pi * acc / len(ths)
        if n == 1:
            # the exact mass (primitive of r log((R+r)/(R-r))) carries the
            # kernel's value at the log-singular edge r = R; quadrature
            # takes only the departure from it, which vanishes there
            B = p.lam * math.exp(-p.lam * self.t) / (4.0 * math.pi
                                                     * p.c**2 * self.t)
            r, wr = _sin2_panels(np.zeros(1), np.full(1, R), 160)
            r, wr = r[0], wr[0]
            f = one_turn_profile(p, r, self.t)
            k = kern(np.append(r, R), np.zeros(len(r) + 1))
            dk = k[:-1] - k[-1]
            return self._scale * float(k[-1] * 4.0 * math.pi * B * R * R
                                       + 4.0 * math.pi * np.sum(wr * f * dk * r * r))
        # composite Simpson in u over h_n * kern (averaged over the table
        # angles) * E_n * the volume element, with r = R sigma_max sin(u)
        n_s, cap = len(self.sigma), float(self.sigma[-1])
        u = 0.5 * np.pi * np.arange(n_s) / (n_s - 1)
        r = self.sigma * R
        prof = (self.tab * kern(r[:, None], ths[None, :])).mean(axis=1)
        w = np.where(np.arange(n_s) % 2, 4.0, 2.0)
        w[[0, -1]] = 1.0
        dv = (2.0 * np.pi * r if p.m == 2 else 4.0 * np.pi * r * r) \
            * R * cap * np.cos(u)
        body = u[1] / 3.0 * np.sum(w * prof * _edge(p.m, n, 1.0 - self.sigma**2)
                                   * dv)
        # past the last node h_n is held at its last value; the sliver
        # integral of E_n is exact
        if p.m == 2:
            sliver = np.pi * R * R * (1.0 - cap * cap) ** (0.5 * n) / (0.5 * n)
        else:
            sliver = _ball_volume(R, 3) - _ball_volume(r[-1], 3)
        return float(body + prof[-1] * sliver)

    mass = moment  # the moment against 1


# --------------------------------------------------------------------------
# one-turn seeds
# --------------------------------------------------------------------------

def _one_turn_reg_planar(params: FlightParams, law: DissipationLaw,
                         r, theta, t):
    """Regular factor f1(x, t) * sqrt((ct)^2 - |x|^2) of the planar
    one-turn density, any dissipation law.

    A one-turn path is a first leg of length c*tau and a last leg of
    length c*(t - tau) meeting at one of the two intersection points of
    the circles with those radii around 0 and x; collapsing the two
    circle deltas leaves the inverse of twice the triangle area as the
    Jacobian.  Substituting c*(2 tau - t) = |x| sin(s) absorbs both
    endpoint singularities of the time integral together with the
    boundary factor, leaving a smooth integral of the product of the
    two direction densities over s in (-pi/2, pi/2).
    """
    r = np.asarray(r, dtype=float)
    theta = np.asarray(theta, dtype=float)
    ct = params.radius(t)
    z, w = _gl_cached(_SEED_QUAD)
    ang = -0.5 * np.pi + np.pi * z
    ws = np.pi * w
    sin_s = np.sin(ang)
    rr = r[..., None]
    a = 0.5 * (ct + rr * sin_s)          # first-leg length
    rho = 0.5 * (ct - rr * sin_s)        # last-leg length
    dpar = 0.5 * (rr + ct * sin_s)       # turn point along the axis of x
    # a^2 - dpar^2 = ((ct)^2 - r^2) cos^2(s) / 4 exactly
    h = 0.5 * np.sqrt(np.maximum(ct * ct - rr * rr, 0.0)) * np.abs(np.cos(ang))
    cth = np.cos(theta)[..., None]
    sth = np.sin(theta)[..., None]
    acc = 0.0
    for sgn in (1.0, -1.0):
        u1x = (cth * dpar - sth * sgn * h) / np.maximum(a, _TINY)
        u2x = (cth * (rr - dpar) + sth * sgn * h) / np.maximum(rho, _TINY)
        acc = acc + (law.density_from_axis_cos(u1x)
                     * law.density_from_axis_cos(u2x))
    integral = np.sum(ws * acc, axis=-1)
    return params.lam * np.exp(-params.lam * t) / params.c * integral


def _seed_profile_generic(params: FlightParams, r: np.ndarray,
                          t: float) -> np.ndarray:
    """One-turn density of the isotropic law through the generic
    hypergeometric series (kept independent of the elementary fast
    paths in :mod:`randflight.analytic`)."""
    m = params.m
    ct = params.radius(t)
    coeff = one_turn_coefficient(params, t)
    out = np.empty(len(r))
    for i, ri in enumerate(r):
        out[i] = coeff * gauss_2f1(0.5 * (m - 1), 2.0 - 0.5 * m, 0.5 * m,
                                   (ri / ct) ** 2, 1e-14, 200_000)
    return out


def _seed_values(params: FlightParams, law: DissipationLaw, r: np.ndarray,
                 th: np.ndarray, t: float) -> np.ndarray:
    """The one-turn layer at radii ``r`` and angles ``th`` (the shape of
    ``r``) at time t: the closed form (m=3) or quadrature (planar)."""
    if params.m == 3:
        return one_turn_profile(params, r, t)
    g = _one_turn_reg_planar(params, law, r, th, t)
    return g / np.sqrt(np.maximum(params.radius(t) ** 2 - r * r, _TINY))


# --------------------------------------------------------------------------
# the recurrence step
# --------------------------------------------------------------------------

def _graded(a: np.ndarray, b: np.ndarray, grade: tuple) -> list:
    """Subpanels of [a, b] graded geometrically toward ``a``: a decade
    ladder, so some subpanel matches the scale of a boundary layer of
    any relative width down to the smallest fraction."""
    fr = (0.0,) + tuple(grade)
    return [(a + g0 * (b - a), a + g1 * (b - a))
            for g0, g1 in zip(fr[:-1], fr[1:])]


def _panels(bounds: list, order: int):
    """sin^2-mapped Gauss panels over consecutive intervals, joined."""
    parts = [_sin2_panels(a, b, order) for a, b in bounds]
    return (np.concatenate([nd for nd, _ in parts], axis=-1),
            np.concatenate([wt for _, wt in parts], axis=-1))


def _time_panels(r: np.ndarray, T: float, c: float, order: int,
                 grade: tuple | None):
    """Per-target-radius time quadrature, split at the cap/full-sphere
    transition.

    With ``grade`` (seed consumption) the stretch after the transition
    is subdivided geometrically toward it, where the integrand has a
    logarithmic spike, and the cap stretch is subdivided toward its own
    left end, where the early-time weight of the one-turn layer varies
    on the scale of tau itself.
    """
    tm = 0.5 * T - 0.5 * r / c
    tp = 0.5 * T + 0.5 * r / c
    if not grade:
        return _panels([(tm, tp), (tp, T)], order)
    mid = 0.5 * (tm + tp)
    toward_tp = [(b, a) for a, b in _graded(tp, mid, grade)]
    return _panels(_graded(tm, mid, grade) + toward_tp
                   + _graded(tp, T, grade), order)


def _log_primitive(s: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Primitive of log((a+s)/(a-s)) in s; finite at s = a."""
    lo = a - s
    return (a + s) * np.log(np.maximum(a + s, _TINY)) \
        + np.where(lo > 0, lo * np.log(np.maximum(lo, _TINY)), 0.0)


_TARGET_BLOCK = 8  # targets per pass of the step: bounds its scratch arrays


def _step_values(layer: DensityLayer, r_targets: np.ndarray,
                 th_targets: np.ndarray, cfg: StepConfig) -> np.ndarray:
    """The layer after ``layer`` at radii ``r_targets`` and angles
    ``th_targets``, at the layer's time T, shape (len(r_targets),
    len(th_targets)): one application of the recurrence, a block of
    targets at a time.  Each branch adds the table's weighted reads to
    its targets (the m=3 seed is consumed through its closed form); a
    read's position does not depend on the angle, so it is found once
    for every target angle and arc branch.

    Planar surface integrals run in the chord-radius variable s over
    both arc branches; the angle-to-radius Jacobian is
    2 s / sqrt(((r+rho)^2 - s^2)(s^2 - (r-rho)^2)), whose endpoint
    singularities the sin^2 panel map integrates exactly.  In dimension
    3 (uniform law) the cap integral reduces to (1 / (2 rho r)) int s f(s)
    ds; while consuming the one-turn layer the inner integral has the
    exact primitive (a+s) log(a+s) + (a-s) log(a-s).
    """
    params, law, T = layer.params, layer.law, layer.t
    lam, c = params.lam, params.c
    planar = params.m == 2
    from_seed = layer.n == 1

    def reads(w, rad, theta=None):
        v = w * layer.read(rad, theta)
        return np.sum(v, axis=tuple(range(1, v.ndim)))

    r_targets = np.asarray(r_targets, dtype=float)
    regular = r_targets >= _R_TINY_REL * c * T
    out = np.zeros((len(r_targets), len(th_targets)))
    for b in range(0, len(r_targets), _TARGET_BLOCK):
        sel = regular[b:b + _TARGET_BLOCK]
        if not np.any(sel):
            continue
        block = out[b:b + _TARGET_BLOCK]
        r = r_targets[b:b + _TARGET_BLOCK][sel]
        tau, wt = _time_panels(r, T, c, cfg.time_order,
                               cfg.seed_grade if from_seed else None)
        rho = c * (T - tau)
        av = c * tau
        rr = r[:, None]
        s_lo = np.abs(rr - rho)
        s_hi = np.minimum(rr + rho, av)
        # the kernel lam e^{-lam (T - tau)} times the time weight, less the
        # exponential that cancels the read's e^{lam (T - tau)}.  Every
        # factor below stays finite, so the zero weight of an empty cap
        # also zeroes its reads
        kw = np.where(s_hi > s_lo, lam * wt, 0.0)
        if not planar and from_seed:
            # the seed's e^{-lam tau} times the kernel's exponential
            B = lam * np.exp(-lam * tau) * np.exp(-lam * (T - tau)) \
                / (4.0 * math.pi * c**2 * tau)
            inner = B * (_log_primitive(s_hi, av) - _log_primitive(s_lo, av))
            block[sel] += np.sum(kw * inner / np.maximum(2.0 * rho * rr, _TINY),
                                 axis=-1)[:, None]
            continue
        if not planar:
            ss, ws = _sin2_panels(s_lo, s_hi, cfg.arc_order)
            w = (kw / np.maximum(2.0 * rho * rr, _TINY))[..., None] * ws * ss
            block[sel] += reads(w, layer.radial(ss, tau[..., None]))[:, None]
            continue
        ss, ws, lo_gap, hi_gap = _sin2_panels(s_lo, s_hi, cfg.arc_order,
                                              with_gaps=True)
        # endpoint distances in cancellation-free form: to the inner
        # support sphere (exact when s_hi is the sphere itself) and to
        # the two roots of the arc Jacobian
        gap = np.maximum(av - s_hi, 0.0)[..., None] + hi_gap
        gap_outer = np.maximum((rr + rho) - s_hi, 0.0)[..., None] + hi_gap
        ker = 2.0 * ss / np.sqrt(np.maximum(
            gap_outer * ((rr + rho)[..., None] + ss)
            * lo_gap * (s_lo[..., None] + ss), _TINY))
        d1 = (rr[..., None] ** 2 + ss**2 - (rho**2)[..., None]) \
            / np.maximum(2.0 * rr[..., None], _TINY)
        d2 = np.sqrt(np.maximum(ss**2 - d1**2, 0.0))
        omega = np.arctan2(d2, d1)
        rad = layer.radial(ss, tau[..., None], gap)
        rho3 = np.maximum(rho[..., None], _TINY)
        wk = kw[..., None] * ws * ker
        for li, th in enumerate(th_targets):
            cth, sth = math.cos(th), math.sin(th)
            chi = (law.density_from_axis_cos(
                (cth * (rr[..., None] - d1) + sth * sgn * d2) / rho3)
                for sgn in (1.0, -1.0))
            if layer.thetas is None:
                # an isotropic table reads both arc branches alike
                block[sel, li] += reads(wk * sum(chi), rad)
                continue
            for sgn, ch in zip((1.0, -1.0), chi):
                block[sel, li] += reads(wk * ch, rad, th + sgn * omega)

    if np.all(regular):
        return out
    # at the origin the cap window has width r/c -> 0; only the
    # full-sphere stretch contributes, as a plain spherical average.
    # Consuming the m=3 seed it starts at the seed's log singularity
    # (rho = c tau at tau = T/2), so that stretch is graded toward it
    mid, end = np.full(1, 0.5 * T), np.full(1, T)
    bounds = _graded(mid, end, cfg.seed_grade) \
        if from_seed and not planar else [(mid, end)]
    tau, wt = _panels(bounds, cfg.time_order)
    tau, wt = tau[0], wt[0]
    rho = c * (T - tau)
    kw = lam * wt
    if planar:
        phi = _angles(64)
        chi = law.density_from_axis_cos(-np.cos(phi))
        col = (slice(None), None)  # time down, angle across
        origin = reads((kw[col] * chi * (2.0 * np.pi / len(phi)))[None],
                       layer.radial(rho[col][None], tau[col][None],
                                    (c * (2.0 * tau - T))[col][None]), phi)
    elif from_seed:
        # the seed takes the kernel's exponential, as B does above
        F = one_turn_profile(params, np.minimum(rho, c * tau * (1.0 - 1e-12)),
                             tau) * np.exp(-lam * (T - tau))
        origin = np.array([np.sum(kw * F)])
    else:
        origin = reads(kw[None], layer.radial(rho[None], tau[None]))
    out[~regular] += origin[:, None]
    return out


def _clipped(at_nodes: np.ndarray, grid: RadialGrid | PolarGrid) -> np.ndarray:
    """Node values in the grid's shape, clipped at 0."""
    return np.maximum(at_nodes[:, 0] if isinstance(grid, RadialGrid) else
                      np.broadcast_to(at_nodes, (grid.n_r, grid.n_theta)), 0.0)


def _step_layer(layer: DensityLayer, cfg: StepConfig,
                grid: RadialGrid | PolarGrid) -> DensityLayer:
    """Full recurrence step: consume the table of layer n and make the
    table of layer n+1 at time t, together with its values at the grid
    nodes."""
    p = layer.params
    sigma = _clustered_nodes(_SIGMA_CAP, cfg.n_sigma)
    th_tab = np.zeros(1) if layer.thetas is None else layer.thetas
    raw = _step_values(layer, sigma * p.radius(layer.t), th_tab, cfg)
    at_nodes = _step_values(layer, grid.nodes, th_tab if layer.thetas is None
                            else grid.thetas, cfg)
    n = layer.n + 1
    tab = raw / _edge(p.m, n, 1.0 - sigma**2)[:, None]
    return DensityLayer(n, p, layer.law, layer.t, grid, _clipped(at_nodes, grid),
                        at_nodes, sigma, layer.thetas, tab, cfg, source=layer)


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

    For the isotropic law on a radial grid the node values are computed
    through the generic hypergeometric series; ``at_nodes`` holds the
    closed form (m=3) or the two-point reduction of the sphere-sphere
    convolution (planar, any law; see `_one_turn_reg_planar`), which also
    gives the table that :func:`next_layer` consumes.
    """
    if params.m not in (2, 3):
        raise DomainError(
            "the convolution engine covers m in {2, 3}; higher symmetric "
            "dimensions need the cap-measure reduction derived for that m")
    cfg = config or _default_config(law)
    _check_grid(params, law, t, grid)
    if params.m == 3 and not isinstance(law, UniformLaw):
        raise DomainError("dimension 3 supports the uniform law only")
    sigma, R = _clustered_nodes(1.0, cfg.n_sigma), params.radius(t)
    angular = isinstance(law, CircularGaussianLaw)
    thetas = _angles(cfg.n_theta) if angular else None
    tab = None
    if params.m == 2:
        # h_1 = f_1 sqrt(1 - sigma^2): the regular factor over ct
        tab = _one_turn_reg_planar(params, law, *np.meshgrid(
            sigma * R, thetas if angular else np.zeros(1), indexing="ij"), t) / R
    at_nodes = _seed_values(params, law, *np.meshgrid(
        grid.nodes, grid.thetas if angular else np.zeros(1), indexing="ij"), t)
    if isinstance(law, UniformLaw) and isinstance(grid, RadialGrid):
        values = np.maximum(_seed_profile_generic(params, grid.nodes, t), 0.0)
    else:
        values = _clipped(at_nodes, grid)
    return DensityLayer(1, params, law, t, grid, values, at_nodes, sigma,
                        thetas, tab, cfg)


def next_layer(params: FlightParams, law: DissipationLaw,
               layer: DensityLayer,
               grid: RadialGrid | PolarGrid | None = None,
               config: StepConfig | None = None) -> DensityLayer:
    """Apply the recurrence once: joint layer n -> joint layer n+1, at the
    resolution the layer was built at unless ``config`` is given.
    ``params`` and ``law`` must be those the layer was built with."""
    if layer.kind != "joint":
        raise DomainError("the recurrence consumes joint layers")
    layer.check_source(params, law)
    out_grid = grid if grid is not None else layer.grid
    _check_grid(params, law, layer.t, out_grid)
    return _step_layer(layer, config or layer.cfg, out_grid)


def conditional_layer(layer: DensityLayer,
                      params: FlightParams) -> DensityLayer:
    """Joint layer divided by its Poisson weight: the position density
    given exactly n turns, in every node and table field.  ``params`` must
    be those the layer was built with."""
    if layer.kind != "joint":
        raise DomainError("layer is already conditional")
    layer.check_source(params)
    w = conditional_weight_or_raise(layer.n, params, layer.grid.t)
    return replace(layer, values=layer.values / w, at_nodes=layer.at_nodes / w,
                   tab=None if layer.tab is None else layer.tab / w, kind="conditional")


def transition_density(params: FlightParams, law: DissipationLaw, t: float,
                       K: int, grid: RadialGrid | PolarGrid,
                       config: StepConfig | None = None) -> DensityField:
    """Assemble the transition density: singular layer, layers 1..K of
    the recurrence, and the Poisson tail of the truncation."""
    if K < 1:
        raise DomainError("need at least one layer (K >= 1)")
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
    isotropic field ignores it.  Radii must be finite and nonnegative."""
    r = np.atleast_1d(_radii(r))
    angular = field_obj.layers[0].thetas is not None
    if angular and theta is None:
        raise DomainError("a field with angular tables needs theta")
    if angular:
        r, theta = np.broadcast_arrays(r, np.asarray(theta, dtype=float))
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
    values are reused.  So by default the residual is exactly the first
    dropped layer up to rounding and sees no quadrature error; only an
    explicit ``config`` other than the build one compares two
    resolutions.  The field's layers must share one grid.
    """
    layers, grid = tuple(field_obj.layers), field_obj.layers[0].grid
    if any(layer.grid is not grid for layer in layers):
        raise DomainError("residual_check needs every layer on one grid")
    th_targets = grid.thetas if isinstance(grid, PolarGrid) else np.zeros(1)
    lhs = sum(layer.at_nodes for layer in layers)
    rhs = layers[0].at_nodes
    for layer, nxt in zip(layers, layers[1:] + (None,)):
        cfg = config or layer.cfg
        if nxt is not None and nxt.source is layer and nxt.cfg == cfg:
            rhs = rhs + nxt.at_nodes
        else:
            rhs = rhs + _step_values(layer, grid.nodes, th_targets, cfg)
    return float(np.max(np.abs(lhs - rhs)))
