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
Layers live on a time ladder tau_j = j t / J.  Each ladder slot stores a
table over the scaled radius sigma = r / (c tau_j), so interpolation in
time blends values at equal *relative* depth inside the support, keeping
the support boundary aligned across slots.  The one-turn layer has an
inverse-square-root boundary divergence in the plane, so its tables
store the regular factor f1 * sqrt((c tau)^2 - r^2) and the singular
factor is restored analytically at evaluation time.

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
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .analytic import one_turn_coefficient, one_turn_profile, singular_layer
from .core import (DensityField, DensityLayer, FlightParams, PolarGrid,
                   RadialGrid, _radial_mass, conditional_weight_or_raise,
                   tail_mass)
from .dissipation import CircularGaussianLaw, DissipationLaw, UniformLaw
from .errors import DomainError
from .specfun import SeriesControl, gauss_2f1

__all__ = [
    "StepConfig",
    "seed_layer",
    "next_layer",
    "conditional_layer",
    "transition_density",
    "ac_profile",
    "residual_check",
]

_TINY = 1e-300
_SIGMA_CAP = 1.0 - 1e-4  # plain tables stop short of the measure-zero edge
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
# ladders
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class StepConfig:
    """Resolution knobs of the ladder engine."""

    ladder_slots: int = 64       # time slots J; tables at tau_j = j t / J
    n_sigma: int = 65            # radial table nodes over the scaled radius
    n_theta: int = 16            # angular table nodes (non-symmetric laws)
    time_order: int = 16         # Gauss-Legendre order per time panel
    arc_order: int = 24          # Gauss-Legendre order per surface panel
    seed_grade: tuple = (1e-3, 1e-2, 1e-1, 1.0)  # decade subpanels

    def __post_init__(self) -> None:
        if self.ladder_slots < 8:
            raise DomainError("ladder needs at least 8 slots")
        if self.n_theta < 8 or self.n_theta % 2:
            raise DomainError("n_theta must be even and >= 8")


def _sigma_pattern(n: int, cap: float) -> np.ndarray:
    return cap * np.sin(0.5 * np.pi * np.arange(n) / (n - 1))


def _default_config(law: DissipationLaw) -> StepConfig:
    # the skewed planar pipeline carries full angular tables; keep its
    # default resolution laptop-friendly
    if isinstance(law, CircularGaussianLaw):
        return StepConfig(ladder_slots=32, n_sigma=49, n_theta=16,
                          time_order=12, arc_order=16,
                          seed_grade=(1e-2, 1e-1, 1.0))
    return StepConfig()


@dataclass(frozen=True)
class _Ladder:
    """Tables of one layer over the time ladder.

    ``tab`` has shape (J+1, n_sigma, n_theta); rotation-invariant data
    uses n_theta = 1.  ``reg='inv_sqrt'`` marks regularized one-turn
    tables; the m=3 seed has no tables (``tab`` None), since the step
    consumes it through its closed form.  ``cfg`` is the resolution the
    ladder was built at and ``source`` the ladder the step consumed to
    make it (None for the seed): exact values re-apply that step.
    ``op`` holds the stored rows of that step when it was applied as a
    linear operator (isotropic tables, n >= 2), None otherwise.
    """

    n: int
    params: FlightParams
    law: DissipationLaw
    times: np.ndarray
    sigma: np.ndarray
    thetas: np.ndarray | None
    tab: np.ndarray | None
    cfg: StepConfig
    reg: str | None = None
    source: "_Ladder | None" = None
    op: "_StepOperator | None" = None

    @property
    def t(self) -> float:
        return float(self.times[-1])

    def radial(self, s, tau, support_gap=None) -> tuple:
        """Where points (radius, time) fall in the tables, for the
        interpolation that is linear across slots at fixed
        sigma = s / (c tau) and linear in sigma within a slot: the flat
        index into ``tab`` of the lower corner (angle node 0), the slot
        weights (lower, upper) and the sigma weights (lower, upper).

        For regularized one-turn tables the slot weights carry the
        boundary factor 1/sqrt((c tau)^2 - s^2); callers probing close to
        the support sphere pass ``support_gap`` = c*tau - s computed in a
        cancellation-free form.
        """
        s = np.asarray(s, dtype=float)
        tau = np.asarray(tau, dtype=float)
        c = self.params.c
        J = len(self.times) - 1
        n_s, n_th = self.tab.shape[1:]
        jf = np.clip(tau / (self.t / J), 0.0, J - 1e-12)
        j0 = jf.astype(int)
        ft = jf - j0
        sig = np.clip(s / np.maximum(c * tau, _TINY), 0.0, self.sigma[-1])
        i0 = np.clip(np.searchsorted(self.sigma, sig, side="right") - 1,
                     0, n_s - 2)
        fs = np.clip((sig - self.sigma[i0])
                     / (self.sigma[i0 + 1] - self.sigma[i0]), 0.0, 1.0)
        lo, hi = 1.0 - ft, ft
        if self.reg == "inv_sqrt":
            av = c * tau
            gap = av - s if support_gap is None else support_gap
            f = 1.0 / np.sqrt(np.maximum(gap * (av + s), _TINY))
            lo, hi = lo * f, hi * f
        return (j0 * n_s + i0) * n_th, (lo, hi), (1.0 - fs, fs)

    def corners(self, rad: tuple, theta):
        """Yields the (flat index into ``tab``, weight) pairs of the
        interpolation at the points ``rad`` (from `radial`) and angles
        ``theta``, linear between angle nodes; isotropic tables ignore
        ``theta``.  The value is the sum of weight * tab.ravel()[index]."""
        base, slot_w, sig_w = rad
        n_s, n_th = self.tab.shape[1:]
        if n_th > 1:
            tf = (np.asarray(theta, dtype=float) + np.pi) / (2.0 * np.pi / n_th)
            fl = np.floor(tf)
            k0 = fl.astype(int) % n_th
            fh = tf - fl
            ang = ((k0, 1.0 - fh), ((k0 + 1) % n_th, fh))
        for dj, wj in enumerate(slot_w):
            for di, wi in enumerate(sig_w):
                idx, w = base + (dj * n_s + di) * n_th, wj * wi
                if n_th == 1:
                    yield idx, w
                    continue
                for k, wh in ang:
                    yield idx + k, w * wh

    def read(self, rad: tuple, theta) -> np.ndarray:
        """Layer values at the points ``rad`` and angles ``theta``."""
        flat = self.tab.ravel()
        out = 0.0
        for idx, w in self.corners(rad, theta):
            out = out + w * flat[idx]
        return out

    def top_values(self, r, theta=None):
        """Exact layer values at the ladder's final time: the one-turn
        closed form (m=3) or quadrature (planar) for the seed, the step
        re-applied to ``source`` otherwise.  ``theta`` (default 0) has
        the shape of ``r``; isotropic ladders ignore it."""
        r = np.asarray(r, dtype=float)
        p, t = self.params, self.t
        if self.source is None and p.m == 3:
            return one_turn_profile(p, r, t)
        if self.source is None:
            th = np.zeros_like(r) if theta is None \
                else np.asarray(theta, dtype=float)
            g = _one_turn_reg_planar(p, self.law, r, th, t)
            return g / np.sqrt(np.maximum(p.radius(t) ** 2 - r * r, _TINY))
        if theta is None or self.thetas is None:
            return _apply_step(self.source, r, np.zeros(1), self.cfg,
                               self.op)[:, 0]
        theta = np.asarray(theta, dtype=float)
        out = np.empty(r.shape)
        for th in np.unique(theta):
            mask = theta == th
            out[mask] = _step_values(self.source, r[mask], np.array([th]), t,
                                     self.cfg)[:, 0]
        return out

    def moment(self, kern=None) -> float:
        """Integral of the top-slot layer against ``kern(r, theta)``, a
        vectorized real weight; the mass when ``kern`` is None.  A kernel
        that returns exactly 1 (a transform at zero frequency) gives the
        mass to the last bit."""
        p = self.params
        R = p.radius(self.t)
        ths = np.zeros(1) if self.thetas is None else self.thetas
        kern = kern or (lambda r, th: np.ones_like(r * th))
        if self.n == 1 and p.m == 2:
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
            return 2.0 * math.pi * acc / len(ths)
        if self.n == 1:
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
            return float(k[-1] * 4.0 * math.pi * B * R * R
                         + 4.0 * math.pi * np.sum(wr * f * dk * r * r))
        r = (self.sigma * R)[:, None]
        prof = (self.tab[-1] * kern(r, ths[None, :])).mean(axis=1)
        return _radial_mass(r[:, 0], prof, p.m, R)

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
    ctrl = SeriesControl(rel_tol=1e-14, max_terms=200_000)
    out = np.empty(len(r))
    for i, ri in enumerate(r):
        out[i] = coeff * gauss_2f1(0.5 * (m - 1), 2.0 - 0.5 * m, 0.5 * m,
                                   (ri / ct) ** 2, ctrl)
    return out


def _make_seed_ladder(params: FlightParams, law: DissipationLaw, t: float,
                      cfg: StepConfig) -> _Ladder:
    J = cfg.ladder_slots
    times = np.linspace(0.0, t, J + 1)
    if params.m == 3:
        if not isinstance(law, UniformLaw):
            raise DomainError("dimension 3 supports the uniform law only")
        return _Ladder(1, params, law, times, _sigma_pattern(cfg.n_sigma, 1.0),
                       None, None, cfg)

    symmetric = not isinstance(law, CircularGaussianLaw)
    n_th = 1 if symmetric else cfg.n_theta
    thetas = None if symmetric else (-np.pi + 2.0 * np.pi
                                     * np.arange(n_th) / n_th)
    th_nodes = np.zeros(1) if symmetric else thetas
    sigma = _sigma_pattern(cfg.n_sigma, 1.0)
    tab = np.empty((J + 1, cfg.n_sigma, n_th))
    for j in range(J + 1):
        tj = times[j] if j > 0 else 1e-12 * t  # regular-factor limit at 0+
        rr = sigma * params.radius(tj)
        for k in range(n_th):
            tab[j, :, k] = _one_turn_reg_planar(
                params, law, rr, np.full_like(rr, th_nodes[k]), tj)
    return _Ladder(1, params, law, times, sigma, thetas, tab, cfg,
                   reg="inv_sqrt")


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


def _step_terms(ladder: _Ladder, r_targets: np.ndarray,
                th_targets: np.ndarray, T: float, cfg: StepConfig):
    """One application of the layer recurrence at time T, as weighted
    reads of ``ladder``'s tables at radii ``r_targets`` x angles
    ``th_targets``.

    Yields ``(sel, l, w, rad, theta)``: the targets picked by the mask
    ``sel`` at angle index ``l`` (None: every angle) gain the sum over
    all but the first axis of ``w * ladder.read(rad, theta)``, whose
    first axis runs over those targets or has length 1 (shared by all
    of them).  With ``rad`` None, ``w`` is that sum itself: the m=3 seed
    is consumed through its closed form and reads no table.  ``rad``
    (from `_Ladder.radial`) does not depend on the angle, so it is
    found once for every target angle and arc branch.

    Planar surface integrals run in the chord-radius variable s over
    both arc branches; the angle-to-radius Jacobian is
    2 s / sqrt(((r+rho)^2 - s^2)(s^2 - (r-rho)^2)), whose endpoint
    singularities the sin^2 panel map integrates exactly.  In dimension
    3 (uniform law) the cap integral reduces to (1 / (2 rho r)) int s f(s)
    ds; while consuming the one-turn layer the inner integral has the
    exact primitive (a+s) log(a+s) + (a-s) log(a-s).
    """
    params, law = ladder.params, ladder.law
    lam, c = params.lam, params.c
    planar = params.m == 2
    from_seed = ladder.n == 1

    regular = r_targets >= _R_TINY_REL * c * T
    if np.any(regular):
        r = r_targets[regular]
        tau, wt = _time_panels(r, T, c, cfg.time_order,
                               cfg.seed_grade if from_seed else None)
        rho = c * (T - tau)
        av = c * tau
        rr = r[:, None]
        s_lo = np.abs(rr - rho)
        s_hi = np.minimum(rr + rho, av)
        # every factor below stays finite, so the zero weight of an
        # empty cap also zeroes its reads
        decay = np.where(s_hi > s_lo, lam * np.exp(-lam * (T - tau)) * wt,
                         0.0)
        if not planar and from_seed:
            B = lam * np.exp(-lam * tau) / (4.0 * math.pi * c**2 * tau)
            inner = B * (_log_primitive(s_hi, av) - _log_primitive(s_lo, av))
            yield regular, None, np.sum(
                decay * inner / np.maximum(2.0 * rho * rr, _TINY), axis=-1), \
                None, None
        elif not planar:
            ss, ws = _sin2_panels(s_lo, s_hi, cfg.arc_order)
            w = (decay / np.maximum(2.0 * rho * rr, _TINY))[..., None] * ws * ss
            yield regular, None, w, ladder.radial(ss, tau[..., None]), None
        else:
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
            rad = ladder.radial(ss, tau[..., None], gap)
            rho3 = np.maximum(rho[..., None], _TINY)
            wk = decay[..., None] * ws * ker
            for li, th in enumerate(th_targets):
                cth, sth = math.cos(th), math.sin(th)
                chi = (law.density_from_axis_cos(
                    (cth * (rr[..., None] - d1) + sth * sgn * d2) / rho3)
                    for sgn in (1.0, -1.0))
                if ladder.thetas is None:
                    # an isotropic table reads both arc branches alike
                    yield regular, li, wk * sum(chi), rad, None
                    continue
                for sgn, ch in zip((1.0, -1.0), chi):
                    yield regular, li, wk * ch, rad, th + sgn * omega

    if np.any(~regular):
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
        decay = lam * np.exp(-lam * (T - tau)) * wt
        if planar:
            n_phi = 64
            phi = -np.pi + 2.0 * np.pi * np.arange(n_phi) / n_phi
            chi = law.density_from_axis_cos(-np.cos(phi))
            col = (slice(None), None)  # time down, angle across
            yield ~regular, None, \
                (decay[col] * chi * (2.0 * np.pi / n_phi))[None], \
                ladder.radial(rho[col][None], tau[col][None],
                              (c * (2.0 * tau - T))[col][None]), phi
        elif from_seed:
            F = np.array([one_turn_profile(
                params, np.array([min(rho_i, c * t_i * (1.0 - 1e-12))]),
                t_i)[0] for rho_i, t_i in zip(rho, tau)])
            yield ~regular, None, np.array([np.sum(decay * F)]), None, None
        else:
            yield ~regular, None, decay[None], \
                ladder.radial(rho[None], tau[None]), None


def _step_values(ladder: _Ladder, r_targets: np.ndarray,
                 th_targets: np.ndarray, T: float,
                 cfg: StepConfig) -> np.ndarray:
    """The layer after ``ladder`` at radii ``r_targets`` and angles
    ``th_targets``, time T, shape (len(r_targets), len(th_targets)): the
    step's reads applied to the tables at once."""
    r_targets = np.asarray(r_targets, dtype=float)
    out = np.zeros((len(r_targets), len(th_targets)))
    for sel, l, w, rad, theta in _step_terms(ladder, r_targets, th_targets,
                                             T, cfg):
        if rad is not None:
            v = w * ladder.read(rad, theta)
            w = np.sum(v, axis=tuple(range(1, v.ndim)))
        if l is None:
            out[sel] += w[:, None]
        else:
            out[sel, l] += w
    return out


_ROW_BLOCK = 64  # targets coalesced at once: bounds the dense scratch rows


class _Rows(NamedTuple):
    """Rows of a linear map in numpy-only CSR form: entry i of the image
    of x is sum(weights[k] * x[indices[k]]) over indptr[i] <= k <
    indptr[i+1]."""

    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray

    def apply(self, x: np.ndarray) -> np.ndarray:
        starts = self.indptr[:-1]
        full = starts < self.indptr[1:]
        out = np.zeros(len(starts))
        if np.any(full):
            terms = x[self.indices]
            terms *= self.weights
            out[full] = np.add.reduceat(terms, starts[full])
        return out


def _step_rows(ladder: _Ladder, targets: list, cfg: StepConfig) -> _Rows:
    """Rows of the step from an isotropic table ladder: the values at
    each ``(radii, T)`` group of ``targets``, in order, are the rows
    applied to ``ladder.tab.ravel()``.  The reads of `_step_terms` are
    recorded as their stencils and coalesced per target."""
    n_col = ladder.tab.size
    indptr, indices, weights = [np.zeros(1, dtype=np.int64)], [], []
    for r_all, T in targets:
        for b in range(0, len(r_all), _ROW_BLOCK):
            r = np.asarray(r_all[b:b + _ROW_BLOCK], dtype=float)
            dense = np.zeros(len(r) * n_col)
            for sel, _, w, rad, theta in _step_terms(ladder, r, np.zeros(1),
                                                     T, cfg):
                tgt = np.flatnonzero(sel).reshape((-1,) + (1,) * (w.ndim - 1))
                for idx, sw in ladder.corners(rad, theta):
                    key, val = np.broadcast_arrays(tgt * n_col + idx, sw * w)
                    dense += np.bincount(key.ravel(), val.ravel(),
                                         minlength=len(dense))
            dense = dense.reshape(len(r), n_col)
            row, col = np.nonzero(dense)
            indptr.append(indptr[-1][-1] + np.cumsum(
                np.bincount(row, minlength=len(r))))
            indices.append(col.astype(np.int32))
            weights.append(dense[row, col])
    return _Rows(np.concatenate(indptr), np.concatenate(indices),
                 np.concatenate(weights))


class _StepOperator(NamedTuple):
    """The step n -> n+1 (n >= 2) from isotropic tables as stored rows,
    tab_{n+1} = M tab_n: ``ladder_rows`` give the next ladder's slots
    1..J, ``node_rows`` its top-slot values at the grid ``nodes``.  The
    rows depend on the geometry of ``source`` (flight, law, time slots,
    sigma nodes) and on ``cfg``, not on the table values, so one
    operator steps every later layer built at the same resolution."""

    source: _Ladder
    cfg: StepConfig
    ladder_rows: _Rows
    nodes: np.ndarray
    node_rows: _Rows

    @classmethod
    def build(cls, ladder: _Ladder, cfg: StepConfig,
              nodes: np.ndarray) -> "_StepOperator":
        sigma = _sigma_pattern(cfg.n_sigma, _SIGMA_CAP)
        slots = [(sigma * ladder.params.radius(T), float(T))
                 for T in ladder.times[1:]]
        return cls(ladder, cfg, _step_rows(ladder, slots, cfg), nodes,
                   _step_rows(ladder, [(nodes, ladder.t)], cfg))

    def fits(self, ladder: _Ladder, cfg: StepConfig) -> bool:
        """Whether these rows step ``ladder`` at ``cfg``."""
        src = self.source
        return (cfg == self.cfg and ladder.n > 1 and ladder.thetas is None
                and ladder.params == src.params and ladder.law is src.law
                and np.array_equal(ladder.times, src.times)
                and np.array_equal(ladder.sigma, src.sigma))


def _apply_step(ladder: _Ladder, r: np.ndarray, th_targets: np.ndarray,
                cfg: StepConfig, op: _StepOperator | None) -> np.ndarray:
    """The layer after ``ladder`` at radii ``r`` x angles ``th_targets``
    at its final time: ``op``'s node rows when they fit and ``r`` is
    their node set, the step's reads applied at once otherwise."""
    if op is not None and op.fits(ladder, cfg) and np.array_equal(r, op.nodes):
        return np.repeat(op.node_rows.apply(ladder.tab.ravel())[:, None],
                         len(th_targets), axis=1)
    return _step_values(ladder, r, th_targets, ladder.t, cfg)


def _step_ladder(ladder: _Ladder, cfg: StepConfig,
                 nodes: np.ndarray) -> _Ladder:
    """Full recurrence step: consume the ladder of layer n, produce the
    ladder of layer n+1 on the same time slots.  Isotropic tables
    (n >= 2) go through a stored operator, reused from ``ladder`` when
    it fits and built otherwise, with node rows at ``nodes``; the seed
    and angular tables are stepped slot by slot, their reads applied at
    once."""
    J = len(ladder.times) - 1
    sigma = _sigma_pattern(cfg.n_sigma, _SIGMA_CAP)
    th_targets = np.zeros(1) if ladder.thetas is None else ladder.thetas
    tab = np.zeros((J + 1, cfg.n_sigma, len(th_targets)))
    op = None
    if ladder.n > 1 and ladder.thetas is None:
        op = ladder.op
        if op is None or not op.fits(ladder, cfg):
            op = _StepOperator.build(ladder, cfg, nodes)
        elif not np.array_equal(op.nodes, nodes):
            op = op._replace(nodes=nodes, node_rows=_step_rows(
                ladder, [(nodes, ladder.t)], cfg))
        tab[1:, :, 0] = op.ladder_rows.apply(ladder.tab.ravel()).reshape(J, -1)
    else:
        for j in range(1, J + 1):
            Tj = float(ladder.times[j])
            tab[j] = _step_values(ladder, sigma * ladder.params.radius(Tj),
                                  th_targets, Tj, cfg)
    return _Ladder(ladder.n + 1, ladder.params, ladder.law,
                   ladder.times.copy(), sigma, ladder.thetas, tab, cfg,
                   source=ladder, op=op)


# --------------------------------------------------------------------------
# public layer operations
# --------------------------------------------------------------------------

def _node_values(ladder: _Ladder, grid: RadialGrid | PolarGrid) -> np.ndarray:
    """Top-slot values of a ladder at the grid nodes: shape (n_r,) on a
    radial grid, (n_r, n_theta) on a polar one, where a stepped angular
    ladder takes every grid angle in one application of the step."""
    if isinstance(grid, RadialGrid):
        return ladder.top_values(grid.nodes)
    if ladder.thetas is None:
        return np.repeat(ladder.top_values(grid.nodes)[:, None], grid.n_theta,
                         axis=1)
    if ladder.source is None:
        return ladder.top_values(*np.meshgrid(grid.nodes, grid.thetas,
                                              indexing="ij"))
    return _step_values(ladder.source, grid.nodes, grid.thetas, ladder.t,
                        ladder.cfg)


def _public_layer(ladder: _Ladder, grid: RadialGrid | PolarGrid,
                  values: np.ndarray | None = None) -> DensityLayer:
    if values is None:
        values = _node_values(ladder, grid)
    return DensityLayer(ladder.n, grid, np.maximum(values, 0.0), "joint",
                        ladder=ladder)


def _check_grid(params: FlightParams, law: DissipationLaw, t: float,
                grid: RadialGrid | PolarGrid) -> None:
    if grid.nodes[-1] >= params.radius(t):
        raise DomainError("grid reaches the support boundary; keep a standoff")
    if abs(grid.t - t) > 1e-12 * t:
        raise DomainError("grid time does not match the requested time")
    if isinstance(law, CircularGaussianLaw) and not isinstance(grid, PolarGrid):
        raise DomainError("non-symmetric laws need a PolarGrid")


def seed_layer(params: FlightParams, law: DissipationLaw, t: float,
               grid: RadialGrid | PolarGrid,
               config: StepConfig | None = None) -> DensityLayer:
    """The one-turn joint layer (n = 1), the seed of the recurrence.

    For the isotropic law on a radial grid the node values are computed
    through the generic hypergeometric series; for the circular Gaussian
    law through the two-point reduction of the sphere-sphere convolution
    (see `_one_turn_reg_planar`).  Either way the layer carries its time
    ladder for consumption by :func:`next_layer`.
    """
    if params.m not in (2, 3):
        raise DomainError(
            "the convolution engine covers m in {2, 3}; higher symmetric "
            "dimensions need the cap-measure reduction derived for that m")
    cfg = config or _default_config(law)
    _check_grid(params, law, t, grid)
    ladder = _make_seed_ladder(params, law, t, cfg)
    if isinstance(law, UniformLaw) and isinstance(grid, RadialGrid):
        return _public_layer(ladder, grid,
                             _seed_profile_generic(params, grid.nodes, t))
    return _public_layer(ladder, grid)


def next_layer(params: FlightParams, law: DissipationLaw,
               layer: DensityLayer,
               grid: RadialGrid | PolarGrid | None = None,
               config: StepConfig | None = None) -> DensityLayer:
    """Apply the recurrence once: joint layer n -> joint layer n+1, at the
    resolution the layer was built at unless ``config`` is given."""
    if layer.kind != "joint":
        raise DomainError("the recurrence consumes joint layers")
    if layer.ladder is None:
        raise DomainError(
            "layer lacks its time ladder; build it with seed_layer/next_layer")
    out_grid = grid if grid is not None else layer.grid
    _check_grid(params, law, layer.ladder.t, out_grid)
    return _public_layer(_step_ladder(layer.ladder, config or layer.ladder.cfg,
                                      out_grid.nodes), out_grid)


def conditional_layer(layer: DensityLayer,
                      params: FlightParams) -> DensityLayer:
    """Joint layer divided by its Poisson weight: the position density
    given exactly n turns."""
    if layer.kind != "joint":
        raise DomainError("layer is already conditional")
    w = conditional_weight_or_raise(layer.n, params, layer.grid.t)
    return replace(layer, values=layer.values / w, kind="conditional")


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
    masses = tuple(layer.ladder.mass() for layer in layers)
    return DensityField(params, t, singular_layer(params, law, t),
                        tuple(layers), masses, tail_mass(K, params, t),
                        law=law)


def ac_profile(field_obj: DensityField, r, theta=None) -> np.ndarray:
    """Absolutely continuous density of an assembled field at radius r;
    zero outside the support.  A field with angular ladders (a
    non-symmetric law) needs ``theta``, broadcast against ``r``; an
    isotropic field ignores it."""
    r = np.atleast_1d(np.asarray(r, dtype=float))
    angular = field_obj.layers[0].ladder.thetas is not None
    if angular and theta is None:
        raise DomainError("a field with angular ladders needs theta")
    if angular:
        r, theta = np.broadcast_arrays(r, np.asarray(theta, dtype=float))
    R = field_obj.params.radius(field_obj.t)
    inside = r < R
    out = np.zeros(r.shape)
    if np.any(inside):
        th = theta[inside] if angular else None
        acc = 0.0
        for layer in field_obj.layers:
            acc = acc + layer.ladder.top_values(r[inside], th)
        out[inside] = acc
    return out


def residual_check(field_obj: DensityField,
                   config: StepConfig | None = None) -> float:
    """Sup-norm defect of the assembled field in the renewal-type
    integral equation p = p0 + lam * int (p0 * p) dtau.

    The right-hand side reapplies the singular-layer convolution
    operator to the field: the p0*p0 term is the one-turn layer and the
    operator applied to the truncated stack reproduces layers 2..K+1, so
    the residual is dominated by the first dropped layer plus quadrature
    noise.  Evaluated in sup norm over the epsilon-interior grid; each
    layer is stepped at the resolution it was built at unless ``config``
    is given.
    """
    t = field_obj.t
    grid = field_obj.layers[0].grid
    th_targets = grid.thetas if isinstance(grid, PolarGrid) else np.zeros(1)
    ladders = [layer.ladder for layer in field_obj.layers]

    def node_values(lad: _Ladder) -> np.ndarray:
        return _node_values(lad, grid).reshape(grid.n_r, -1)

    lhs = 0.0
    for lad in ladders:
        lhs = lhs + node_values(lad)

    ops = [lad.op for lad in ladders if lad.op is not None]
    rhs = node_values(ladders[0])
    for lad in ladders:
        cfg = config or lad.cfg
        op = next((o for o in ops if o.fits(lad, cfg)), None)
        rhs = rhs + _apply_step(lad, grid.nodes, th_targets, cfg, op)
    return float(np.max(np.abs(lhs - rhs)))
