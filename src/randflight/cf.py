"""Characteristic-function pipeline and its consistency checks.

The flight's characteristic function obeys a renewal structure: the
conditional transform given n turns is an (n+1)-fold time convolution
power of the sphere transform ``psi``, and the unconditional transform
solves a Volterra equation of the second kind with kernel
lam * exp(-lam (t - tau)) * psi(alpha, t - tau).  This module evaluates
psi, iterates the convolution powers on a uniform time ladder, solves
the Volterra equation's product-trapezoid system, which is
lower-triangular Toeplitz, as an FFT power-series quotient in
O(N log N), checks the Laplace-domain identity, and Fourier-transforms
spatial layers for the cross-pipeline comparison; a layer's transform
and its mass are one radial moment taken against different kernels.

Values are complex throughout: for the isotropic law they are real up
to rounding, but the circular Gaussian law is skewed along the first
axis and its transforms carry genuine imaginary parts (the density
couples to cos(theta), so the odd part of e^{i a ct cos(theta)} does
not cancel).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .convolution import DensityLayer
from .core import FlightParams, _angles, _check_positive
from .dissipation import CircularGaussianLaw, DissipationLaw, UniformLaw
from .errors import DomainError, NumericError
from .specfun import bessel_j0

__all__ = [
    "CFLadder",
    "sphere_cf",
    "psi_ladder",
    "next_conv_power",
    "volterra_cf",
    "laplace_identity_error",
    "layer_fourier",
]

_N_ANGLE = 512  # angular quadrature for the planar non-symmetric transform


def _check_alpha(params: FlightParams, alpha) -> tuple:
    """A frequency as a tuple: a finite vector of length m."""
    a = np.asarray(alpha, dtype=float)
    if a.shape != (params.m,):
        raise DomainError(
            f"alpha must be a vector of length m={params.m}, "
            f"got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise DomainError(f"alpha must be finite, got {a}")
    return tuple(a)


def _sinc(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 1e-6
    xs = np.where(small, 1.0, x)
    return np.where(small, 1.0 - x * x / 6.0, np.sin(xs) / xs)


def _radial_kernel(m: int, a: float, r) -> np.ndarray:
    """Angular average of cos(a r cos(angle)) over the unit sphere in
    dimension m: J0(a r) in the plane, sinc(a r) in dimension 3."""
    x = a * np.asarray(r, dtype=float)
    if m == 2:
        return np.asarray(bessel_j0(x))
    return _sinc(x)


def sphere_cf(params: FlightParams, law: DissipationLaw, alpha,
              t: float) -> complex:
    """Transform psi(alpha, t) of the scaled dissipation density on the
    sphere of radius c*t; psi(0, t) = 1 for every law.  Raises
    `DomainError` for an ``alpha`` that is not a finite m-vector."""
    alpha = _check_alpha(params, alpha)
    return complex(sphere_cf_values(params, law, alpha, np.array([t]))[0])


def sphere_cf_values(params: FlightParams, law: DissipationLaw, alpha,
                     times: np.ndarray) -> np.ndarray:
    """Vectorized psi over an array of times (complex); ``alpha`` is a
    checked m-vector."""
    times = np.asarray(times, dtype=float)
    ct = params.c * times
    if isinstance(law, UniformLaw):
        if params.m not in (2, 3):
            raise DomainError(
                "sphere_cf supports the uniform law for m in {2, 3}")
        a = float(np.linalg.norm(alpha))
        return _radial_kernel(params.m, a, ct).astype(complex)
    if isinstance(law, CircularGaussianLaw):
        th = _angles(_N_ANGLE)
        u = np.column_stack([np.cos(th), np.sin(th)])
        chi = law.density_from_axis_cos(np.cos(th))
        phase = np.exp(1j * np.outer(ct, u @ np.asarray(alpha, dtype=float)))
        return phase @ chi * (2.0 * np.pi / _N_ANGLE)
    raise DomainError(f"unsupported law {type(law).__name__}")


@dataclass(frozen=True)
class CFLadder:
    """Values of a transform on the uniform time ladder [0, t_max]."""

    n: int
    alpha: tuple
    times: np.ndarray
    values: np.ndarray

    @property
    def step(self) -> float:
        return float(self.times[1] - self.times[0])


def psi_ladder(params: FlightParams, law: DissipationLaw, alpha,
               t_max: float, steps: int) -> CFLadder:
    """The base ladder: the zeroth convolution power is psi itself."""
    if steps < 64:
        raise DomainError("ladder needs at least 64 steps")
    alpha_t = _check_alpha(params, alpha)
    _check_positive("t_max", t_max)
    times = np.linspace(0.0, t_max, steps + 1)
    return CFLadder(0, alpha_t, times,
                    sphere_cf_values(params, law, alpha, times))


def next_conv_power(params: FlightParams, law: DissipationLaw,
                    prev: CFLadder) -> CFLadder:
    """Time-convolution step: the ladder of index n from index n-1.

    Trapezoid product quadrature of int_0^t psi(t - tau) J_{n-1}(tau)
    dtau on the shared uniform ladder; index n equals the (n+1)-fold
    convolution power of psi.
    """
    psi = sphere_cf_values(params, law, np.asarray(prev.alpha), prev.times)
    h = prev.step
    full = np.convolve(psi, prev.values)[:len(prev.times)]
    vals = h * (full - 0.5 * psi * prev.values[0] - 0.5 * psi[0] * prev.values)
    return CFLadder(prev.n + 1, prev.alpha, prev.times, vals)


def volterra_cf(params: FlightParams, law: DissipationLaw, alpha,
                t_max: float, steps: int = 1024) -> CFLadder:
    """Unconditional characteristic function from the product-trapezoid
    discretisation of the renewal equation

        G(t) = e^{-lam t} psi(t)
               + lam int_0^t e^{-lam (t-tau)} psi(t - tau) G(tau) dtau.

    With kern = e^{-lam t} psi on the ladder and G[0] = 1, the trapezoid
    system for G[1:] is lower-triangular Toeplitz: a * G[1:] = b as power
    series modulo x^steps, with a[0] = 1 - lam h kern[0] / 2, a[k] =
    -lam h kern[k] and b = (1 + lam h / 2) kern[1:].  It is solved as the
    quotient b / a in O(N log N) (`_series_quotient`).  Raises
    `DomainError` for fewer than 64 steps, a ``t_max`` that is not
    positive and finite, an ``alpha`` that is not a finite m-vector, or
    a ladder with fewer than one step per mean time 1/lam between turns
    (lam h >= 1; a[0] vanishes at lam h = 2 and the solve amplifies
    without bound near it).
    """
    psi = psi_ladder(params, law, alpha, t_max, steps)
    lam = params.lam
    if lam * t_max >= steps:
        raise DomainError(
            f"volterra_cf needs more steps than lam*t_max = {lam * t_max:.6g} "
            f"(one per mean time between turns), got steps={steps}")
    lh = lam * float(psi.times[1])
    kern = psi.values  # this call's own ladder: scaled in place
    kern *= np.exp(-lam * psi.times)
    a = -lh * kern[:-1]
    a[0] = 1.0 - 0.5 * lh * kern[0]
    kern *= 1.0 + 0.5 * lh
    G = np.empty(steps + 1, dtype=complex)
    G[0] = 1.0
    _series_quotient(kern[1:], a, G[1:])
    return CFLadder(-1, psi.alpha, psi.times, G)


def _mul_head(x_hat: np.ndarray, y: np.ndarray, size: int,
              lo: int, hi: int) -> np.ndarray:
    """Coefficients lo..hi-1 of the series product x y, with x given by
    its `size`-point FFT x_hat; exact while the cyclic wrap stays below
    lo, i.e. len(x) + len(y) - 1 - size <= lo, and hi <= size."""
    y_hat = np.fft.fft(y, size)
    y_hat *= x_hat
    return np.fft.ifft(y_hat, out=y_hat)[lo:hi]


def _series_reciprocal(a: np.ndarray, n: int) -> np.ndarray:
    """First n coefficients of 1 / a(x) by Newton doubling,
    r <- r + r (1 - a r), each step on FFTs of the next power of two
    at or above its length."""
    if n == 1:
        return np.array([1.0 / a[0]], dtype=complex)
    h = (n + 1) // 2
    r = _series_reciprocal(a, h)
    size = 1 << (n - 1).bit_length()
    r_hat = np.fft.fft(r, size)
    e = _mul_head(r_hat, a[:n], size, h, n)  # a r = 1 + x^h e
    return np.concatenate([r, -_mul_head(r_hat, e, size, 0, n - h)])


def _series_quotient(b: np.ndarray, a: np.ndarray, out: np.ndarray) -> None:
    """Write the first len(out) coefficients of b(x) / a(x) into out.

    The reciprocal is taken to half the length only; the last Newton
    step is folded into the quotient (Karp and Markstein): q = b r on
    the first half, then the second half corrects q by r times the
    residual b - a q.  No FFT is longer than the next power of two at or
    above len(out).
    """
    n = len(out)
    h = (n + 1) // 2
    r = _series_reciprocal(a, h)
    size = 1 << (n - 1).bit_length()
    r_hat = np.fft.fft(r, size)
    out[:h] = _mul_head(r_hat, b[:h], size, 0, h)
    resid = b[h:n] - _mul_head(np.fft.fft(out[:h], size), a[:n], size, h, n)
    out[h:] = _mul_head(r_hat, resid, size, 0, n - h)


def _laplace_of_ladder(ladder: CFLadder, s: float) -> complex:
    decay = np.exp(-s * ladder.times)
    return complex(np.trapezoid(decay * ladder.values, ladder.times))


def laplace_identity_error(params: FlightParams, law: DissipationLaw,
                           alpha, s_values, t_max: float | None = None,
                           steps: int | None = None,
                           tail_tol: float = 1e-6) -> float:
    """Maximal relative mismatch of L[G](s) against
    L[psi](s + lam) / (1 - lam L[psi](s + lam)).

    The left side transforms the Volterra ladder numerically, truncated
    at ``t_max``; the right side uses direct time quadrature for L[psi],
    cross-checked against the closed form 1/sqrt(s^2 + (c |alpha|)^2)
    of the planar isotropic transform when it applies.  Raises if the
    truncation tail bound exceeds ``tail_tol`` relative to the value.
    """
    s_values = np.atleast_1d(np.asarray(s_values, dtype=float))
    _check_positive("Laplace abscissas s_values", s_values)
    s_min = float(s_values.min())
    auto_t_max = t_max is None
    if auto_t_max:
        t_max = max(8.0, 28.0 / s_min)
    if steps is None:
        steps = min(40_000, max(4096, int(512 * t_max)))
    ladder = volterra_cf(params, law, alpha, t_max, steps)
    # Richardson extrapolation removes the O(h^2) trapezoid bias
    coarse = volterra_cf(params, law, alpha, t_max, steps // 2)
    worst = 0.0
    for s in s_values:
        lhs_f = _laplace_of_ladder(ladder, s)
        lhs_c = _laplace_of_ladder(coarse, s)
        lhs = (4.0 * lhs_f - lhs_c) / 3.0
        tail = abs(ladder.values[-1]) * math.exp(-s * t_max) / s
        if tail > tail_tol * max(abs(lhs), 1e-30):
            raise NumericError(
                f"t_max={t_max} too small for s={s}: tail bound {tail:.3e} "
                f"exceeds {tail_tol:.1e} of |L[G]|={abs(lhs):.3e}")
        t_hi = 30.0 / (s + params.lam)  # e^{-(s + lam) t} tail below 1e-13
        lp = _laplace_of_ladder(psi_ladder(params, law, alpha, t_hi, max(
            4096, int(256 * t_hi))), s + params.lam)
        rhs = lp / (1.0 - params.lam * lp)
        worst = max(worst, abs(lhs - rhs) / abs(rhs))
        if isinstance(law, UniformLaw) and params.m == 2:
            a = float(np.linalg.norm(alpha)) * params.c
            lp_closed = 1.0 / math.sqrt((s + params.lam) ** 2 + a * a)
            rhs_closed = lp_closed / (1.0 - params.lam * lp_closed)
            worst = max(worst, abs(lhs - rhs_closed) / abs(rhs_closed))
    return worst


# --------------------------------------------------------------------------
# Fourier transforms of spatial layers
# --------------------------------------------------------------------------

def layer_fourier(layer: DensityLayer, params: FlightParams, alpha) -> float:
    """Real part of the Fourier transform of a layer, joint or
    conditional, at the inversion vector alpha (the whole transform for
    symmetric laws).

    The kernel is cos(|alpha| r cos(theta - phi)) on angular layers and
    its angular average, J0(|alpha| r) in the plane or sinc(|alpha| r)
    in dimension 3, on isotropic ones.  Every layer integrates its table
    against it (`DensityLayer.moment`, the rule that gives its mass); at
    alpha = 0 the kernel is exactly 1 and the result is the layer mass.
    Raises `DomainError` for an ``alpha`` that is not a finite m-vector
    and for ``params`` other than those the layer was built with.
    """
    layer.check_source(params)
    alpha = _check_alpha(params, alpha)
    a = float(np.linalg.norm(alpha))
    if layer.thetas is not None:
        phi = math.atan2(alpha[1], alpha[0])

        def kern(r, th):
            return np.cos(a * r * np.cos(th - phi))
    else:
        def kern(r, th):
            return _radial_kernel(params.m, a, r)
    return layer.moment(kern)
