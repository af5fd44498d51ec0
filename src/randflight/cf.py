"""Characteristic-function pipeline and its consistency checks.

The flight's characteristic function obeys a renewal structure: the
conditional transform given n turns is an (n+1)-fold time convolution
power of the sphere transform ``psi``, and the unconditional transform
solves a Volterra equation of the second kind with kernel
lam * exp(-lam (t - tau)) * psi(alpha, t - tau).  Every spectral
computation reads psi from one uniform time ladder: the Volterra solve
and the Laplace-domain check use its kernel ladder.  Spatial layers are
Fourier-transformed for the cross-pipeline comparison; a layer's
transform and its mass are one radial moment taken against different
kernels.

Values are real for the isotropic law, whose psi is the angular average
J0 or sinc of a real kernel: its ladder, renewal solve and their FFTs
stay real.  They are complex for the circular Gaussian law, which is
skewed along the first axis, so its transforms carry genuine imaginary
parts (the density couples to cos(theta), so the odd part of
e^{i a ct cos(theta)} does not cancel).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .convolution import DensityLayer
from .core import FlightParams, _angles, _check_positive, _is_count
from .dissipation import CircularGaussianLaw, DissipationLaw, UniformLaw
from .errors import DomainError, NumericError
from .specfun import bessel_j0

__all__ = [
    "CFLadder",
    "sphere_cf",
    "volterra_cf",
    "laplace_identity_error",
    "layer_fourier",
]

_N_ANGLE = 512  # angular quadrature for the planar non-symmetric transform
# times per block of the circular-Gaussian phase matrix: a block of
# _CG_BLOCK x _N_ANGLE complex values bounds psi's working memory
_CG_BLOCK = 1024


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
    `DomainError` for an ``alpha`` that is not a finite m-vector and for
    a ``t`` that is negative or not finite."""
    alpha = _check_alpha(params, alpha)
    if not 0.0 <= t < math.inf:
        raise DomainError(f"t must be nonnegative and finite, got {t!r}")
    return complex(sphere_cf_values(params, law, alpha, np.array([t]))[0])


def sphere_cf_values(params: FlightParams, law: DissipationLaw, alpha,
                     times: np.ndarray) -> np.ndarray:
    """Vectorized psi over an array of nonnegative times; ``alpha`` is a
    checked m-vector.  Real for the uniform law; complex for the
    circular Gaussian, whose 512-angle rule is taken over blocks of
    `_CG_BLOCK` times, so its memory does not grow with the ladder."""
    times = np.asarray(times, dtype=float)
    ct = params.c * times
    if isinstance(law, UniformLaw):
        if params.m not in (2, 3):
            raise DomainError(
                "sphere_cf supports the uniform law for m in {2, 3}")
        a = float(np.linalg.norm(alpha))
        return _radial_kernel(params.m, a, ct)
    if isinstance(law, CircularGaussianLaw):
        th = _angles(_N_ANGLE)
        u = np.column_stack([np.cos(th), np.sin(th)])
        chi = law.density_from_axis_cos(np.cos(th))
        proj = u @ np.asarray(alpha, dtype=float)
        psi = []
        # blocks of equal size: a one-row block would take numpy's
        # vector-product path, which rounds differently from a matrix's row
        for part in np.array_split(ct, -(-len(ct) // _CG_BLOCK)):
            phase = 1j * np.outer(part, proj)
            np.exp(phase, out=phase)
            psi.append(phase @ chi * (2.0 * np.pi / _N_ANGLE))
        return np.concatenate(psi)
    raise DomainError(f"unsupported law {type(law).__name__}")


@dataclass(frozen=True)
class CFLadder:
    """Values of a transform on the uniform time ladder [0, t_max]: real
    for the uniform law, complex for the circular Gaussian."""

    times: np.ndarray
    values: np.ndarray


def _psi_ladder(params: FlightParams, law: DissipationLaw, alpha,
                t_max: float, steps) -> tuple:
    """psi on ``steps`` uniform steps over [0, t_max]: the times and the
    values.  Raises `DomainError` unless ``steps`` is an integer of at
    least 64, ``t_max`` positive and finite and ``alpha`` a finite
    m-vector."""
    if not (_is_count(steps) and steps >= 64):
        raise DomainError(f"the psi ladder needs an integer of at least 64 "
                          f"steps, got {steps!r}")
    alpha = _check_alpha(params, alpha)
    _check_positive("t_max", t_max)
    times = np.linspace(0.0, t_max, steps + 1)
    return times, sphere_cf_values(params, law, alpha, times)


def volterra_cf(params: FlightParams, law: DissipationLaw, alpha,
                t_max: float, steps: int = 1024) -> CFLadder:
    """Unconditional characteristic function: the renewal solve
    (`_renewal`) on the kernel ladder e^{-lam t} psi of `_psi_ladder`,
    in psi's dtype: real for the uniform law, complex for the circular
    Gaussian.
    Raises `DomainError` for ``steps`` other than an integer of at least
    64, a ``t_max`` that is not positive and finite, an ``alpha`` that
    is not a finite m-vector, or fewer than one step per mean time 1/lam
    between turns."""
    times, kern = _psi_ladder(params, law, alpha, t_max, steps)
    kern *= np.exp(-params.lam * times)
    return CFLadder(times, _renewal(times, kern, params.lam))


def _renewal(times: np.ndarray, kern: np.ndarray, lam: float) -> np.ndarray:
    """G on a uniform ladder, G = kern + lam int_0^t kern(t - tau) G(tau)
    dtau with ``kern`` = e^{-lam t} psi there, by product trapezoid.
    With G[0] = 1 the system for G[1:] is lower-triangular Toeplitz,
    a * G[1:] = b modulo x^steps with a[0] = 1 - lam h kern[0] / 2,
    a[k] = -lam h kern[k] and b = (1 + lam h / 2) kern[1:], solved as
    b / a in O(N log N) (`_series_quotient`), in ``kern``'s dtype.
    Raises `DomainError` for lam h >= 1: a[0] vanishes at lam h = 2, and
    near it the solve amplifies without bound."""
    steps = len(times) - 1
    lh = lam * float(times[1])
    if lh >= 1.0:
        raise DomainError(f"the renewal solve needs more steps than lam*t_max"
                          f" = {lh * steps:.6g}, got steps={steps}")
    a = -lh * kern[:-1]
    a[0] = 1.0 - 0.5 * lh * kern[0]
    G = np.empty(steps + 1, dtype=kern.dtype)
    G[0] = 1.0
    np.multiply(kern[1:], 1.0 + 0.5 * lh, out=G[1:])  # b, divided in place
    _series_quotient(G[1:], a, G[1:])
    return G


def _ffts(x: np.ndarray) -> tuple:
    """The forward and inverse FFT for series of x's dtype: rfft and
    irfft, on half the spectrum, for a real series; fft and ifft for a
    complex one."""
    if np.iscomplexobj(x):
        return np.fft.fft, np.fft.ifft
    return np.fft.rfft, np.fft.irfft


def _mul_head(x_hat: np.ndarray, y: np.ndarray, size: int,
              lo: int, hi: int) -> np.ndarray:
    """Coefficients lo..hi-1 of the series product x y, with x given by
    its `size`-point transform x_hat from `_ffts` (x and y of one dtype);
    exact while the cyclic wrap stays below lo, i.e. len(x) + len(y) - 1
    - size <= lo, and hi <= size."""
    fft, ifft = _ffts(y)
    y_hat = fft(y, size)
    y_hat *= x_hat
    return ifft(y_hat, size)[lo:hi]


def _series_reciprocal(a: np.ndarray, n: int) -> np.ndarray:
    """First n coefficients of 1 / a(x) by Newton doubling,
    r <- r + r (1 - a r), each step on FFTs of the next power of two
    at or above its length."""
    if n == 1:
        return 1.0 / a[:1]
    h = (n + 1) // 2
    r = _series_reciprocal(a, h)
    size = 1 << (n - 1).bit_length()
    fft, _ = _ffts(r)
    r_hat = fft(r, size)
    e = _mul_head(r_hat, a[:n], size, h, n)  # a r = 1 + x^h e
    return np.concatenate([r, -_mul_head(r_hat, e, size, 0, n - h)])


def _series_quotient(b: np.ndarray, a: np.ndarray, out: np.ndarray) -> None:
    """Write the first len(out) coefficients of b(x) / a(x) into out, all
    three of one dtype: real series take real FFTs (`_ffts`).

    The reciprocal is taken to half the length only; the last Newton
    step is folded into the quotient (Karp and Markstein): q = b r on
    the first half, then the second half corrects q by r times the
    residual b - a q.  No FFT is longer than the next power of two at or
    above len(out).  ``out`` may be ``b`` itself: each half of b is read
    before that half of out is written.
    """
    n = len(out)
    h = (n + 1) // 2
    r = _series_reciprocal(a, h)
    size = 1 << (n - 1).bit_length()
    fft, _ = _ffts(out)
    r_hat = fft(r, size)
    out[:h] = _mul_head(r_hat, b[:h], size, 0, h)
    resid = b[h:n] - _mul_head(fft(out[:h], size), a[:n], size, h, n)
    out[h:] = _mul_head(r_hat, resid, size, 0, n - h)


def _laplace(times: np.ndarray, ladders: tuple, s: float,
             tail_tol: float) -> list:
    """Transforms at s of ladders truncated at t_max, one per pair (fine,
    half) in ``ladders``, with ``half`` its counterpart on every other
    node: trapezoid rules on both, Richardson-extrapolated, under one set
    of weights e^{-s t}.  Raises `NumericError` if a tail bound past t_max
    exceeds ``tail_tol`` relative to its value."""
    w = np.exp(-s * times)
    end = w[-1]  # the tail's factor, before the trapezoid halves it
    w[[0, -1]] *= 0.5  # trapezoid weights over h, on both ladders
    out = []
    for fine, half in ladders:
        tail = abs(fine[-1]) * end / s
        val = complex(4.0 * (w @ fine) - 2.0 * (w[::2] @ half)) * times[1] / 3.0
        if tail > tail_tol * max(abs(val), 1e-30):
            raise NumericError(f"t_max={times[-1]} too small for s={s}: tail "
                               f"bound {tail:.3e} exceeds {tail_tol:.1e} of "
                               f"|L|={abs(val):.3e}")
        out.append(val)
    return out


def laplace_identity_error(params: FlightParams, law: DissipationLaw,
                           alpha, s_values, t_max: float | None = None,
                           steps: int | None = None,
                           tail_tol: float = 1e-6) -> float:
    """Maximal relative mismatch of L[G](s) against L[psi](s + lam) /
    (1 - lam L[psi](s + lam)), both from one psi ladder of an even
    number of ``steps`` by one rule (`_laplace`): L[psi](s + lam) is the
    transform at s of the kernel ladder e^{-lam t} psi, L[G](s) that of
    the renewal solve on it, each with its half on every other node.
    The planar isotropic side is also checked against the closed form
    L[psi](s + lam) = 1/sqrt((s + lam)^2 + (c |alpha|)^2).  Raises
    `DomainError` for ``steps`` other than an even integer of at least
    64 and for a ``tail_tol`` that is not positive and finite."""
    s_values = np.atleast_1d(np.asarray(s_values, dtype=float))
    _check_positive("Laplace abscissas s_values", s_values)
    _check_positive("tail_tol", tail_tol)
    if t_max is None:
        t_max = max(8.0, 28.0 / float(s_values.min()))
    if steps is None:
        steps = 2 * min(20_000, max(2048, int(256 * t_max)))
    if not _is_count(steps) or steps % 2:
        raise DomainError(f"the Laplace check needs an even integer number "
                          f"of steps, got {steps!r}")
    times, kern = _psi_ladder(params, law, alpha, t_max, steps)
    kern *= np.exp(-params.lam * times)  # L[kern](s) = L[psi](s + lam)
    G = _renewal(times, kern, params.lam)
    G_half = _renewal(times[::2], kern[::2], params.lam)
    worst = 0.0
    for s in s_values:
        lhs, lp = _laplace(times, ((G, G_half), (kern, kern[::2])), s,
                           tail_tol)
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
    """Real part of the Fourier transform of a joint layer at the
    inversion vector alpha (the whole transform for symmetric laws); over
    the layer's ``weight`` it is the transform given n turns.

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
