"""Self-contained special functions used by the closed-form densities.

Everything here is double precision and needs only numpy: the Gauss
hypergeometric series on [0, 1) (scalar), the Bessel function J0
(scalar or array), and the gamma function at integer and half-integer
arguments.  The modified Bessel function I0 of the circular Gaussian
law comes from numpy (``np.i0``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericError

__all__ = [
    "SeriesControl",
    "gauss_2f1",
    "bessel_j0",
    "gamma_half",
]


@dataclass(frozen=True)
class SeriesControl:
    """Convergence policy for the power series evaluated in this module."""

    rel_tol: float = 1e-12
    max_terms: int = 500

    def __post_init__(self) -> None:
        if self.rel_tol <= 0:
            raise DomainError("rel_tol must be positive")
        if self.max_terms < 1:
            raise DomainError("max_terms must be at least 1")


def _is_nonpositive_int(x: float) -> bool:
    return x <= 0 and x == math.floor(x)


def gauss_2f1(a: float, b: float, c: float, z: float,
              control: SeriesControl | None = None) -> float:
    """Gauss hypergeometric function F(a, b; c; z) for 0 <= z < 1.

    The series sum_k (a)_k (b)_k / (c)_k * z^k / k! is summed directly.
    If ``a`` or ``b`` is a nonpositive integer the series terminates and
    is summed exactly as a polynomial, ignoring the term cap.

    Near z = 1 the series converges slowly (geometrically with ratio z),
    so callers probing close to the support boundary must supply a
    ``control`` with a generous ``max_terms``.
    """
    ctrl = control or SeriesControl()
    if not 0.0 <= z < 1.0:
        raise DomainError(f"gauss_2f1 requires 0 <= z < 1, got z={z}")
    if _is_nonpositive_int(c):
        raise DomainError(f"gauss_2f1 pole: c={c} is a nonpositive integer")

    n_exact = None
    if _is_nonpositive_int(a) or _is_nonpositive_int(b):
        stops = [int(-v) for v in (a, b) if _is_nonpositive_int(v)]
        n_exact = min(stops)  # series terminates after z^n_exact

    total = 1.0
    term = 1.0
    k = 0
    while True:
        if n_exact is not None and k >= n_exact:
            return total
        term *= (a + k) * (b + k) / ((c + k) * (k + 1)) * z
        total += term
        k += 1
        if n_exact is None:
            if abs(term) <= ctrl.rel_tol * abs(total):
                return total
            if k >= ctrl.max_terms:
                raise NumericError(
                    f"gauss_2f1 did not converge within {ctrl.max_terms} terms "
                    f"(a={a}, b={b}, c={c}, z={z}, last term {term:.3e})")


# Hankel asymptotic coefficients for J0: A[j] = prod_{i<=j} (2i-1)^2 / (j! 8^j).
# The terms A[j] / x^j shrink up to j ~ 2x, so 24 of them suit every
# x beyond the switch point.
_J0_SWITCH = 12.0
_J0_ASY = [1.0]
for _j in range(1, 24):
    _J0_ASY.append(_J0_ASY[-1] * (2 * _j - 1) ** 2 / (8.0 * _j))


def bessel_j0(x):
    """Bessel function J0(x) for x >= 0, accurate to 1e-12 on [0, 120].

    Ascending series up to the switch point, Hankel asymptotic expansion
    beyond it.  Takes a scalar (returns a float) or an array; each
    element sums its series until its own term is negligible, so an
    element's value does not depend on the rest of the array.
    """
    xa = np.asarray(x, dtype=float)
    if np.any(xa < 0):
        raise DomainError("bessel_j0 requires x >= 0")
    out = np.empty(xa.shape)
    small = xa <= _J0_SWITCH
    q = 0.25 * xa[small] ** 2
    total = np.ones(q.shape)
    term = np.ones(q.shape)
    live = np.arange(q.size)
    k = 0
    while live.size:
        k += 1
        term[live] *= -q[live] / (k * k)
        total[live] += term[live]
        live = live[np.abs(term[live]) >= 1e-18 * (np.abs(total[live]) + 1.0)]
    out[small] = total
    xl = xa[~small]
    p = np.zeros(xl.shape)
    qa = np.zeros(xl.shape)
    xk = np.ones(xl.shape)
    for j, aj in enumerate(_J0_ASY):
        contrib = aj / xk
        if j % 2 == 0:
            p += contrib if j % 4 == 0 else -contrib
        else:
            qa += -contrib if j % 4 == 1 else contrib
        xk *= xl
    omega = xl - 0.25 * math.pi
    out[~small] = np.sqrt(2.0 / (math.pi * xl)) * (p * np.cos(omega)
                                                   - qa * np.sin(omega))
    return float(out) if out.ndim == 0 else out


_SQRT_PI = math.sqrt(math.pi)


def gamma_half(two_a: int) -> float:
    """Gamma(two_a / 2) by exact recursion from Gamma(1/2) and Gamma(1)."""
    if two_a < 1:
        raise DomainError("gamma_half requires two_a >= 1")
    value = _SQRT_PI if two_a % 2 == 1 else 1.0
    arg = two_a % 2 if two_a % 2 == 1 else 2  # 2*argument of the base case
    while arg < two_a:
        value *= arg / 2.0
        arg += 2
    return value
