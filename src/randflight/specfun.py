"""Self-contained special functions.

Everything here is double precision and needs only numpy: the Bessel
function J0 (scalar or array), which gives the spectral route's planar
sphere transform psi, and the Gauss hypergeometric series on [0, 1)
(scalar), in which the one-turn profile of every dimension has a form
that checks the closed forms.  The modified Bessel function I0 of the
circular Gaussian law comes from numpy (``np.i0``).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, NumericError

__all__ = [
    "gauss_2f1",
    "bessel_j0",
]


def _is_nonpositive_int(x: float) -> bool:
    return x <= 0 and x == math.floor(x)


def gauss_2f1(a: float, b: float, c: float, z: float,
              rel_tol: float = 1e-12, max_terms: int = 500) -> float:
    """Gauss hypergeometric function F(a, b; c; z) for 0 <= z < 1.

    The series sum_k (a)_k (b)_k / (c)_k * z^k / k! is summed until a
    term is at most ``rel_tol`` times the sum, and raises `NumericError`
    after ``max_terms`` terms.  If ``a`` or ``b`` is a nonpositive integer
    the series terminates and is summed exactly as a polynomial, ignoring
    the term cap.

    Near z = 1 the series converges slowly (geometrically with ratio z),
    so callers probing close to the support boundary must pass a
    generous ``max_terms``.
    """
    if rel_tol <= 0:
        raise DomainError("rel_tol must be positive")
    if max_terms < 1:
        raise DomainError("max_terms must be at least 1")
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
            if abs(term) <= rel_tol * abs(total):
                return total
            if k >= max_terms:
                raise NumericError(
                    f"gauss_2f1 did not converge within {max_terms} terms "
                    f"(a={a}, b={b}, c={c}, z={z}, last term {term:.3e})")


# Hankel asymptotic coefficients for J0: A[j] = prod_{i<=j} (2i-1)^2 / (j! 8^j).
# The terms A[j] / x^j shrink up to j ~ 2x, so 24 of them suit every
# x beyond the switch point.
_J0_SWITCH = 12.0
_J0_ASY = [1.0]
for _j in range(1, 24):
    _J0_ASY.append(_J0_ASY[-1] * (2 * _j - 1) ** 2 / (8.0 * _j))


def bessel_j0(x):
    """Bessel function J0(x) for finite x >= 0, accurate to 1e-12 on
    [0, 120]; raises `DomainError` for a negative or non-finite x.

    Ascending series up to the switch point, Hankel asymptotic expansion
    beyond it.  Takes a scalar (returns a float) or an array.  The series
    runs over all small x at once under a live mask: each element sums
    its terms until its own term is negligible, then drops out of the
    mask, so an element's value does not depend on the rest of the array.
    """
    xa = np.asarray(x, dtype=float)
    if not np.all((xa >= 0.0) & (xa < math.inf)):
        raise DomainError("bessel_j0 requires finite x >= 0")
    out = np.empty(xa.shape)
    small = xa <= _J0_SWITCH
    q = 0.25 * xa[small] ** 2
    total = np.ones(q.shape)
    term = np.ones(q.shape)
    live = np.ones(q.shape, dtype=bool)
    k = 0
    while live.any():
        k += 1
        np.multiply(term, -q / (k * k), out=term, where=live)
        np.add(total, term, out=total, where=live)
        live &= np.abs(term) >= 1e-18 * (np.abs(total) + 1.0)
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
