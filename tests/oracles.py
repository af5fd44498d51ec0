"""One-turn oracles of the tests: closed forms and a series form.

The layer given one turn of the isotropic law, for the flight with
c = t = 1, at scaled radii sigma = r/(ct) < 1.  The joint one-turn
density at time t is lam t e^{-lam t} (ct)^(-m) times it.  pytest does
not collect this module; the test modules import it.
"""

import math

import numpy as np

from randflight.specfun import gauss_2f1


def one_turn(m, sigma):
    """The closed forms: 1 / (2 pi sqrt(1 - sigma^2)) in the plane and
    log((1 + sigma)/(1 - sigma)) / (4 pi sigma) in dimension 3, whose
    limit at the origin is 1 / (2 pi)."""
    sigma = np.asarray(sigma, dtype=float)
    if m == 2:
        return 1.0 / (2.0 * math.pi * np.sqrt((1.0 - sigma) * (1.0 + sigma)))
    assert m == 3
    pos = np.where(sigma > 0.0, sigma, 0.5)
    ratio = np.log1p(2.0 * pos / (1.0 - pos)) / (2.0 * pos)
    return np.where(sigma > 0.0, ratio, 1.0) / (2.0 * math.pi)


def one_turn_series(m, sigma):
    """The form of every dimension m, 2^(m-3) Gamma(m/2) / pi^(m/2) times
    the Gauss hypergeometric series 2F1((m-1)/2, 2 - m/2; m/2; sigma^2)."""
    coeff = 2.0 ** (m - 3) * math.gamma(m / 2) / math.pi ** (m / 2.0)
    return np.array([coeff * gauss_2f1(0.5 * (m - 1), 2.0 - 0.5 * m, 0.5 * m,
                                       s * s, 1e-14, 200_000)
                     for s in np.atleast_1d(sigma)])


def one_turn_density(params, r, t):
    """The joint one-turn density of the isotropic law at radii ``r`` <
    ct and time ``t``."""
    lt, ct = params.lam * t, params.radius(t)
    return lt * math.exp(-lt) / ct**params.m * one_turn(params.m, r / ct)
