"""Exact oracles and correctness gates of the benchmark.

Every op checks its own output here.  A gate appends a message to the
op's failure list when its value breaks the tolerance; an op with any
failure counts as failed.  Tolerances are those of the repository's
acceptance suite, except for Monte Carlo, where one fixed sigma multiple
would raise false alarms over the many checks a benchmark makes: the
z-limit there is a Bonferroni bound at a fixed family-wise false-alarm
rate per check.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

CLOSED_FORM_TOL = 5e-3    # acceptance criterion 4: series against closed form
MASS_TOL = 1e-3           # criterion 3: layer mass against Poisson weight
RESIDUAL_TOL = 1e-3       # criterion 5: integral-equation residual
SYMMETRY_TOL = 1e-8       # criterion 8: theta -> -theta symmetry
CF_TOL = 1e-3             # criterion 6: spectral consistency, plus the tail
LAPLACE_TOL = 1e-4        # criterion 7: Laplace identity
FALSE_ALARM = 1e-6        # family-wise false-alarm rate of one MC check

# accuracy metric -> its gate (cf_abs_err's gate adds the op's tail)
METRIC_TOL = {"max_rel_err": CLOSED_FORM_TOL, "mass_defect": MASS_TOL,
              "residual": RESIDUAL_TOL, "cf_abs_err": CF_TOL,
              "laplace_rel_err": LAPLACE_TOL}


def require(failures: list, name: str, value: float, tol: float) -> None:
    """Record a failure unless ``value`` is finite and within ``tol``."""
    if not (math.isfinite(value) and value <= tol):
        failures.append(f"{name} {value:.3e} exceeds {tol:.1e}")


def z_limit(cells: int) -> float:
    """Two-sided |z| bound over ``cells`` cells at rate FALSE_ALARM."""
    return NormalDist().inv_cdf(1.0 - FALSE_ALARM / (2.0 * cells))


def planar_ac_density(lam: float, c: float, t: float, r) -> np.ndarray:
    """Absolutely continuous density of the isotropic planar flight,
    lam e^{-lam t} / (2 pi c) e^{lam w / c} / w with w = sqrt(c^2 t^2 - r^2)
    (Stadje 1987; Kolesnik & Orsingher 2005)."""
    w = np.sqrt((c * t) ** 2 - np.asarray(r, dtype=float) ** 2)
    return lam * math.exp(-lam * t) / (2.0 * math.pi * c) * np.exp(lam * w / c) / w


def annulus_mass(lam: float, c: float, t: float, a, b) -> np.ndarray:
    """Exact absolutely continuous mass of the planar annulus [a, b]:
    e^{-lam t} (e^{lam w(a) / c} - e^{lam w(b) / c})."""
    def w(r):
        return np.sqrt(np.maximum((c * t) ** 2 - np.asarray(r, dtype=float) ** 2,
                                  0.0))
    return math.exp(-lam * t) * (np.exp(lam * w(a) / c) - np.exp(lam * w(b) / c))


def max_rel_err(values, exact) -> float:
    values = np.asarray(values, dtype=float)
    exact = np.asarray(exact, dtype=float)
    return float(np.max(np.abs(values - exact) / exact))


def mass_defect(masses, weights) -> float:
    return float(np.max(np.abs(np.asarray(masses) - np.asarray(weights))))


def histogram_z(values, errors, expected) -> float:
    """Largest |z| of histogram bins against exact bin densities."""
    values = np.asarray(values, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if np.any(errors <= 0):
        return math.inf
    return float(np.max(np.abs(values - np.asarray(expected)) / errors))


def theta_asymmetry(values: np.ndarray) -> float:
    """Largest |f(r, theta) - f(r, -theta)| on an equispaced [-pi, pi) grid."""
    n = values.shape[1]
    return max(float(np.max(np.abs(values[:, j] - values[:, n - j])))
               for j in range(1, n // 2))
