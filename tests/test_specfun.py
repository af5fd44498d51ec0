import math

import numpy as np
import pytest
from scipy import special

from randflight import (CircularGaussianLaw, DomainError, FlightParams,
                        NumericError)
from randflight.specfun import bessel_j0, gauss_2f1


def hyp_series(a, b, c, z, terms=400):
    """Oracle: plain term-by-term summation of the hypergeometric series."""
    total, term = 1.0, 1.0
    for k in range(terms):
        term *= (a + k) * (b + k) / ((c + k) * (k + 1)) * z
        total += term
    return total


def test_2f1_b_zero_is_one():
    for a, c, z in [(0.7, 1.3, 0.2), (2.5, 0.5, 0.9)]:
        assert gauss_2f1(a, 0.0, c, z) == 1.0


def test_2f1_against_summation_oracle():
    assert hyp_series(0.5, 1.0, 1.0, 0.25) == pytest.approx(0.75**-0.5, rel=1e-12)
    assert gauss_2f1(0.5, 1.0, 1.0, 0.25) == pytest.approx(1.1547005383792515,
                                                           rel=1e-12)
    # log identity F(1,1;2;z) = -log(1-z)/z
    assert gauss_2f1(1.0, 1.0, 2.0, 0.5) == pytest.approx(1.3862943611198906,
                                                          rel=1e-12)


def test_2f1_binomial_identity():
    for z in np.arange(0.0, 0.95, 0.1):
        val = gauss_2f1(0.5, 1.0, 1.0, z) * math.sqrt(1.0 - z)
        assert val == pytest.approx(1.0, abs=1e-10)


def test_2f1_terminating_polynomial_exact():
    # b = -2 terminates: 1 - 2az/c + a(a+1)z^2/(c(c+1))
    a, c = 1.5, 2.5
    for z in (0.0, 0.3, 0.9):
        exact = 1.0 - 2 * a * z / c + a * (a + 1) * z * z / (c * (c + 1))
        assert gauss_2f1(a, -2.0, c, z) == pytest.approx(exact, abs=1e-14)
    # termination ignores the term cap
    assert gauss_2f1(a, -2.0, c, 0.5, max_terms=1) == pytest.approx(
        1.0 - 2 * a * 0.5 / c + a * (a + 1) * 0.25 / (c * (c + 1)), abs=1e-14)


def test_2f1_against_scipy():
    rng = np.random.default_rng(1)
    for _ in range(40):
        a = rng.uniform(0.1, 3.0)
        b = rng.uniform(0.1, 3.0)
        c = rng.uniform(0.5, 4.0)
        z = rng.uniform(0.0, 0.97)
        assert gauss_2f1(a, b, c, z, rel_tol=1e-14,
                         max_terms=100_000) == pytest.approx(
            float(special.hyp2f1(a, b, c, z)), rel=1e-9)


def test_2f1_domain_errors():
    with pytest.raises(DomainError):
        gauss_2f1(1.0, 1.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        gauss_2f1(1.0, 1.0, 1.0, -0.1)
    with pytest.raises(DomainError):
        gauss_2f1(1.0, 1.0, -2.0, 0.5)
    with pytest.raises(NumericError):
        gauss_2f1(0.5, 1.0, 1.0, 0.999, max_terms=50)
    with pytest.raises(DomainError):
        gauss_2f1(0.5, 1.0, 1.0, 0.5, rel_tol=0.0)
    with pytest.raises(DomainError):
        gauss_2f1(0.5, 1.0, 1.0, 0.5, max_terms=0)


def test_j0_basics():
    assert bessel_j0(0.0) == 1.0
    assert abs(bessel_j0(2.404825557695773)) < 1e-10
    with pytest.raises(DomainError):
        bessel_j0(-1.0)


def test_j0_first_zero_by_series_bisection():
    # oracle: bisect the ascending series between 2 and 3
    def series(x, terms=40):
        total, term, q = 1.0, 1.0, 0.25 * x * x
        for k in range(1, terms):
            term *= -q / (k * k)
            total += term
        return total

    lo, hi = 2.0, 3.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if series(lo) * series(mid) <= 0:
            hi = mid
        else:
            lo = mid
    assert lo == pytest.approx(2.404825557695773, abs=1e-12)
    assert abs(bessel_j0(lo)) < 1e-8


def test_j0_quadrature_identity():
    # J0(x) = (1/pi) int_0^pi cos(x sin(phi)) dphi, composite trapezoid
    phi = np.linspace(0.0, np.pi, 4001)
    for x in np.linspace(0.0, 20.0, 41):
        ref = np.trapezoid(np.cos(x * np.sin(phi)), phi) / np.pi
        assert bessel_j0(x) == pytest.approx(ref, abs=1e-8)


def test_j0_matches_scipy_to_ten_digits():
    for x in np.linspace(0.0, 100.0, 301):
        ref = float(special.j0(x))
        assert abs(bessel_j0(x) - ref) < 1e-10


def test_j0_arrays_match_scipy_and_scalars():
    x = np.linspace(0.0, 120.0, 240_001)
    values = bessel_j0(x)
    assert values.shape == x.shape
    assert np.max(np.abs(values - special.j0(x))) < 1e-12
    # each element sums its own series: a scalar gives the array's value
    picks = x[::997]
    scalars = [bessel_j0(float(v)) for v in picks]
    assert all(type(v) is float for v in scalars)
    assert np.array_equal(scalars, values[::997])
    assert np.array_equal(bessel_j0(x.reshape(-1, 1))[:, 0], values)
    with pytest.raises(DomainError):
        bessel_j0(np.array([1.0, -1e-3]))


@pytest.mark.parametrize("x", [math.nan, math.inf, np.array([1.0, math.nan])],
                         ids=["nan", "inf", "array-nan"])
def test_j0_rejects_non_finite(x):
    # NaN once read NaN, inf ended in a RuntimeWarning from cos
    with pytest.raises(DomainError, match="finite"):
        bessel_j0(x)


def test_j0_bounded():
    rng = np.random.default_rng(2)
    xs = rng.uniform(0.0, 100.0, 200)
    assert all(abs(bessel_j0(x)) <= 1.0 + 1e-12 for x in xs)


def test_i0_overflow():
    # np.i0 overflows past |k| ~ 709.8; the law refuses |k| > 700
    p2 = FlightParams(2, 1.0, 1.0)
    with pytest.raises(NumericError):
        CircularGaussianLaw(p2, 800.0)
    with pytest.raises(NumericError):
        CircularGaussianLaw(p2, -701.0)
    assert math.isfinite(CircularGaussianLaw(p2, 700.0).density_from_axis_cos(0.0))

