import math

import numpy as np
import pytest
from scipy import special

from randflight import (CircularGaussianLaw, DomainError, FlightParams,
                        UniformLaw, law_from_config)


@pytest.fixture
def p2():
    return FlightParams(2, 1.0, 1.0)


@pytest.fixture
def p3():
    return FlightParams(3, 1.0, 1.0)


def test_uniform_density_values(p2, p3):
    # chi is one over the area of the unit sphere, whatever the direction
    law2, law3 = UniformLaw(p2), UniformLaw(p3)
    assert law2.density_from_axis_cos(1.0) == pytest.approx(
        1.0 / (2 * math.pi), rel=1e-14)
    assert law3.density_from_axis_cos(1.0 / math.sqrt(3.0)) == \
        pytest.approx(1.0 / (4 * math.pi), rel=1e-14)
    ux = np.array([[-1.0, 0.0], [0.3, 1.0]])
    got = law3.density_from_axis_cos(ux)
    assert got.shape == ux.shape
    assert np.all(got == law3.density_from_axis_cos(0.0))


def test_circular_gaussian_values(p2):
    # oracle: I0 by series
    law = CircularGaussianLaw(p2, 1.0)
    expected = math.e / (2 * math.pi * 1.2660658777520084)
    assert law.density_from_axis_cos(1.0) == pytest.approx(expected,
                                                           rel=1e-12)
    assert expected == pytest.approx(0.3417104886234632, rel=1e-12)
    assert CircularGaussianLaw(p2, 2.0).density_from_axis_cos(1.0) == \
        pytest.approx(math.exp(2.0) / (2 * math.pi * special.i0(2.0)),
                      rel=1e-12)
    # the array form is the scalar form elementwise
    th = np.linspace(-np.pi, np.pi, 9)
    vals = law.density_from_axis_cos(np.cos(th))
    assert np.array_equal(vals, [law.density_from_axis_cos(math.cos(a))
                                 for a in th])
    # k = 0 degenerates to uniform everywhere
    law0 = CircularGaussianLaw(p2, 0.0)
    assert np.allclose(law0.density_from_axis_cos(np.cos(th)),
                       1.0 / (2 * math.pi), rtol=1e-14, atol=0.0)


def test_circular_gaussian_needs_m2(p3):
    with pytest.raises(DomainError):
        CircularGaussianLaw(p3, 1.0)


@pytest.mark.parametrize("k", [math.nan, math.inf, -math.inf])
def test_circular_gaussian_needs_a_finite_k(p2, k):
    # a NaN k was once accepted, and every density it gave was NaN
    with pytest.raises(DomainError, match="k must be finite"):
        CircularGaussianLaw(p2, k)


def test_chi_normalization_by_quadrature(p2, p3):
    # planar laws: periodic trapezoid
    th = np.linspace(-np.pi, np.pi, 2049)[:-1]
    for law in [UniformLaw(p2)] + [CircularGaussianLaw(p2, k)
                                   for k in (0.0, 1.0, 2.0, 3.0)]:
        total = np.sum(law.density_from_axis_cos(np.cos(th))) \
            * (2 * np.pi / len(th))
        assert total == pytest.approx(1.0, abs=1e-9)
    # m=3 uniform: Gauss-Legendre in colatitude x trapezoid in longitude
    xg, wg = np.polynomial.legendre.leggauss(64)
    colat = 0.5 * np.pi * (xg + 1.0)
    wc = 0.5 * np.pi * wg
    phis = np.linspace(-np.pi, np.pi, 65)[:-1]
    ux = np.sin(colat)[:, None] * np.cos(phis)[None, :]
    chi = UniformLaw(p3).density_from_axis_cos(ux)
    total = np.sum(chi * (np.sin(colat) * wc)[:, None]) \
        * (2 * np.pi / len(phis))
    assert total == pytest.approx(1.0, abs=1e-9)


def test_uniform_sampler_m3_coordinate_means(p3):
    rng = np.random.default_rng(11)
    u = UniformLaw(p3).sample(rng, 1_000_000)
    norms = np.linalg.norm(u, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-12
    sigma = (1.0 / math.sqrt(3.0)) / 1e3
    assert np.all(np.abs(u.mean(axis=0)) < 4 * sigma)


def test_circular_gaussian_mean_cos(p2):
    # oracle: quadrature of cos * chi_k, cross-checked by I1/I0 series
    k = 2.0
    th = np.linspace(-np.pi, np.pi, 20001)
    chi = np.exp(k * np.cos(th)) / (2 * np.pi * special.i0(k))
    target_quad = np.trapezoid(np.cos(th) * chi, th)
    target_bessel = special.i1(k) / special.i0(k)
    assert target_quad == pytest.approx(target_bessel, abs=1e-10)
    assert target_bessel == pytest.approx(0.6977746579640081, rel=1e-12)

    rng = np.random.default_rng(12)
    n = 1_000_000
    u = CircularGaussianLaw(p2, k).sample(rng, n)
    mean_cos = u[:, 0].mean()
    var = 0.5 * (1 + special.i1(k) / special.i0(k)) - target_bessel**2  # E cos^2 bound
    se = math.sqrt(abs(var) / n)
    assert abs(mean_cos - target_bessel) < 4 * se


def test_circular_gaussian_k0_uniform_angles_ks(p2):
    # Kolmogorov-Smirnov against the uniform angle law, 1% critical value
    rng = np.random.default_rng(13)
    n = 100_000
    th = np.sort(CircularGaussianLaw(p2, 0.0).sample_angles(rng, n))
    cdf = (th + np.pi) / (2 * np.pi)
    ecdf_hi = np.arange(1, n + 1) / n
    ecdf_lo = np.arange(0, n) / n
    ks = max(np.max(np.abs(ecdf_hi - cdf)), np.max(np.abs(cdf - ecdf_lo)))
    assert ks < 1.628 / math.sqrt(n)


def test_sampler_histogram_matches_density(p2):
    rng = np.random.default_rng(14)
    law = CircularGaussianLaw(p2, 1.5)
    n = 400_000
    th = law.sample_angles(rng, n)
    bins = np.linspace(-np.pi, np.pi, 33)
    hist, _ = np.histogram(th, bins=bins)
    width = bins[1] - bins[0]
    centers = 0.5 * (bins[:-1] + bins[1:])
    dens = hist / (n * width)
    target = np.exp(1.5 * np.cos(centers)) / (2 * np.pi * special.i0(1.5))
    se = np.sqrt(np.maximum(hist, 1.0)) / (n * width)
    assert np.all(np.abs(dens - target) < 5 * se + 1e-4)


def test_sampler_negative_k_concentrates_about_pi(p2):
    # exp(k cos(theta)) with k < 0 is the k > 0 law turned by pi
    k = -1.5
    u = CircularGaussianLaw(p2, k).sample(np.random.default_rng(15), 400_000)
    target = special.i1(k) / special.i0(k)
    se = math.sqrt(0.5 / len(u))
    assert abs(u[:, 0].mean() - target) < 5 * se
    assert abs(u[:, 1].mean()) < 5 * se


@pytest.mark.parametrize("k", [-1.5, 0.0, 2.0])
@pytest.mark.parametrize("size", [0, 1, 7, 65_537])
def test_sampler_writes_the_stacked_cos_sin(p2, k, size):
    # cos and sin go straight into their columns, bit for bit the values
    # of the column_stack they replaced
    law = CircularGaussianLaw(p2, k)
    u = law.sample(np.random.default_rng(16), size)
    th = law.sample_angles(np.random.default_rng(16), size)
    assert u.shape == (size, 2) and u.flags.c_contiguous
    assert u.tobytes() == np.column_stack([np.cos(th), np.sin(th)]).tobytes()


def test_law_from_config(p2):
    law = law_from_config({"kind": "uniform"}, p2)
    assert isinstance(law, UniformLaw)
    law = law_from_config({"kind": "circular_gaussian", "k": 2.5}, p2)
    assert isinstance(law, CircularGaussianLaw) and law.k == 2.5
    with pytest.raises(DomainError):
        law_from_config({"kind": "circular_gaussian"}, p2)
    with pytest.raises(DomainError):
        law_from_config({"kind": "wrapped"}, p2)
    # the uniform law once ignored a k, a k of "1.5" or true ran as a
    # number, and a key other than kind and k was ignored
    for bad in ({"kind": "uniform", "k": 3.0},
                {"kind": "circular_gaussian", "k": "1.5"},
                {"kind": "circular_gaussian", "k": True},
                {"kind": "circular_gaussian", "k": 1.5, "mu": 0.0}):
        with pytest.raises(DomainError):
            law_from_config(bad, p2)
