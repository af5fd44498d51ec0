import math

import numpy as np
import pytest
from scipy import special

from randflight import (CircularGaussianLaw, DomainError, FlightParams,
                        UniformLaw, one_turn_profile, singular_layer)
from randflight import convolution as conv


def f1_reference(m, lam, c, t, r):
    """Oracle: the one-turn prefactor times scipy's hypergeometric."""
    coeff = (lam * math.exp(-lam * t) * 2.0 ** (m - 3) * math.gamma(m / 2)
             / (math.pi ** (m / 2) * c**m * t ** (m - 1)))
    z = (r / (c * t)) ** 2
    return coeff * float(special.hyp2f1((m - 1) / 2, 2 - m / 2, m / 2, z))


def test_one_turn_m2_values():
    p = FlightParams(2, 1.0, 1.0)
    got = one_turn_profile(p, np.array([0.0, 0.5]), 1.0)
    assert got[0] == pytest.approx(math.exp(-1) / (2 * math.pi), rel=1e-12)
    assert got[1] == pytest.approx(0.06760752198314582, rel=1e-12)
    assert got[1] == pytest.approx(f1_reference(2, 1, 1, 1, 0.5), rel=1e-10)


def test_one_turn_r3_values():
    p = FlightParams(3, 1.0, 1.0)
    got = one_turn_profile(p, np.array([0.5]), 1.0)[0]
    assert got == pytest.approx(math.exp(-1) * math.log(3.0) / (2 * math.pi),
                                rel=1e-13)
    # removable singularity at the origin
    lim = p.lam * math.exp(-p.lam) / (2 * math.pi)
    assert one_turn_profile(p, np.array([1e-9]), 1.0)[0] == \
        pytest.approx(lim, rel=1e-10)
    # boundary blow-up (logarithmic, so probe very close and grow slowly)
    seq = one_turn_profile(p, 1 - 10.0 ** -np.array([3, 6, 9, 12]), 1.0)
    assert np.all(np.diff(seq) > 0)
    assert seq[-1] > 10 * lim


def test_one_turn_m3_log_vs_hypergeometric():
    # the closed form against the engine's independent series route
    p = FlightParams(3, 1.0, 1.0)
    grid = np.linspace(0.0, 1.0 - 1e-3, 50)
    log_form = one_turn_profile(p, grid, 1.0)
    series_form = conv._seed_profile_generic(p, grid, 1.0)
    assert np.all(np.abs(series_form - log_form) <= 1e-10 * log_form)


def test_one_turn_rejects_outside_support():
    with pytest.raises(DomainError):
        one_turn_profile(FlightParams(2, 1.0, 1.0), np.array([1.0]), 1.0)
    with pytest.raises(DomainError):
        one_turn_profile(FlightParams(3, 1, 1), np.array([1.2]), 1.0)


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("lam_t", [0.5, 1.0, 2.0])
def test_one_turn_mass(m, lam_t):
    # oracle: high-resolution radial quadrature with r = R sin(u), which
    # absorbs the boundary divergence for m=2 and the log kink for m=3
    p = FlightParams(m, 1.0, lam_t)
    t = 1.0
    R = p.radius(t)
    x, w = np.polynomial.legendre.leggauss(400)
    u = 0.25 * np.pi * (x + 1.0)
    wu = 0.25 * np.pi * w
    r = R * np.sin(u)
    f = one_turn_profile(p, r, t)
    if m == 2:
        integrand = 2 * np.pi * r * f
    else:
        integrand = 4 * np.pi * r * r * f
    mass = np.sum(wu * integrand * R * np.cos(u))
    assert mass == pytest.approx(lam_t * math.exp(-lam_t), abs=1e-6)


def test_singular_layer_uniform():
    p = FlightParams(2, 1.0, 1.0)
    law = UniformLaw(p)
    layer = singular_layer(p, law, 1.0)
    assert layer.weight == pytest.approx(math.exp(-1), rel=1e-14)
    assert layer.radius == 1.0
    got = layer.surface_density(np.array([1.0, 0.0]))
    assert got == pytest.approx(math.exp(-1) / (2 * math.pi), rel=1e-12)
    # total surface mass = weight for any law (chi integrates to one)
    th = np.linspace(-np.pi, np.pi, 4097)[:-1]
    vals = [layer.surface_density(np.array([math.cos(a), math.sin(a)]))
            for a in th]
    total = np.sum(vals) * (2 * np.pi / len(th)) * layer.radius
    assert total == pytest.approx(layer.weight, rel=1e-10)


def test_singular_layer_circular_gaussian():
    p = FlightParams(2, 1.0, 1.0)
    law = CircularGaussianLaw(p, 1.0)
    layer = singular_layer(p, law, 1.0)
    expected = math.exp(-1) * math.e / (2 * math.pi * 1.0
                                        * 1.2660658777520084)
    assert layer.surface_density(np.array([1.0, 0.0])) == \
        pytest.approx(expected, rel=1e-12)


def test_singular_layer_m3_scaling():
    p = FlightParams(3, 2.0, 0.5)
    law = UniformLaw(p)
    t = 2.0
    layer = singular_layer(p, law, t)
    ct = 4.0
    got = layer.surface_density(np.array([ct, 0.0, 0.0]))
    assert got == pytest.approx(math.exp(-1.0) / (4 * math.pi * ct**2),
                                rel=1e-12)
