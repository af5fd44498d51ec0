"""The one-turn layer: the closed forms of `oracles`, and the engine's
one-turn seed against them."""

import math

import numpy as np
import pytest
from scipy import special

from oracles import one_turn, one_turn_density, one_turn_series
from randflight import (DomainError, FlightParams, RadialGrid, UniformLaw,
                        seed_layer)


def f1_reference(m, lam, c, t, r):
    """Oracle: the one-turn prefactor times scipy's hypergeometric."""
    coeff = (lam * math.exp(-lam * t) * 2.0 ** (m - 3) * math.gamma(m / 2)
             / (math.pi ** (m / 2) * c**m * t ** (m - 1)))
    z = (r / (c * t)) ** 2
    return coeff * float(special.hyp2f1((m - 1) / 2, 2 - m / 2, m / 2, z))


def seed(params, t=1.0):
    return seed_layer(params, UniformLaw(params), t,
                      RadialGrid.build(params, t, 8))


def test_one_turn_m2_values():
    p = FlightParams(2, 1.0, 1.0)
    got = one_turn_density(p, np.array([0.0, 0.5]), 1.0)
    assert got[0] == pytest.approx(math.exp(-1) / (2 * math.pi), rel=1e-12)
    assert got[1] == pytest.approx(0.06760752198314582, rel=1e-12)
    assert got[1] == pytest.approx(f1_reference(2, 1, 1, 1, 0.5), rel=1e-10)
    np.testing.assert_allclose(one_turn_series(2, [0.0, 0.5, 0.9]),
                               one_turn(2, [0.0, 0.5, 0.9]), rtol=1e-13)


def test_one_turn_r3_values():
    # the engine's closed form, read off the grid nodes
    p = FlightParams(3, 1.0, 1.0)
    layer = seed(p)
    got = layer.top_values(np.array([0.5]))[0]
    assert got == pytest.approx(math.exp(-1) * math.log(3.0) / (2 * math.pi),
                                rel=1e-13)
    # removable singularity at the origin
    lim = p.lam * math.exp(-p.lam) / (2 * math.pi)
    assert layer.top_values(np.array([1e-9]))[0] == pytest.approx(lim, rel=1e-10)
    # boundary blow-up (logarithmic, so probe very close and grow slowly)
    seq = layer.top_values(1 - 10.0 ** -np.array([3, 6, 9, 12]))
    assert np.all(np.diff(seq) > 0)
    assert seq[-1] > 10 * lim


def test_one_turn_m3_log_vs_hypergeometric():
    # the engine's m=3 seed at its grid nodes against the series route
    p = FlightParams(3, 1.0, 1.0)
    grid = RadialGrid(1.0, np.linspace(0.0, 1.0 - 1e-3, 50), 1e-3)
    layer = seed_layer(p, UniformLaw(p), 1.0, grid)
    series_form = one_turn_series(3, grid.nodes)
    assert np.all(np.abs(layer.g_at_nodes[:, 0] - series_form)
                  <= 1e-10 * series_form)
    assert np.all(np.abs(one_turn(3, grid.nodes) - series_form)
                  <= 1e-10 * series_form)


def test_one_turn_rejects_outside_support():
    # the planar seed once read 5.9e148 at r = 1.2 ct
    for m in (2, 3):
        layer = seed(FlightParams(m, 1.0, 1.0))
        for r in (1.0, 1.2):
            with pytest.raises(DomainError, match="radii < ct"):
                layer.top_values(np.array([r]))


@pytest.mark.parametrize("lam,t", [(1e300, 1e10), (1e-300, 1e-30)],
                         ids=["overflow", "underflow"])
def test_one_turn_rejects_lam_t_past_the_float_range(lam, t):
    # lam*t = inf once gave nan with a RuntimeWarning, and lam*t = 0 gave 0.0
    with pytest.raises(DomainError, match=r"lam\*t"):
        seed(FlightParams(2, 1.0, lam), t)


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("lam_t", [0.5, 1.0, 2.0])
def test_one_turn_mass(m, lam_t):
    # oracle: high-resolution radial quadrature of the engine's one-turn
    # layer with r = R sin(u), which absorbs the boundary divergence for
    # m=2 and the log kink for m=3
    p = FlightParams(m, 1.0, lam_t)
    t = 1.0
    R = p.radius(t)
    x, w = np.polynomial.legendre.leggauss(400)
    u = 0.25 * np.pi * (x + 1.0)
    wu = 0.25 * np.pi * w
    r = R * np.sin(u)
    f = seed(p, t).top_values(r)
    if m == 2:
        integrand = 2 * np.pi * r * f
    else:
        integrand = 4 * np.pi * r * r * f
    mass = np.sum(wu * integrand * R * np.cos(u))
    assert mass == pytest.approx(lam_t * math.exp(-lam_t), abs=1e-6)
