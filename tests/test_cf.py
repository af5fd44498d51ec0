import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from randflight import (CircularGaussianLaw, DomainError, FlightParams,
                        NumericError, PolarGrid, RadialGrid, StepConfig,
                        UniformLaw, laplace_identity_error, layer_fourier,
                        next_conv_power, poisson_weight, psi_ladder,
                        seed_layer, next_layer, sphere_cf, tail_mass,
                        transition_density, volterra_cf)
from randflight.cf import sphere_cf_values

P2 = FlightParams(2, 1.0, 1.0)
P3 = FlightParams(3, 1.0, 1.0)
PCG = FlightParams(2, 0.7, 1.8)
CFG = StepConfig(ladder_slots=48, n_sigma=49, time_order=12, arc_order=16)


def alpha_vec(m, a):
    v = np.zeros(m)
    v[0] = a
    return v


def test_psi_at_zero_is_one():
    for params, law in ((P2, UniformLaw(P2)), (P3, UniformLaw(P3)),
                        (P2, CircularGaussianLaw(P2, 1.5))):
        assert sphere_cf(params, law, np.zeros(params.m), 1.0) == \
            pytest.approx(1.0, abs=1e-12)


def test_psi_uniform_m2_vanishes_at_bessel_zero():
    # oracle: direct angular quadrature of the circle transform
    a = 2.404825557695773
    th = np.linspace(-np.pi, np.pi, 8193)[:-1]
    ref = np.mean(np.exp(1j * a * np.cos(th)))
    assert abs(ref) < 1e-6
    assert abs(sphere_cf(P2, UniformLaw(P2), alpha_vec(2, a), 1.0)) < 1e-6


def test_psi_uniform_m3_vanishes_at_pi():
    # oracle: colatitude quadrature of the sphere transform
    a = math.pi
    x, w = np.polynomial.legendre.leggauss(200)
    mu = x  # cos(colatitude)
    ref = 0.5 * np.sum(w * np.exp(1j * a * mu))
    assert abs(ref) < 1e-8
    assert abs(sphere_cf(P3, UniformLaw(P3), alpha_vec(3, a), 1.0)) < 1e-8


def test_psi_circular_gaussian_has_imaginary_part():
    # the skewed law couples cos(theta) to the phase: Im psi != 0
    law = CircularGaussianLaw(P2, 2.0)
    val = sphere_cf(P2, law, alpha_vec(2, 1.0), 1.0)
    assert abs(val.imag) > 1e-3
    # but |psi| <= 1 always
    assert abs(val) <= 1.0 + 1e-12


def test_psi_uniform_real_even_bounded():
    law = UniformLaw(P2)
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = rng.uniform(0.0, 10.0)
        v = sphere_cf(P2, law, alpha_vec(2, a), 1.0)
        v_neg = sphere_cf(P2, law, -alpha_vec(2, a), 1.0)
        assert abs(v.imag) < 1e-14
        assert v == pytest.approx(v_neg, abs=1e-14)
        assert abs(v) <= 1.0 + 1e-12


def test_conv_powers_at_zero_frequency():
    # J_n(0, t) = t^n / n!  (iterated integral of one)
    lad = psi_ladder(P2, UniformLaw(P2), np.zeros(2), 1.0, 1024)
    assert lad.values[-1] == pytest.approx(1.0, abs=1e-14)
    for n in range(1, 9):
        lad = next_conv_power(P2, UniformLaw(P2), lad)
        exact = 1.0 / math.factorial(n)
        assert lad.values[-1].real == pytest.approx(exact, rel=1e-4)
        assert abs(lad.values[-1].imag) < 1e-15
    assert lad.n == 8


def test_first_conv_power_against_nested_quadrature():
    # oracle: brute-force nested quadrature of the defining integral
    from randflight.specfun import bessel_j0

    ref, _ = integrate.quad(
        lambda tau: bessel_j0(1.0 - tau) * bessel_j0(tau), 0.0, 1.0,
        limit=200)
    lad = next_conv_power(P2, UniformLaw(P2),
                          psi_ladder(P2, UniformLaw(P2), alpha_vec(2, 1.0),
                                     1.0, 2048))
    assert lad.values[-1].real == pytest.approx(ref, abs=1e-6)


def test_volterra_total_probability():
    G = volterra_cf(P2, UniformLaw(P2), np.zeros(2), 2.0, 1024)
    assert np.max(np.abs(G.values - 1.0)) < 1e-6


def test_volterra_short_time_limit():
    G = volterra_cf(P2, UniformLaw(P2), alpha_vec(2, 2.0), 0.25, 256)
    assert abs(G.values[0] - 1.0) < 1e-12
    assert abs(G.values[5] - 1.0) < 0.01


def test_volterra_matches_series():
    law = UniformLaw(P2)
    alpha = alpha_vec(2, 1.0)
    G = volterra_cf(P2, law, alpha, 1.0, 1024)
    lad = psi_ladder(P2, law, alpha, 1.0, 1024)
    total = math.exp(-1.0) * lad.values[-1]
    for n in range(1, 13):
        lad = next_conv_power(P2, law, lad)
        total += math.exp(-1.0) * lad.values[-1]
    assert abs(total - G.values[-1]) <= 1e-6 + tail_mass(12, P2, 1.0)


def test_volterra_rejects_coarse_ladder():
    with pytest.raises(DomainError):
        volterra_cf(P2, UniformLaw(P2), np.zeros(2), 1.0, 32)


@pytest.mark.parametrize("ladder", [volterra_cf, psi_ladder],
                         ids=["volterra_cf", "psi_ladder"])
@pytest.mark.parametrize("t_max", [0.0, -1.0, math.nan, math.inf],
                         ids=["zero", "negative", "nan", "inf"])
def test_ladder_rejects_bad_t_max(ladder, t_max):
    with pytest.raises(DomainError, match="t_max"):
        ladder(P2, UniformLaw(P2), alpha_vec(2, 1.0), t_max, 64)


@pytest.mark.parametrize("lam_h", [1.0, 2.0, 2.5])
def test_volterra_rejects_fewer_steps_than_turns(lam_h):
    # the alpha = 0 ladder is 1; at lam h = 1 it read 551, at lam h = 2
    # the trapezoid diagonal vanished and it read NaN
    with pytest.raises(DomainError, match="steps"):
        volterra_cf(P2, UniformLaw(P2), np.zeros(2), 64 * lam_h, 64)


def _seed_m3():
    return seed_layer(P3, UniformLaw(P3), 1.0, RadialGrid.build(P3, 1.0, 8),
                      CFG)


@pytest.mark.parametrize("ladder", [
    lambda alpha: volterra_cf(P3, UniformLaw(P3), alpha, 1.0, 64),
    lambda alpha: psi_ladder(P3, UniformLaw(P3), alpha, 1.0, 64),
    lambda alpha: sphere_cf(P3, UniformLaw(P3), alpha, 1.0),
    lambda alpha: layer_fourier(_seed_m3(), P3, alpha),
], ids=["volterra_cf", "psi_ladder", "sphere_cf", "layer_fourier"])
@pytest.mark.parametrize("alpha", [np.ones(2), np.ones(4), 1.0,
                                   np.ones((1, 3)), np.array([1.0, 0, np.nan])],
                         ids=["short", "long", "scalar", "matrix", "nan"])
def test_ladder_rejects_bad_alpha(ladder, alpha):
    # a 2-vector for m = 3 was once normed: G(t=1) read 0.8825,
    # sphere_cf 0.698 and layer_fourier 0.155
    with pytest.raises(DomainError, match="alpha"):
        ladder(alpha)


def _march(params, law, alpha, t_max, steps):
    """The product-trapezoid renewal system solved row by row, O(N^2):
    the reference for the Toeplitz quotient in `volterra_cf`."""
    lam = params.lam
    times = np.linspace(0.0, t_max, steps + 1)
    lh = lam * times[1]
    kern = np.exp(-lam * times) * sphere_cf_values(params, law, alpha, times)
    G = np.empty(steps + 1, dtype=complex)
    G[0] = 1.0
    for i in range(1, steps + 1):
        acc = 0.5 * kern[i] * G[0] + np.dot(kern[1:i][::-1], G[1:i])
        G[i] = (kern[i] + lh * acc) / (1.0 - 0.5 * lh * kern[0])
    return G


@pytest.mark.parametrize("steps", [64, 65, 1000, 4096])
@pytest.mark.parametrize("params, law", [
    (P2, UniformLaw(P2)),
    (P3, UniformLaw(P3)),
    (PCG, CircularGaussianLaw(PCG, 1.3)),
], ids=["m2", "m3", "cg"])
def test_volterra_quotient_matches_the_march(params, law, steps):
    alpha = np.linspace(1.2, 0.4, params.m)
    got = volterra_cf(params, law, alpha, 3.0, steps).values
    ref = _march(params, law, alpha, 3.0, steps)
    assert np.max(np.abs(got - ref)) <= 1e-13


@settings(max_examples=40, deadline=None)
@given(lt=st.floats(0.05, 10.0), lam=st.floats(0.2, 5.0),
       c=st.floats(0.2, 5.0), a=st.floats(0.0, 8.0),
       phi=st.floats(-math.pi, math.pi), k=st.sampled_from([None, 0.6, 2.0]))
def test_volterra_scaling_law(lt, lam, c, a, phi, k):
    # G(alpha, t; lam, c) = G(alpha c / lam, lam t; 1, 1): at equal steps
    # both discrete systems are the same, so they agree to rounding
    def law_of(params):
        return UniformLaw(params) if k is None else \
            CircularGaussianLaw(params, k)
    p = FlightParams(2, c, lam)
    unit = FlightParams(2, 1.0, 1.0)
    alpha = a / (c * lt / lam) * np.array([math.cos(phi), math.sin(phi)])
    got = volterra_cf(p, law_of(p), alpha, lt / lam, 128).values
    ref = volterra_cf(unit, law_of(unit), alpha * c / lam, lt, 128).values
    assert np.max(np.abs(got - ref)) <= 1e-12


def test_laplace_alpha_zero_is_one_over_s():
    # G == 1, so L[G](s) = 1/s; exercised through the identity checker
    err = laplace_identity_error(P2, UniformLaw(P2), np.zeros(2), [1.0])
    assert err < 2e-5


def test_laplace_identity_uniform_m2():
    err = laplace_identity_error(P2, UniformLaw(P2), alpha_vec(2, 1.0),
                                 [0.5, 1.0, 2.0])
    assert err < 1e-4


def test_laplace_tail_control():
    # truncating too early must raise with a bound report
    with pytest.raises(NumericError, match="tail"):
        laplace_identity_error(P2, UniformLaw(P2), alpha_vec(2, 1.0), [0.5],
                               t_max=2.0, steps=1024, tail_tol=1e-9)
    # and the mismatch shrinks as t_max grows
    errs = [laplace_identity_error(P2, UniformLaw(P2), alpha_vec(2, 1.0),
                                   [1.0], t_max=tm, steps=int(tm * 2048),
                                   tail_tol=1.0)
            for tm in (4.0, 8.0, 16.0)]
    assert errs[2] < errs[0]


@pytest.mark.parametrize("params, law, polar", [
    (P2, UniformLaw(P2), False),
    (P3, UniformLaw(P3), False),
    (P2, CircularGaussianLaw(P2, 1.0), True),
], ids=["m2-radial", "m3-radial", "cg-polar"])
def test_layer_fourier_at_zero_is_mass(params, law, polar):
    # mass and transform are one radial moment: bitwise equal at alpha = 0
    grid = PolarGrid.build(params, 1.0, 24, 16) if polar \
        else RadialGrid.build(params, 1.0, 49)
    layers = [seed_layer(params, law, 1.0, grid, CFG)]
    while len(layers) < 3:
        layers.append(next_layer(params, law, layers[-1]))
    for layer in layers:
        got = layer_fourier(layer, params, np.zeros(params.m))
        assert got == layer.ladder.mass()
    assert layer_fourier(layers[0], params, np.zeros(params.m)) == \
        pytest.approx(poisson_weight(1, params, 1.0), rel=1e-9)


# largest miss of layers 1..4 against the 1024-step convolution powers,
# x 1.5: 6.9e-8 (m=2) and 1.9e-7 (m=3, layer 2; 2.0e-7 at 4096 steps)
@pytest.mark.parametrize("params", [P2, P3])
def test_layer_fourier_matches_conv_power(params):
    tol = {2: 1.1e-7, 3: 3.0e-7}[params.m]
    law = UniformLaw(params)
    grid = RadialGrid.build(params, 1.0, 49)
    layer = seed_layer(params, law, 1.0, grid, CFG)
    alpha = alpha_vec(params.m, 1.0)
    lad = psi_ladder(params, law, alpha, 1.0, 1024)
    for n in range(1, 5):
        lad = next_conv_power(params, law, lad)
        ref = math.exp(-1.0) * lad.values[-1].real
        assert abs(layer_fourier(layer, params, alpha) - ref) < tol, n
        layer = next_layer(params, law, layer, config=CFG)


@pytest.mark.parametrize("params", [P2, P3])
def test_spectral_consistency_of_pipelines(params):
    # truncated stack of layer transforms + singular transform vs the
    # Volterra solution, on a small frequency set
    law = UniformLaw(params)
    grid = RadialGrid.build(params, 1.0, 49)
    field = transition_density(params, law, 1.0, 6, grid, CFG)
    bound = 1e-3 + field.tail
    for a in (0.5, 1.5, 3.0):
        alpha = alpha_vec(params.m, a)
        G = volterra_cf(params, law, alpha, 1.0, 1024).values[-1].real
        total = field.singular_weight * sphere_cf(params, law, alpha,
                                                  1.0).real
        for layer in field.layers:
            total += layer_fourier(layer, params, alpha)
        assert abs(total - G) < bound


def test_spectral_consistency_circular_gaussian_real_part():
    # the real parts of both pipelines agree for the skewed law as well
    law = CircularGaussianLaw(P2, 1.0)
    cfg = StepConfig(ladder_slots=32, n_sigma=41, n_theta=16,
                     time_order=12, arc_order=16)
    grid = PolarGrid.build(P2, 1.0, 24, 16)
    field = transition_density(P2, law, 1.0, 5, grid, cfg)
    bound = 3e-3 + field.tail
    for a in (0.5, 1.5):
        alpha = alpha_vec(2, a)
        G = volterra_cf(P2, law, alpha, 1.0, 1024).values[-1].real
        total = field.singular_weight * sphere_cf(P2, law, alpha, 1.0).real
        for layer in field.layers:
            total += layer_fourier(layer, P2, alpha)
        assert abs(total - G) < bound
