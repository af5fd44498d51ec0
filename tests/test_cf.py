import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from randflight import (CircularGaussianLaw, DomainError, FlightParams,
                        NumericError, PolarGrid, RadialGrid, StepConfig,
                        UniformLaw, laplace_identity_error,
                        layer_fourier, poisson_weight, seed_layer, next_layer,
                        sphere_cf, transition_density, volterra_cf)
from randflight import cf
from randflight.cf import sphere_cf_values

P2 = FlightParams(2, 1.0, 1.0)
P3 = FlightParams(3, 1.0, 1.0)
PCG = FlightParams(2, 0.7, 1.8)
CFG = StepConfig(ladder_slots=48, n_sigma=49, time_order=12, arc_order=16)


def alpha_vec(m, a, phi=0.0):
    v = np.zeros(m)
    v[:2] = a * math.cos(phi), a * math.sin(phi)
    return v


def _laplace_psi(law, rho, phi, p, w):
    """L[psi](p) at c = 1 on the contour p = (i rho / 2)(w + 1/w)."""
    if isinstance(law, CircularGaussianLaw):
        th = 2.0 * np.pi * np.arange(4096) / 4096
        chi = law.density_from_axis_cos(np.cos(th)) * (2.0 * np.pi / 4096)
        return (1.0 / (p[:, None] - 1j * rho * np.cos(th - phi))) @ chi
    if law.params.m == 2:  # 1/sqrt(p^2 + rho^2), analytic in w
        return 1.0 / (0.5j * rho * (w - 1.0 / w))
    return np.arctan(rho / p) / rho


def exact_cf(law, alpha, n_max):
    """Oracle: the complex transforms G_0..G_{n_max} given n turns at
    c = t = 1, G_n = n! L^-1[L[psi]^(n+1)](1): the n+1 leg lengths are
    uniform on the simplex.  L[psi] is analytic off the segment
    [-i rho, i rho], so the inversion is the periodic trapezoid rule on
    an ellipse around it, p = (i rho / 2)(w + 1/w) with |w| = e^mu, which
    converges geometrically (Trefethen and Weideman, SIAM Review 2014).
    mu follows the saddle of e^p p^-(n+1): a larger ellipse loses digits
    to e^(rho sinh mu)."""
    rho = float(np.linalg.norm(alpha))
    phi = math.atan2(alpha[1], alpha[0])
    theta = 2.0 * np.pi * np.arange(512) / 512
    out = np.empty(n_max + 1, dtype=complex)
    for n in range(n_max + 1):
        w = np.exp(max(0.08, math.asinh((n + 1) / rho)) + 1j * theta)
        p = 0.5j * rho * (w + 1.0 / w)
        dp = -0.5 * rho * (w - 1.0 / w)  # dp / dtheta
        terms = np.exp(p) * dp * _laplace_psi(law, rho, phi, p, w) ** (n + 1)
        out[n] = math.factorial(n) * terms.sum() / (512j)
    return out


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


def test_exact_cf_matches_the_planar_closed_form():
    # G_n = n 2^(n/2-1) Gamma(n/2) J_{n/2}(rho) / rho^(n/2), G_0 = J0;
    # the worst miss is 1.8e-14 here, 3.3e-14 over 40 values of rho
    law = UniformLaw(P2)
    for rho in np.geomspace(0.05, 60.0, 13):
        n = np.arange(1, 21)
        closed = n * 2.0 ** (n / 2 - 1) * special.gamma(n / 2) \
            * special.jv(n / 2, rho) / rho ** (n / 2)
        got = exact_cf(law, alpha_vec(2, rho), 20)
        assert abs(got[0] - special.j0(rho)) <= 1e-13, rho
        assert np.max(np.abs(got[1:] - closed)) <= 1e-13, rho


def test_first_conv_power_against_nested_quadrature():
    # the oracle at n = 1 and 2 against nested quadrature of the defining
    # time convolutions, complex; psi of the circular Gaussian from its
    # Jacobi-Anger series.  The worst miss is 3.4e-16
    def quad(f, a, b):
        return integrate.quad(f, a, b, complex_func=True, epsabs=1e-13,
                              epsrel=1e-13, limit=200)[0]

    j = np.arange(-40, 41)
    m3, cg = UniformLaw(P3), CircularGaussianLaw(P2, 1.5)
    for law, rho, phi in ((m3, 0.5, 0.0), (m3, 5.0, 0.0), (cg, 0.5, 0.0),
                          (cg, 2.0, 1.0), (cg, 5.0, 2.5)):
        if law is m3:
            def psi(t):
                return complex(np.sinc(rho * t / np.pi))
        else:
            coef = special.ive(j, cg.k) / special.ive(0, cg.k) * 1j ** j \
                * np.exp(-1j * j * phi)

            def psi(t):
                return coef @ special.jv(j, rho * t)

        def two_legs(s):
            return quad(lambda tau: psi(s - tau) * psi(tau), 0.0, s)

        three_legs = 2.0 * quad(lambda s: psi(1.0 - s) * two_legs(s), 0.0, 1.0)
        got = exact_cf(law, alpha_vec(law.params.m, rho, phi), 2)
        assert abs(got[1] - two_legs(1.0)) <= 1e-13, (rho, phi)
        assert abs(got[2] - three_legs) <= 1e-13, (rho, phi)


def test_volterra_total_probability():
    G = volterra_cf(P2, UniformLaw(P2), np.zeros(2), 2.0, 1024)
    assert np.max(np.abs(G.values - 1.0)) < 1e-6


def test_volterra_short_time_limit():
    G = volterra_cf(P2, UniformLaw(P2), alpha_vec(2, 2.0), 0.25, 256)
    assert abs(G.values[0] - 1.0) < 1e-12
    assert abs(G.values[5] - 1.0) < 0.01


# |G(t) - sum_n pi_n(lam t) G_n| of the 2048-step solve at c = t = 1,
# lam t = 0.05, 1, 5, 10; the circular Gaussian (k = 1.5) at phi = 1
VOLTERRA_MISS = {
    ("m2", 0.5): (2.36e-10, 1.53e-8, 2.43e-6, 1.97e-5),
    ("m2", 2.0): (2.28e-9, 2.95e-8, 1.70e-6, 1.65e-5),
    ("m3", 0.5): (1.58e-10, 1.68e-8, 2.45e-6, 1.98e-5),
    ("m3", 2.0): (1.72e-9, 1.68e-8, 1.94e-6, 1.76e-5),
    ("cg", 0.5): (1.67e-10, 1.67e-8, 2.45e-6, 1.98e-5),
    ("cg", 2.0): (1.71e-9, 1.85e-8, 1.92e-6, 1.75e-5),
}


def test_volterra_matches_series():
    # the renewal solve against the exact series, complex: its trapezoid
    # error is O(h^2) and grows with lam t, unchecked by the solve.  45 terms
    # leave a Poisson tail below 1e-15 at lam t = 10
    def law_of(name, p):
        return CircularGaussianLaw(p, 1.5) if name == "cg" else UniformLaw(p)

    for (name, rho), misses in VOLTERRA_MISS.items():
        m = 3 if name == "m3" else 2
        alpha = alpha_vec(m, rho, 1.0 if name == "cg" else 0.0)
        G = exact_cf(law_of(name, FlightParams(m, 1.0, 1.0)), alpha, 45)
        for lam, measured in zip((0.05, 1.0, 5.0, 10.0), misses):
            p = FlightParams(m, 1.0, lam)
            law = law_of(name, p)
            series = np.array([poisson_weight(n, p, 1.0)
                               for n in range(46)]) @ G
            miss = [abs(volterra_cf(p, law, alpha, 1.0, steps).values[-1]
                        - series) for steps in (1024, 2048)]
            case = (name, rho, lam, miss)
            assert miss[1] <= 1.5 * measured, case
            assert 3.5 <= miss[0] / miss[1] <= 4.5, case


def test_volterra_rejects_coarse_ladder():
    for steps in (32, 1024.0, np.float64(1024), "1024", True):
        with pytest.raises(DomainError, match="steps"):
            volterra_cf(P2, UniformLaw(P2), np.zeros(2), 1.0, steps)
    assert volterra_cf(P2, UniformLaw(P2), np.zeros(2), 1.0,
                       np.int64(64)).values.shape == (65,)


def _laplace_at(params, law, alpha, t_max, steps):
    return laplace_identity_error(params, law, alpha, [1.0], t_max=t_max,
                                  steps=steps)


@pytest.mark.parametrize("ladder", [volterra_cf, _laplace_at],
                         ids=["volterra_cf", "laplace_identity_error"])
@pytest.mark.parametrize("t_max", [0.0, -1.0, math.nan, math.inf],
                         ids=["zero", "negative", "nan", "inf"])
def test_ladder_rejects_bad_t_max(ladder, t_max):
    with pytest.raises(DomainError, match="t_max"):
        ladder(P2, UniformLaw(P2), alpha_vec(2, 1.0), t_max, 64)


@pytest.mark.parametrize("params, law", [
    (P2, UniformLaw(P2)),
    (P3, UniformLaw(P3)),
    (P2, CircularGaussianLaw(P2, 1.5)),
], ids=["m2", "m3", "cg"])
@pytest.mark.parametrize("t", [-1.0, math.nan, math.inf],
                         ids=["negative", "nan", "inf"])
def test_sphere_cf_rejects_bad_t(params, law, t):
    # at t = -1 m=3 read sinc(|alpha| c |t|), the circular Gaussian
    # 0.741 - 0.392j, and m=2 failed inside J0; NaN read NaN
    with pytest.raises(DomainError, match="t must be"):
        sphere_cf(params, law, alpha_vec(params.m, 1.0), t)


@pytest.mark.parametrize("lam_h", [1.0, 2.0, 2.5])
def test_volterra_rejects_fewer_steps_than_turns(lam_h):
    # the alpha = 0 ladder is 1; at lam h = 1 it read 551, at lam h = 2
    # the trapezoid diagonal vanished and it read NaN
    with pytest.raises(DomainError, match="steps"):
        volterra_cf(P2, UniformLaw(P2), np.zeros(2), 64 * lam_h, 64)


def _seed_m3():
    return seed_layer(P3, UniformLaw(P3), 1.0, RadialGrid.build(P3, 1.0, 8),
                      CFG)


def test_layer_fourier_rejects_another_flight():
    # the transform integrates the layer's own table; lam = 3 arguments
    # once gave the lam = 1 layer's transform
    with pytest.raises(DomainError, match="differ from the layer"):
        layer_fourier(_seed_m3(), FlightParams(3, 1.0, 3.0), np.zeros(3))


@pytest.mark.parametrize("ladder", [
    lambda alpha: volterra_cf(P3, UniformLaw(P3), alpha, 1.0, 64),
    lambda alpha: _laplace_at(P3, UniformLaw(P3), alpha, 8.0, 128),
    lambda alpha: sphere_cf(P3, UniformLaw(P3), alpha, 1.0),
    lambda alpha: layer_fourier(_seed_m3(), P3, alpha),
], ids=["volterra_cf", "laplace_identity_error", "sphere_cf",
        "layer_fourier"])
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


@pytest.mark.parametrize("law, dtype", [
    (UniformLaw(P2), np.float64),
    (UniformLaw(P3), np.float64),
    (CircularGaussianLaw(P2, 1.5), np.complex128),
    (CircularGaussianLaw(P2, 0.0), np.complex128),
], ids=["m2", "m3", "cg", "cg-k0"])
def test_volterra_keeps_psi_dtype(law, dtype):
    # the isotropic psi is real and so is its solve; the circular
    # Gaussian's is complex even at k = 0
    params = law.params
    got = volterra_cf(params, law, alpha_vec(params.m, 1.0), 1.0, 64)
    assert got.values.dtype == dtype


@pytest.mark.parametrize("n", [1, 2, 3, 64, 65, 1000, 4096])
def test_real_series_quotient_matches_complex(n):
    # rfft keeps half the spectrum, which at n = 2 is as long as the FFT
    rng = np.random.default_rng(n)
    a = np.concatenate([[1.0], rng.uniform(-0.9, 0.9, n - 1) / n])
    b = rng.standard_normal(n)
    got = np.empty(n)
    cf._series_quotient(b, a, got)
    ref = np.empty(n, dtype=complex)
    cf._series_quotient(b.astype(complex), a.astype(complex), ref)
    assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_circular_gaussian_psi_memory_is_bounded(monkeypatch):
    # the 512-angle phase matrix of an 8,192-step ladder once peaked at
    # 128 MB; blocks of _CG_BLOCK times keep it near 18 MB, bitwise equal
    params = FlightParams(2, 1.0, 1.0)
    law = CircularGaussianLaw(params, 1.5)
    alpha = alpha_vec(2, 1.0, 0.5)
    tracemalloc.start()
    try:
        blocked = volterra_cf(params, law, alpha, 1.0, 8192).values
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40e6
    monkeypatch.setattr(cf, "_CG_BLOCK", 10**9)
    assert np.array_equal(volterra_cf(params, law, alpha, 1.0, 8192).values,
                          blocked)


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


@pytest.mark.parametrize("s", [math.nan, math.inf], ids=["nan", "inf"])
def test_laplace_rejects_non_finite_abscissas(s):
    # a NaN abscissa once raised ValueError, an infinite one
    # ZeroDivisionError
    with pytest.raises(DomainError, match="abscissas"):
        laplace_identity_error(P2, UniformLaw(P2), alpha_vec(2, 1.0), [1.0, s])


def test_laplace_alpha_zero_is_one_over_s():
    # G == 1, so L[G](s) = 1/s; exercised through the identity checker
    err = laplace_identity_error(P2, UniformLaw(P2), np.zeros(2), [1.0])
    assert err < 1e-10


def test_laplace_identity_uniform_m2():
    err = laplace_identity_error(P2, UniformLaw(P2), alpha_vec(2, 1.0),
                                 [0.5, 1.0, 2.0])
    assert err < 1e-10


@pytest.mark.parametrize("t_max, steps, tail_tol, match", [
    (8.0, 129, 1e-6, "steps"),
    (100.0, 128, 1e-6, "steps"),
    (8.0, 2048.0, 1e-6, "steps"),
    (8.0, "2048", 1e-6, "steps"),
    (8.0, 128, -1.0, "tail_tol"),
    (8.0, 128, math.nan, "tail_tol"),
], ids=["odd", "half-ladder-coarse", "float-steps", "string-steps",
        "negative-tail-tol", "nan-tail-tol"])
def test_laplace_rejects_bad_ladders(t_max, steps, tail_tol, match):
    # the half ladder of the Richardson step needs an even step count and
    # more than lam * t_max steps of its own; a non-integer steps and a
    # tail_tol that is not positive fail as inputs, not in the arithmetic
    with pytest.raises(DomainError, match=match):
        laplace_identity_error(P2, UniformLaw(P2), alpha_vec(2, 1.0), [1.0],
                               t_max=t_max, steps=steps, tail_tol=tail_tol)


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


def _spectral_case(lam, c, m=2, k=None, mags=(0.5, 1.0, 2.0), steps=28_672):
    """The Laplace check at spectral-check's case, scaled to (lam, c):
    alpha c / lam in ``mags``, s / lam in {0.5, 1, 2}, lam t_max = 56."""
    params = FlightParams(m, c, lam)
    law = UniformLaw(params) if k is None else CircularGaussianLaw(params, k)
    return [laplace_identity_error(params, law, alpha_vec(m, mag * lam / c),
                                   [0.5 * lam, lam, 2.0 * lam],
                                   t_max=56.0 / lam, steps=steps)
            for mag in mags]


@pytest.mark.parametrize("m, k, steps, tol", [
    (2, None, 28_672, 1e-10),
    (3, None, 28_672, 1e-10),
    (2, 1.5, 8_192, 1e-8),
], ids=["m2", "m3", "cg"])
def test_laplace_identity_at_the_spectral_case(m, k, steps, tol):
    # both sides by one rule on one psi ladder: 7e-12 to 8e-12 for the
    # uniform law, 1.2e-9 to 1.5e-9 for the circular Gaussian; reading
    # L[psi] from its own coarser ladder gave 4.6e-6 to 1.3e-5
    assert max(_spectral_case(1.0, 1.0, m, k, steps=steps)) <= tol


def test_laplace_identity_is_split_free():
    # one dimensionless case at three (lam, c, t) splits; the figure
    # once ranged from 1.6e-6 to 1.3e-5 over these
    errs = [_spectral_case(lam, c, mags=(1.0,))[0]
            for lam, c in ((1.0, 1.0), (2.5, 0.4), (0.3, 3.0))]
    assert max(errs) - min(errs) <= 1e-3 * min(errs)


def test_laplace_identity_sees_a_wrong_solve(monkeypatch):
    # a renewal solve off by 1e-7 must read about 1e-7, not hide under
    # the quadrature bias of the check (it once read 8.9e-6 either way)
    quotient = cf._series_quotient

    def scaled(b, a, out):
        quotient(b, a, out)
        out *= 1.0 + 1e-7

    monkeypatch.setattr(cf, "_series_quotient", scaled)
    err = _spectral_case(1.0, 1.0, mags=(1.0,))[0]
    assert 5e-8 <= err <= 2e-7


def test_one_psi_ladder_per_spectral_computation(monkeypatch):
    calls = []

    def spy(*args):
        calls.append(len(args[-1]))
        return sphere_cf_values(*args)

    monkeypatch.setattr(cf, "sphere_cf_values", spy)
    _spectral_case(1.0, 1.0, mags=(1.0,))
    assert calls == [28_673]  # once read on five ladders


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
        assert got == layer.mass()
    assert layer_fourier(layers[0], params, np.zeros(params.m)) == \
        pytest.approx(poisson_weight(1, params, 1.0), rel=1e-9)


# misses of layers 1..4 against the exact transforms, x 1.5 to two digits
# (m=3 layer 2, 2.03e-7, x 1.43, to stay under the earlier bound 3.0e-7);
# layer 1 is the closed-form seed and misses by rounding (5.0e-16 for m=2,
# 5.6e-17 for m=3), so its tolerance is a rounding floor
LAYER_TOL = {2: (1e-14, 2.5e-8, 8.2e-8, 1.7e-9),
             3: (1e-14, 2.9e-7, 3.3e-8, 1.4e-9)}


@pytest.mark.parametrize("params", [P2, P3])
def test_layer_fourier_matches_conv_power(params):
    # the joint layer n's transform is pi_n G_n, G_n the exact (n+1)-fold
    # time convolution power of psi times n!
    law = UniformLaw(params)
    grid = RadialGrid.build(params, 1.0, 49)
    layer = seed_layer(params, law, 1.0, grid, CFG)
    alpha = alpha_vec(params.m, 1.0)
    G = exact_cf(law, alpha, 4)
    for n, tol in enumerate(LAYER_TOL[params.m], start=1):
        ref = poisson_weight(n, params, 1.0) * G[n].real
        assert abs(layer_fourier(layer, params, alpha) - ref) <= tol, n
        layer = next_layer(params, law, layer, config=CFG)


# misses of the conditional circular-Gaussian layers 1..4 (k = 1.5, a
# 24 x 16 polar grid, the default StepConfig) in the real part, per
# (rho, phi_alpha): the baseline for a higher-order angular read.  The
# linear read between table angles sets layers 2-4
CG_LAYER_MISS = {
    (0.5, 0.0): (2.01e-12, 1.06e-3, 2.34e-3, 3.87e-3),
    (2.0, 0.0): (4.53e-11, 5.90e-3, 1.14e-2, 1.66e-2),
    (2.0, 1.0): (1.64e-9, 6.01e-4, 6.73e-4, 4.04e-4),
    (5.0, 2.5): (1.21e-6, 3.56e-3, 8.57e-3, 1.45e-2),
}


def test_circular_gaussian_layers_against_the_exact_transform():
    law = CircularGaussianLaw(P2, 1.5)
    layers = [seed_layer(P2, law, 1.0, PolarGrid.build(P2, 1.0, 24, 16))]
    while len(layers) < 4:
        layers.append(next_layer(P2, law, layers[-1]))
    for (rho, phi), misses in CG_LAYER_MISS.items():
        alpha = alpha_vec(2, rho, phi)
        G = exact_cf(law, alpha, 4)
        for layer, measured in zip(layers, misses):
            cond = layer_fourier(layer, P2, alpha) / layer.weight
            miss = abs(cond - G[layer.n].real)
            assert miss <= 1.5 * measured, (rho, phi, layer.n, miss)


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
