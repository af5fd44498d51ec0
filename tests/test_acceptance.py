"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Heavier fixtures
(the twelve-layer planar field, the 1e8-sample Monte Carlo run) are
shared across criteria; the full module targets a laptop-scale budget
of well under fifteen minutes.
"""

import math

import numpy as np
import pytest
from scipy import integrate

from randflight import (CircularGaussianLaw, DensityField, FlightParams,
                        PolarGrid, RadialGrid, StepConfig, UniformLaw,
                        ac_profile, conditional_layer, estimate_density,
                        laplace_identity_error, layer_fourier, next_layer,
                        one_turn_profile, poisson_weight, residual_check,
                        seed_layer, sphere_cf, tail_mass, transition_density,
                        volterra_cf)

P2 = FlightParams(2, 1.0, 1.0)
P3 = FlightParams(3, 1.0, 1.0)

CG_CFG = StepConfig(ladder_slots=32, n_sigma=49, n_theta=16,
                    time_order=12, arc_order=16)


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}", flush=True)
    assert ok, f"{criterion}: {detail}"


def subfield(field: DensityField, K: int) -> DensityField:
    """Truncate an assembled field to its first K layers."""
    return DensityField(field.params, field.t, field.singular,
                        field.layers[:K], field.layer_masses[:K],
                        tail_mass(K, field.params, field.t), law=field.law)


@pytest.fixture(scope="module")
def field_m2():
    grid = RadialGrid.build(P2, 1.0, 40)
    return transition_density(P2, UniformLaw(P2), 1.0, 12, grid)


@pytest.fixture(scope="module")
def field_m3():
    grid = RadialGrid.build(P3, 1.0, 40)
    return transition_density(P3, UniformLaw(P3), 1.0, 6, grid)


@pytest.fixture(scope="module")
def mc_m2():
    """1e8-sample Monte Carlo histogram on centimeter bins."""
    nodes = np.round(np.arange(0.0, 0.991, 0.01), 10)
    grid = RadialGrid(1.0, nodes, 0.01)
    return estimate_density(P2, UniformLaw(P2), 1.0, 100_000_000, grid,
                            conditioning="all", seed=2024,
                            block_size=4_000_000)


def planar_closed_form(r: float) -> float:
    w = math.sqrt(1.0 - r * r)
    return math.exp(-1.0) / (2 * math.pi) * math.exp(w) / w


# --------------------------------------------------------------------------

def test_criterion_1_one_turn_closed_form():
    grid2 = RadialGrid.build(P2, 1.0, 50)
    seed2 = seed_layer(P2, UniformLaw(P2), 1.0, grid2)
    ref2 = one_turn_profile(P2, grid2.nodes, 1.0)
    err2 = float(np.max(np.abs(seed2.values - ref2) / ref2))

    grid3 = RadialGrid.build(P3, 1.0, 50)
    seed3 = seed_layer(P3, UniformLaw(P3), 1.0, grid3)
    ref3 = one_turn_profile(P3, grid3.nodes, 1.0)
    err3 = float(np.max(np.abs(seed3.values - ref3) / ref3))
    report("criterion 1 (one-turn closed form)",
           err2 < 1e-6 and err3 < 1e-10,
           f"m=2 rel {err2:.2e} (tol 1e-6), m=3 rel {err3:.2e} (tol 1e-10)")


def test_criterion_2_two_turn_oracle_m3():
    # independent oracle: nested adaptive quadrature of the two-turn
    # integral in the colatitude variable
    def oracle(r, lam=1.0, c=1.0, t=1.0):
        pref = lam**2 * math.exp(-lam * t) / (16 * math.pi**2 * c**4)

        def cap(tau):
            rho, a = c * (t - tau), c * tau
            d = (a * a - r * r - rho * rho) / (2 * r * rho)
            if d <= -1:
                return 0.0
            g0 = 0.0 if d >= 1 else math.acos(min(1.0, d))

            def h(g):
                s = math.sqrt(r * r + rho * rho + 2 * r * rho * math.cos(g))
                return math.log((a + s) / max(a - s, 1e-300)) / s * math.sin(g)

            val, _ = integrate.quad(h, g0, math.pi, limit=200)
            return 2 * math.pi * rho**2 * val

        val, _ = integrate.quad(
            lambda tau: cap(tau) / (tau * (t - tau) ** 2),
            t / 2 - r / (2 * c), t, limit=400,
            points=[t / 2 + r / (2 * c)])
        return pref * val

    grid = RadialGrid.build(P3, 1.0, 20)
    layer2 = next_layer(P3, UniformLaw(P3),
                        seed_layer(P3, UniformLaw(P3), 1.0, grid))
    worst = 0.0
    for i in range(1, grid.n_r):  # oracle integrand needs r > 0
        ref = oracle(float(grid.nodes[i]))
        worst = max(worst, abs(layer2.values[i] - ref) / ref)
    report("criterion 2 (two-turn oracle, m=3)", worst < 2e-3,
           f"max rel {worst:.2e} over 19 nodes (tol 2e-3)")


def test_criterion_3_poisson_mass_cascade(field_m2):
    worst = 0.0
    detail = []
    for n in range(1, 7):
        target = poisson_weight(n, P2, 1.0)
        got = field_m2.layer_masses[n - 1]
        worst = max(worst, abs(got - target))
        detail.append(f"n={n}:{abs(got - target):.1e}")
    report("criterion 3 (Poisson mass cascade)", worst < 1e-3,
           f"max abs mass defect {worst:.2e} (tol 1e-3); " + " ".join(detail))


def test_criterion_4_three_way_agreement(field_m2, mc_m2):
    series = subfield(field_m2, 8)
    grid = mc_m2.grid
    ok = True
    lines = []
    for r in (0.2, 0.5, 0.8):
        i = int(np.argmin(np.abs(grid.nodes - r)))
        closed = planar_closed_form(float(grid.nodes[i]))
        mc = float(mc_m2.values[i])
        se = float(mc_m2.standard_errors[i])
        ser = float(ac_profile(series, np.array([grid.nodes[i]]))[0])
        # the literature form must agree with the simulation first
        ok &= abs(closed - mc) < 4 * se
        rel_sc = abs(ser - closed) / closed
        rel_sm = abs(ser - mc) / mc
        rel_cm = abs(closed - mc) / mc
        mc_slack = 4 * se / mc
        ok &= rel_sc < 5e-3
        ok &= rel_sm < 5e-3 + mc_slack
        ok &= rel_cm < 5e-3 + mc_slack
        lines.append(f"r={r}: series/closed {rel_sc:.1e}, "
                     f"series/mc {rel_sm:.1e}, closed/mc {rel_cm:.1e} "
                     f"(4se/mc {mc_slack:.1e})")
    report("criterion 4 (three-way agreement)", ok, "; ".join(lines))


def test_criterion_5_integral_equation_residual(field_m2):
    res12 = residual_check(field_m2)
    seq = [residual_check(subfield(field_m2, K)) for K in (2, 4, 6, 8)]
    monotone = all(a > b for a, b in zip(seq, seq[1:]))
    report("criterion 5 (integral-equation residual)",
           res12 <= 1e-3 and monotone,
           f"K=12 residual {res12:.2e} (tol 1e-3); "
           f"K=2,4,6,8 -> {', '.join(f'{v:.1e}' for v in seq)}")


def test_criterion_6_spectral_consistency(field_m2, field_m3):
    ok = True
    details = []
    for params, field in ((P2, subfield(field_m2, 6)), (P3, field_m3)):
        law = UniformLaw(params)
        bound = 1e-3 + field.tail
        worst = 0.0
        for mag in (0.5, 1.0, 2.0, 4.0, 8.0):
            for axis in (0, 1):
                alpha = np.zeros(params.m)
                alpha[axis if params.m == 2 else (0 if axis == 0 else 2)] = mag
                G = volterra_cf(params, law, alpha, 1.0, 1024).values[-1].real
                total = field.singular_weight * sphere_cf(params, law, alpha,
                                                          1.0).real
                for layer in field.layers:
                    total += layer_fourier(layer, params, alpha)
                worst = max(worst, abs(total - G))
        ok &= worst < bound
        details.append(f"m={params.m}: worst {worst:.2e} (bound {bound:.2e})")
    report("criterion 6 (spectral consistency)", ok, "; ".join(details))


def test_criterion_7_laplace_identity():
    worst = 0.0
    for mag in (0.5, 1.0, 2.0):
        err = laplace_identity_error(P2, UniformLaw(P2),
                                     np.array([mag, 0.0]), [0.5, 1.0, 2.0])
        worst = max(worst, err)
    report("criterion 7 (Laplace identity)", worst < 1e-4,
           f"max rel {worst:.2e} over s, |alpha| in {{0.5,1,2}} (tol 1e-4)")


def test_criterion_8_gaussian_degeneration():
    uni = UniformLaw(P2)
    cg0 = CircularGaussianLaw(P2, 0.0)
    cg1 = CircularGaussianLaw(P2, 1.0)
    nodes = np.round(np.arange(0.0, 0.951, 0.05), 10)
    pgrid = PolarGrid(1.0, nodes, -np.pi + 2 * np.pi * np.arange(16) / 16,
                      0.05)
    rgrid = RadialGrid(1.0, nodes, 0.05)

    # k = 0 reproduces the isotropic pipeline node for node
    parity = 0.0
    lu = seed_layer(P2, uni, 1.0, rgrid, CG_CFG)
    lg = seed_layer(P2, cg0, 1.0, pgrid, CG_CFG)
    parity = max(parity, float(np.max(np.abs(lg.values - lu.values[:, None]))))
    for _ in range(2):
        lu = next_layer(P2, uni, lu, config=CG_CFG)
        lg = next_layer(P2, cg0, lg, config=CG_CFG)
        parity = max(parity,
                     float(np.max(np.abs(lg.values - lu.values[:, None]))))

    # k = 1: symmetric under theta -> -theta, skewed toward +x1
    layers = [seed_layer(P2, cg1, 1.0, pgrid, CG_CFG)]
    for _ in range(2):
        layers.append(next_layer(P2, cg1, layers[-1], config=CG_CFG))
    n_th = pgrid.n_theta
    sym = max(float(np.max(np.abs(l.values[:, j] - l.values[:, n_th - j])))
              for l in layers for j in range(1, n_th // 2))
    i05 = int(np.argmin(np.abs(nodes - 0.5)))
    j0 = int(np.argmin(np.abs(pgrid.thetas)))
    jpi = 0  # theta = -pi node
    skew = all(l.values[i05, j0] > l.values[i05, jpi] for l in layers)

    # one-turn skew confirmed against the conditional simulation
    est = estimate_density(P2, cg1, 1.0, 10_000_000, pgrid, conditioning=1,
                           seed=77)
    cond1 = conditional_layer(layers[0], P2)
    mc_ok = True
    for j in (j0, jpi):
        diff = abs(est.values[i05, j] - cond1.values[i05, j])
        mc_ok &= diff < 4 * est.standard_errors[i05, j]
    ok = parity < 1e-6 and sym < 1e-8 and skew and mc_ok
    report("criterion 8 (Gaussian degeneration)", ok,
           f"k=0 parity {parity:.1e} (tol 1e-6), theta-symmetry {sym:.1e}, "
           f"skew {skew}, conditional MC 4-sigma {mc_ok}")


def test_criterion_9_singular_mass():
    ok = True
    details = []
    for lam_t in (0.5, 1.0, 2.0):
        params = FlightParams(2, 1.0, lam_t)
        from randflight import simulate_batch
        _, counts = simulate_batch(params, UniformLaw(params), 1.0,
                                   1_000_000, np.random.default_rng(90))
        p0 = np.count_nonzero(counts == 0) / counts.size
        target = math.exp(-lam_t)
        se = math.sqrt(target * (1 - target) / counts.size)
        ok &= abs(p0 - target) < 4 * se
        details.append(f"lam*t={lam_t}: {p0:.5f} vs {target:.5f} "
                       f"(4se {4 * se:.1e})")
    report("criterion 9 (singular mass)", ok, "; ".join(details))
