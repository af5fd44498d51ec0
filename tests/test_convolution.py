import dataclasses
import math

import numpy as np
import pytest
from scipy import integrate

from randflight import (CircularGaussianLaw, DomainError, FlightParams,
                        PolarGrid, RadialGrid, StepConfig, UniformLaw,
                        ac_profile, conditional_layer, next_layer,
                        one_turn_profile, poisson_weight, residual_check,
                        seed_layer, transition_density)
from randflight import convolution as conv

P2 = FlightParams(2, 1.0, 1.0)
P3 = FlightParams(3, 1.0, 1.0)

# light engine settings for unit tests; acceptance runs the defaults
CFG = StepConfig(ladder_slots=48, n_sigma=49, time_order=12, arc_order=16)


def f_n_planar(n, r, lam=1.0, c=1.0, t=1.0):
    """Oracle: expanding the planar closed-form density in powers of lam
    gives the n-turn joint layer lam^n e^{-lam t} w^{n-2} / (2 pi c^n (n-1)!),
    w = sqrt(c^2 t^2 - r^2).  (Term k of exp((lam/c) w) collects layer k+1.)"""
    w = np.sqrt(np.maximum(c * c * t * t - r * r, 0.0))
    return (lam**n * math.exp(-lam * t) * w ** (n - 2)
            / (2 * math.pi * c**n * math.factorial(n - 1)))


# --------------------------------------------------------------------------
# seed layer
# --------------------------------------------------------------------------

def test_seed_matches_analytic_m2():
    grid = RadialGrid.build(P2, 1.0, 50)
    layer = seed_layer(P2, UniformLaw(P2), 1.0, grid, CFG)
    ref = one_turn_profile(P2, grid.nodes, 1.0)
    assert np.max(np.abs(layer.values - ref) / ref) < 1e-6
    i = int(np.argmin(np.abs(grid.nodes - 0.5)))
    assert layer.values[i] == pytest.approx(
        one_turn_profile(P2, grid.nodes[[i]], 1.0)[0], rel=1e-9)


def test_seed_circular_gaussian_k0_equals_uniform():
    pgrid = PolarGrid.build(P2, 1.0, 24, 16)
    rgrid = RadialGrid.build(P2, 1.0, 24)
    su = seed_layer(P2, UniformLaw(P2), 1.0, rgrid, CFG)
    sg = seed_layer(P2, CircularGaussianLaw(P2, 0.0), 1.0, pgrid, CFG)
    assert np.max(np.abs(sg.values - su.values[:, None])) < 1e-6


def test_seed_circular_gaussian_skew_and_mc():
    # drift toward +x1: value at theta=0 beats theta=pi; confirmed by the
    # conditional Monte Carlo estimate with exactly one turn
    from randflight import estimate_density

    law = CircularGaussianLaw(P2, 1.0)
    grid = PolarGrid.build(P2, 1.0, 24, 16)
    layer = seed_layer(P2, law, 1.0, grid, CFG)
    cond = conditional_layer(layer, P2)
    i = int(np.argmin(np.abs(grid.nodes - 0.5)))
    j0 = int(np.argmin(np.abs(grid.thetas - 0.0)))
    jpi = int(np.argmin(np.abs(grid.thetas + np.pi)))
    assert layer.values[i, j0] > layer.values[i, jpi]

    est = estimate_density(P2, law, 1.0, 2_000_000, grid, conditioning=1,
                           seed=2)
    for j in (j0, jpi):
        se = est.standard_errors[i, j]
        assert abs(est.values[i, j] - cond.values[i, j]) < 4 * se + 5e-3


def test_seed_rejects_bad_grid():
    nodes = np.linspace(0.0, 1.0, 8)  # reaches the support boundary
    grid = RadialGrid(1.0, nodes, 1e-3)
    with pytest.raises(DomainError):
        seed_layer(P2, UniformLaw(P2), 1.0, grid, CFG)


def test_engine_rejects_high_dimension():
    p4 = FlightParams(4, 1.0, 1.0)
    grid = RadialGrid.build(p4, 1.0, 8)
    with pytest.raises(DomainError):
        seed_layer(p4, UniformLaw(p4), 1.0, grid, CFG)


# --------------------------------------------------------------------------
# the recurrence step
# --------------------------------------------------------------------------

def test_next_layer_m2_mass_and_constant_value():
    grid = RadialGrid.build(P2, 1.0, 40)
    layer2 = next_layer(P2, UniformLaw(P2), seed_layer(P2, UniformLaw(P2),
                                                       1.0, grid, CFG),
                        config=CFG)
    assert layer2.n == 2
    assert layer2.ladder.mass() == pytest.approx(
        poisson_weight(2, P2, 1.0), abs=1e-3)
    # two-turn planar joint layer is constant in space
    ref = f_n_planar(2, grid.nodes)
    assert np.max(np.abs(layer2.values - ref) / ref) < 2e-3


def test_next_layer_m3_against_nested_quadrature():
    # oracle: brute-force nested quadrature of the two-turn integral in
    # the colatitude variable (independent of the engine's s-domain path)
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

    grid = RadialGrid.build(P3, 1.0, 24)
    layer2 = next_layer(P3, UniformLaw(P3), seed_layer(P3, UniformLaw(P3),
                                                       1.0, grid, CFG),
                        config=CFG)
    for r in (0.15, 0.45, 0.75):
        i = int(np.argmin(np.abs(grid.nodes - r)))
        ref = oracle(grid.nodes[i])
        assert layer2.values[i] == pytest.approx(ref, rel=2e-3)


def test_layer_cascade_mass_ratios():
    for params in (P2, P3):
        grid = RadialGrid.build(params, 1.0, 33)
        field = transition_density(params, UniformLaw(params), 1.0, 5, grid,
                                   CFG)
        for n in range(1, 5):
            ratio = field.layer_masses[n] / field.layer_masses[n - 1]
            expect = poisson_weight(n + 1, params, 1.0) \
                / poisson_weight(n, params, 1.0)
            assert ratio == pytest.approx(expect, abs=1e-2)


def test_layers_rotation_invariant_via_gaussian_k0():
    cfg = StepConfig(ladder_slots=32, n_sigma=41, n_theta=16,
                     time_order=12, arc_order=16)
    pgrid = PolarGrid.build(P2, 1.0, 20, 16)
    rgrid = RadialGrid.build(P2, 1.0, 20)
    uni, cg0 = UniformLaw(P2), CircularGaussianLaw(P2, 0.0)
    lu = seed_layer(P2, uni, 1.0, rgrid, cfg)
    lg = seed_layer(P2, cg0, 1.0, pgrid, cfg)
    for _ in range(2):
        lu = next_layer(P2, uni, lu, config=cfg)
        lg = next_layer(P2, cg0, lg, config=cfg)
        assert np.max(np.abs(lg.values - lu.values[:, None])) < 1e-6
        # the polar table itself is angle-independent
        assert np.ptp(lg.values, axis=1).max() < 1e-9


def test_conditional_layer_values_and_mass():
    grid = RadialGrid.build(P2, 1.0, 40)
    seed = seed_layer(P2, UniformLaw(P2), 1.0, grid, CFG)
    cond = conditional_layer(seed, P2)
    i = int(np.argmin(np.abs(grid.nodes - 0.5)))
    assert cond.values[i] == pytest.approx(
        one_turn_profile(P2, grid.nodes[[i]], 1.0)[0]
        / poisson_weight(1, P2, 1.0), rel=1e-9)
    # ratio of the established values at r = 1/2 exactly: 1/(2 pi sqrt(3/4))
    at_half = one_turn_profile(P2, np.array([0.5]), 1.0)[0] \
        / poisson_weight(1, P2, 1.0)
    assert at_half == pytest.approx(1.0 / (2 * math.pi * math.sqrt(0.75)),
                                    rel=1e-12)
    assert cond.ladder.mass() / poisson_weight(1, P2, 1.0) == \
        pytest.approx(1.0, abs=1e-3)
    with pytest.raises(DomainError):
        conditional_layer(cond, P2)


def test_conditional_recurrence_cross_check():
    # oracle: independent brute-force evaluation of the conditional
    # recurrence  q2(x,t) = (2/t^2) int tau [q0(t-tau) conv q1(tau)] dtau,
    # with q0 the unit-mass sphere law and q1 the one-turn conditional
    def q2_oracle(r, c=1.0, t=1.0):
        def q1(s, tau):  # conditional one-turn density at time tau
            w = math.sqrt(max(c * c * tau * tau - s * s, 1e-300))
            return 1.0 / (2 * math.pi * c * tau * w)  # lam-free

        def inner(tau):
            rho = c * (t - tau)
            d = (c * c * tau * tau - r * r - rho * rho) / (2 * r * rho)
            if d <= -1:
                return 0.0
            g0 = 0.0 if d >= 1 else math.acos(min(1.0, d))

            def h(g):
                s = math.sqrt(r * r + rho * rho + 2 * r * rho * math.cos(g))
                return q1(min(s, c * tau * (1 - 1e-12)), tau)

            val, _ = integrate.quad(h, g0, math.pi, limit=400)
            return 2 * val / (2 * math.pi)  # both arc branches, chi=1/(2pi)

        val, _ = integrate.quad(lambda tau: tau * inner(tau),
                                t / 2 - r / (2 * c), t, limit=400,
                                points=[t / 2 + r / (2 * c)])
        return 2.0 / t**2 * val

    grid = RadialGrid.build(P2, 1.0, 24)
    layer2 = next_layer(P2, UniformLaw(P2), seed_layer(P2, UniformLaw(P2),
                                                       1.0, grid, CFG),
                        config=CFG)
    cond2 = conditional_layer(layer2, P2)
    for r in (0.3, 0.6):
        i = int(np.argmin(np.abs(grid.nodes - r)))
        assert cond2.values[i] == pytest.approx(q2_oracle(grid.nodes[i]),
                                                rel=1e-3)


# --------------------------------------------------------------------------
# assembled field
# --------------------------------------------------------------------------

def test_transition_density_mass_and_support():
    grid = RadialGrid.build(P2, 1.0, 33)
    field = transition_density(P2, UniformLaw(P2), 1.0, 6, grid, CFG)
    assert field.total_mass() == pytest.approx(1.0, abs=1e-3)
    assert field.singular_weight == pytest.approx(math.exp(-1), rel=1e-14)
    out = ac_profile(field, np.array([1.1, 2.0]))
    assert np.all(out == 0.0)
    inside = ac_profile(field, grid.nodes)
    assert np.all(inside > 0.0)


def test_transition_density_matches_planar_closed_form():
    grid = RadialGrid.build(P2, 1.0, 33)
    field = transition_density(P2, UniformLaw(P2), 1.0, 8, grid, CFG)

    def closed(r):
        w = math.sqrt(1.0 - r * r)
        return math.exp(-1.0) / (2 * math.pi) * math.exp(w) / w

    for r in (0.2, 0.5, 0.8):
        got = ac_profile(field, np.array([r]))[0]
        assert got == pytest.approx(closed(r), rel=2e-3)


def test_residual_negative_control():
    # a stack with layer 3 replaced by a second copy of layer 2 breaks the
    # integral equation; residual_check must see it
    grid = RadialGrid.build(P2, 1.0, 25)
    field = transition_density(P2, UniformLaw(P2), 1.0, 4, grid, CFG)
    L1, L2, _, L4 = field.layers
    broken = dataclasses.replace(field, layers=(L1, L2, L2, L4))
    intact = residual_check(field, CFG)
    assert residual_check(broken, CFG) > 10 * intact


def test_residual_decreases_with_truncation():
    grid = RadialGrid.build(P2, 1.0, 25)
    res = []
    for K in (2, 4, 6):
        field = transition_density(P2, UniformLaw(P2), 1.0, K, grid, CFG)
        res.append(residual_check(field, CFG))
    assert res[0] > res[1] > res[2]
    # dominated by the first dropped layer, whose sup sits at the origin
    assert res[0] == pytest.approx(f_n_planar(3, 0.0), rel=0.1)


def test_layer_and_residual_default_to_the_ladder_config():
    # a layer built at a light resolution keeps that resolution: the next
    # step and the residual need no config to match the explicit calls
    cfg = StepConfig(ladder_slots=8, n_sigma=9, time_order=4, arc_order=4)
    grid = RadialGrid.build(P2, 1.0, 9)
    law = UniformLaw(P2)
    seed = seed_layer(P2, law, 1.0, grid, cfg)
    implicit = next_layer(P2, law, seed)
    explicit = next_layer(P2, law, seed, config=cfg)
    assert implicit.ladder.tab.shape == explicit.ladder.tab.shape
    assert np.array_equal(implicit.values, explicit.values)
    field = transition_density(P2, law, 1.0, 3, grid, cfg)
    assert residual_check(field) == residual_check(field, cfg)


def test_ac_profile_angle_rules():
    cfg = StepConfig(ladder_slots=8, n_sigma=9, n_theta=8, time_order=4,
                     arc_order=4, seed_grade=(1e-1, 1.0))
    pgrid = PolarGrid.build(P2, 1.0, 6, 8)
    field = transition_density(P2, CircularGaussianLaw(P2, 1.0), 1.0, 2,
                               pgrid, cfg)
    r = pgrid.nodes
    # a scalar angle broadcasts against the radii
    assert np.array_equal(ac_profile(field, r, 0.5),
                          ac_profile(field, r, np.full(len(r), 0.5)))
    # a skewed field has no default angle
    with pytest.raises(DomainError):
        ac_profile(field, r)
    # an isotropic field ignores the angle
    rgrid = RadialGrid.build(P2, 1.0, 6)
    iso = transition_density(P2, UniformLaw(P2), 1.0, 2, rgrid, cfg)
    assert np.array_equal(ac_profile(iso, rgrid.nodes, 1.0),
                          ac_profile(iso, rgrid.nodes))


def test_m3_origin_branch_is_continuous():
    # layers 2 (stepped from the closed-form seed) and 3 (from tables) at
    # r = 0 take the origin branch of the step; it must join the regular
    # branch just outside it
    grid = RadialGrid.build(P3, 1.0, 8)
    field = transition_density(P3, UniformLaw(P3), 1.0, 3, grid)
    ct = P3.radius(1.0)
    for layer in field.layers[1:]:
        at0, near = layer.ladder.top_values(np.array([0.0, 1e-6 * ct]))
        assert at0 == pytest.approx(near, rel=1e-6)


# --------------------------------------------------------------------------
# the step as a stored operator
# --------------------------------------------------------------------------

def test_later_layers_share_one_operator():
    grid = RadialGrid.build(P2, 1.0, 12)
    law = UniformLaw(P2)
    field = transition_density(P2, law, 1.0, 5, grid, CFG)
    ops = [layer.ladder.op for layer in field.layers]
    # the seed step is not stored; layers 3..K share the rows built for 3
    assert ops[0] is None and ops[1] is None
    assert all(op is ops[2] for op in ops[3:])
    last = field.layers[-1]
    assert next_layer(P2, law, last).ladder.op is ops[2]
    # another resolution, or another grid, needs rows of its own
    other = dataclasses.replace(CFG, arc_order=12)
    assert next_layer(P2, law, last, config=other).ladder.op is not ops[2]
    moved = next_layer(P2, law, last, grid=RadialGrid.build(P2, 1.0, 7))
    assert moved.ladder.op is not ops[2]
    assert moved.ladder.op.ladder_rows is ops[2].ladder_rows


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("cfg", [CFG, StepConfig()], ids=["light", "default"])
def test_operator_rows_match_the_stencil_applied_at_once(m, cfg):
    # any n >= 2 isotropic ladder: the rows do not depend on its values
    params = FlightParams(m, 0.8, 1.3)
    t = 0.9
    J = cfg.ladder_slots
    sigma = conv._sigma_pattern(cfg.n_sigma, conv._SIGMA_CAP)
    tab = np.random.default_rng(m).uniform(0.5, 1.5, (J + 1, cfg.n_sigma, 1))
    ladder = conv._Ladder(2, params, UniformLaw(params),
                          np.linspace(0.0, t, J + 1), sigma, None, tab, cfg)
    nodes = RadialGrid.build(params, t, 16).nodes
    op = conv._StepOperator.build(ladder, cfg, nodes)
    stored = op.ladder_rows.apply(tab.ravel()).reshape(J, -1)
    once = np.stack([conv._step_values(ladder, sigma * params.radius(T),
                                       np.zeros(1), float(T), cfg)[:, 0]
                     for T in ladder.times[1:]])
    assert np.max(np.abs(stored - once) / once) < 1e-13
    at_nodes = conv._step_values(ladder, nodes, np.zeros(1), t, cfg)[:, 0]
    assert np.max(np.abs(op.node_rows.apply(tab.ravel()) - at_nodes)
                  / at_nodes) < 1e-13
    if cfg == StepConfig():
        # 64 x 65 ladder: about an eighth of the dense 143 MB is nonzero
        rows = (*op.ladder_rows, *op.node_rows)
        assert sum(a.nbytes for a in rows) <= 32 * 2**20


@pytest.mark.parametrize("params,law_of,grid_of", [
    (P2, UniformLaw, lambda p: RadialGrid.build(p, 1.0, 10)),
    (P3, UniformLaw, lambda p: RadialGrid.build(p, 1.0, 10)),
    (P2, lambda p: CircularGaussianLaw(p, 1.0),
     lambda p: PolarGrid.build(p, 1.0, 6, 8)),
], ids=["m2", "m3", "circular-gaussian"])
def test_walk_matches_transition_density(params, law_of, grid_of):
    cfg = StepConfig(ladder_slots=8, n_sigma=9, n_theta=8, time_order=6,
                     arc_order=6, seed_grade=(1e-1, 1.0))
    law, grid = law_of(params), grid_of(params)
    field = transition_density(params, law, 1.0, 4, grid, cfg)
    walk = [seed_layer(params, law, 1.0, grid, cfg)]
    while len(walk) < 4:
        walk.append(next_layer(params, law, walk[-1], config=cfg))
    for a, b in zip(walk, field.layers):
        assert np.array_equal(a.values, b.values)
        assert a.ladder.mass() == b.ladder.mass()


def test_polar_node_values_take_every_angle_at_once():
    cfg = StepConfig(ladder_slots=8, n_sigma=9, n_theta=8, time_order=6,
                     arc_order=6, seed_grade=(1e-1, 1.0))
    grid = PolarGrid.build(P2, 1.0, 6, 8)
    field = transition_density(P2, CircularGaussianLaw(P2, 1.0), 1.0, 3,
                               grid, cfg)
    for layer in field.layers:
        per_angle = np.stack([layer.ladder.top_values(
            grid.nodes, np.full(grid.n_r, th)) for th in grid.thetas], axis=1)
        assert np.array_equal(conv._node_values(layer.ladder, grid),
                              per_angle)
