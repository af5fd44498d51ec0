import dataclasses
import math

import numpy as np
import pytest
from scipy import integrate, special

from oracles import one_turn, one_turn_density
from randflight import (CircularGaussianLaw, DensityField, DomainError,
                        FlightParams, NumericError, PolarGrid, RadialGrid,
                        StepConfig, UniformLaw, ac_profile, next_layer,
                        poisson_weight, residual_check, seed_layer, tail_mass,
                        transition_density)
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
    ref = one_turn_density(P2, grid.nodes, 1.0)
    assert np.max(np.abs(layer.values - ref) / ref) < 1e-6
    i = int(np.argmin(np.abs(grid.nodes - 0.5)))
    assert layer.values[i] == pytest.approx(ref[i], rel=1e-9)


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
    cond = layer.values / layer.weight
    i = int(np.argmin(np.abs(grid.nodes - 0.5)))
    j0 = int(np.argmin(np.abs(grid.thetas - 0.0)))
    jpi = int(np.argmin(np.abs(grid.thetas + np.pi)))
    assert layer.values[i, j0] > layer.values[i, jpi]

    est = estimate_density(P2, law, 1.0, 2_000_000, grid, conditioning=1,
                           seed=2)
    for j in (j0, jpi):
        se = est.standard_errors[i, j]
        assert abs(est.values[i, j] - cond[i, j]) < 4 * se + 5e-3


def test_seed_rejects_bad_grid():
    nodes = np.linspace(0.0, 1.0, 8)  # reaches the support boundary
    grid = RadialGrid(1.0, nodes, 1e-3)
    with pytest.raises(DomainError):
        seed_layer(P2, UniformLaw(P2), 1.0, grid, CFG)


_BAD_RESOLUTIONS = [
    ({"n_sigma": 33.5}, "n_sigma"),      # passed as odd, 1.1% off
    ({"n_theta": 16.0}, "n_theta"),
    ({"time_order": 0}, "time_order"),   # numpy's "deg must be a positive
    ({"arc_order": 0}, "arc_order"),     # integer"
    ({"time_order": 2.5}, "time_order"),
    ({"K": 2.5}, "K"),                   # TypeError in range()
    ({"K": True}, "K"),
]


@pytest.mark.parametrize("bad, name", _BAD_RESOLUTIONS,
                         ids=[f"{k}={v}" for kw, _ in _BAD_RESOLUTIONS
                              for k, v in kw.items()])
def test_engine_rejects_bad_resolutions(bad, name):
    fields = {"n_sigma": 9, "time_order": 4, "arc_order": 4, **bad}
    K = fields.pop("K", 2)
    grid = RadialGrid.build(P2, 1.0, 8)
    with pytest.raises(DomainError, match=rf"\b{name}\b"):
        transition_density(P2, UniformLaw(P2), 1.0, K, grid,
                           StepConfig(**fields))


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
    assert layer2.mass() == pytest.approx(
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
    # the layer given n turns is the joint layer over its weight, and in
    # scaled units (c = t = 1 here) its g_at_nodes
    grid = RadialGrid.build(P2, 1.0, 40)
    seed = seed_layer(P2, UniformLaw(P2), 1.0, grid, CFG)
    assert seed.weight == poisson_weight(1, P2, 1.0)
    cond = seed.values / seed.weight
    np.testing.assert_allclose(seed.g_at_nodes[:, 0], cond, rtol=1e-15)
    assert cond[0] == pytest.approx(1.0 / (2 * math.pi), rel=1e-9)
    i = int(np.argmin(np.abs(grid.nodes - 0.5)))
    assert cond[i] == pytest.approx(one_turn(2, grid.nodes[i]), rel=1e-9)
    # ratio of the established values at r = 1/2 exactly: 1/(2 pi sqrt(3/4))
    at_half = one_turn_density(P2, np.array([0.5]), 1.0)[0] \
        / poisson_weight(1, P2, 1.0)
    assert at_half == pytest.approx(1.0 / (2 * math.pi * math.sqrt(0.75)),
                                    rel=1e-12)
    # the conditional layer's mass is 1
    assert seed.mass() / seed.weight == pytest.approx(1.0, abs=1e-3)
    np.testing.assert_allclose(seed.top_values(grid.nodes) / seed.weight, cond,
                               rtol=1e-9)
    layer2 = next_layer(P2, UniformLaw(P2), seed)
    assert layer2.mass() / layer2.weight == pytest.approx(1.0, abs=1e-3)
    np.testing.assert_array_equal(layer2.top_values(grid.nodes), layer2.values)


P_FAST = FlightParams(2, 1.0, 3.0)
TINY_CFG = StepConfig(n_sigma=9, n_theta=8, time_order=4, arc_order=4)


def test_next_layer_rejects_another_flight():
    # stepping a lam = 1 seed with lam = 3 arguments once returned the
    # lam = 1 layer 2: the step reads the layer's own table
    seed = seed_layer(P2, UniformLaw(P2), 1.0, RadialGrid.build(P2, 1.0, 8),
                      TINY_CFG)
    for params, law in ((P_FAST, UniformLaw(P_FAST)),
                        (P2, CircularGaussianLaw(P2, 0.0))):
        with pytest.raises(DomainError, match="differ from the layer"):
            next_layer(params, law, seed)
    cg = seed_layer(P2, CircularGaussianLaw(P2, 1.0), 1.0,
                    PolarGrid.build(P2, 1.0, 4, 8), TINY_CFG)
    with pytest.raises(DomainError, match="differ from the layer"):
        next_layer(P2, CircularGaussianLaw(P2, 2.0), cg)
    assert next_layer(P2, CircularGaussianLaw(P2, 1.0), cg).n == 2


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
    cond2 = layer2.values / layer2.weight
    for r in (0.3, 0.6):
        i = int(np.argmin(np.abs(grid.nodes - r)))
        assert cond2[i] == pytest.approx(q2_oracle(grid.nodes[i]), rel=1e-3)


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


def test_radii_must_be_finite_and_nonnegative():
    # ac_profile(field, [-0.5]) once read the layers at |r| = 0.5 and NaN
    # read 0
    grid = RadialGrid.build(P2, 1.0, 8)
    field = transition_density(P2, UniformLaw(P2), 1.0, 2, grid, CFG)
    for bad in (-0.5, np.nan, np.inf, -np.inf):
        with pytest.raises(DomainError):
            ac_profile(field, np.array([0.3, bad]))
        for layer in field.layers:
            with pytest.raises(DomainError):
                layer.top_values(np.array([bad]))
    assert ac_profile(field, np.array([0.0, 0.3]))[0] > 0.0


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


def test_residual_needs_one_grid():
    # it sums the layers' stored node values, which live on each layer's
    # own grid
    law = UniformLaw(P2)
    seed = seed_layer(P2, law, 1.0, RadialGrid.build(P2, 1.0, 10), TINY_CFG)
    other = next_layer(P2, law, seed_layer(P2, law, 1.0,
                                           RadialGrid.build(P2, 1.0, 12),
                                           TINY_CFG))
    field = DensityField(P2, 1.0, (seed, other), (seed.mass(), other.mass()),
                         tail_mass(2, P2, 1.0), law=law)
    with pytest.raises(DomainError, match="one grid"):
        residual_check(field)


def test_layer_and_residual_default_to_the_ladder_config():
    # a layer built at a light resolution keeps that resolution: the next
    # step and the residual need no config to match the explicit calls
    cfg = StepConfig(ladder_slots=8, n_sigma=9, time_order=4, arc_order=4)
    grid = RadialGrid.build(P2, 1.0, 9)
    law = UniformLaw(P2)
    seed = seed_layer(P2, law, 1.0, grid, cfg)
    implicit = next_layer(P2, law, seed)
    explicit = next_layer(P2, law, seed, config=cfg)
    assert implicit.tab.shape == explicit.tab.shape
    assert np.array_equal(implicit.values, explicit.values)
    field = transition_density(P2, law, 1.0, 3, grid, cfg)
    assert residual_check(field) == residual_check(field, cfg)


def test_ac_profile_angle_rules():
    cfg = StepConfig(ladder_slots=8, n_sigma=9, n_theta=8, time_order=4,
                     arc_order=4)
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
    # nor a non-finite one: NaN once read NaN, and inf warned and read NaN
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(DomainError, match="theta"):
            ac_profile(field, r, bad)
        for layer in field.layers:
            with pytest.raises(DomainError, match="theta"):
                layer.top_values(r, np.full(len(r), bad))
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
        at0, near = layer.top_values(np.array([0.0, 1e-6 * ct]))
        assert at0 == pytest.approx(near, rel=1e-6)


# --------------------------------------------------------------------------
# one table per layer, read by exact scaling
# --------------------------------------------------------------------------

def test_graded_seed_step_runs_once_per_field(monkeypatch):
    # layer 2's values at the grid nodes come with its table; ac_profile
    # and both sides of residual_check reuse them
    grid = RadialGrid.build(P2, 1.0, 12)
    at_nodes = []
    step = conv._step_values

    def counted(layer, r, th, cfg, *rest):
        if layer.n == 1:
            at_nodes.append(np.array_equal(r, grid.nodes))
        return step(layer, r, th, cfg, *rest)

    monkeypatch.setattr(conv, "_step_values", counted)
    field = transition_density(P2, UniformLaw(P2), 1.0, 4, grid, CFG)
    ac_profile(field, grid.nodes)
    residual_check(field)
    # one step to the table's nodes, one to the grid nodes
    assert sorted(at_nodes) == [False, True]


@pytest.mark.parametrize("lam_t", [0.05, 1.0, 10.0])
@pytest.mark.parametrize("m,k", [(2, None), (3, None), (2, 1.5)],
                         ids=["2", "3", "cg1.5"])
def test_conditional_layers_are_self_similar(m, k, lam_t):
    # given n turns, X(t)/(ct) has a law free of lam, c and t: the tables
    # are those of the unit flight bit for bit, and conditional layers
    # (values over weight) times (ct)^m, on grids scaled with ct, match it
    # at every lam t.  The circular Gaussian's arc reads once cancelled at
    # ct != 1 and missed by 1.3e-8
    cfg = StepConfig(n_sigma=17, n_theta=8, time_order=8, arc_order=8)

    def scaled(lam, c, t):
        params = FlightParams(m, c, lam)
        if k is None:
            law, grid = UniformLaw(params), RadialGrid.build(params, t, 12)
        else:
            law = CircularGaussianLaw(params, k)
            grid = PolarGrid.build(params, t, 12, 8)
        field = transition_density(params, law, t, 4, grid, cfg)
        return [(layer.tab,
                 layer.values / layer.weight * params.radius(t) ** m)
                for layer in field.layers]

    for (tab, a), (tab1, b) in zip(scaled(2.5, 0.4, lam_t / 2.5),
                                   scaled(1.0, 1.0, 1.0)):
        assert tab is tab1 is None or np.array_equal(tab, tab1)
        assert np.all(np.abs(a - b) <= 1e-12 * b)


@pytest.fixture(scope="module")
def planar_deep_layers():
    # planar-deep's resolution: n_sigma = 25, 40 grid nodes, K = 12
    cfg = StepConfig(n_sigma=25)
    out = {}
    for lam_t in (0.25, 1.0, 5.0):
        params = FlightParams(2, 1.0, lam_t)
        grid = RadialGrid.build(params, 1.0, 40)
        field = transition_density(params, UniformLaw(params), 1.0, 12, grid,
                                   cfg)
        out[lam_t] = (grid, field.layers)
    return out


# largest relative error against the closed form over the grid nodes,
# measured at lam t in {0.25, 1, 5} (the same at each to 3 digits), x 1.5
PLANAR_TOL = {2: 9.7e-9, 3: 1.4e-4, 4: 1.7e-4, 5: 3.8e-4, 6: 7.0e-4,
              7: 1.1e-3, 8: 1.5e-3, 9: 1.8e-3, 10: 2.2e-3, 11: 2.6e-3,
              12: 3.0e-3}


@pytest.mark.parametrize("n", range(2, 13))
def test_layers_match_the_planar_closed_form(planar_deep_layers, n):
    for lam_t, (grid, layers) in planar_deep_layers.items():
        ref = f_n_planar(n, grid.nodes, lam=lam_t)
        err = np.max(np.abs(layers[n - 1].values - ref) / ref)
        assert err < PLANAR_TOL[n], lam_t


def test_m3_origin_step_takes_every_time_node_at_once():
    # the origin branch of the m=3 step from the seed evaluates the
    # one-turn profile at all its time nodes in one call
    tau = np.linspace(0.5, 1.0, 66)[1:-1]
    rho = P3.c * (1.0 - tau)
    once = conv._one_turn_shape(rho / tau)
    each = np.array([conv._one_turn_shape(np.array([r / t]))[0]
                     for r, t in zip(rho, tau)])
    assert np.max(np.abs(once - each) / each) <= 1e-15


_FIELD_CASES = [
    (P2, UniformLaw, lambda p: RadialGrid.build(p, 1.0, 10)),
    (P3, UniformLaw, lambda p: RadialGrid.build(p, 1.0, 10)),
    (P2, lambda p: CircularGaussianLaw(p, 1.0),
     lambda p: PolarGrid.build(p, 1.0, 6, 8)),
]


@pytest.mark.parametrize("params,law_of,grid_of", _FIELD_CASES,
                         ids=["m2", "m3", "circular-gaussian"])
def test_seed_grade_is_accepted_and_unused(params, law_of, grid_of):
    # the step from the seed takes one tanh-sinh rule per panel: a
    # seed_grade, which once set its decade-graded panels, changes nothing
    cfg = StepConfig(n_sigma=9, n_theta=8, time_order=4, arc_order=4)
    law, grid = law_of(params), grid_of(params)
    fields = [transition_density(params, law, 1.0, 3, grid, c) for c in
              (cfg, dataclasses.replace(cfg, seed_grade=(1e-1, 1.0)))]
    assert fields[0].layer_masses == fields[1].layer_masses
    for a, b in zip(*(f.layers for f in fields)):
        assert np.array_equal(a.at_nodes, b.at_nodes)
        assert a.tab is b.tab is None or np.array_equal(a.tab, b.tab)


@pytest.mark.parametrize("m", [2, 3])
def test_seed_step_time_rule_on_each_panel(m):
    # the step that consumes the one-turn layer: 4 time_order tanh-sinh
    # nodes on the cap panel (tau_-, tau_+), the full-sphere panel
    # (tau_+, 1) and the origin's (1/2, 1), strictly inside each (these
    # panels are wider than a sixth of their upper end), with positive
    # weights that integrate 1 and the log spike at the upper end
    params = FlightParams(m, 1.0, 1.0)
    layer = seed_layer(params, UniformLaw(params), 1.0,
                       RadialGrid.build(params, 1.0, 8), CFG)
    n, sig = 4 * CFG.time_order, np.array([0.3, 0.5])
    tau, wt = conv._time_rule(layer, sig, CFG)
    assert tau.shape == wt.shape == (len(sig), 2 * n)
    tm, tp = 0.5 - 0.5 * sig, 0.5 + 0.5 * sig
    panels = [(tau[i, :n], wt[i, :n], tm[i], tp[i]) for i in range(len(sig))]
    panels += [(tau[i, n:], wt[i, n:], tp[i], 1.0) for i in range(len(sig))]
    panels.append((*conv._time_rule(layer, None, CFG), 0.5, 1.0))
    for nodes, w, a, b in panels:
        width = b - a
        assert nodes.shape == (n,)
        assert np.all((nodes > a) & (nodes < b)), (a, b)
        assert np.all(w > 0.0)
        assert abs(np.sum(w) - width) <= 1e-14 * width, (a, b)
        exact = width * (math.log(width) - 1.0)
        assert abs(np.sum(w * np.log(b - nodes)) - exact) <= 1e-13, (a, b)


def test_joint_layers_keep_their_bits_where_the_weight_is_subnormal():
    # at t = 1e-160, pi_2 = 5e-321 is subnormal and pi_3 underflows to 0;
    # the joint factor pi_n (ct)^-m, formed in log space, is normal.
    # Applied as the weight first, layer 2 read 1.5e-3 off here (4.1e-4 at
    # the default StepConfig) and layer 3 read exactly 0
    t = 1e-160
    field = transition_density(P2, UniformLaw(P2), t, 3,
                               RadialGrid.build(P2, t, 8),
                               StepConfig(n_sigma=9, time_order=4,
                                          arc_order=4))
    for layer, scale in zip(field.layers[1:], (0.5, t / 6.0)):
        want = scale * math.exp(-t) * layer.g_at_nodes
        assert np.all(want > 0.0)
        assert np.all(np.abs(layer.at_nodes - want) <= 1e-13 * want), layer.n


@pytest.mark.parametrize("params,law_of,grid_of", _FIELD_CASES,
                         ids=["m2", "m3", "circular-gaussian"])
def test_walk_matches_transition_density(params, law_of, grid_of):
    cfg = StepConfig(ladder_slots=8, n_sigma=9, n_theta=8, time_order=6,
                     arc_order=6)
    law, grid = law_of(params), grid_of(params)
    field = transition_density(params, law, 1.0, 4, grid, cfg)
    walk = [seed_layer(params, law, 1.0, grid, cfg)]
    while len(walk) < 4:
        walk.append(next_layer(params, law, walk[-1], config=cfg))
    for a, b in zip(walk, field.layers):
        assert np.array_equal(a.values, b.values)
        assert a.mass() == b.mass()


@pytest.mark.parametrize("params,law_of,grid_of", _FIELD_CASES,
                         ids=["m2", "m3", "circular-gaussian"])
def test_layer_state_is_explicit(monkeypatch, params, law_of, grid_of):
    # values are at_nodes clipped at 0 in the grid's shape, the uniform
    # radial seed's too: building and walking a field never evaluates
    # the hypergeometric series, which once gave that seed's values
    series_calls = []
    series = conv.gauss_2f1

    def spy(*args, **kwargs):
        series_calls.append(args)
        return series(*args, **kwargs)

    monkeypatch.setattr(conv, "gauss_2f1", spy)
    cfg = StepConfig(n_sigma=9, n_theta=8, time_order=6, arc_order=6)
    law, grid = law_of(params), grid_of(params)
    field = transition_density(params, law, 1.0, 4, grid, cfg)
    polar = isinstance(grid, PolarGrid)
    walk = field.layers + (next_layer(params, law, field.layers[-1]),)
    mid = 0.5 * (grid.nodes[1:] + grid.nodes[:-1])
    ac_profile(field, mid[:, None] if polar else mid,
               grid.thetas[None, :] if polar else None)
    residual_check(field)
    assert series_calls == []
    for layer in walk:
        want = np.maximum(layer.at_nodes, 0.0)
        want = np.broadcast_to(want, (grid.n_r, grid.n_theta)) if polar \
            else want[:, 0]
        assert np.array_equal(layer.values, want), layer.n

    def forbidden(*args, **kwargs):
        raise AssertionError("node values were recomputed")

    # at the grid nodes ac_profile sums the stored values: it steps and
    # evaluates nothing
    monkeypatch.setattr(conv, "_step_values", forbidden)
    monkeypatch.setattr(conv, "_seed_values", forbidden)
    total = sum(layer.at_nodes for layer in field.layers)
    if polar:
        got = ac_profile(field, grid.nodes[:, None], grid.thetas[None, :])
        assert np.array_equal(got, total)
    else:
        assert np.array_equal(ac_profile(field, grid.nodes), total[:, 0])


def _count_geometry_builds(monkeypatch):
    """Spy on regular step geometry builds (consumed layer n >= 2): one
    entry per build, True where its targets are grid nodes."""
    builds = []
    build = conv._geometry

    def counted(layer, r, *rest):
        if layer.n >= 2:
            builds.append(np.array_equal(r, layer.grid.nodes))
        return build(layer, r, *rest)

    monkeypatch.setattr(conv, "_geometry", counted)
    return builds


_GEOMETRY_CFG = StepConfig(n_sigma=9, n_theta=8, time_order=6, arc_order=6)


@pytest.mark.parametrize("params,law_of,grid_of", _FIELD_CASES,
                         ids=["m2", "m3", "circular-gaussian"])
def test_regular_step_geometry_is_built_once_per_field(monkeypatch, params,
                                                       law_of, grid_of):
    # the step from layer 2 builds it at the table and at the grid nodes;
    # the steps to layers 4..K and the residual's step of layer K reuse it
    builds = _count_geometry_builds(monkeypatch)
    law, grid = law_of(params), grid_of(params)
    field = transition_density(params, law, 1.0, 6, grid, _GEOMETRY_CFG)
    ac_profile(field, grid.nodes[:, None],
               grid.thetas[None, :] if isinstance(grid, PolarGrid) else None)
    residual_check(field)
    assert sorted(builds) == [False, True]
    assert all(layer.geometry is field.layers[2].geometry
               for layer in field.layers[2:])


@pytest.mark.parametrize("params,law_of,grid_of", _FIELD_CASES,
                         ids=["m2", "m3", "circular-gaussian"])
def test_stencils_are_formed_only_with_a_geometry(monkeypatch, params, law_of,
                                                  grid_of):
    # each read's stencil and base are formed once per block of targets
    # while a geometry is built: the seed step's (planar; the m=3 seed is
    # read through its closed form) and the step from layer 2's, at the
    # table and the grid nodes.  The steps to layers 4..6 and the
    # residual's step read the kept ones
    formed = []
    stencil = conv._stencil

    def counted(layer, *rest):
        formed.append(layer.n)
        return stencil(layer, *rest)

    monkeypatch.setattr(conv, "_stencil", counted)
    law, grid = law_of(params), grid_of(params)
    field = transition_density(params, law, 1.0, 6, grid, _GEOMETRY_CFG)
    ac_profile(field, grid.nodes[:, None],
               grid.thetas[None, :] if isinstance(grid, PolarGrid) else None)
    residual_check(field)
    blocks = sum(len(list(conv._blocks(r)))  # ct = 1
                 for r in (field.layers[1].sigma, grid.nodes))
    assert formed == [1] * blocks * (params.m == 2) + [2] * blocks


def test_unused_config_fields_keep_the_geometry(monkeypatch):
    # == and the hash of StepConfig ignore ladder_slots and seed_grade,
    # which no step reads: a layer built with others, stepped at the
    # default config, reuses its kept geometry and node values
    law, grid = UniformLaw(P2), RadialGrid.build(P2, 1.0, 10)
    built = StepConfig(ladder_slots=8, seed_grade=(1e-1, 1.0))
    assert built == StepConfig() and hash(built) == hash(StepConfig())
    field = transition_density(P2, law, 1.0, 3, grid, built)
    builds = _count_geometry_builds(monkeypatch)
    at_default = next_layer(P2, law, field.layers[-1], config=StepConfig())
    assert builds == []
    assert np.array_equal(at_default.values,
                          next_layer(P2, law, field.layers[-1]).values)
    assert residual_check(field, StepConfig()) == residual_check(field)
    assert builds == []


def test_new_grid_or_config_builds_new_geometry(monkeypatch):
    grid = RadialGrid.build(P2, 1.0, 10)
    law = UniformLaw(P2)
    field = transition_density(P2, law, 1.0, 4, grid, _GEOMETRY_CFG)
    last = field.layers[-1]
    builds = _count_geometry_builds(monkeypatch)
    assert next_layer(P2, law, last).geometry is last.geometry
    assert builds == []
    finer = dataclasses.replace(_GEOMETRY_CFG, time_order=8)
    next_layer(P2, law, last, config=finer)
    assert sorted(builds) == [False, True]
    # at another config the residual steps layers 2..4 afresh
    builds.clear()
    residual_check(field, finer)
    assert builds == [True, True, True]


@pytest.mark.parametrize("params,law_of,grid_of", _FIELD_CASES,
                         ids=["m2", "m3", "circular-gaussian"])
def test_reused_geometry_steps_as_a_fresh_one(params, law_of, grid_of):
    law, grid = law_of(params), grid_of(params)
    field = transition_density(params, law, 1.0, 5, grid, _GEOMETRY_CFG)
    last = field.layers[-1]
    bare = dataclasses.replace(last, geometry=None)
    reused, fresh = next_layer(params, law, last), next_layer(params, law, bare)
    assert reused.geometry is last.geometry
    assert fresh.geometry is not last.geometry
    for a, b in ((reused.at_nodes, fresh.at_nodes), (reused.tab, fresh.tab),
                 (reused.values, fresh.values)):
        assert np.array_equal(a, b)
    assert reused.mass() == fresh.mass()
    stripped = dataclasses.replace(field, layers=field.layers[:-1] + (bare,))
    assert residual_check(field) == residual_check(stripped)


@pytest.mark.parametrize("lam_t", [720.0, 800.0])
@pytest.mark.parametrize("m", [2, 3])
def test_large_lam_t_gives_a_finite_field(m, lam_t):
    # exp(lam (t - tau)) in the table read overflowed from lam t = 700
    # (m=2) and 720 (m=3) and turned the layer masses into NaN; the step
    # kernel's exp(-lam (t - tau)) cancels it exactly
    cfg = StepConfig(n_sigma=9, time_order=4, arc_order=4)

    def field_at(params):
        return transition_density(params, UniformLaw(params), 1.0, 4,
                                  RadialGrid.build(params, 1.0, 8), cfg)

    params, unit = FlightParams(m, 1.0, lam_t), FlightParams(m, 1.0, 1.0)
    field, ref = field_at(params), field_at(unit)
    for layer in field.layers:
        assert np.all(np.isfinite(layer.at_nodes))
    assert np.all(np.isfinite(ac_profile(field, field.layers[0].grid.nodes)))
    assert field.total_mass() == pytest.approx(1.0, abs=1e-12)
    # self-similar layers: mass over Poisson weight is free of lam, where
    # the weight does not underflow
    for n, (mass, mass1) in enumerate(zip(field.layer_masses,
                                          ref.layer_masses), 1):
        assert np.isfinite(mass) and mass >= 0.0
        w = poisson_weight(n, params, 1.0)
        if w > 0.0:
            assert mass / w == pytest.approx(
                mass1 / poisson_weight(n, unit, 1.0), rel=1e-9)


@pytest.mark.parametrize("t", [1e-80, 1e-150])
@pytest.mark.parametrize("m", [2, 3])
def test_small_t_gives_self_similar_masses(m, t):
    # stepped in physical units, the step's lengths fell below its 1e-300
    # guards: the m=2 layer 2 read mass / pi_2 - 1 = -1.0 at t = 1e-80
    # while total_mass() still read 1, and the m=3 layer 2 read 0 at 1e-150
    cfg = StepConfig(n_sigma=9, time_order=4, arc_order=4)
    params = FlightParams(m, 1.0, 1.0)

    def field_at(t):
        return transition_density(params, UniformLaw(params), t, 3,
                                  RadialGrid.build(params, t, 8), cfg)

    field, ref = field_at(t), field_at(1.0)
    for n, (mass, mass1) in enumerate(zip(field.layer_masses,
                                          ref.layer_masses), 1):
        w = poisson_weight(n, params, t)
        if w >= np.finfo(float).tiny:  # a normal float
            assert mass / w == pytest.approx(
                mass1 / poisson_weight(n, params, 1.0), rel=1e-12), n
    assert field.total_mass() == pytest.approx(1.0, abs=1e-12)


def test_density_beyond_the_float_range_raises():
    # the m=3 one-turn layer near r = 0 is about t / (ct)^3: it overflows
    # from t ~ 1e-155, where the field once read NaN and, at t = 1e-200,
    # raised a bare ZeroDivisionError
    params = FlightParams(3, 1.0, 1.0)
    for t in (1e-160, 1e-200):
        with pytest.raises(NumericError, match=f"t={t!r}"):
            transition_density(params, UniformLaw(params), t, 3,
                               RadialGrid.build(params, t, 8))


def test_polar_at_nodes_take_every_angle_at_once():
    cfg = StepConfig(ladder_slots=8, n_sigma=9, n_theta=8, time_order=6,
                     arc_order=6)
    grid = PolarGrid.build(P2, 1.0, 6, 8)
    field = transition_density(P2, CircularGaussianLaw(P2, 1.0), 1.0, 3,
                               grid, cfg)
    # ct = 1: the scaled radii are the grid nodes
    for layer in field.layers:
        if layer.source is None:
            per_angle = [conv._seed_values(2, layer.law, grid.nodes,
                                           np.full(grid.n_r, th))
                         for th in grid.thetas]
        else:
            per_angle = [conv._step_values(layer.source, grid.nodes,
                                           np.array([th]), layer.cfg)[:, 0]
                         for th in grid.thetas]
        assert np.array_equal(layer.g_at_nodes, np.stack(per_angle, axis=1))


# --------------------------------------------------------------------------
# the angular read
# --------------------------------------------------------------------------

@pytest.mark.parametrize("lam,c,t", [(1.0, 1.0, 1.0), (2.3, 0.7, 1.6),
                                     (0.2, 1.0, 0.5)])
@pytest.mark.parametrize("k", [0.5, 2.0, -1.5, 5.0])
def test_circular_gaussian_layers_are_even_in_theta(k, lam, c, t):
    # the law is symmetric about the x1 axis, so is every layer; the grid
    # and table angles -pi + 2 pi j / n reflect to column (-j) mod n.  The
    # engine evaluates each mirrored pair once (`conv._fold`), so this
    # holds by construction; the unfolded `_reference_step` of
    # test_angular_read_matches_the_pointwise_reference can still fail
    params = FlightParams(2, c, lam)
    field = transition_density(params, CircularGaussianLaw(params, k), t, 4,
                               PolarGrid.build(params, t, 16, 16))
    for layer in field.layers:
        for a in (layer.at_nodes, layer.tab):
            n = a.shape[1]
            mirror = a[:, -np.arange(n) % n]
            assert np.max(np.abs(a - mirror)) <= 1e-13 * np.max(np.abs(a)), \
                layer.n


def _reference_step(layer, sig, th):
    """Oracle: the step from ``layer`` at scaled radii ``sig`` and angles
    ``th`` over the quadrature points and weights of `_points`, reading
    the table point by point: Lagrange through the 4 u-nodes around the
    point, each node value linear in theta between the 2 angle nodes
    around the read angle (one column for an isotropic table), times the
    read factor tau^(n-m) (1 - sigma^2)^((n-2)/2), whose planar edge
    factor has 1 - sigma^2 = (tau - s)(tau + s) / tau^2."""
    tab, n, m, cap = layer.tab, layer.n, layer.params.m, layer.sigma[-1]
    n_s, n_th = tab.shape
    h = 2.0 * np.pi / n_th

    def read(pts, phi):
        s, tau = pts.s, pts.tau
        u = np.arcsin(np.clip(s / tau / cap, 0.0, 1.0))
        x = u * (n_s - 1) / (0.5 * np.pi)
        i0 = np.clip(np.floor(x) - 1, 0, n_s - 4).astype(int)
        y = (np.asarray(phi) + np.pi) / h
        j0 = np.floor(y).astype(int)
        f = y - j0
        val = 0.0
        for k in range(4):
            lag = np.prod([(x - i0 - j) / (k - j) for j in range(4) if j != k],
                          axis=0)
            node = (1.0 - f) * tab[i0 + k, j0 % n_th] \
                + f * tab[i0 + k, (j0 + 1) % n_th]
            val = val + lag * node
        factor = tau ** (n - m)
        if m == 2:
            edge = pts.gap * (tau + s) / tau**2
            factor = factor * np.maximum(edge, 1e-300) ** (0.5 * (n - 2))
        return factor * val

    out = np.zeros((len(sig), len(th)))
    for idx, sig_b in conv._blocks(sig):
        pts = conv._points(layer, sig_b, layer.cfg)
        if pts.cols is not None:  # angular, the origin: 64 turn angles
            phi = -np.pi + 2.0 * np.pi * np.arange(64) / 64
            ch = layer.law.density_from_axis_cos(-np.cos(phi)) * (2.0 * np.pi / 64)
            out[idx] += np.sum(pts.w * ch * read(pts, phi),
                               axis=(1, 2))[:, None]
            continue
        if pts.chi_args is None:  # isotropic: chi is in the weights
            out[idx] += np.sum(pts.w * read(pts, 0.0), axis=(1, 2))[:, None]
            continue
        a_rho, d2_rho, omega = pts.chi_args
        for li, a in enumerate(th):
            for sgn in (1.0, -1.0):
                ch = layer.law.density_from_axis_cos(
                    np.cos(a) * a_rho + np.sin(a) * sgn * d2_rho)
                out[idx, li] += np.sum(pts.w * ch * read(pts, a + sgn * omega),
                                       axis=(1, 2))
    return (n + 1) * out


def test_angular_step_takes_each_distinct_abs_theta_once(monkeypatch):
    # every layer is even in theta, so a step on 16 angles -pi + pi j / 8
    # takes the 9 distinct |theta| in [0, pi], for the seed step and a
    # regular one, at the table and at the grid nodes
    grid = PolarGrid.build(P2, 1.0, 6, 16)
    law = CircularGaussianLaw(P2, 1.5)
    field = transition_density(P2, law, 1.0, 2, grid,
                               dataclasses.replace(_GEOMETRY_CFG, n_theta=16))
    calls, at_grid = [], []
    step, apply = conv._step_values, conv._apply

    def step_spy(layer, r, *rest):
        at_grid.append(np.array_equal(r, grid.nodes))  # ct = 1
        return step(layer, r, *rest)

    def apply_spy(layer, arcs, th, scratch):
        calls.append((layer.n, at_grid[-1], np.array(th)))
        return apply(layer, arcs, th, scratch)

    monkeypatch.setattr(conv, "_step_values", step_spy)
    monkeypatch.setattr(conv, "_apply", apply_spy)
    for layer in field.layers:
        next_layer(P2, law, layer)
    assert {(n, g) for n, g, _ in calls} == {(1, False), (1, True),
                                             (2, False), (2, True)}
    for _, _, th in calls:
        assert len(th) == 9 and np.all((th >= 0.0) & (th <= np.pi))
        assert np.allclose(np.sort(th), np.pi * np.arange(9) / 8, atol=1e-15)


def test_off_node_values_step_each_distinct_abs_theta_once(monkeypatch):
    # 23 off-node radii x 16 angles of a K = 3 field: layers 2 and 3 are
    # stepped once per distinct |theta|, 2 x 9 step geometries
    params = FlightParams(2, 1.0, 1.0)
    grid = PolarGrid.build(params, 1.0, 24, 16)
    field = transition_density(params, CircularGaussianLaw(params, 1.0), 1.0,
                               3, grid)
    r = 0.5 * (grid.nodes[1:] + grid.nodes[:-1])
    builds = []
    build = conv._geometry

    def counted(layer, *rest):
        builds.append(layer.n)
        return build(layer, *rest)

    monkeypatch.setattr(conv, "_geometry", counted)
    rr, th = np.broadcast_arrays(r[:, None], grid.thetas[None, :])
    got = [layer.top_values(rr, th) for layer in field.layers[1:]]
    assert sorted(builds) == [1] * 9 + [2] * 9
    # the values of one step per layer at every angle at once (ct = 1)
    for layer, g in zip(field.layers[1:], got):
        want = layer._view(conv._step_values(layer.source, r, grid.thetas,
                                             layer.cfg))
        assert np.max(np.abs(g - want)) <= 1e-14 * np.max(np.abs(want))


def test_isotropic_step_takes_one_column_for_every_angle():
    # an isotropic table's reads do not depend on the target angle: chi
    # sits in the weights of its points, one array per block, which the
    # kept stencil carries (its Lagrange weights sum to 1), and the step's
    # one column serves every requested angle
    grid = RadialGrid.build(P2, 1.0, 10)
    layer = transition_density(P2, UniformLaw(P2), 1.0, 2, grid,
                               _GEOMETRY_CFG).layers[1]
    sig = np.array([0.0, 0.05, 0.3, 0.62, 0.97])
    for _, sig_b in conv._blocks(sig):
        pts = conv._points(layer, sig_b, layer.cfg)
        arcs = conv._stencil(layer, pts)
        assert pts.chi_args is pts.cols is arcs.chi_args is arcs.cols is None
        assert arcs.lag.shape == (4,) + pts.w.shape
        assert np.allclose(arcs.lag.sum(axis=0), pts.w, rtol=1e-13, atol=0.0)
    one = conv._step_values(layer, sig, np.zeros(1), layer.cfg)
    three = conv._step_values(layer, sig, np.array([0.0, 1.3, -2.9]),
                              layer.cfg)
    assert three.shape == (len(sig), 3)
    for col in three.T:
        assert np.array_equal(col, one[:, 0])


@pytest.fixture(scope="module")
def m3_layers():
    cfg = StepConfig(n_sigma=17, time_order=8, arc_order=8)
    return transition_density(P3, UniformLaw(P3), 1.0, 6,
                              RadialGrid.build(P3, 1.0, 8), cfg).layers


@pytest.mark.parametrize("m,n", [(2, 3), (2, 12), (3, 3), (3, 6)])
def test_isotropic_read_matches_the_pointwise_reference(planar_deep_layers,
                                                        m3_layers, m, n):
    # the kept stencil and read base against reads formed afresh from the
    # quadrature points: the read factor tau^(n-m) E_n past n = 2, out to
    # the support edge
    layer = (planar_deep_layers[1.0][1] if m == 2 else m3_layers)[n - 1]
    sig = np.array([0.0, 0.05, 0.5, 0.97, 0.999])
    want = _reference_step(layer, sig, np.zeros(1))
    got = conv._step_values(layer, sig, np.zeros(1), layer.cfg)
    # pointwise: m=3 layer 4 at sigma = 0.999 reads a raw -4.3e-7 here
    assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-13


@pytest.mark.parametrize("n,n_theta", [
    (1, 16), (2, 16), (1, 8), (2, 8), (1, 24), (2, 24), (1, 32), (2, 32)],
    ids=["graded", "regular", "graded-coarser-grid", "regular-coarser-grid",
         "graded-non-divisor-grid", "regular-non-divisor-grid",
         "graded-finer-grid", "regular-finer-grid"])
def test_angular_read_matches_the_pointwise_reference(n, n_theta):
    # the step reads every target angle as a whole-column shift of the
    # table plus a residual shared by the angles of one group: grids of
    # n_theta 8, 16, 24 and 32 against the table's 16 angles make one,
    # one, three and three residual groups
    cfg = StepConfig(n_sigma=17, n_theta=16, time_order=8, arc_order=8)
    grid = PolarGrid.build(P2, 1.0, 6, n_theta)
    field = transition_density(P2, CircularGaussianLaw(P2, 1.5), 1.0, 2,
                               grid, cfg)
    layer = field.layers[n - 1]
    sig = np.array([0.0, 0.05, 0.3, 0.62, 0.97])
    # the grid angles, and angles off them: between table nodes, exactly
    # -pi and pi, past 2 pi either way, and exact mirror pairs, which the
    # step evaluates once
    th = np.concatenate([grid.thetas, [0.3, -2.0, 2.9, 7.1, np.pi, -np.pi,
                                       2.0 * np.pi + 0.4, -7.9, 13.0, -0.3,
                                       -2.9, -13.0]])
    want = _reference_step(layer, sig, th)
    got = conv._step_values(layer, sig, th, cfg)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    if n == 1:
        # the seed, taken once per distinct |theta|, against the one-turn
        # quadrature at every table and grid angle, negative ones included
        nodes = grid.nodes
        for a, sig_a, ths, edge in (
                (layer.tab, layer.sigma, layer.thetas, 1.0),
                (layer.g_at_nodes, nodes, grid.thetas,
                 np.sqrt(1.0 - nodes[:, None] ** 2))):
            ref = np.stack([conv._one_turn_reg_planar(
                layer.law, sig_a, np.full(len(sig_a), a_th))
                for a_th in ths], 1) / edge
            assert np.max(np.abs(a - ref)) <= 1e-14 * np.max(np.abs(ref))


# --------------------------------------------------------------------------
# moment oracles
# --------------------------------------------------------------------------

# Given n turns, X(t)/(ct) is a Dirichlet(1, ..., 1)-weighted sum of n+1
# iid directions with mean mu, so every layer has mass pi_n(lam t),
# E[X | n]/(ct) = mu and E[|X|^2 | n]/(ct)^2 = 2/(n+2) (1 - |mu|^2) + |mu|^2.
# Tolerances: the largest miss over layers 1..K at the law's default
# StepConfig, times 1.5, rounded up.  Misses with time-ladder tables
# were up to 6.8e-4 (mass) and 1.5e-4 (E|X|^2) for the uniform laws; the
# self-similar tables miss by at most 1.3e-6 and 4.6e-7.  The
# circular-Gaussian misses come from the linear angle interpolation of
# its 16-node tables; E[X1] and E|X|^2 keep the time-ladder tolerances.
_CG_KS = tuple(float(k) for k in np.random.default_rng(7).uniform(-2.5, 2.5, 2))
MOMENT_CASES = {
    # name: (params, law, grid, K, mu, mass tol, E[X1] tol, E|X|^2 tol)
    "m2": (P2, UniformLaw(P2), RadialGrid.build(P2, 1.0, 16), 6, 0.0,
           1.0e-6, None, 7e-7),
    "m3": (P3, UniformLaw(P3), RadialGrid.build(P3, 1.0, 16), 6, 0.0,
           1.9e-6, None, 2.1e-7),
    **{f"cg-k{k:.3f}": (P2, CircularGaussianLaw(P2, k),
                        PolarGrid.build(P2, 1.0, 8, 8), 3,
                        float(special.i1(k) / special.i0(k)),
                        4.5e-3, 1.3e-2, 5.2e-3)
       for k in _CG_KS},
}


@pytest.mark.parametrize("case", list(MOMENT_CASES))
def test_layer_moments_match_the_dirichlet_oracle(case):
    params, law, grid, K, mu, tol_mass, tol_x1, tol_r2 = MOMENT_CASES[case]
    layers = [seed_layer(params, law, 1.0, grid)]
    while len(layers) < K:
        layers.append(next_layer(params, law, layers[-1]))
    ct = params.radius(1.0)
    for layer in layers:
        n = layer.n
        mass = layer.mass()
        assert abs(mass / poisson_weight(n, params, 1.0) - 1.0) < tol_mass, n
        r2 = layer.moment(lambda r, th: (r / ct) ** 2) / mass
        assert abs(r2 - (2.0 / (n + 2) * (1 - mu * mu) + mu * mu)) < tol_r2, n
        if tol_x1 is not None:
            x1 = layer.moment(lambda r, th: r * np.cos(th) / ct) / mass
            assert abs(x1 - mu) < tol_x1, n



# E|X(t)|^2 = (2 c^2 / lam^2)(lam t - 1 + e^{-lam t}) for isotropic laws:
# the per-layer Dirichlet second moments summed over the Poisson weights,
# with the singular layer's (ct)^2 e^{-lam t}.  Tolerances: the relative
# miss at n_sigma = 33 on 24 nodes with K = ceil(lam t + 7 sqrt(lam t) + 8),
# times 1.5; self-similar layers make it the same for every (lam, c, t)
FIELD_R2_TOL = {2: {0.05: 3.3e-10, 1.0: 3.8e-7, 5.0: 6.9e-6, 10.0: 1.7e-5},
                3: {0.05: 1.3e-8, 1.0: 3.0e-6, 5.0: 2.6e-6, 10.0: 5.8e-5}}


@pytest.mark.parametrize("lam_t", [0.05, 1.0, 5.0, 10.0])
@pytest.mark.parametrize("m", [2, 3])
def test_field_second_moment_over_lam_t(m, lam_t):
    c, t = 1.5, 0.8
    lam = lam_t / t
    params = FlightParams(m, c, lam)
    K = math.ceil(lam_t + 7.0 * math.sqrt(lam_t) + 8.0)
    field = transition_density(params, UniformLaw(params), t, K,
                               RadialGrid.build(params, t, 24),
                               StepConfig(n_sigma=33))
    got = sum(layer.moment(lambda r, th: r * r) for layer in field.layers) \
        + math.exp(-lam_t) * params.radius(t) ** 2
    want = 2.0 * c * c / lam**2 * (lam_t - 1.0 + math.exp(-lam_t))
    assert abs(got / want - 1.0) < FIELD_R2_TOL[m][lam_t]
