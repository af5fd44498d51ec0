import math
import warnings

import numpy as np
import pytest
from scipy import stats

from randflight import (DensityField, DomainError, FlightParams, PolarGrid,
                        RadialGrid, UniformLaw, poisson_weight, tail_mass)
from randflight.core import check_grid_time


@pytest.fixture
def params():
    return FlightParams(2, 1.0, 1.0)


def test_params_validation():
    with pytest.raises(DomainError):
        FlightParams(1, 1.0, 1.0)
    with pytest.raises(DomainError):
        FlightParams(2, 0.0, 1.0)
    with pytest.raises(DomainError):
        FlightParams(2, 1.0, -1.0)
    # an infinite c once ran to NaN densities, and an infinite or NaN
    # lam to a math domain error in the Poisson weights
    for c, lam in ((math.inf, 1.0), (math.nan, 1.0), (1.0, math.inf),
                   (1.0, math.nan)):
        with pytest.raises(DomainError, match="speed c" if c != 1.0 else "rate lam"):
            FlightParams(2, c, lam)


_NOT_COUNTS = [2.0, 2.5, np.float64(2.0), True, "2"]
_COUNT_ARGS = [
    ("m", lambda x: FlightParams(x, 1.0, 1.0)),
    ("n", lambda x: poisson_weight(x, FlightParams(2, 1.0, 1.0), 1.0)),
    ("K", lambda x: tail_mass(x, FlightParams(2, 1.0, 1.0), 1.0)),
]


@pytest.mark.parametrize("x", _NOT_COUNTS,
                         ids=["float", "2.5", "float64", "bool", "str"])
@pytest.mark.parametrize("name, call", _COUNT_ARGS,
                         ids=[name for name, _ in _COUNT_ARGS])
def test_counts_and_the_dimension_must_be_integers(name, call, x):
    # m = 2.0 once failed in UniformLaw.sample inside numpy, n = 1.5 with
    # "tuple indices must be integers", and n = True read e^-1
    with pytest.raises(DomainError, match=rf"\b{name}\b.*integer"):
        call(x)


def test_numpy_integers_are_counts():
    p = FlightParams(np.int64(2), 1.0, 1.0)
    assert poisson_weight(np.int64(3), p, 1.0) == poisson_weight(3, p, 1.0)
    assert tail_mass(np.int64(2), p, 1.0) == tail_mass(2, p, 1.0)


def test_poisson_weight_values(params):
    # P(no event) and a plain pmf value
    assert poisson_weight(0, params, 1.0) == pytest.approx(math.exp(-1), rel=1e-14)
    p2 = FlightParams(2, 1.0, 2.0)
    assert poisson_weight(2, p2, 0.5) == pytest.approx(math.exp(-1) / 2, rel=1e-14)
    with pytest.raises(DomainError):
        poisson_weight(-1, params, 1.0)
    with pytest.raises(DomainError):
        poisson_weight(0, params, 0.0)
    # t = inf once raised ValueError from a math domain error
    for t in (math.inf, math.nan):
        with pytest.raises(DomainError, match=r"\bt\b"):
            poisson_weight(2, params, t)
        with pytest.raises(DomainError, match=r"\bt\b"):
            tail_mass(3, params, t)
    # lam*t past the float range once raised a math domain error, and
    # below it ZeroDivisionError
    for lam, t in ((1e300, 1e10), (1e-300, 1e-30)):
        with pytest.raises(DomainError, match=r"lam\*t"):
            poisson_weight(2, FlightParams(2, 1.0, lam), t)
        with pytest.raises(DomainError, match=r"lam\*t"):
            tail_mass(3, FlightParams(2, 1.0, lam), t)


def test_poisson_weights_sum_to_one(params):
    total = sum(poisson_weight(n, params, 1.0) for n in range(80))
    assert total == pytest.approx(1.0, abs=1e-14)


def test_tail_mass_values(params):
    assert tail_mass(0, params, 1.0) == pytest.approx(1 - math.exp(-1), rel=1e-13)
    # oracle: direct pmf summation
    lt = 1.0
    direct = 1.0 - sum(math.exp(-lt) * lt**n / math.factorial(n) for n in range(4))
    assert direct == pytest.approx(0.018988156876153808, rel=1e-10)
    assert tail_mass(3, params, 1.0) == pytest.approx(direct, abs=1e-14)
    assert tail_mass(60, params, 1.0) == pytest.approx(0.0, abs=1e-12)


def test_tail_plus_partial_sum_is_exactly_one():
    rng = np.random.default_rng(0)
    for _ in range(20):
        lam, t = rng.uniform(0.2, 4.0, 2)
        params = FlightParams(2, 1.0, lam)
        for K in (0, 1, 5, 17, 50):
            s = sum(poisson_weight(n, params, t) for n in range(K + 1))
            assert s + tail_mass(K, params, t) == pytest.approx(1.0, abs=5e-15)


@pytest.mark.parametrize("K,lam_t", [
    *((K, lam_t) for K in (0, 1, 4, 12, 40)
      for lam_t in (0.05, 0.25, 1.0, 10.0, 800.0)),
    (799, 800.0), (801, 800.0)])
def test_tail_mass_against_scipy(K, lam_t):
    # 1 - sum_{n<=K} pi_n once read 0.0 for K = 12 at lam t = 0.25 (the
    # tail is 1.9e-18) and missed it by 2e-6 relative at lam t = 1.  Next
    # to a large lam t the log form of pi_n cancelled: K = 799 at lam t =
    # 800 missed by 5.2e-13
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = tail_mass(K, FlightParams(2, 1.0, lam_t), 1.0)
    assert got == pytest.approx(stats.poisson.sf(K, lam_t), rel=1e-13, abs=0.0)


def test_tail_mass_decreasing(params):
    vals = [tail_mass(K, params, 1.0) for K in range(12)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_conditional_weight_underflow_guard():
    # a joint layer carries its Poisson weight.  Where that underflows, its
    # density given n turns is still its g_at_nodes, the unit flight's
    from randflight import StepConfig, seed_layer

    cfg = StepConfig(n_sigma=9, time_order=4, arc_order=4)
    grid = RadialGrid.build(FlightParams(2, 1.0, 1.0), 1.0, 8)

    def seed(params):
        return seed_layer(params, UniformLaw(params), 1.0, grid, cfg)

    params = FlightParams(2, 1.0, 1.0)
    assert seed(params).weight == pytest.approx(math.exp(-1), rel=1e-14)
    fast = seed(FlightParams(2, 1.0, 1000.0))
    assert fast.weight == 0.0 and not np.any(fast.values)
    assert np.array_equal(fast.g_at_nodes, seed(params).g_at_nodes)


def test_radial_grid_shape(params):
    grid = RadialGrid.build(params, 1.0, 64)
    assert grid.nodes[0] == 0.0
    assert np.all(np.diff(grid.nodes) > 0)
    assert grid.nodes[-1] <= params.radius(1.0) - grid.epsilon + 1e-15
    # clustering: outer spacing finer than inner
    d = np.diff(grid.nodes)
    assert d[-1] < 0.2 * d[0]


def test_polar_grid_validation(params):
    with pytest.raises(DomainError):
        PolarGrid.build(params, 1.0, 16, n_theta=6)
    with pytest.raises(DomainError):
        PolarGrid.build(params, 1.0, 16, n_theta=9)
    grid = PolarGrid.build(params, 1.0, 16, n_theta=8)
    assert grid.thetas[0] == -np.pi
    assert 0.0 in grid.thetas


def _polar(nodes, thetas=-np.pi + np.pi * np.arange(8) / 4):
    return PolarGrid(1.0, nodes, thetas, 1e-3)


_RADII = np.array([0.1, 0.5, 0.9])
_BAD_RADII = {"one": [0.5], "empty": [], "2d": [[0.1, 0.2], [0.3, 0.4]],
              "unsorted": [0.1, 0.3, 0.2], "nan": [0.1, math.nan, 0.3],
              "inf": [0.1, 0.5, math.inf], "only-nan": [math.nan, math.nan]}
_BAD_GRIDS = [
    pytest.param(make, np.array(nodes), "radii", id=f"{name}-{kind}")
    for name, nodes in _BAD_RADII.items()
    for kind, make in (("radial", lambda nodes: RadialGrid(1.0, nodes, 1e-3)),
                       ("polar", _polar))
] + [
    # PolarGrid once took any angles; Monte Carlo bins on the equispaced
    # ones whatever the grid says, so the routes compared other points
    pytest.param(lambda nodes, th=th: _polar(nodes, th), _RADII, "angles",
                 id=f"{name}-angles")
    for name, th in (("zeros", np.zeros(8)),
                     ("spread", np.linspace(0.0, 20.0, 8)),
                     ("2d", np.zeros((8, 2)) - np.pi),
                     ("shifted", -np.pi + 2 * np.pi * (np.arange(8) + 0.5) / 8),
                     ("reversed", (-np.pi + np.pi * np.arange(8) / 4)[::-1]))
]


@pytest.mark.parametrize("grid, nodes, match", _BAD_GRIDS)
def test_grids_reject_bad_nodes(grid, nodes, match):
    # PolarGrid once took one node, no nodes or a 2-D array, which
    # failed later with IndexError or TypeError in seed_layer
    with pytest.raises(DomainError, match=match):
        grid(nodes)


@pytest.mark.parametrize("t, epsilon, match", [
    (math.nan, 1e-3, r"\bt\b"), (math.inf, 1e-3, r"\bt\b"), (0.0, 1e-3, r"\bt\b"),
    (1.0, math.inf, "epsilon")], ids=["t-nan", "t-inf", "t-zero", "eps-inf"])
@pytest.mark.parametrize("kind", ["radial", "polar"])
def test_grids_reject_a_bad_time_or_standoff(kind, t, epsilon, match):
    # these were once accepted
    with pytest.raises(DomainError, match=match):
        if kind == "radial":
            RadialGrid(t, _RADII, epsilon)
        else:
            PolarGrid(t, _RADII, -np.pi + np.pi * np.arange(8) / 4, epsilon)


@pytest.mark.parametrize("t", [math.nan, math.inf])
def test_check_grid_time_needs_a_positive_finite_time(params, t):
    # a NaN or infinite t once passed for every grid
    with pytest.raises(DomainError, match=r"\bt\b"):
        check_grid_time(RadialGrid.build(params, 1.0, 8), t)


def test_polar_grid_accepts_rounded_angles():
    thetas = np.round(-np.pi + np.pi * np.arange(8) / 4, 14)
    assert np.array_equal(_polar(_RADII, thetas).thetas, thetas)


def test_singular_weight_is_the_zero_turn_probability():
    # the field's singular layer: weight exp(-lam t) on the radius-ct
    # sphere, surface density weight * chi / (ct)^(m-1)
    p = FlightParams(3, 2.0, 0.5)
    field = DensityField(p, 2.0, (), (), tail_mass(0, p, 2.0))
    assert field.singular_weight == math.exp(-1.0)
    assert field.singular_weight == poisson_weight(0, p, 2.0)
    assert field.total_mass() == pytest.approx(1.0, abs=1e-15)
    chi = UniformLaw(p).density_from_axis_cos(1.0)
    assert field.singular_weight * chi / p.radius(2.0) ** 2 == \
        pytest.approx(math.exp(-1.0) / (4 * math.pi * 16.0), rel=1e-12)
