import math

import numpy as np
import pytest

from randflight import (DomainError, FlightParams, PolarGrid, RadialGrid,
                        poisson_weight, tail_mass)


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


def test_poisson_weight_values(params):
    # P(no event) and a plain pmf value
    assert poisson_weight(0, params, 1.0) == pytest.approx(math.exp(-1), rel=1e-14)
    p2 = FlightParams(2, 1.0, 2.0)
    assert poisson_weight(2, p2, 0.5) == pytest.approx(math.exp(-1) / 2, rel=1e-14)
    with pytest.raises(DomainError):
        poisson_weight(-1, params, 1.0)
    with pytest.raises(DomainError):
        poisson_weight(0, params, 0.0)


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


def test_tail_mass_decreasing(params):
    vals = [tail_mass(K, params, 1.0) for K in range(12)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_conditional_weight_underflow_guard():
    from randflight.core import conditional_weight_or_raise
    from randflight.errors import NumericError

    params = FlightParams(2, 1.0, 1.0)
    assert conditional_weight_or_raise(1, params, 1.0) == \
        pytest.approx(math.exp(-1), rel=1e-14)
    with pytest.raises(NumericError):
        conditional_weight_or_raise(1, params, 1000.0)


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


@pytest.mark.parametrize("grid", [
    lambda nodes: RadialGrid(1.0, nodes, 1e-3),
    lambda nodes: PolarGrid(1.0, nodes, -np.pi + np.pi * np.arange(8) / 4, 1e-3),
], ids=["radial", "polar"])
@pytest.mark.parametrize("nodes", [[0.5], [], [[0.1, 0.2], [0.3, 0.4]],
                                   [0.1, 0.3, 0.2]],
                         ids=["one", "empty", "2d", "unsorted"])
def test_grids_reject_bad_nodes(grid, nodes):
    # PolarGrid once took one node, no nodes or a 2-D array, which
    # failed later with IndexError or TypeError in seed_layer
    with pytest.raises(DomainError, match="radii"):
        grid(np.array(nodes))
