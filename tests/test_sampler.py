import math

import numpy as np
import pytest

from randflight import (DomainError, EstimationError, FlightParams,
                        RadialGrid, PolarGrid, UniformLaw, estimate_density,
                        one_turn_profile, poisson_weight, simulate_batch)


@pytest.fixture
def p2():
    return FlightParams(2, 1.0, 1.0)


def test_support_bound(p2):
    law = UniformLaw(p2)
    pos, counts = simulate_batch(p2, law, 1.0, 100_000,
                                 np.random.default_rng(1))
    r = np.linalg.norm(pos, axis=1)
    assert np.all(r <= 1.0 + 1e-12)
    # zero-event flights sit on the support sphere
    assert np.count_nonzero(counts == 0) > 30_000
    assert np.max(np.abs(r[counts == 0] - 1.0)) < 1e-12
    # positive events => strictly inside (probability-one event)
    assert np.all(r[counts > 0] < 1.0)


def test_zero_event_fraction_matches_poisson(p2):
    law = UniformLaw(p2)
    _, counts = simulate_batch(p2, law, 1.0, 1_000_000,
                               np.random.default_rng(2))
    p0 = np.count_nonzero(counts == 0) / counts.size
    target = math.exp(-1.0)
    se = math.sqrt(target * (1 - target) / counts.size)
    assert abs(p0 - target) < 4 * se


def test_mean_vector_vanishes_by_symmetry(p2):
    law = UniformLaw(p2)
    pos, _ = simulate_batch(p2, law, 1.0, 1_000_000,
                            np.random.default_rng(3))
    # |X| <= 1, so each coordinate's sd is below 1
    assert np.all(np.abs(pos.mean(axis=0)) < 4.0 / 1e3)


def test_estimate_needs_enough_samples(p2):
    law = UniformLaw(p2)
    grid = RadialGrid.build_uniform(p2, 1.0, 16)
    with pytest.raises(DomainError):
        estimate_density(p2, law, 1.0, 5000, grid)


def test_estimate_needs_integer_seed(p2):
    law = UniformLaw(p2)
    grid = RadialGrid.build_uniform(p2, 1.0, 16)
    for seed in (np.random.default_rng(5), 5.0, None, -1):
        with pytest.raises(DomainError, match="seed"):
            estimate_density(p2, law, 1.0, 20_000, grid, seed=seed)


def test_empty_conditioning_reports_counts(p2):
    law = UniformLaw(p2)
    grid = RadialGrid.build_uniform(p2, 1.0, 16)
    with pytest.raises(EstimationError, match="conditioning"):
        estimate_density(p2, law, 1.0, 20_000, grid, conditioning=40, seed=4)


def test_conditional_one_turn_estimate(p2):
    # bin-density of the one-turn conditional law against the closed form
    law = UniformLaw(p2)
    grid = RadialGrid.build_uniform(p2, 1.0, 51)
    est = estimate_density(p2, law, 1.0, 1_000_000, grid, conditioning=1,
                           seed=5)
    i = int(np.argmin(np.abs(grid.nodes - 0.5)))
    target = one_turn_profile(p2, grid.nodes[[i]], 1.0)[0] \
        / poisson_weight(1, p2, 1.0)
    assert abs(est.values[i] - target) < 4 * est.standard_errors[i]
    assert est.n_conditioned > 300_000


def test_all_mode_mass_is_ac_probability(p2):
    law = UniformLaw(p2)
    grid = RadialGrid.build_uniform(p2, 1.0, 33)
    n = 200_000
    est = estimate_density(p2, law, 1.0, n, grid, conditioning="all", seed=6)
    edges = np.concatenate([[0.0], 0.5 * (grid.nodes[:-1] + grid.nodes[1:]),
                            [grid.support_radius]])
    mass = float(np.sum(est.values * np.pi * np.diff(edges**2)))
    target = 1 - math.exp(-1.0)
    se = math.sqrt(target * (1 - target) / n)
    assert abs(mass - target) < 4 * se


def test_zero_conditioning_concentrates_on_sphere(p2):
    law = UniformLaw(p2)
    grid = RadialGrid.build_uniform(p2, 1.0, 16)
    est = estimate_density(p2, law, 1.0, 50_000, grid, conditioning=0, seed=7)
    assert est.boundary_fraction == 1.0


def test_monte_carlo_rate(p2):
    # error roughly halves when samples quadruple, against the exact density
    law = UniformLaw(p2)
    grid = RadialGrid.build_uniform(p2, 1.0, 9)
    edges = np.concatenate([[0.0], 0.5 * (grid.nodes[:-1] + grid.nodes[1:]),
                            [grid.support_radius]])

    # exact bin-averaged reference: the closed form has the primitive
    # int p 2 pi r dr = e^{-t}(e^{w(r1)} - e^{w(r2)}), w = sqrt(1 - r^2)
    w_edges = np.sqrt(np.maximum(1.0 - edges**2, 0.0))
    bin_mass = math.exp(-1.0) * (np.exp(w_edges[:-1]) - np.exp(w_edges[1:]))
    ref = bin_mass / (np.pi * np.diff(edges**2))

    errs = []
    for n in (40_000, 640_000):
        rms = []
        for seed in (80, 81, 82):
            est = estimate_density(p2, law, 1.0, n, grid,
                                   conditioning="all", seed=seed)
            rms.append(np.mean((est.values - ref) ** 2))
        errs.append(math.sqrt(np.mean(rms)))
    # two quadruplings: expect ~4x drop, allow stochastic slack
    assert errs[1] < 0.5 * errs[0]


def test_rotation_invariance_of_angular_bins(p2):
    law = UniformLaw(p2)
    grid = PolarGrid.build(p2, 1.0, 12, n_theta=8)
    est = estimate_density(p2, law, 1.0, 400_000, grid, conditioning="all",
                           seed=9)
    for i in range(2, grid.n_r - 1):
        row = est.values[i]
        se = est.standard_errors[i]
        pooled = np.sqrt(np.mean(se**2) + 1e-30)
        assert np.max(np.abs(row - row.mean())) < 5 * pooled + 1e-9


def test_block_merge_independent_of_threads(p2):
    law = UniformLaw(p2)
    grid = RadialGrid.build_uniform(p2, 1.0, 16)
    a = estimate_density(p2, law, 1.0, 64_000, grid, seed=10, threads=1,
                         block_size=16_000)
    b = estimate_density(p2, law, 1.0, 64_000, grid, seed=10, threads=4,
                         block_size=16_000)
    assert np.array_equal(a.values, b.values)


@pytest.mark.parametrize("m, k", [(3, None), (2, 1.0)])
def test_draws_independent_of_chunk(monkeypatch, m, k):
    from randflight import CircularGaussianLaw, sampler
    p = FlightParams(m, 1.0, 2.0)
    law = UniformLaw(p) if k is None else CircularGaussianLaw(p, k)
    grid = (RadialGrid.build_uniform(p, 1.0, 16) if k is None
            else PolarGrid.build(p, 1.0, 8, n_theta=8))
    runs = []
    for chunk in (sampler._CHUNK, 5):
        monkeypatch.setattr(sampler, "_CHUNK", chunk)
        pos, counts = simulate_batch(p, law, 1.0, 5_000,
                                     np.random.default_rng(11))
        est = estimate_density(p, law, 1.0, 20_000, grid, conditioning=1,
                               seed=11)
        runs.append((pos, counts, est.values))
    for a, b in zip(*runs):
        assert np.array_equal(a, b)


def test_block_temporaries_stay_small():
    import tracemalloc
    p = FlightParams(2, 1.0, 2.0)
    law = UniformLaw(p)
    grid = RadialGrid.build_uniform(p, 1.0, 64)
    n = 1_000_000
    tracemalloc.start()
    try:
        estimate_density(p, law, 1.0, n, grid, seed=12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # positions (16 B), counts (8 B) and radii (16 B) per flight, plus a few
    # MB of runs; drawing a count group at once peaked at about 95 B
    assert peak < 48 * n


_BAD_ARGUMENTS = [
    ("estimate", {"conditioning": 1.5}, "conditioning"),
    ("estimate", {"conditioning": True}, "conditioning"),
    ("estimate", {"conditioning": "foo"}, "conditioning"),
    ("estimate", {"conditioning": -1}, "conditioning"),
    ("estimate", {"conditioning": None}, "conditioning"),
    ("simulate", {"conditioning": 1.5}, "conditioning"),
    ("simulate", {"conditioning": "foo"}, "conditioning"),
    ("estimate", {"block_size": 0}, "block_size"),
    ("estimate", {"block_size": -5}, "block_size"),
    ("estimate", {"t": 0.0}, "t"),
    ("estimate", {"t": -1.0}, "t"),
    ("estimate", {"t": math.nan}, "t"),
    ("estimate", {"t": math.inf}, "t"),
    ("simulate", {"t": 0.0}, "t"),
    ("simulate", {"t": -1.0}, "t"),
    ("simulate", {"t": math.nan}, "t"),
]


@pytest.mark.parametrize("route, bad, name", _BAD_ARGUMENTS,
                         ids=[f"{r}-{k}={v}" for r, kw, _ in _BAD_ARGUMENTS
                              for k, v in kw.items()])
def test_sampler_rejects_bad_arguments(p2, route, bad, name):
    # 1.5 once ran as 1 and was reported as 1.5, True as 1; block_size 0
    # raised ZeroDivisionError; t = 0 read as an empty conditioning set
    law = UniformLaw(p2)
    kwargs = {"t": 1.0, **bad}
    t = kwargs.pop("t")
    with pytest.raises(DomainError, match=rf"\b{name}\b"):
        if route == "estimate":
            estimate_density(p2, law, t, 20_000,
                             RadialGrid.build_uniform(p2, 1.0, 16), **kwargs)
        else:
            simulate_batch(p2, law, t, 1_000, np.random.default_rng(0), **kwargs)


def test_estimate_needs_a_grid_built_for_its_time(p2):
    # a t=1 grid at t=2 once binned a mass of 0.236 against the 0.865 of
    # conditioning "all": the flights beyond its radius were dropped
    law = UniformLaw(p2)
    grid = RadialGrid.build_uniform(p2, 1.0, 16)
    with pytest.raises(DomainError, match="grid"):
        estimate_density(p2, law, 2.0, 20_000, grid, seed=1)
    with pytest.raises(DomainError, match="grid"):
        estimate_density(p2, law, 1.0 + 2e-12, 20_000, grid, seed=1)
    est = estimate_density(p2, law, 1.0 + 5e-13, 20_000, grid, seed=1)
    assert est.grid is grid and est.n_conditioned > 0


def _reference_flights(p, law, t, n, seed, select):
    """Positions of the flights ``select(counts)`` keeps, drawing times and
    directions group by group for the kept event counts only."""
    rng = np.random.default_rng(seed)
    counts = rng.poisson(p.lam * t, n)
    pos = np.full((n, p.m), np.nan)
    for j in np.unique(counts[select(counts)]):
        rows = np.flatnonzero(counts == j)
        times = np.sort(rng.random((rows.size, j)), axis=1) * t
        dirs = law.sample(rng, rows.size * (j + 1)).reshape(-1, j + 1, p.m)
        durations = np.diff(times, axis=1, prepend=0.0, append=t)
        pos[rows] = p.c * np.einsum("ij,ijk->ik", durations, dirs)
    return pos[select(counts)], counts


@pytest.mark.parametrize("conditioning, select", [
    ("all", lambda c: c >= 1), (2, lambda c: c == 2)], ids=["all", "2"])
def test_selected_flights_in_counts_order(p2, conditioning, select):
    law = UniformLaw(p2)
    pos, counts = simulate_batch(p2, law, 1.0, 20_000,
                                 np.random.default_rng(14), conditioning)
    ref_pos, ref_counts = _reference_flights(p2, law, 1.0, 20_000, 14, select)
    # the counts of every flight, as without a selection
    _, all_counts = simulate_batch(p2, law, 1.0, 20_000,
                                   np.random.default_rng(14))
    assert np.array_equal(counts, all_counts)
    assert np.array_equal(counts, ref_counts)
    assert pos.shape == (np.count_nonzero(select(counts)), 2)
    assert np.array_equal(pos, ref_pos)


def _count_draws(monkeypatch, law):
    drawn = []
    sample = law.sample

    def counted(rng, size):
        drawn.append(size)
        return sample(rng, size)

    monkeypatch.setattr(law, "sample", counted)
    return drawn


@pytest.mark.parametrize("j", [0, 1, 3])
def test_conditioned_estimate_draws_only_kept_directions(p2, monkeypatch, j):
    law = UniformLaw(p2)
    drawn = _count_draws(monkeypatch, law)
    grid = RadialGrid.build_uniform(p2, 1.0, 16)
    est = estimate_density(p2, law, 1.0, 50_000, grid, conditioning=j,
                           seed=15, block_size=20_000)
    assert est.n_conditioned > 0
    assert sum(drawn) == (j + 1) * est.n_conditioned


def test_all_mode_skips_zero_turn_directions(p2, monkeypatch):
    from randflight import sampler
    law = UniformLaw(p2)
    drawn = _count_draws(monkeypatch, law)
    seen = []
    simulate = sampler.simulate_batch

    def spy(*args, **kwargs):
        pos, counts = simulate(*args, **kwargs)
        seen.append(counts)
        return pos, counts

    monkeypatch.setattr(sampler, "simulate_batch", spy)
    grid = RadialGrid.build_uniform(p2, 1.0, 16)
    est = estimate_density(p2, law, 1.0, 50_000, grid, conditioning="all",
                           seed=16, block_size=20_000)
    counts = np.concatenate(seen)
    assert counts.size == 50_000
    turned = counts[counts >= 1]
    assert est.n_conditioned == turned.size
    assert sum(drawn) == int(np.sum(turned + 1))
