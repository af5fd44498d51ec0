import math
from statistics import NormalDist

import numpy as np
import pytest
from scipy import stats

from oracles import one_turn
from randflight import (CircularGaussianLaw, DomainError, EstimationError,
                        FlightParams, RadialGrid, PolarGrid, UniformLaw,
                        estimate_density, simulate_batch)
from randflight import sampler


@pytest.fixture
def p2():
    return FlightParams(2, 1.0, 1.0)


def test_support_bound(p2):
    law = UniformLaw(p2)
    pos, sizes = simulate_batch(p2, law, 1.0, 100_000,
                                np.random.default_rng(1))
    r = np.linalg.norm(pos, axis=1)
    assert len(pos) == sizes.sum() == 100_000
    assert np.all(r <= 1.0 + 1e-12)
    # zero-event flights are the first sizes[0] rows, on the support sphere
    zero = sizes[0]
    assert zero > 30_000
    assert np.max(np.abs(r[:zero] - 1.0)) < 1e-12
    # positive events => strictly inside (probability-one event)
    assert np.all(r[zero:] < 1.0)


@pytest.mark.parametrize("m,law_of", [
    (2, UniformLaw), (3, UniformLaw),
    (2, lambda p: CircularGaussianLaw(p, 1.5))], ids=["m2", "m3", "cg1.5"])
def test_positions_obey_the_scaling_law(m, law_of):
    # the flight at (lam, c, t) is the flight with c = t = 1 at lam t,
    # stretched by ct: the same seed draws the same groups and directions
    lam, c, t = 2.3, 0.7, 1.6
    params, unit = FlightParams(m, c, lam), FlightParams(m, 1.0, lam * t)
    pos, sizes = simulate_batch(params, law_of(params), t, 20_000,
                                np.random.default_rng(5))
    pos1, sizes1 = simulate_batch(unit, law_of(unit), 1.0, 20_000,
                                  np.random.default_rng(5))
    assert np.array_equal(sizes, sizes1)
    assert np.array_equal(pos, pos1 * (c * t))


def test_zero_event_fraction_matches_poisson(p2):
    law = UniformLaw(p2)
    n = 1_000_000
    _, sizes = simulate_batch(p2, law, 1.0, n, np.random.default_rng(2))
    assert sizes.sum() == n
    p0 = sizes[0] / n
    target = math.exp(-1.0)
    se = math.sqrt(target * (1 - target) / n)
    assert abs(p0 - target) < 4 * se


def _poisson_pmf(mean, j):
    return math.exp(j * math.log(mean) - mean - math.lgamma(j + 1))


def _sizes_z(sizes, mean):
    """|z| of each turn-count group size against n pi_j, over the groups
    expecting at least 20 flights and one pooled group of the rest."""
    n = int(sizes.sum())
    expected = np.array([n * _poisson_pmf(mean, j) for j in range(len(sizes))])
    big = expected >= 20
    observed = np.append(sizes[big], n - sizes[big].sum())
    expected = np.append(expected[big], n - expected[big].sum())
    p = expected / n
    return np.abs(observed - expected) / np.sqrt(n * p * (1 - p) + 1e-300)


def _bonferroni(cells):
    # two-sided |z| limit at a 1e-6 family-wise false-alarm rate
    return NormalDist().inv_cdf(1.0 - 1e-6 / (2.0 * cells))


def _sizes_only(p, lam_t, n, rng):
    # a conditioning that selects no group draws the sizes and nothing else
    pos, sizes = simulate_batch(p, UniformLaw(p), lam_t / p.lam, n, rng,
                                conditioning=100_000)
    assert pos.shape == (0, p.m)
    return sizes


@pytest.mark.parametrize("lam_t", [0.05, 1.0, 10.0])
def test_group_sizes_match_poisson_pmf(p2, lam_t):
    n = 2_000_000
    sizes = _sizes_only(p2, lam_t, n, np.random.default_rng(17))
    assert sizes.sum() == n and sizes[-1] > 0
    z = _sizes_z(sizes, lam_t)
    assert np.max(z) < _bonferroni(len(z))


class _RecordingRng:
    """Stands in for a Generator whose binomial draws are all 0, so that
    every turn-count class is drawn, and records each class's hazard."""

    def __init__(self):
        self.hazards = []

    def binomial(self, n, p):
        self.hazards.append(p)
        return 0


@pytest.mark.parametrize("lam_t", [1e-3, 1.0, 10.0, 800.0])
def test_group_size_hazards_match_scipy(p2, lam_t):
    # class j takes each flight left with hazard pi_j / P(N >= j); the
    # backward recurrence from h = 1 far in the tail gets every class
    # with any probability left to within rounding
    rng = _RecordingRng()
    _sizes_only(p2, lam_t, 1_000, rng)
    h = np.array(rng.hazards)
    j = np.arange(len(h))
    sf = stats.poisson.sf(j - 1, lam_t)
    kept = sf > 1e-150
    assert h[-1] == 1.0 and kept.sum() > 30
    ref = stats.poisson.pmf(j[kept], lam_t) / sf[kept]
    assert np.max(np.abs(h[kept] - ref)) <= 1e-11


# seed 20, as drawn by the hazard tables summed in log space that the
# recurrence replaced: {turn count: group size} over the nonempty groups
_SEEDED_SIZES = {
    (1.0, 1_000_000): {0: 367784, 1: 368245, 2: 183509, 3: 61660, 4: 15122,
                       5: 3054, 6: 531, 7: 88, 8: 6, 9: 1},
    (10.0, 100_000): {0: 3, 1: 36, 2: 239, 3: 756, 4: 1989, 5: 3774, 6: 6309,
                      7: 9007, 8: 11178, 9: 12433, 10: 12584, 11: 11269,
                      12: 9570, 13: 7216, 14: 5236, 15: 3519, 16: 2183,
                      17: 1284, 18: 684, 19: 385, 20: 195, 21: 87, 22: 36,
                      23: 15, 24: 10, 26: 2, 27: 1},
    (800.0, 30): {751: 1, 761: 1, 766: 1, 767: 1, 777: 1, 780: 2, 781: 1,
                  782: 1, 783: 1, 784: 1, 790: 1, 794: 1, 798: 2, 799: 1,
                  802: 1, 803: 1, 805: 1, 808: 1, 812: 1, 818: 2, 824: 1,
                  830: 1, 831: 2, 838: 1, 839: 1, 843: 1},
}


@pytest.mark.parametrize("lam_t, n", list(_SEEDED_SIZES))
def test_group_sizes_keep_their_seeded_draws(p2, lam_t, n):
    sizes = _sizes_only(p2, lam_t, n, np.random.default_rng(20))
    expected = _SEEDED_SIZES[lam_t, n]
    assert len(sizes) == max(expected) + 1
    assert {j: int(s) for j, s in enumerate(sizes) if s} == expected


@pytest.mark.parametrize("lam_t", [1e-3, 800.0])
def test_extreme_rates_draw_finite_flights(lam_t):
    import warnings
    p = FlightParams(2, 1.0, lam_t)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pos, sizes = simulate_batch(p, UniformLaw(p), 1.0, 2_000,
                                    np.random.default_rng(19))
    assert sizes.sum() == len(pos) == 2_000
    assert np.all(np.isfinite(pos))
    assert np.all(np.linalg.norm(pos, axis=1) <= 1.0 + 1e-12)
    turns = np.repeat(np.arange(len(sizes)), sizes)
    assert abs(turns.mean() - lam_t) < 6 * math.sqrt(lam_t / 2_000)


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
    target = one_turn(2, grid.nodes[i])
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
    # positions (16 B) and radii (16 B) per kept flight, the sorted switching
    # times of a group and a few MB of runs; drawing a count group at once
    # peaked at about 95 B, and per-flight Poisson counts added 8 B
    assert peak < 40 * n


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
    ("estimate", {"threads": 0}, "threads"),
    ("estimate", {"threads": -3}, "threads"),
    ("estimate", {"threads": 2.5}, "threads"),
    ("estimate", {"threads": True}, "threads"),
    ("estimate", {"n_samples": 2e4}, "n_samples"),
    ("simulate", {"lam": 1e300, "t": 1e10}, r"lam\*t"),  # OverflowError
    ("simulate", {"lam": 1e-300, "t": 1e-30}, r"lam\*t"),
]


@pytest.mark.parametrize("route, bad, name", _BAD_ARGUMENTS,
                         ids=[f"{r}-" + ",".join(f"{k}={v}" for k, v in kw.items())
                              for r, kw, _ in _BAD_ARGUMENTS])
def test_sampler_rejects_bad_arguments(p2, route, bad, name):
    # 1.5 once ran as 1 and was reported as 1.5, True as 1; block_size 0
    # raised ZeroDivisionError; t = 0 read as an empty conditioning set;
    # threads 0, -3 and 2.5 ran serially, n_samples 2e4 failed in range()
    kwargs = {"t": 1.0, "n_samples": 20_000, **bad}
    t, n = kwargs.pop("t"), kwargs.pop("n_samples")
    if "lam" in kwargs:
        p2 = FlightParams(2, 1.0, kwargs.pop("lam"))
    law = UniformLaw(p2)
    with pytest.raises(DomainError, match=rf"\b{name}\b"):
        if route == "estimate":
            estimate_density(p2, law, t, n,
                             RadialGrid.build_uniform(p2, 1.0, 16), **kwargs)
        else:
            simulate_batch(p2, law, t, 1_000, np.random.default_rng(0), **kwargs)


def test_estimate_rejects_an_unbinnable_dimension_before_sampling(monkeypatch):
    # m = 4 once simulated every flight and only then failed to bin them
    p4 = FlightParams(4, 1.0, 1.0)

    def no_flights(*args, **kwargs):
        raise AssertionError("simulate_batch ran before the check")

    monkeypatch.setattr(sampler, "simulate_batch", no_flights)
    with pytest.raises(DomainError, match="m=4"):
        estimate_density(p4, UniformLaw(p4), 1.0, 20_000,
                         RadialGrid.build_uniform(p4, 1.0, 16))


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
    """Positions of the turn-count groups ``select(j)`` keeps, in ascending
    j, and the sizes of all groups: the sizes by conditional binomials
    with hazards pi_j / P(N >= j) summed directly, then per kept group its
    times and its directions."""
    rng = np.random.default_rng(seed)
    mean = p.lam * t
    pmf = [_poisson_pmf(mean, j) for j in range(60)]
    sizes, left = [], n
    while left:
        h = pmf[len(sizes)] / math.fsum(pmf[len(sizes):])
        sizes.append(int(rng.binomial(left, h)))
        left -= sizes[-1]
    parts = []
    for j, size in enumerate(sizes):
        if size and select(j):
            times = np.sort(rng.random((size, j)), axis=1)  # over t
            dirs = law.sample(rng, size * (j + 1)).reshape(-1, j + 1, p.m)
            durations = np.diff(times, axis=1, prepend=0.0, append=1.0)
            parts.append(np.einsum("ij,ijk->ik", durations, dirs) * (p.c * t))
    return np.concatenate(parts), np.array(sizes)


@pytest.mark.parametrize("conditioning, select", [
    ("all", lambda j: j >= 1), (2, lambda j: j == 2)], ids=["all", "2"])
def test_selected_flights_in_counts_order(p2, conditioning, select):
    law = UniformLaw(p2)
    pos, sizes = simulate_batch(p2, law, 1.0, 20_000,
                                np.random.default_rng(14), conditioning)
    ref_pos, ref_sizes = _reference_flights(p2, law, 1.0, 20_000, 14, select)
    # the sizes of every group, as without a selection
    _, all_sizes = simulate_batch(p2, law, 1.0, 20_000,
                                  np.random.default_rng(14))
    assert np.array_equal(sizes, all_sizes)
    assert np.array_equal(sizes, ref_sizes)
    kept = sum(s for j, s in enumerate(sizes) if select(j))
    assert pos.shape == (kept, 2)
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
        pos, sizes = simulate(*args, **kwargs)
        seen.append(sizes)
        return pos, sizes

    monkeypatch.setattr(sampler, "simulate_batch", spy)
    grid = RadialGrid.build_uniform(p2, 1.0, 16)
    est = estimate_density(p2, law, 1.0, 50_000, grid, conditioning="all",
                           seed=16, block_size=20_000)
    assert len(seen) == 3
    assert sum(int(s.sum()) for s in seen) == 50_000
    turns = [np.arange(len(s)) for s in seen]
    assert est.n_conditioned == sum(int(s[1:].sum()) for s in seen)
    assert sum(drawn) == sum(int(np.sum((j[1:] + 1) * s[1:]))
                             for j, s in zip(turns, seen))
