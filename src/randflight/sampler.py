"""Monte Carlo oracle: flight simulation and histogram density estimates.

Sampling is exact and goes by turn-count group: one multinomial draw
over the Poisson classes gives how many flights turn exactly j times;
given j, the switching times are sorted uniforms and the j + 1
directions are exact draws from the dissipation law.  All public entry
points take explicit seeds or generators; runs are reproducible and
blocks are merged in a fixed order, so results do not depend on the
worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import (FlightParams, PolarGrid, RadialGrid, _ball_volume,
                   _check_positive, _is_count, check_grid_time)
from .dissipation import DissipationLaw
from .errors import DomainError, EstimationError

__all__ = [
    "DensityEstimate",
    "simulate_batch",
    "estimate_density",
]

_BOUNDARY_REL_TOL = 1e-9
_CHUNK = 1 << 16  # directions per run: bounds a block's temporaries


def _check_conditioning(conditioning) -> str | int:
    if isinstance(conditioning, str) and conditioning == "all":
        return conditioning
    if not _is_count(conditioning):
        raise DomainError("conditioning must be 'all' or a nonnegative "
                          f"integer, got {conditioning!r}")
    return int(conditioning)


def _group_sizes(mean: float, n: int, rng: np.random.Generator) -> list[int]:
    """Turn-count group sizes of ``n`` flights: one exact multinomial draw
    over the Poisson(mean) classes by conditional binomials (Devroye, 1986,
    ch. XI), group j taking each flight left with hazard
    h_j = pi_j / P(N >= j).  As pi_{j+1} / pi_j = mean / (j + 1), the
    hazards obey h_j = h_{j+1} / (h_{j+1} + mean / (j + 1)); one backward
    pass from h = 1 at J = mean + 40 sqrt(mean) + 60 gives them all, as
    P(N >= J) is below 1e-160 for every mean.
    """
    h = [1.0] * (math.ceil(mean + 40.0 * math.sqrt(mean) + 60.0) + 1)
    for j in range(len(h) - 2, -1, -1):
        h[j] = h[j + 1] / (h[j + 1] + mean / (j + 1))
    sizes: list[int] = []
    for hj in h:
        sizes.append(int(rng.binomial(n, hj)))
        n -= sizes[-1]
        if not n:
            break
    return sizes


def simulate_batch(params: FlightParams, law: DissipationLaw, t: float,
                   n_samples: int, rng: np.random.Generator,
                   conditioning: str | int | None = None
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized simulation of ``n_samples`` flights, by turn-count group.

    Returns ``(positions, sizes)``: ``sizes[j]`` flights have exactly j
    turns, drawn as one multinomial, and ``positions`` (k, m) holds the
    flights that ``conditioning`` selects, grouped by ascending turn
    count, each group in its own contiguous slice; there is no flight
    order.  ``None`` selects every flight, ``'all'`` those with at least
    one turn and an integer j those with exactly j turns; only selected
    groups draw switching times and directions.  The draws come in this
    order: the sizes, then per selected group its switching times at
    once and its directions in runs of about ``_CHUNK``, in the same
    order whatever the run length.
    """
    _check_positive("t", t)
    if conditioning is not None:
        conditioning = _check_conditioning(conditioning)
    lt = params.lam * t
    _check_positive("lam*t", lt)
    sizes = _group_sizes(lt, n_samples, rng)
    groups = [(n, s) for n, s in enumerate(sizes) if s and (conditioning is None or (
        n >= 1 if conditioning == "all" else n == conditioning))]
    positions = np.empty((sum(s for _, s in groups), params.m))
    a = 0
    for n, size in groups:
        u = rng.random((size, n))  # switching times over t
        u.sort(axis=1)
        step = max(1, _CHUNK // (n + 1))
        for b in range(0, size, step):
            out = positions[a + b:a + min(b + step, size)]
            legs = np.empty((len(out), n + 1))  # leg durations over t
            legs[:, :n] = u[b:b + step]
            legs[:, n] = 1.0
            np.subtract(legs[:, 1:], legs[:, :-1], out=legs[:, 1:])
            dirs = law.sample(rng, len(out) * (n + 1)).reshape(-1, n + 1, params.m)
            np.einsum("ij,ijk->ik", legs, dirs, out=out)
            out *= params.c * t
        a += size
    return positions, np.array(sizes)


@dataclass(frozen=True)
class DensityEstimate:
    """Histogram density estimate on a grid with per-bin standard errors.

    For ``conditioning='all'`` the estimate targets the absolutely
    continuous component: zero-event flights (which sit exactly on the
    support sphere) are neither simulated nor binned, so the binned mass
    estimates 1 - exp(-lam t).  ``boundary_fraction`` is the share of
    binned flights within 1e-9 (relative) of that sphere.
    For integer conditioning the estimate is the conditional density
    given that many turns, normalized by the conditioned sample count.
    """

    grid: RadialGrid | PolarGrid
    values: np.ndarray
    standard_errors: np.ndarray
    n_samples: int
    conditioning: str | int
    n_conditioned: int
    boundary_fraction: float


def estimate_density(params: FlightParams, law: DissipationLaw, t: float,
                     n_samples: int, grid: RadialGrid | PolarGrid,
                     conditioning: str | int = "all",
                     seed: int = 0,
                     block_size: int = 1_000_000,
                     threads: int | None = None) -> DensityEstimate:
    """Bin-count density estimate from ``n_samples`` simulated flights.

    ``seed`` is a nonnegative integer: it roots one ``SeedSequence`` whose
    children seed the blocks, so equal seeds give equal estimates.  Only
    the flights that ``conditioning`` keeps are simulated (see
    `simulate_batch`); the turn-count group sizes of all are drawn.
    ``grid`` must be built for ``t``, as in the recurrence.
    """
    check_grid_time(grid, t)
    conditioning = _check_conditioning(conditioning)
    if not _is_count(seed):
        raise DomainError(f"seed must be a nonnegative integer, got {seed!r}")
    if not _is_count(block_size) or block_size < 1:
        raise DomainError(f"block_size must be a positive integer, got {block_size!r}")
    if not _is_count(n_samples) or n_samples < 10_000:
        raise DomainError(f"n_samples must be an integer >= 1e4, got {n_samples!r}")
    if threads is not None and not (_is_count(threads) and threads >= 1):
        raise DomainError(f"threads must be None or an integer >= 1, got {threads!r}")
    if isinstance(grid, PolarGrid) and params.m != 2:
        raise DomainError("polar binning is planar only")

    starts = range(0, n_samples, block_size)
    work = list(zip([min(block_size, n_samples - a) for a in starts],
                    np.random.SeedSequence(seed).spawn(len(starts))))

    r = grid.nodes  # bin edges: node midpoints, the origin and the support radius
    edges_r = np.concatenate([[0.0], 0.5 * (r[:-1] + r[1:]), [grid.support_radius]])
    vols = np.diff(_ball_volume(edges_r, params.m))  # before any flight runs
    polar = isinstance(grid, PolarGrid)
    if polar:
        n_th, dth = grid.n_theta, 2.0 * np.pi / grid.n_theta
        vols = vols[:, None] * (dth / (2.0 * np.pi))

    def one_block(size, ss):
        pos, group_sizes = simulate_batch(params, law, t, size,
                                          np.random.default_rng(ss), conditioning)
        radii = np.sqrt(np.einsum("ij,ij->i", pos, pos))
        ct = params.radius(t)
        n_boundary = int(np.count_nonzero(radii >= ct * (1.0 - _BOUNDARY_REL_TOL)))
        if polar:
            theta = np.arctan2(pos[:, 1], pos[:, 0])
            # angular bins centered on the grid angles, with wraparound
            jth = np.floor((theta + np.pi + 0.5 * dth) / dth).astype(int) % n_th
            ir = np.searchsorted(edges_r, radii, side="right") - 1
            ok = ir < grid.n_r
            hist = np.bincount(ir[ok] * n_th + jth[ok],
                               minlength=grid.n_r * n_th).reshape(grid.n_r, n_th)
        else:
            hist, _ = np.histogram(radii, bins=edges_r)
        return hist.astype(float), len(pos), int(group_sizes[0]), n_boundary

    if threads and threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            results = list(ex.map(one_block, *zip(*work)))
    else:
        results = [one_block(*w) for w in work]

    hist, n_kept, n_zero, n_boundary = (sum(col) for col in zip(*results))
    if n_kept == 0:
        raise EstimationError(
            f"empty conditioning set: no samples with conditioning="
            f"{conditioning!r} out of {n_samples} (zero-event count {n_zero})")

    # "all": joint AC density, mass P(N >= 1); j: conditional, mass 1
    norm = n_samples if conditioning == "all" else n_kept
    values = hist / (norm * vols)
    errors = np.sqrt(hist) / (norm * vols)
    return DensityEstimate(grid, values, errors, n_samples, conditioning,
                           n_kept, n_boundary / max(n_kept, 1))
