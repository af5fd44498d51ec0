"""Monte Carlo oracle: flight simulation and histogram density estimates.

Sampling is exact: the switching count is Poisson, the switching times
given the count are sorted uniforms, and every direction is an exact
draw from the dissipation law.  All public entry points take explicit
seeds or generators; runs are reproducible and blocks are merged in a
fixed order, so results do not depend on the worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import (FlightParams, PolarGrid, RadialGrid, _ball_volume,
                   check_grid_time)
from .dissipation import DissipationLaw
from .errors import DomainError, EstimationError

__all__ = [
    "DensityEstimate",
    "simulate_batch",
    "estimate_density",
]

_BOUNDARY_REL_TOL = 1e-9
_CHUNK = 1 << 16  # directions per run: bounds a block's temporaries


def _is_count(x) -> bool:
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool) and x >= 0


def _check_time(t: float) -> None:
    if not (math.isfinite(t) and t > 0.0):
        raise DomainError(f"t must be positive and finite, got {t!r}")


def _check_conditioning(conditioning) -> str | int:
    if isinstance(conditioning, str) and conditioning == "all":
        return conditioning
    if not _is_count(conditioning):
        raise DomainError("conditioning must be 'all' or a nonnegative "
                          f"integer, got {conditioning!r}")
    return int(conditioning)


def simulate_batch(params: FlightParams, law: DissipationLaw, t: float,
                   n_samples: int, rng: np.random.Generator,
                   conditioning: str | int | None = None
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized simulation of ``n_samples`` flights.

    Returns the positions (k, m) of the flights that ``conditioning``
    selects, in flight order, and the event counts (n_samples,) of all
    flights.  ``None`` selects every flight, ``'all'`` those with at
    least one turn and an integer j those with exactly j turns; only
    selected flights draw switching times and directions.

    Selected flights are grouped by event count, in ascending order; a
    group draws its directions in runs of about ``_CHUNK``, in the same
    order whatever the run length.
    """
    _check_time(t)
    if conditioning is not None:
        conditioning = _check_conditioning(conditioning)
    counts = rng.poisson(params.lam * t, n_samples)
    kept = counts if conditioning is None else counts[
        counts >= 1 if conditioning == "all" else counts == conditioning]
    positions = np.empty((kept.size, params.m))
    for n in np.flatnonzero(np.bincount(kept)):
        sel = np.flatnonzero(kept == n)
        times = rng.random((sel.size, n))
        times.sort(axis=1)
        times *= t
        step = max(1, _CHUNK // (n + 1))
        for a in range(0, sel.size, step):
            rows = sel[a:a + step]
            dirs = law.sample(rng, rows.size * (n + 1))
            if n == 0:
                positions[rows] = params.c * t * dirs
                continue
            durations = np.diff(times[a:a + step], axis=1, prepend=0.0, append=t)
            dirs = dirs.reshape(-1, n + 1, params.m)
            positions[rows] = params.c * np.einsum("ij,ijk->ik", durations, dirs)
    return positions, counts


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


def _radial_bin_edges(grid: RadialGrid | PolarGrid) -> np.ndarray:
    r = grid.nodes
    inner = 0.5 * (r[:-1] + r[1:])
    return np.concatenate([[0.0], inner, [grid.support_radius]])


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
    `simulate_batch`); the event counts of all of them are drawn.
    ``grid`` must be built for ``t``, as in the recurrence.
    """
    _check_time(t)
    check_grid_time(grid, t)
    conditioning = _check_conditioning(conditioning)
    if not _is_count(seed):
        raise DomainError(f"seed must be a nonnegative integer, got {seed!r}")
    if not _is_count(block_size) or block_size < 1:
        raise DomainError(f"block_size must be a positive integer, got {block_size!r}")
    if n_samples < 10_000:
        raise DomainError("estimate_density needs at least 1e4 samples")
    if isinstance(grid, PolarGrid) and params.m != 2:
        raise DomainError("polar binning is planar only")

    n_blocks = (n_samples + block_size - 1) // block_size
    child_seeds = np.random.SeedSequence(seed).spawn(n_blocks)
    sizes = [min(block_size, n_samples - i * block_size) for i in range(n_blocks)]

    edges_r = _radial_bin_edges(grid)
    polar = isinstance(grid, PolarGrid)
    if polar:
        n_th = grid.n_theta
        dth = 2.0 * np.pi / n_th

    def one_block(args):
        size, ss = args
        rng = np.random.default_rng(ss)
        pos, counts = simulate_batch(params, law, t, size, rng, conditioning)
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
        return (hist.astype(float), len(pos), int(np.count_nonzero(counts == 0)),
                n_boundary)

    work = list(zip(sizes, child_seeds))
    if threads and threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            results = list(ex.map(one_block, work))
    else:
        results = [one_block(w) for w in work]

    hist = sum(r[0] for r in results)
    n_kept = sum(r[1] for r in results)
    n_zero = sum(r[2] for r in results)
    n_boundary = sum(r[3] for r in results)

    if n_kept == 0:
        raise EstimationError(
            f"empty conditioning set: no samples with conditioning="
            f"{conditioning!r} out of {n_samples} (zero-event count {n_zero})")

    vols = np.diff(_ball_volume(edges_r, params.m))
    if polar:
        vols = vols[:, None] * (dth / (2.0 * np.pi))
    if conditioning == "all":
        norm = n_samples  # joint AC density: mass sums to P(N >= 1)
    else:
        norm = n_kept  # conditional density: mass sums to 1
    values = hist / (norm * vols)
    errors = np.sqrt(hist) / (norm * vols)
    return DensityEstimate(grid, values, errors, n_samples, conditioning,
                           n_kept, n_boundary / max(n_kept, 1))
