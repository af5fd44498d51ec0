"""Monte Carlo oracle: flight simulation and histogram density estimates.

Sampling is exact: the switching count is Poisson, the switching times
given the count are sorted uniforms, and every direction is an exact
draw from the dissipation law.  All public entry points take explicit
seeds or generators; runs are reproducible and blocks are merged in a
fixed order, so results do not depend on the worker count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import FlightParams, PolarGrid, RadialGrid, _ball_volume
from .dissipation import DissipationLaw
from .errors import DomainError, EstimationError

__all__ = [
    "DensityEstimate",
    "simulate_batch",
    "estimate_density",
]

_BOUNDARY_REL_TOL = 1e-9
_CHUNK = 1 << 16  # directions (and radii) per run: bounds a block's temporaries


def simulate_batch(params: FlightParams, law: DissipationLaw, t: float,
                   n_samples: int,
                   rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized simulation; returns (positions (n, m), event counts (n,)).

    Samples are grouped by event count, in a deterministic order; a group
    draws its directions in runs of about ``_CHUNK``, in the same order
    whatever the run length.
    """
    counts = rng.poisson(params.lam * t, n_samples)
    positions = np.empty((n_samples, params.m))
    for n in np.unique(counts):
        sel = np.flatnonzero(counts == n)
        times = np.sort(rng.random((sel.size, n)), axis=1) * t
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
    continuous component: zero-event samples (which sit exactly on the
    support sphere) are excluded from the bins and reported through
    ``boundary_fraction``; the binned mass then estimates 1 - exp(-lam t).
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
    children seed the blocks, so equal seeds give equal estimates.
    """
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise DomainError(f"seed must be a nonnegative integer, got {seed!r}")
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
        pos, counts = simulate_batch(params, law, t, size, rng)
        n_zero = int(np.count_nonzero(counts == 0))
        if conditioning == "all":
            keep = counts >= 1
        else:
            keep = counts == int(conditioning)
        radii = np.concatenate([np.linalg.norm(pos[a:a + _CHUNK], axis=1)
                                for a in range(0, len(pos), _CHUNK)])[keep]
        ct = params.radius(t)
        n_boundary = int(np.count_nonzero(radii >= ct * (1.0 - _BOUNDARY_REL_TOL)))
        if polar:
            theta = np.arctan2(pos[keep, 1], pos[keep, 0])
            # angular bins centered on the grid angles, with wraparound
            jth = np.floor((theta + np.pi + 0.5 * dth) / dth).astype(int) % n_th
            ir = np.searchsorted(edges_r, radii, side="right") - 1
            ok = (ir >= 0) & (ir < grid.n_r)
            hist = np.zeros((grid.n_r, n_th))
            np.add.at(hist, (ir[ok], jth[ok]), 1.0)
        else:
            hist, _ = np.histogram(radii, bins=edges_r)
        return hist.astype(float), int(keep.sum()), n_zero, n_boundary

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
