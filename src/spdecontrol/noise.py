"""Driving-noise generation: Brownian increments and finite-atom Poisson
event counts on a shared uniform time grid, drawn for a block of paths at
once (brownian_increment_matrix, jump_count_matrices) or for one path as a
PathBundle.

Streams are counter-based: every (seed, path_index, channel) triple owns an
independent substream, so paths can be generated in any order, or in parallel,
with bit-identical results.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import ModelMismatch

__all__ = [
    "TimeGrid",
    "LevySpec",
    "PathBundle",
    "sample_bundle",
    "brownian_increment_matrix",
    "jump_count_matrices",
]

# substream roles within a channel pair
_SUB_BROWNIAN = 0
_SUB_POISSON = 1


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [t_start, t_end] with n_steps steps."""

    t_start: float
    t_end: float
    n_steps: int

    def __post_init__(self):
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if not self.t_end > self.t_start:
            raise ValueError("t_end must exceed t_start")

    @property
    def dt(self) -> float:
        return (self.t_end - self.t_start) / self.n_steps

    def times(self) -> np.ndarray:
        # node k computed directly from k, never by accumulation
        return self.t_start + np.arange(self.n_steps + 1) * self.dt

    @functools.cached_property
    def nodes(self) -> tuple:
        """times() as a tuple of floats, computed once per grid for the step
        loops."""
        return tuple(self.times().tolist())


@dataclass(frozen=True)
class LevySpec:
    """Finite-atom approximation of a Levy measure: atoms = [(mark, rate), ...]."""

    atoms: tuple = ()

    def __post_init__(self):
        atoms = tuple((float(z), float(lam)) for z, lam in self.atoms)
        if any(lam < 0 for _, lam in atoms):
            raise ValueError("atom rates must be nonnegative")
        object.__setattr__(self, "atoms", atoms)

    @property
    def marks(self) -> np.ndarray:
        return np.array([z for z, _ in self.atoms])


@dataclass(frozen=True)
class PathBundle:
    """One realization of the driving noise on a time grid.

    jump_counts[a, k] is the number of events of atom a of levy during step
    k, an (n_atoms, n_steps) integer array, so a bundle is one row of the
    brownian_increment_matrix / jump_count_matrices block of its path.
    Increments or counts of another shape raise ModelMismatch.
    """

    grid: TimeGrid
    brownian_increments: np.ndarray
    jump_counts: np.ndarray
    levy: LevySpec = field(default_factory=LevySpec)

    def __post_init__(self):
        want = ((self.grid.n_steps,), (len(self.levy.atoms), self.grid.n_steps))
        got = (np.shape(self.brownian_increments), np.shape(self.jump_counts))
        if got != want:
            raise ModelMismatch(f"noise of shapes {got}, not {want} for {self.levy}")


def _rng(seed: int, path_index: int, channel: int, sub: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(path_index, 2 * channel + sub))
    return np.random.Generator(np.random.PCG64(ss))


def brownian_increment_matrix(
    grid: TimeGrid, seed: int, path_indices, channel: int = 0
) -> np.ndarray:
    """Brownian increments for several paths at once, row i = path_indices[i].

    Row i is bit-identical to sample_bundle(..., path_index=path_indices[i],
    channel=channel).brownian_increments.
    """
    sd = np.sqrt(grid.dt)
    out = np.empty((len(path_indices), grid.n_steps))
    for i, p in enumerate(path_indices):
        out[i] = _rng(seed, int(p), channel, _SUB_BROWNIAN).standard_normal(grid.n_steps) * sd
    return out


def jump_count_matrices(
    grid: TimeGrid, levy: LevySpec, seed: int, path_indices, channel: int = 0
) -> list:
    """Per-atom Poisson event counts, one (n_paths, n_steps) matrix per atom."""
    if not levy.atoms:
        return []
    counts = [np.empty((len(path_indices), grid.n_steps), dtype=np.int64) for _ in levy.atoms]
    for i, p in enumerate(path_indices):
        rng = _rng(seed, int(p), channel, _SUB_POISSON)
        for a, (_, lam) in enumerate(levy.atoms):
            counts[a][i] = rng.poisson(lam * grid.dt, grid.n_steps)
    return counts


def sample_bundle(
    grid: TimeGrid,
    levy: LevySpec,
    seed: int,
    path_index: int,
    channel: int = 0,
) -> PathBundle:
    """Draw one reproducible noise bundle: row path_index of
    brownian_increment_matrix and of each jump_count_matrices matrix.

    Brownian and Poisson streams use separate substreams of the
    (seed, path_index, channel) key and are statistically independent.
    """
    db = brownian_increment_matrix(grid, seed, [path_index], channel)[0]
    counts = jump_count_matrices(grid, levy, seed, [path_index], channel)
    return PathBundle(
        grid=grid,
        brownian_increments=db,
        jump_counts=np.array([c[0] for c in counts], dtype=np.int64).reshape(-1, grid.n_steps),
        levy=levy,
    )
