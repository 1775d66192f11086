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
import operator
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
        operator.index(self.n_steps)  # TypeError for a float, integral or not
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if not (np.isfinite(self.t_start) and self.t_start < self.t_end < np.inf):
            raise ValueError(f"t_end must exceed t_start, both finite: [{self.t_start}, {self.t_end}]")

    @property
    def dt(self) -> float:
        return (self.t_end - self.t_start) / self.n_steps

    @functools.cached_property
    def nodes(self) -> tuple:
        """The grid's nodes t_start + k dt, k = 0..n_steps, as a tuple of
        floats, computed once per grid: node k directly from k, never by
        accumulation."""
        return tuple((self.t_start + np.arange(self.n_steps + 1) * self.dt).tolist())


@dataclass(frozen=True)
class LevySpec:
    """Finite-atom approximation of a Levy measure: atoms = [(mark, rate), ...]."""

    atoms: tuple = ()

    def __post_init__(self):
        atoms = tuple((float(z), float(lam)) for z, lam in self.atoms)
        if not all(np.isfinite(z) and 0 <= lam < np.inf for z, lam in atoms):
            raise ValueError(f"atom marks must be finite and rates finite and nonnegative: {atoms}")
        object.__setattr__(self, "atoms", atoms)


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


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx), whose output
# numpy keeps stable across releases.  The key of a stream is
# SeedSequence(entropy=seed, spawn_key=(path, 2 * channel + sub)): the seed's
# words, padded to the pool size, then the path's and the channel key's words
# are hashed into a pool of 4 uint32 words, and generate_state(4, np.uint64)
# hashes the pool, read cyclically, into the 8 uint32 halves of PCG64's 4
# state words.  Only the path's words differ between the rows of a block.
_MASK32 = 0xFFFFFFFF
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _words(value: int) -> list:
    """value as little-endian uint32 words, at least one, as SeedSequence
    splits an integer; a negative value raises ValueError as it does."""
    if value < 0:
        raise ValueError("expected non-negative integer")
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _hash_const(k: int, init: int = _INIT_A, mult: int = _MULT_A) -> int:
    """The hash constant after k steps: init * mult**k mod 2**32."""
    return init * pow(mult, k, 1 << 32) & _MASK32


def _hashmix(value: int, k: int) -> int:
    """SeedSequence's hashmix of value as the hash's call number k."""
    v = (value ^ _hash_const(k)) * _hash_const(k + 1) & _MASK32
    return v ^ v >> 16


def _mix(x: int, y: int) -> int:
    """SeedSequence's mix of pool word x with hashed word y."""
    r = (_MIX_L * x - _MIX_R * y) & _MASK32
    return r ^ r >> 16


def _cycled(values: list) -> np.ndarray:
    """uint32 constants, one per pool word or per state half, as a read-only
    (1, 8) row: the pool read cyclically, as generate_state reads it."""
    row = np.resize(np.array(values, dtype=np.uint32), (1, 2 * _POOL))
    row.flags.writeable = False
    return row


@functools.lru_cache
def _keyed_constants(seed: int, key: int, width: int) -> tuple:
    """What the keys SeedSequence(seed, spawn_key=(path, key)) of all paths
    of `width` words share, hashed once in Python ints: the pool after the
    seed's words (times _MIX_L), the hash constants each path word meets
    (a pair per word), the hashed key words (times _MIX_R) and the two
    constants of generate_state, all _cycled."""
    run = _words(seed)
    run += [0] * (_POOL - len(run))
    pool = [_hashmix(w, k) for k, w in enumerate(run[:_POOL])]
    k = _POOL
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], k))
                k += 1
    for w in run[_POOL:]:
        pool = [_mix(x, _hashmix(w, k + d)) for d, x in enumerate(pool)]
        k += _POOL
    path_consts = []
    for _ in range(width):
        path_consts.append((_cycled([_hash_const(k + d) for d in range(_POOL)]),
                            _cycled([_hash_const(k + d + 1) for d in range(_POOL)])))
        k += _POOL
    key_terms = []
    for w in _words(key):
        key_terms.append(_cycled([_MIX_R * _hashmix(w, k + d) & _MASK32 for d in range(_POOL)]))
        k += _POOL
    state_consts = [_hash_const(i, _INIT_B, _MULT_B) for i in range(2 * _POOL + 1)]
    return (
        _cycled([_MIX_L * x & _MASK32 for x in pool]),
        path_consts,
        key_terms,
        _cycled(state_consts[:-1]),
        _cycled(state_consts[1:]),
    )


# 0-d operands: numpy applies them faster than Python ints
_SHIFT = np.array(16, dtype=np.uint32)
_MIX_L_U32 = np.array(_MIX_L, dtype=np.uint32)
_MIX_R_U32 = np.array(_MIX_R, dtype=np.uint32)
_LE_U32, _LE_U64 = np.dtype("<u4"), np.dtype("<u8")


def _state_words(seed: int, key: int, path_indices) -> np.ndarray:
    """SeedSequence(entropy=seed, spawn_key=(p, key)).generate_state(4,
    np.uint64) for every path p of path_indices, as a (len, 4) uint64 array
    with C-contiguous rows.  Rows whose paths have the same number of words
    are hashed together by uint32 array arithmetic, which wraps silently as
    SeedSequence's C arithmetic does.  A row's pool is kept twice over, a
    row of 8 in the order generate_state reads it, so that it ends as the
    row's 8 state halves."""
    paths, groups = [], {}  # groups: number of words of a path -> its rows
    for p in map(int, path_indices):
        if p < 0:
            raise ValueError("expected non-negative integer")
        groups.setdefault((p.bit_length() + 31) // 32 or 1, []).append(len(paths))
        paths.append(p)
    out = None if len(groups) == 1 else np.empty((len(paths), 2 * _POOL), dtype=np.uint32)
    for width, rows in groups.items():
        mixed_pool, path_consts, key_terms, b_xor, b_mul = _keyed_constants(seed, key, width)
        # _MIX_R * _hashmix of each path word, then of each key word
        terms = []
        for j, (h_xor, h_mul) in enumerate(path_consts):
            w = np.array([paths[i] >> 32 * j & _MASK32 for i in rows], dtype=np.uint32)
            v = (w[:, None] ^ h_xor) * h_mul
            terms.append((v ^ (v >> _SHIFT)) * _MIX_R_U32)
        pool = None
        for term in terms + key_terms:
            # _mix(pool, word), the seed's pool coming times _MIX_L
            pool = (mixed_pool if pool is None else pool * _MIX_L_U32) - term
            pool = pool ^ (pool >> _SHIFT)
        state = (pool ^ b_xor) * b_mul
        state = state ^ (state >> _SHIFT)
        if out is None:
            out = state
        else:
            out[rows] = state
    # generate_state's own conversion: little-endian uint32 pairs
    return out.astype(_LE_U32, copy=False).view(_LE_U64).astype(np.uint64, copy=False)


class _StateWords(np.random.bit_generator.ISeedSequence):
    """A stream's PCG64 state words, handed to PCG64 through numpy's public
    seed-sequence interface.  PCG64 asks for generate_state(4, np.uint64)
    and reads the array's raw buffer, so the words are one C-contiguous
    uint64 row."""

    def __init__(self, words: np.ndarray):
        self._words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != _POOL or dtype != np.uint64:
            raise ValueError("a keyed stream holds only generate_state(4, np.uint64)")
        return self._words


def _streams(seed: int, path_indices, channel: int, sub: int):
    """The Generator of each path of path_indices in turn, built one at a
    time: bit for bit the stream of SeedSequence(entropy=seed,
    spawn_key=(path, 2 * channel + sub)), keyed for the whole block in one
    pass."""
    states = _state_words(operator.index(seed), operator.index(2 * channel + sub), path_indices)
    return (np.random.Generator(np.random.PCG64(_StateWords(words))) for words in states)


def _rng(seed: int, path_index: int, channel: int, sub: int) -> np.random.Generator:
    """The stream of one path: a block of one of _streams."""
    return next(_streams(seed, [path_index], channel, sub))


def brownian_increment_matrix(
    grid: TimeGrid, seed: int, path_indices, channel: int = 0
) -> np.ndarray:
    """Brownian increments for several paths at once, row i = path_indices[i].

    Row i is bit-identical to sample_bundle(..., path_index=path_indices[i],
    channel=channel).brownian_increments.
    """
    out = np.empty((len(path_indices), grid.n_steps))
    for row, rng in zip(out, _streams(seed, path_indices, channel, _SUB_BROWNIAN)):
        rng.standard_normal(out=row)
    out *= np.sqrt(grid.dt)
    return out


def jump_count_matrices(
    grid: TimeGrid, levy: LevySpec, seed: int, path_indices, channel: int = 0
) -> list:
    """Per-atom Poisson event counts, one (n_paths, n_steps) matrix per atom."""
    if not levy.atoms:
        return []
    counts = [np.empty((len(path_indices), grid.n_steps), dtype=np.int64) for _ in levy.atoms]
    for i, rng in enumerate(_streams(seed, path_indices, channel, _SUB_POISSON)):
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
