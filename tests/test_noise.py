import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spdecontrol.errors import ModelMismatch
from spdecontrol.forward import SpatialGrid
from spdecontrol.noise import (
    LevySpec,
    PathBundle,
    TimeGrid,
    brownian_increment_matrix,
    jump_count_matrices,
    sample_bundle,
)


def test_time_grid_nodes_have_no_accumulation_drift():
    grid = TimeGrid(0.0, 1.0, 3)
    assert grid.nodes[3] == pytest.approx(1.0, abs=0)
    # the step loops read nodes; node k is t_start + k dt, bit for bit
    for grid in (grid, TimeGrid(0, 0.5, 50), TimeGrid(0.1, 0.97, 333), TimeGrid(-0.3, 0.77, 1024)):
        assert grid.nodes == tuple(grid.t_start + k * grid.dt for k in range(grid.n_steps + 1))


def test_time_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(0.0, 1.0, 0)
    with pytest.raises(ValueError):
        TimeGrid(1.0, 1.0, 5)


def test_grids_refuse_a_count_that_is_not_an_integer():
    # TimeGrid(0, 1, 2.5) ended at 1.2, and SpatialGrid(0, 1, 8.5) had 9.5 nodes
    with pytest.raises(TypeError, match="integer"):
        TimeGrid(0.0, 1.0, 2.5)
    with pytest.raises(TypeError, match="integer"):
        SpatialGrid(0.0, 1.0, 8.5)
    assert TimeGrid(0.0, 1.0, np.int64(4)).nodes[-1] == 1.0
    assert SpatialGrid(0.0, 1.0, np.int64(8)).n_nodes == 9


@pytest.mark.parametrize("make", [
    lambda: LevySpec(((0.5, math.nan),)),
    lambda: LevySpec(((0.5, math.inf),)),
    lambda: LevySpec(((math.inf, 1.0),)),
    lambda: LevySpec(((math.nan, 1.0),)),
    lambda: TimeGrid(0.0, math.inf, 4),
    lambda: TimeGrid(-math.inf, 1.0, 4),
    lambda: TimeGrid(math.nan, 1.0, 4),
    lambda: SpatialGrid(0.0, math.inf, 4),
    lambda: SpatialGrid(-math.inf, 1.0, 4),
    lambda: SpatialGrid(0.0, math.nan, 4),
])
def test_noise_and_grid_specs_refuse_a_non_finite_number(make):
    # a NaN rate died inside numpy at the first draw, TimeGrid(0, inf, 4) had
    # dt = inf and NaN nodes, and SpatialGrid(0, inf, 4) had dx = inf
    with pytest.raises(ValueError, match="finite"):
        make()


def test_levy_spec_rejects_negative_rates():
    with pytest.raises(ValueError):
        LevySpec(atoms=((1.0, -0.5),))
    levy = LevySpec(atoms=((1, 0.5), (-2.0, 0)))
    assert levy.atoms == ((1.0, 0.5), (-2.0, 0.0))


def test_bundle_reproducible_and_channel_independent():
    grid = TimeGrid(0.0, 1.0, 64)
    levy = LevySpec(atoms=((1.0, 3.0),))
    b1 = sample_bundle(grid, levy, seed=7, path_index=2)
    b2 = sample_bundle(grid, levy, seed=7, path_index=2)
    assert np.array_equal(b1.brownian_increments, b2.brownian_increments)
    assert np.array_equal(b1.jump_counts, b2.jump_counts)
    other_channel = sample_bundle(grid, levy, seed=7, path_index=2, channel=1)
    assert not np.array_equal(b1.brownian_increments, other_channel.brownian_increments)


def test_increment_matrix_rows_match_bundles_in_any_order():
    grid = TimeGrid(0.0, 1.0, 32)
    mat = brownian_increment_matrix(grid, seed=5, path_indices=[9, 0, 4])
    for row, p in zip(mat, [9, 0, 4]):
        b = sample_bundle(grid, LevySpec(), seed=5, path_index=p)
        assert np.array_equal(row, b.brownian_increments)


def test_jump_counts_match_bundle_events():
    # a bundle's counts are its path's rows of the ensemble's count matrices
    grid = TimeGrid(0.0, 2.0, 40)
    levy = LevySpec(atoms=((0.5, 2.0), (-1.0, 1.0)))
    counts = jump_count_matrices(grid, levy, seed=3, path_indices=[4, 1, 0])
    for i, p in enumerate([4, 1, 0]):
        b = sample_bundle(grid, levy, seed=3, path_index=p)
        assert b.jump_counts.dtype == np.int64
        assert np.array_equal(b.jump_counts, np.stack([c[i] for c in counts]))
    assert sample_bundle(grid, LevySpec(), seed=3, path_index=1).jump_counts.shape == (0, 40)


@pytest.mark.parametrize(
    "db_shape, counts_shape", [((40,), (1, 40)), ((40,), (2, 39)), ((40,), (80,)), ((39,), (2, 40))]
)
def test_bundle_rejects_noise_that_does_not_fit_grid_and_levy(db_shape, counts_shape):
    grid = TimeGrid(0.0, 2.0, 40)
    levy = LevySpec(atoms=((0.5, 2.0), (-1.0, 1.0)))
    with pytest.raises(ModelMismatch):
        PathBundle(grid=grid, brownian_increments=np.zeros(db_shape),
                   jump_counts=np.zeros(counts_shape, dtype=np.int64), levy=levy)


def test_brownian_increment_moments():
    grid = TimeGrid(0.0, 1.0, 16)
    mat = brownian_increment_matrix(grid, seed=11, path_indices=range(4000))
    bt = mat.sum(axis=1)
    assert abs(np.mean(bt)) < 3.0 / math.sqrt(4000)
    assert np.var(bt) == pytest.approx(1.0, rel=0.1)


def test_compensated_jump_sum_is_centered():
    # sum over steps of mark * (N_k - lam dt) has mean zero when the counts
    # have the atom's Poisson rate; the rows are sample_bundle's counts
    grid = TimeGrid(0.0, 1.0, 50)
    mark, lam = 2.0, 3.0
    (counts,) = jump_count_matrices(grid, LevySpec(atoms=((mark, lam),)), seed=13,
                                    path_indices=range(3000))
    vals = np.sum(mark * (counts - grid.dt * lam), axis=1)
    m = np.mean(vals)
    se = np.std(vals, ddof=1) / math.sqrt(len(vals))
    assert abs(m) <= 3 * se


# seeds of one to six uint32 words: SeedSequence pads fewer than four with
# zeros and hashes the words beyond four into the pool one by one
SEEDS = st.one_of(
    st.sampled_from([0, 2**32, 2**64, 2**128]),
    st.integers(0, 2**32 - 1),
    st.integers(2**32, 2**64 - 1),
    st.integers(2**64, 2**128 - 1),
    st.integers(2**128, 2**192 - 1),
)
# a path index of two or more words moves the channel key's hash position
PATHS = st.one_of(
    st.sampled_from([0, 2**32 - 1, 2**32]),
    st.integers(0, 2**32 - 1),
    st.integers(2**32, 2**80),
)


@st.composite
def blocks(draw):
    """A block of path indices: a range, or an unsorted list or int64 array
    with repeated indices, mixing indices of one and of more words."""
    kind = draw(st.sampled_from(["range", "list", "array"]))
    if kind == "range":
        start = draw(PATHS)
        return range(start, start + draw(st.integers(1, 4)))
    paths = draw(st.lists(PATHS, min_size=1, max_size=5))
    paths = draw(st.permutations(paths + draw(st.lists(st.sampled_from(paths), max_size=2))))
    if kind == "array":
        return np.array([p % 2**63 for p in paths], dtype=np.int64)
    return paths


def numpy_stream(seed, path_index, key):
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(entropy=seed, spawn_key=(int(path_index), key))))


@settings(max_examples=80, deadline=None)
@given(seed=SEEDS, block=blocks(), channel=st.sampled_from([0, 9, 13]))
def test_every_row_is_numpys_own_keyed_stream(seed, block, channel):
    # the oracle is numpy's SeedSequence -> PCG64 -> Generator for the key
    # (seed, path, 2 * channel + sub), sub 0 for increments, 1 for counts
    grid = TimeGrid(0.0, 1.0, 6)
    levy = LevySpec(atoms=((0.5, 2.0), (-1.0, 0.7)))
    db = brownian_increment_matrix(grid, seed, block, channel)
    counts = jump_count_matrices(grid, levy, seed, block, channel)
    assert db.shape == (len(block), grid.n_steps)
    for i, p in enumerate(block):
        want = numpy_stream(seed, p, 2 * channel).standard_normal(grid.n_steps) * np.sqrt(grid.dt)
        assert np.array_equal(db[i], want)
        rng = numpy_stream(seed, p, 2 * channel + 1)
        for a, (_, lam) in enumerate(levy.atoms):
            assert np.array_equal(counts[a][i], rng.poisson(lam * grid.dt, grid.n_steps))


@pytest.mark.parametrize(
    "seed, paths, channel",
    [(-1, [0], 0), (3, [-1], 0), (3, [0, 2**40, -2**40], 0), (3, np.array([5, -1]), 0), (3, [0], -1)],
)
def test_negative_seed_index_or_channel_raises_value_error(seed, paths, channel):
    # as SeedSequence does; a cast to uint32 would wrap it to another stream
    grid = TimeGrid(0.0, 1.0, 4)
    levy = LevySpec(atoms=((0.5, 2.0),))
    for sub in (0, 1):
        with pytest.raises(ValueError):
            numpy_stream(seed, paths[-1], 2 * channel + sub)
    with pytest.raises(ValueError):
        brownian_increment_matrix(grid, seed, paths, channel)
    with pytest.raises(ValueError):
        jump_count_matrices(grid, levy, seed, paths, channel)
    with pytest.raises(ValueError):
        sample_bundle(grid, levy, seed, paths[-1], channel)
