import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spdecontrol import forward
from spdecontrol.donsker import FirstOrderChaosSpec, HistorySnapshot, effective_mean
from spdecontrol.errors import CoefficientShapeMismatch, LinearSolveFailure, ModelMismatch, NonParabolic
from spdecontrol.forward import (
    AssembledOperator,
    CoefficientSet,
    ControlPolicy,
    OperatorSpec,
    PathHistory,
    SpatialGrid,
    insider_means,
    assemble_operator,
    solve_forward,
    weak_residual,
)
from spdecontrol.maxprinciple import run_ensemble
from spdecontrol.noise import LevySpec, PathBundle, TimeGrid, jump_count_matrices, sample_bundle
from spdecontrol.zakai import SignalModel, transport_bands


def zero_bundle(tgrid):
    return PathBundle(
        grid=tgrid,
        brownian_increments=np.zeros(tgrid.n_steps),
        jump_counts=np.zeros((0, tgrid.n_steps), dtype=np.int64),
    )


def heat_op():
    return OperatorSpec(
        second_coeff=lambda t, x, u, z: 0.5,
        first_coeff=lambda t, x, u, z: 0.0,
    )


def null_control():
    return ControlPolicy(rule=lambda k, t, x, z, hist: 0.0)


def test_grid_basics():
    grid = SpatialGrid(0.0, 2.0, 4)
    assert grid.dx == pytest.approx(0.5)
    assert grid.n_nodes == 5
    assert np.allclose(grid.nodes(), [0.0, 0.5, 1.0, 1.5, 2.0])
    with pytest.raises(ValueError):
        SpatialGrid(0.0, 1.0, 1)


def test_assemble_operator_rejects_negative_diffusion():
    grid = SpatialGrid(0.0, 1.0, 8)
    op = OperatorSpec(
        second_coeff=lambda t, x, u, z: -0.1,
        first_coeff=lambda t, x, u, z: 0.0,
    )
    with pytest.raises(NonParabolic):
        assemble_operator(op, grid, 0.0, 0.0, 0.0)


def test_assembled_boundary_rows_are_zero():
    grid = SpatialGrid(0.0, 1.0, 8)
    A = assemble_operator(heat_op(), grid, 0.0, 0.0, 0.0)
    v = np.ones(grid.n_nodes)
    out = A.apply(v)
    assert out[0] == 0.0 and out[-1] == 0.0


def test_implicit_solve_matches_dense_inverse():
    grid = SpatialGrid(0.0, 1.0, 10)
    A = assemble_operator(heat_op(), grid, 0.0, 0.0, 0.0)
    rhs = np.sin(math.pi * grid.nodes())
    y = A.solve_implicit(0.01, rhs)
    dense = np.linalg.solve(np.eye(grid.n_nodes) - 0.01 * A.dense(), rhs)
    assert np.allclose(y, dense, atol=1e-12)
    multi = A.solve_implicit(0.01, np.vstack([rhs, 2 * rhs]))
    assert np.allclose(multi[1], 2 * y, atol=1e-12)


JUMP_LEVY = LevySpec(atoms=((0.5, 3.0), (-0.8, 1.5)))


def jump_op(levy=JUMP_LEVY):
    # shifts up to about 1.0 on the unit interval, so some shifted points clip
    return OperatorSpec(
        second_coeff=lambda t, x, u, z: 0.5 + 0.1 * u * u,
        first_coeff=lambda t, x, u, z: 0.1 * u * (1.0 + x),
        jump_shift=lambda t, x, u, z, mark: mark * u * (0.3 + x),
        levy=levy,
    )


def loop_jump_part(op, grid, t, u, z):
    """Row-by-row reference assembly of the nonlocal part of one operator."""
    xs, n, dx = grid.nodes(), grid.n_nodes, grid.dx
    dense = np.zeros((n, n))
    for mark, lam in op.levy.atoms:
        gam = np.broadcast_to(np.asarray(op.jump_shift(t, xs, u, z, mark), dtype=float), (n,))
        shifted = np.clip(xs + gam, grid.x_left, grid.x_right)
        idx = np.clip(np.searchsorted(xs, shifted) - 1, 0, n - 2)
        w = (shifted - xs[idx]) / dx
        for i in range(1, n - 1):
            dense[i, idx[i]] += lam * (1.0 - w[i])
            dense[i, idx[i] + 1] += lam * w[i]
            dense[i, i] -= lam
            dense[i, i - 1] += lam * gam[i] / (2.0 * dx)
            dense[i, i + 1] -= lam * gam[i] / (2.0 * dx)
    return dense


@pytest.mark.parametrize("per_node", [False, True], ids=["(n_paths,1)", "(n_paths,n_nodes)"])
def test_stacked_assembly_slices_match_single_operators(per_node):
    grid = SpatialGrid(0.0, 1.0, 12)
    rng = np.random.default_rng(0)
    u = rng.uniform(0.0, 1.0, (5, grid.n_nodes if per_node else 1))
    op = jump_op()
    stack = assemble_operator(op, grid, 0.2, u, 0.3)
    v = rng.standard_normal((5, grid.n_nodes))
    for p in range(5):
        single = assemble_operator(op, grid, 0.2, u[p], 0.3)
        local = assemble_operator(replace(op, jump_shift=None), grid, 0.2, u[p], 0.3).dense()
        assert np.array_equal(stack.dense()[p], single.dense())
        assert np.array_equal(single.dense(), local + loop_jump_part(op, grid, 0.2, u[p], 0.3))
        assert np.allclose(stack.apply(v)[p], single.apply(v[p]), rtol=1e-13, atol=1e-12)


def test_stacked_band_solve_matches_solve_banded():
    grid = SpatialGrid(0.0, 1.0, 20)
    op = OperatorSpec(
        second_coeff=lambda t, x, u, z: 0.2 + u * u,
        first_coeff=lambda t, x, u, z: 2.0 * u * np.cos(x),
    )
    rng = np.random.default_rng(1)
    u = rng.uniform(-1.0, 1.0, (7, 1))
    rhs = rng.standard_normal((7, grid.n_nodes))
    y = assemble_operator(op, grid, 0.0, u, 0.0).solve_implicit(0.01, rhs)
    for p in range(7):
        ref = assemble_operator(op, grid, 0.0, u[p], 0.0).solve_implicit(0.01, rhs[p])
        assert np.array_equal(y[p], ref)


@pytest.mark.parametrize("n_cells", [20, 300])
def test_jump_operator_solves_match_dense_reference(n_cells):
    # jump_op's shifts span several cells, so its operators are wider than
    # tridiagonal and take the general banded solve; at 300 cells the stack's
    # band is one LAPACK factors blocked, and its paths' widths differ
    grid = SpatialGrid(0.0, 1.0, n_cells)
    op = jump_op()
    dt = 0.01
    rng = np.random.default_rng(2)
    u = rng.uniform(0.0, 1.0, (6, 1))
    rhs = rng.standard_normal((6, grid.n_nodes))
    eye = np.eye(grid.n_nodes)
    shared = assemble_operator(op, grid, 0.2, 0.7, 0.3)
    assert min(shared.kl, shared.ku) > 2
    y = shared.solve_implicit(dt, rhs)
    ref = np.linalg.solve(eye - dt * shared.dense(), rhs.T).T
    assert np.max(np.abs(y - ref)) <= 1e-12 * np.max(np.abs(ref))
    stack = assemble_operator(op, grid, 0.2, u, 0.3)
    assert n_cells < 300 or (stack.ku > 64 and stack.kl >= 32)
    y = stack.solve_implicit(dt, rhs)
    ref = np.linalg.solve(eye - dt * stack.dense(), rhs[..., None])[..., 0]
    assert np.max(np.abs(y - ref)) <= 1e-12 * np.max(np.abs(ref))
    for p in range(6):
        alone = assemble_operator(op, grid, 0.2, u[p : p + 1], 0.3)
        assert np.array_equal(alone.solve_implicit(dt, rhs[p : p + 1])[0], y[p])
        single = assemble_operator(op, grid, 0.2, u[p], 0.3)
        assert np.array_equal(single.solve_implicit(dt, rhs[p]), y[p])


@pytest.mark.parametrize("jumps", [False, True], ids=["dgtsv", "dgbsv"])
def test_reused_implicit_system_matches_a_fresh_band_solve(jumps):
    # a single operator forms I - dt A once per dt; every call, whatever the
    # order of the step sizes and the number of right-hand sides, must equal
    # the system formed afresh, bit for bit
    grid = SpatialGrid(0.0, 1.0, 20)
    n = grid.n_nodes
    op = jump_op() if jumps else heat_op()
    A = assemble_operator(op, grid, 0.2, 0.7, 0.3)
    assert (A.kl > 1) == jumps  # the jump operator takes dgbsv
    rng = np.random.default_rng(5)
    for dt in (0.01, 0.01, 0.025, 0.01, 0.025, 0.025):
        for rhs in (rng.standard_normal(n), rng.standard_normal((1, n)),
                    rng.standard_normal((4, n)), rng.standard_normal((n, 3)).T):
            fresh = forward._band_solve(A.bands.copy(), A.kl, dt, rhs.T).T
            assert np.array_equal(A.solve_implicit(dt, rhs), fresh)
    for bands in (A.bands, A.transposed().bands):
        with pytest.raises(ValueError, match="read-only"):
            bands[A.kl, 3] = 0.0


@pytest.mark.parametrize("u", [0.7, np.array([[0.2], [0.9], [0.5]])], ids=["one", "stack"])
def test_transposed_and_apply_match_the_dense_matrix(u):
    grid = SpatialGrid(0.0, 1.0, 15)
    A = assemble_operator(jump_op(), grid, 0.1, u, 0.0)
    mat = A.dense()
    assert np.array_equal(A.transposed().dense(), np.swapaxes(mat, -1, -2))
    v = np.random.default_rng(3).standard_normal((3, grid.n_nodes))
    assert np.allclose(A.apply(v), (mat @ v[..., None])[..., 0], rtol=1e-13, atol=1e-12)


@pytest.mark.parametrize("width, paths", [(1, None), (2, None), (1, 3), (2, 3)])
def test_singular_implicit_system_raises(width, paths):
    # row 3 of I - dt A vanishes, for one operator and for a stack of three
    n, dt = 8, 0.5
    bands = np.zeros((2 * width + 1, n) if paths is None else (2 * width + 1, paths, n))
    bands[width][..., 3] = 1.0 / dt
    A = AssembledOperator(bands, width)
    with pytest.raises(LinearSolveFailure):
        A.solve_implicit(dt, np.ones(bands.shape[1:]))


def test_stacked_assembly_rejects_one_negative_diffusion():
    grid = SpatialGrid(0.0, 1.0, 8)
    op = OperatorSpec(second_coeff=lambda t, x, u, z: u, first_coeff=lambda t, x, u, z: 0.0)
    u = np.array([[0.5], [0.2], [-0.1], [0.3]])
    with pytest.raises(NonParabolic):
        assemble_operator(op, grid, 0.0, u, 0.0)


@settings(max_examples=60, deadline=None)
@given(
    n_cells=st.integers(2, 30),
    x_left=st.floats(-2.0, 2.0),
    length=st.floats(0.1, 5.0),
    n_paths=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    affine=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
)
# a subnormal slope: the residual is one subnormal unit, 1e-12 * scale is 0
@example(n_cells=2, x_left=0.0, length=1.0, n_paths=1, seed=0, affine=(0.0, 5e-324))
def test_jump_part_annihilates_affine_functions(n_cells, x_left, length, n_paths, seed, affine):
    # y(x + g) - y(x) - g y'(x) vanishes for affine y, and linear
    # interpolation and central differences are exact on affine functions,
    # as long as no shifted point leaves the domain
    grid = SpatialGrid(x_left, x_left + length, n_cells)
    xs = grid.nodes()
    frac = np.random.default_rng(seed).uniform(-1.0, 1.0, (n_paths, grid.n_nodes))
    # |shift| = |mark * gam| <= distance to the nearer boundary
    gam = frac * np.minimum(grid.x_right - xs, xs - grid.x_left)
    op = OperatorSpec(
        second_coeff=lambda t, x, u, z: 0.0,
        first_coeff=lambda t, x, u, z: 0.0,
        jump_shift=lambda t, x, u, z, mark: mark * u,
        levy=LevySpec(atoms=((1.0, 2.0), (-0.5, 0.7))),
    )
    # without local terms the assembled operator is the jump part alone
    dense = assemble_operator(op, grid, 0.0, gam, 0.0).dense()
    y = affine[0] + affine[1] * xs
    out = dense @ y
    scale = 2.7 * (1.0 + grid.n_nodes) * (abs(affine[0]) + abs(affine[1]) * (abs(x_left) + length))
    # floored at the smallest normal float, below which a relative bound
    # of 1e-12 cannot be represented
    bound = max(1e-12 * scale, np.finfo(float).tiny)
    assert np.all(np.abs(out[:, 1:-1]) <= bound)
    assert np.all(out[:, [0, -1]] == 0.0)


def test_heat_solution_matches_separable_decay():
    grid = SpatialGrid(0.0, 1.0, 64)
    tgrid = TimeGrid(0.0, 0.1, 400)
    coeffs = CoefficientSet(
        a=lambda t, x, y, u, z: 0.0,
        b=lambda t, x, y, u, z: 0.0,
        xi=lambda x, z: np.sin(math.pi * x),
    )
    field = solve_forward(coeffs, heat_op(), null_control(), 0.0, zero_bundle(tgrid), grid)
    exact = math.exp(-0.5 * math.pi**2 * 0.1) * np.sin(math.pi * grid.nodes())
    assert np.max(np.abs(field.values[-1] - exact)) < 5e-4


def test_dirichlet_boundary_enforced_every_step():
    grid = SpatialGrid(0.0, 1.0, 16)
    tgrid = TimeGrid(0.0, 0.2, 20)
    theta = lambda t, x: 1.0 + t
    coeffs = CoefficientSet(
        a=lambda t, x, y, u, z: 0.0,
        b=lambda t, x, y, u, z: 1.0,
        xi=lambda x, z: 0.0,
        theta=theta,
    )
    b = sample_bundle(tgrid, LevySpec(), 3, 0)
    field = solve_forward(coeffs, heat_op(), null_control(), 0.0, b, grid)
    for k, t in enumerate(tgrid.times()):
        assert field.values[k, 0] == pytest.approx(1.0 + t)
        assert field.values[k, -1] == pytest.approx(1.0 + t)


def test_solution_linear_in_z_is_consistent_with_density_average():
    # for dynamics linear in the conditioning value, averaging the family
    # against any unit-mass weight with matching mean reproduces the member
    # at the mean; solve at two z and check linearity in z instead
    grid = SpatialGrid(0.0, 1.0, 16)
    tgrid = TimeGrid(0.0, 0.1, 40)
    coeffs = CoefficientSet(
        a=lambda t, x, y, u, z: z,
        b=lambda t, x, y, u, z: 0.2,
        xi=lambda x, z: np.sin(math.pi * x),
    )
    b = sample_bundle(tgrid, LevySpec(), 5, 0)
    f0 = solve_forward(coeffs, heat_op(), null_control(), 0.0, b, grid)
    f1 = solve_forward(coeffs, heat_op(), null_control(), 1.0, b, grid)
    fmid = solve_forward(coeffs, heat_op(), null_control(), 0.5, b, grid)
    assert np.allclose(0.5 * (f0.values + f1.values), fmid.values, atol=1e-12)


def test_control_dependent_operator_advection_shifts_mass():
    grid = SpatialGrid(0.0, 1.0, 64)
    tgrid = TimeGrid(0.0, 0.05, 100)
    op = OperatorSpec(
        second_coeff=lambda t, x, u, z: 0.05,
        first_coeff=lambda t, x, u, z: u,
    )
    coeffs = CoefficientSet(
        a=lambda t, x, y, u, z: 0.0,
        b=lambda t, x, y, u, z: 0.0,
        xi=lambda x, z: np.exp(-100 * (x - 0.5) ** 2),
    )
    # transport part of dY = (s Y_xx + u Y_x) dt moves the profile toward
    # smaller x for positive u (characteristics x(t) = x0 - ut)
    right = ControlPolicy(rule=lambda k, t, x, z, hist: 1.0)
    f = solve_forward(coeffs, op, right, 0.0, zero_bundle(tgrid), grid)
    xs = grid.nodes()
    com0 = float(np.sum(xs * f.values[0]) / np.sum(f.values[0]))
    com1 = float(np.sum(xs * f.values[-1]) / np.sum(f.values[-1]))
    assert com1 < com0 - 0.02


READ_U = OperatorSpec(second_coeff=lambda t, x, u, z: 0.1 + 0.4 * u**2, first_coeff=lambda t, x, u, z: 0.0)
READ_T = OperatorSpec(second_coeff=lambda t, x, u, z: 0.1 + 4.0 * t, first_coeff=lambda t, x, u, z: 0.0)


@pytest.mark.parametrize("op, expected", [(READ_U, 0.3766), (READ_T, 0.3832)], ids=["u", "t"])
def test_operator_read_from_coefficients_equals_hand_loop(op, expected):
    # the operator is assembled at every (t_k, u_k) the coefficients read; a
    # flag that declared it constant once made both read 0.8213
    grid = SpatialGrid(0.0, 1.0, 32)
    tgrid = TimeGrid(0.0, 0.2, 50)
    coeffs = CoefficientSet(
        a=lambda t, x, y, u, z: 0.0,
        b=lambda t, x, y, u, z: 0.0,
        xi=lambda x, z: np.sin(math.pi * x),
    )
    field = solve_forward(coeffs, op, ControlPolicy(rule=lambda k, t, x, z, hist: 1.0), 0.0,
                          sample_bundle(tgrid, LevySpec(), 2, 0), grid)
    assert field.values[-1, 16] == pytest.approx(expected, abs=5e-5)
    y = np.sin(math.pi * grid.nodes())
    y[0] = y[-1] = 0.0
    for k in range(tgrid.n_steps):
        y = assemble_operator(op, grid, tgrid.nodes[k], 1.0, 0.0).solve_implicit(tgrid.dt, y)
        y[0] = y[-1] = 0.0
    assert np.array_equal(field.values[-1], y)


def _assembly_count(op, rule, n_paths=1):
    """Calls of assemble_operator in one sweep of 10 steps over [0, 0.2]."""
    coeffs = CoefficientSet(
        a=lambda t, x, y, u, z: 0.0,
        b=lambda t, x, y, u, z: 0.1 * y,
        xi=lambda x, z: np.sin(math.pi * x),
    )
    grid, tgrid = SpatialGrid(0.0, 1.0, 8), TimeGrid(0.0, 0.2, 10)
    with mock.patch.object(forward, "assemble_operator", wraps=forward.assemble_operator) as spy:
        run_ensemble(coeffs, op, ControlPolicy(rule=rule), 0.0, grid, tgrid, n_paths=n_paths, seed=0)
    return spy.call_count


def test_operator_is_assembled_once_per_coefficient_change():
    constant = lambda k, t, x, z, hist: 0.5
    per_path = lambda k, t, x, z, hist: 0.5 + 0.1 * np.arange(len(hist.m))
    per_step = lambda k, t, x, z, hist: 0.5 + 0.01 * k * np.arange(len(hist.m))
    assert _assembly_count(heat_op(), constant) == 1
    assert _assembly_count(heat_op(), per_step, n_paths=3) == 1
    assert _assembly_count(READ_U, constant, n_paths=3) == 1
    # one stack of per-path operators, the same at every step
    assert _assembly_count(READ_U, per_path, n_paths=3) == 1
    assert _assembly_count(READ_U, per_step, n_paths=3) == 10
    # constant on [0, 0.065), [0.065, 0.13) and [0.13, 0.2): steps 0-3, 4-6, 7-9
    pieces = OperatorSpec(
        second_coeff=lambda t, x, u, z: 0.2 + 0.1 * math.floor(t / 0.065),
        first_coeff=lambda t, x, u, z: 0.0,
    )
    assert _assembly_count(pieces, constant) == 3
    assert _assembly_count(READ_T, constant) == 10


@pytest.mark.parametrize("operator", ["forward", "transport"])
def test_garding_identity_of_assembled_operators(operator):
    # non-divergence form A y = s y'' + f y' with y = sin(pi x) vanishing at
    # both ends: 2 <-A y, y> = 2 int s y'^2 - int (s'' - f') y^2, to second
    # order in dx on the solver's own operators
    if operator == "forward":
        # s = 1 + x^2 / 2, f = 1/2 - x
        op = OperatorSpec(second_coeff=lambda t, x, u, z: 1.0 + 0.5 * x**2,
                          first_coeff=lambda t, x, u, z: 0.5 - x)
        build = lambda grid: assemble_operator(op, grid, 0.0, 0.0, 0.0)
        exact = 7.0 * math.pi**2 / 6.0 - 0.75
    else:
        # s = beta^2 / 2 with beta = 1 + x / 2, f = alpha = 1/2 - x
        model = SignalModel(alpha=lambda x, r, u: 0.5 - x, beta=lambda x, r, u: 1.0 + 0.5 * x,
                            h_obs=lambda x: x, F_init=lambda x, z: 1.0)
        build = lambda grid: transport_bands(model, grid, 0.0, 0.0)
        exact = 19.0 * math.pi**2 / 24.0 - 0.5625
    errors = []
    for n_cells in (16, 32, 64, 128, 256):
        grid = SpatialGrid(0.0, 1.0, n_cells)
        y = np.sin(math.pi * grid.nodes())
        y[0] = y[-1] = 0.0
        errors.append(abs(2.0 * grid.inner(-build(grid).apply(y), y) - exact))
    orders = [math.log2(errors[i] / errors[i + 1]) for i in range(len(errors) - 1)]
    for o in orders:
        assert 1.8 <= o <= 2.2


def test_jump_coefficient_paths_stay_finite_and_compensated():
    grid = SpatialGrid(0.0, 1.0, 16)
    tgrid = TimeGrid(0.0, 0.5, 100)
    levy = LevySpec(atoms=((0.5, 2.0),))
    coeffs = CoefficientSet(
        a=lambda t, x, y, u, z: 0.0,
        b=lambda t, x, y, u, z: 0.0,
        c=lambda t, x, y, u, z, mark: 0.1 * mark,
        xi=lambda x, z: np.sin(math.pi * x),
    )
    b = sample_bundle(tgrid, levy, 9, 0)
    f = solve_forward(coeffs, replace(heat_op(), levy=levy), null_control(), 0.0, b, grid)
    assert np.all(np.isfinite(f.values))


@pytest.mark.parametrize("case", ["chaos jumps on another LevySpec", "counts do not fit levy"])
def test_single_path_solve_rejects_mixed_noise_models(case):
    # psi would be added at the bundle's marks and compensated with another
    # measure's rates, or counts of two atoms would be read as one
    grid = SpatialGrid(0.0, 1.0, 8)
    tgrid = TimeGrid(0.0, 0.5, 20)
    coeffs = CoefficientSet(
        a=lambda t, x, y, u, z: 0.0,
        b=lambda t, x, y, u, z: 0.0,
        c=lambda t, x, y, u, z, mark: 0.1 * mark * y,
        xi=lambda x, z: np.sin(math.pi * x),
    )
    chaos_levy = LevySpec(atoms=((0.5, 3.0),))
    chaos = FirstOrderChaosSpec(beta=lambda t: 1.0, psi=lambda t, mark: mark, levy=chaos_levy)
    with pytest.raises(ModelMismatch):
        if case == "chaos jumps on another LevySpec":
            b = sample_bundle(tgrid, LevySpec(atoms=((1.0, 1.0),)), 0, 0)
        else:
            # counts of the atoms 0.5 and 0.7 for a bundle on the one atom 0.5
            b = PathBundle(grid=tgrid, brownian_increments=np.zeros(tgrid.n_steps),
                           jump_counts=np.zeros((2, tgrid.n_steps), dtype=np.int64),
                           levy=chaos_levy)
        op = replace(heat_op(), levy=b.levy)
        solve_forward(coeffs, op, null_control(), 0.0, b, grid, chaos=chaos)


@settings(max_examples=40, deadline=None)
@given(
    atoms=st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(0.0, 5.0)), max_size=2),
    beta=st.floats(-2.0, 2.0),
    psi=st.floats(-1.0, 1.0),
    n_steps=st.integers(1, 30),
    T=st.floats(0.05, 0.9),
    seed=st.integers(0, 2**16),
)
def test_advance_mean_matches_effective_mean_of_snapshot(atoms, beta, psi, n_steps, T, seed):
    # for time-constant beta and psi the left-endpoint compensator equals the
    # continuous one, so every node's mean reproduces the snapshot oracle
    levy = LevySpec(atoms=tuple(atoms))
    spec = FirstOrderChaosSpec(beta=lambda s: beta, psi=lambda s, mark: psi * mark, levy=levy, T0=1.0)
    tgrid = TimeGrid(0.0, T, n_steps)
    bundle = sample_bundle(tgrid, levy, seed, 0)
    counts = jump_count_matrices(tgrid, levy, seed, [0])
    means = insider_means(spec, tgrid, bundle.brownian_increments[None], counts)
    assert means.shape == (n_steps + 1, 1)
    for k, (m,) in enumerate(means):
        ref = effective_mean(spec, HistorySnapshot.from_bundle(spec, bundle, k))
        assert abs(m - ref) <= 1e-12


@pytest.mark.parametrize("coeff", ["a", "b", "c"])
@pytest.mark.parametrize("n_paths", [1, 3])
def test_coefficient_that_widens_the_state_block_raises(coeff, n_paths):
    # a value of shape (n_paths + 1, n_nodes) would widen a block of one and
    # does not broadcast against a block of more rows; both raise by name
    grid = SpatialGrid(0.0, 1.0, 8)
    tgrid = TimeGrid(0.0, 0.1, 4)
    levy = LevySpec(atoms=((0.2, 2.0),))
    op = replace(heat_op(), levy=levy)
    fields = {"a": lambda t, x, y, u, z: 0.1, "b": lambda t, x, y, u, z: 0.2,
              "c": lambda t, x, y, u, z, zeta: 0.05 * zeta}
    fields[coeff] = lambda *args: np.ones((n_paths + 1, grid.n_nodes))
    coeffs = CoefficientSet(**fields, xi=lambda x, z: np.sin(np.pi * x))
    with pytest.raises(CoefficientShapeMismatch):
        if n_paths == 1:
            solve_forward(coeffs, op, null_control(), 0.0, sample_bundle(tgrid, levy, 0, 0), grid)
        else:
            run_ensemble(coeffs, op, null_control(), 0.0, grid, tgrid, n_paths=n_paths)


def test_weak_residual_small_and_first_order():
    grid = SpatialGrid(0.0, 1.0, 32)
    coeffs = CoefficientSet(
        a=lambda t, x, y, u, z: 0.1 * y,
        b=lambda t, x, y, u, z: 0.2 * y,
        xi=lambda x, z: np.sin(math.pi * x),
    )
    phi = np.sin(math.pi * grid.nodes())
    phi[0] = phi[-1] = 0.0
    defects = []
    for n_steps in (50, 100, 200):
        tgrid = TimeGrid(0.0, 0.2, n_steps)
        b = sample_bundle(tgrid, LevySpec(), 2, 0)
        f = solve_forward(coeffs, heat_op(), null_control(), 0.0, b, grid)
        defects.append(weak_residual(f, phi, coeffs, heat_op(), null_control(), b, 0.0))
    assert defects[0] < 0.05
    assert defects[-1] < defects[0]


def test_weak_residual_requires_vanishing_test_function():
    grid = SpatialGrid(0.0, 1.0, 8)
    tgrid = TimeGrid(0.0, 0.1, 4)
    coeffs = CoefficientSet(a=lambda t, x, y, u, z: 0.0, b=lambda t, x, y, u, z: 0.0)
    b = zero_bundle(tgrid)
    f = solve_forward(coeffs, heat_op(), null_control(), 0.0, b, grid)
    with pytest.raises(ValueError):
        weak_residual(f, np.ones(grid.n_nodes), coeffs, heat_op(), null_control(), b, 0.0)


def test_control_policy_bounds_enforced():
    pol = ControlPolicy(rule=lambda k, t, x, z, hist: 2.0, bounds=(-1.0, 1.0))
    with pytest.raises(ValueError):
        pol.values(0, 0.0, None, 0.0, PathHistory(m=np.zeros(1)))

