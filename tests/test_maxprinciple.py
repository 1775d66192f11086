import inspect
import math
import tracemalloc
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spdecontrol import donsker, forward
from spdecontrol import maxprinciple as mp
from spdecontrol import portfolio as pf
from spdecontrol.donsker import FirstOrderChaosSpec
from spdecontrol.errors import (
    ControlShapeMismatch,
    DegenerateVolatility,
    InadmissibleControl,
    ModelMismatch,
    StepTooLarge,
)
from spdecontrol.forward import (
    CoefficientSet,
    ControlPolicy,
    OperatorSpec,
    PathHistory,
    SpatialGrid,
    assemble_operator,
    solve_forward,
    weak_residual,
)
from spdecontrol.maxprinciple import (
    AdjointTriple,
    PerformanceEstimate,
    PerformanceSpec,
    estimate_j,
    gateaux_derivative,
    hamiltonian,
    perturbed_policy,
    reduced_adjoint_block,
    reduced_adjoint_solve,
    run_ensemble,
    sensitivity_residual,
    state_sensitivity,
    verify_x_independent_stationarity,
)
from spdecontrol.noise import (
    LevySpec,
    TimeGrid,
    brownian_increment_matrix,
    jump_count_matrices,
    sample_bundle,
)


GRID = SpatialGrid(0.0, 1.0, 32)
OP = OperatorSpec(
    second_coeff=lambda t, x, u, z: 0.5,
    first_coeff=lambda t, x, u, z: 0.0,
)
COEFFS = CoefficientSet(
    a=lambda t, x, y, u, z: u * 0.1 * y,
    b=lambda t, x, y, u, z: u * 0.3 * y,
)


def const_policy(v, bounds=(-np.inf, np.inf)):
    return ControlPolicy(rule=lambda k, t, x, z, hist: v, bounds=bounds)


def direction(v=1.0):
    return lambda k, t, x, z, hist: v


def ham(u, adjoint, weight=2.0, perf=None):
    perf = perf or PerformanceSpec(h=lambda t, x, y, u_, z: y * u_ + x, k=lambda x, y, z: 0.0)
    phi = np.sin(math.pi * GRID.nodes())
    return hamiltonian(
        0.2, 10, 1.5, phi, u, 0.5, adjoint, weight,
        coeffs=COEFFS, op=OP, perf=perf, grid=GRID,
    )


def test_hamiltonian_zero_adjoint_reduces_to_weighted_profit():
    val = ham(0.7, AdjointTriple(p=0.0, q=0.0))
    assert val == pytest.approx(2.0 * (1.5 * 0.7 + GRID.nodes()[10]), abs=1e-12)


def test_hamiltonian_linear_in_adjoint():
    a1 = AdjointTriple(p=1.3, q=-0.4)
    a2 = AdjointTriple(p=0.2, q=0.9)
    a3 = AdjointTriple(p=2 * 1.3 + 0.2, q=2 * (-0.4) + 0.9)
    base = ham(0.7, AdjointTriple(p=0.0, q=0.0))
    assert 2 * ham(0.7, a1) + ham(0.7, a2) - a3.p * 0 == pytest.approx(
        ham(0.7, a3) + 2 * base, abs=1e-10
    )


def test_hamiltonian_control_derivative_matches_analytic():
    perf0 = PerformanceSpec(h=lambda t, x, y, u, z: 0.0, k=lambda x, y, z: 0.0)
    adj = AdjointTriple(p=1.3, q=-0.4)
    y = 1.5
    f = lambda u: ham(u, adj, weight=0.0, perf=perf0)
    fd = (f(0.7 + 1e-5) - f(0.7 - 1e-5)) / 2e-5
    assert fd == pytest.approx(y * (0.1 * adj.p + 0.3 * adj.q), abs=1e-6)
    # affine in the control: second difference vanishes
    assert f(0.8) - 2 * f(0.7) + f(0.6) == pytest.approx(0.0, abs=1e-8)


def test_hamiltonian_jump_term_uses_atom_rates():
    levy = LevySpec(atoms=((1.0, 2.0),))
    op = OperatorSpec(
        second_coeff=lambda t, x, u, z: 0.5,
        first_coeff=lambda t, x, u, z: 0.0,
        levy=levy,
    )
    coeffs = CoefficientSet(
        a=lambda t, x, y, u, z: 0.0,
        b=lambda t, x, y, u, z: 0.0,
        c=lambda t, x, y, u, z, mark: 0.5 * mark,
    )
    perf0 = PerformanceSpec(h=lambda t, x, y, u, z: 0.0, k=lambda x, y, z: 0.0)
    adj = AdjointTriple(p=0.0, q=0.0, r=lambda mark: 3.0)
    phi = np.zeros(GRID.n_nodes)
    val = hamiltonian(0.1, 5, 1.0, phi, 0.0, 0.0, adj, 0.0,
                      coeffs=coeffs, op=op, perf=perf0, grid=GRID)
    assert val == pytest.approx(0.5 * 1.0 * 3.0 * 2.0, abs=1e-12)


def test_hamiltonian_of_x_dependent_profile_is_pointwise():
    # row i of the operator reads only u[i], and the pointwise terms take
    # u[x_index], so a profile gives the constant control's value at each node
    op, coeffs = jump_model()
    perf = PerformanceSpec(h=lambda t, x, y, u, z: -0.5 * u * u * y + x, k=lambda x, y, z: 0.0)
    adj = AdjointTriple(p=1.3, q=-0.4, r=lambda mark: 2.0 * mark)
    grid = SpatialGrid(0.0, 1.0, 8)
    u = np.linspace(0.0, 1.0, grid.n_nodes)
    phi = np.sin(math.pi * grid.nodes())
    ham_at = lambda i, control: hamiltonian(
        0.1, i, 1.5, phi, control, 0.3, adj, 0.7, coeffs=coeffs, op=op, perf=perf, grid=grid
    )
    for i in range(1, grid.n_cells):
        assert ham_at(i, u) == ham_at(i, u[i])


def bench():
    market, utility, spec = pf.benchmark_market(16)
    coeffs, op = pf.wealth_dynamics(market)
    perf = pf.log_utility_performance(market, utility)
    return market, spec, coeffs, op, perf


def test_estimate_j_trivial_zero():
    market, spec, coeffs, op, _ = bench()
    perf0 = PerformanceSpec(h=lambda t, x, y, u, z: 0.0, k=lambda x, y, z: 0.0)
    tg = TimeGrid(0.0, 0.3, 30)
    est = estimate_j(coeffs, op, const_policy(0.5), perf0, spec, 0.5, market.D, tg, 50, 0)
    assert est.mean == 0.0 and est.stderr == 0.0


def test_estimate_j_unit_profit_matches_density_mass():
    # h identically 1 on D = (0,1): the estimator averages the conditional
    # density weights, whose expectation is the unconditional density of the
    # terminal variable, constant in time
    market, spec, coeffs, op, _ = bench()
    perf1 = PerformanceSpec(h=lambda t, x, y, u, z: 1.0, k=lambda x, y, z: 0.0)
    tg = TimeGrid(0.0, 0.5, 50)
    z = 0.5
    est = estimate_j(coeffs, op, const_policy(0.3), perf1, spec, z, market.D, tg, 3000, 8)
    expect = 0.5 * math.exp(-(z**2) / 2) / math.sqrt(2 * math.pi)
    assert abs(est.mean - expect) <= 3 * est.stderr


def test_estimate_j_rejects_horizon_at_t0():
    market, spec, coeffs, op, perf = bench()
    tg = TimeGrid(0.0, 1.0, 10)
    with pytest.raises(ValueError):
        estimate_j(coeffs, op, const_policy(0.0), perf, spec, 0.5, market.D, tg, 10, 0)


def test_run_ensemble_rejects_horizon_within_a_step_of_t0():
    # every weighted run goes through run_ensemble, which keeps t_end + dt <= T0
    market, spec, coeffs, op, _ = bench()
    tg = TimeGrid(0.0, 0.95, 10)
    with pytest.raises(ValueError, match="one step before T0"):
        run_ensemble(coeffs, op, const_policy(0.3), 0.5, market.D, tg, chaos=spec, n_paths=2)
    run_ensemble(coeffs, op, const_policy(0.3), 0.5, market.D, TimeGrid(0.0, 0.9, 10), chaos=spec, n_paths=2)


def test_perturbed_policy_clamp_and_step_guard():
    base = const_policy(0.9, bounds=(-1.0, 1.0))
    d = direction(1.0)
    with pytest.raises(StepTooLarge):
        perturbed_policy(base, d, 1.0)
    pol = perturbed_policy(base, d, 0.5)
    # dist to boundary is 0.1, clamp delta = 0.05, step = 0.5 * 0.05
    val = pol.rule(0, 0.0, None, 0.0, None)
    assert val == pytest.approx(0.9 + 0.5 * 0.05, abs=1e-12)
    big = direction(5.0)
    with pytest.raises(InadmissibleControl, match="outside U at step 0"):
        perturbed_policy(base, big, 0.5).rule(0, 0.0, None, 0.0, None)


@pytest.mark.parametrize("n_paths", [64, 50])
def test_gateaux_refuses_a_one_dimensional_direction(n_paths):
    # a direction is a control on [-1, 1]: one value per step, a 1-d array,
    # is ambiguous in a chunk of steps.  At 64 paths the 64 steps fit in one
    # 64 x 64 chunk and it was read as one value per path; at 50 paths it
    # died inside numpy's broadcasting
    market, utility, spec = pf.benchmark_market(8)
    coeffs, op = pf.wealth_dynamics(market)
    perf = pf.log_utility_performance(market, utility)
    per_step = lambda k, t, x, z, hist: np.where(np.ravel(t) < 0.25, 1.0, 0.0)
    with pytest.raises(ControlShapeMismatch, match="returned shape \\(64,\\)"):
        gateaux_derivative(coeffs, op, pf.optimal_policy(market, spec), per_step, perf, spec, 0.5,
                           market.D, TimeGrid(0.0, 0.5, 64), n_paths=n_paths, seed=0)


def test_gateaux_refuses_a_direction_outside_its_bound_at_step_0():
    market, spec, coeffs, op, perf = bench()
    with pytest.raises(InadmissibleControl, match="outside U at step 0") as info:
        gateaux_derivative(coeffs, op, const_policy(0.5), direction(5.0), perf, spec, 0.5,
                           market.D, TimeGrid(0.0, 0.3, 10), n_paths=8, seed=0)
    assert (info.value.step, info.value.value) == (0, 5.0)


def test_gateaux_zero_direction_is_exactly_zero():
    market, spec, coeffs, op, perf = bench()
    tg = TimeGrid(0.0, 0.3, 30)
    est = gateaux_derivative(
        coeffs, op, const_policy(0.5), direction(0.0), perf, spec, 0.5, market.D, tg,
        n_paths=64, seed=0,
    )
    assert est.mean == 0.0


@settings(max_examples=15, deadline=None)
@given(
    b0=st.floats(-1.0, 1.0),
    window=st.tuples(st.floats(0.0, 0.3), st.floats(0.0, 0.3)),
    shift=st.floats(-0.5, 0.5),
    a_step=st.floats(1e-4, 0.5),
    seed=st.integers(0, 2**16),
)
def test_gateaux_antisymmetric_in_direction(b0, window, shift, a_step, seed):
    # perturbing along -beta0 by +a is perturbing along beta0 by -a, so the
    # central difference changes sign exactly and its spread does not change
    market, spec, coeffs, op, perf = bench()
    pol = pf.shifted_policy(pf.optimal_policy(market, spec), shift)
    tg = TimeGrid(0.0, 0.3, 20)
    lo, hi = sorted(window)

    def along(sign):
        return lambda k, t, x, z, hist: sign * b0 * ((lo <= t) & (t < hi))

    est = [
        gateaux_derivative(coeffs, op, pol, along(sign), perf, spec, 0.5, market.D, tg,
                           a_step=a_step, n_paths=32, seed=seed)
        for sign in (1.0, -1.0)
    ]
    assert est[1].mean == -est[0].mean
    assert est[1].stderr == est[0].stderr


def test_gateaux_negative_away_from_optimum():
    market, spec, coeffs, op, perf = bench()
    pol = pf.optimal_policy(market, spec)
    tg = TimeGrid(0.0, 0.5, 100)
    est = gateaux_derivative(
        coeffs, op, pf.shifted_policy(pol, 0.5), direction(1.0), perf, spec, 0.5,
        market.D, tg, a_step=1e-3, n_paths=1000, seed=0,
    )
    assert est.tstat() < -3.0


def test_common_random_numbers_reduce_variance():
    market, spec, coeffs, op, perf = bench()
    pol = pf.optimal_policy(market, spec)
    tg = TimeGrid(0.0, 0.5, 50)
    d = direction(1.0)
    est = gateaux_derivative(
        coeffs, op, pol, d, perf, spec, 0.5, market.D, tg, a_step=1e-3, n_paths=500, seed=0
    )
    up = perturbed_policy(pol, d, 1e-3)
    dn = perturbed_policy(pol, d, -1e-3)
    eu = estimate_j(coeffs, op, up, perf, spec, 0.5, market.D, tg, 500, 0)
    ed = estimate_j(coeffs, op, dn, perf, spec, 0.5, market.D, tg, 500, 1)
    independent = math.hypot(eu.stderr, ed.stderr) / 2e-3
    assert independent >= 10 * est.stderr


def test_state_sensitivity_zero_direction_and_initial_slice():
    coeffs = CoefficientSet(
        a=lambda t, x, y, u, z: u * y,
        b=lambda t, x, y, u, z: 0.1 * y,
        xi=lambda x, z: np.sin(math.pi * x),
    )
    tg = TimeGrid(0.0, 0.2, 50)
    b = sample_bundle(tg, LevySpec(), 2, 0)
    chi0 = state_sensitivity(coeffs, OP, const_policy(0.3), direction(0.0), 0.0, b, GRID)
    assert np.max(np.abs(chi0)) == 0.0
    chi = state_sensitivity(coeffs, OP, const_policy(0.3), direction(1.0), 0.0, b, GRID)
    assert np.max(np.abs(chi[0])) == 0.0
    assert np.max(np.abs(chi)) > 0.0


def test_sensitivity_residual_shrinks_quadratically_in_step():
    coeffs = CoefficientSet(
        a=lambda t, x, y, u, z: u * y + 0.05 * y**2,
        b=lambda t, x, y, u, z: 0.1 * y,
        xi=lambda x, z: np.sin(math.pi * x),
    )
    tg = TimeGrid(0.0, 0.2, 50)
    pol = const_policy(0.3)
    d = direction(1.0)
    # the residual assembles each step's operator at t_k: with one operator
    # from t_0 the t-dependent defect stayed at 1.28e-3 for every step
    t_dependent = OperatorSpec(second_coeff=lambda t, x, u, z: 0.5 + 5.0 * t,
                               first_coeff=lambda t, x, u, z: 0.0)
    # the tangent of the step also linearizes an operator that reads the
    # control, a jump term c and a jumping insider variable that the control
    # reads; the bundles of the last two hold one event each
    u_dependent = OperatorSpec(second_coeff=lambda t, x, u, z: 0.5 + 0.1 * u * u,
                               first_coeff=lambda t, x, u, z: 0.1 * u)
    jump_term = replace(coeffs, c=lambda t, x, y, u, z, zeta: 0.5 * u * y)
    jump_shift = OperatorSpec(second_coeff=lambda t, x, u, z: 0.5, first_coeff=lambda t, x, u, z: 0.0,
                              jump_shift=lambda t, x, u, z, mark: 0.2 * mark * u, levy=JUMP_LEVY)
    reads_m = ControlPolicy(rule=lambda k, t, x, z, hist: 0.3 + 0.1 * np.asarray(hist.m))
    for model, op, policy, chaos in (
        (coeffs, OP, pol, None),
        (coeffs, t_dependent, pol, None),
        (coeffs, u_dependent, pol, None),
        (jump_term, replace(OP, levy=LevySpec(atoms=((1.0, 5.0),))), pol, None),
        (coeffs, jump_shift, reads_m, JUMP_CHAOS),
    ):
        b = sample_bundle(tg, op.levy, 2, 0)
        base = solve_forward(model, op, policy, 0.0, b, GRID, chaos=chaos)
        res = []
        for a in (4e-3, 2e-3, 1e-3):
            chi = state_sensitivity(model, op, policy, d, 0.0, b, GRID, a_step=a, chaos=chaos)
            res.append(sensitivity_residual(chi, base, model, op, policy, d, 0.0, b, chaos=chaos))
        # central differences: defect drops by ~4x per halving of the step
        assert 3.0 <= res[0] / res[1] <= 5.0
        assert 3.0 <= res[1] / res[2] <= 5.0


def test_sensitivity_residual_catches_a_wrong_sensitivity():
    # the tangent is linear in (chi, beta), so 2 chi misses by the step's
    # response to beta alone, about dt * y here
    coeffs = CoefficientSet(
        a=lambda t, x, y, u, z: u * y + 0.05 * y**2,
        b=lambda t, x, y, u, z: 0.1 * y,
        xi=lambda x, z: np.sin(math.pi * x),
    )
    b = sample_bundle(TimeGrid(0.0, 0.2, 50), LevySpec(), 2, 0)
    pol, d = const_policy(0.3), direction(1.0)
    base = solve_forward(coeffs, OP, pol, 0.0, b, GRID)
    chi = state_sensitivity(coeffs, OP, pol, d, 0.0, b, GRID)
    assert sensitivity_residual(chi, base, coeffs, OP, pol, d, 0.0, b) < 1e-9
    assert sensitivity_residual(2 * chi, base, coeffs, OP, pol, d, 0.0, b) > 1e-3


def test_sensitivity_residual_rejects_direction_beyond_its_bound():
    # the residual applies perturbed_policy's clamp, bound check included
    tg = TimeGrid(0.0, 0.1, 5)
    b = sample_bundle(tg, LevySpec(), 2, 0)
    pol = const_policy(0.3)
    base = solve_forward(COEFFS, OP, pol, 0.0, b, GRID)
    chi = np.zeros_like(base.values)
    with pytest.raises(InadmissibleControl, match="outside U at step 0"):
        sensitivity_residual(chi, base, COEFFS, OP, pol, direction(2.0), 0.0, b)


@pytest.mark.parametrize("entry", ["weak_residual", "sensitivity_residual"])
@pytest.mark.parametrize("other", [TimeGrid(0.0, 0.4, 10), TimeGrid(0.0, 0.2, 5)],
                         ids=["other-horizon", "five-steps"])
def test_residuals_refuse_a_bundle_off_the_fields_time_grid(entry, other):
    # a bundle with another horizon read 0.0076 against the field's own
    # 0.0270 in weak_residual; a shorter one died with IndexError
    tg = TimeGrid(0.0, 0.2, 10)
    pol = const_policy(0.3)
    field = solve_forward(COEFFS, OP, pol, 0.0, sample_bundle(tg, LevySpec(), 2, 0), GRID)
    phi = np.sin(math.pi * GRID.nodes())
    phi[0] = phi[-1] = 0.0
    bundle = sample_bundle(other, LevySpec(), 2, 0)
    with pytest.raises(ModelMismatch, match="bundle is on"):
        if entry == "weak_residual":
            weak_residual(field, phi, COEFFS, OP, pol, bundle, 0.0)
        else:
            sensitivity_residual(np.zeros_like(field.values), field, COEFFS, OP, pol, direction(1.0),
                                 0.0, bundle)


def test_sensitivity_residual_refuses_chi_of_another_shape():
    b = sample_bundle(TimeGrid(0.0, 0.2, 10), LevySpec(), 2, 0)
    pol = const_policy(0.3)
    base = solve_forward(COEFFS, OP, pol, 0.0, b, GRID)
    with pytest.raises(ValueError, match="chi of shape"):
        sensitivity_residual(np.zeros((11, 17)), base, COEFFS, OP, pol, direction(1.0), 0.0, b)


@settings(max_examples=25, deadline=None)
@given(
    policy=st.booleans(),
    n_paths=st.integers(1, 6),
    n_steps=st.integers(1, 12),
    terminal=st.floats(-3.0, 3.0).filter(lambda v: abs(v) > 1e-3),
    seed=st.integers(0, 2**16),
)
def test_reduced_adjoint_block_rows_equal_single_path_calls(policy, n_paths, n_steps, terminal, seed):
    market, _, spec = pf.benchmark_market(8)
    pi = pf.optimal_policy(market, spec) if policy else ControlPolicy(rule=lambda k, t, x, z, hist: 0.2 + t)
    tg = TimeGrid(0.0, 0.4, n_steps)
    block = reduced_adjoint_block(
        market.a0, market.b0, pi, terminal, tg, brownian_increment_matrix(tg, seed, range(n_paths)),
        0.5, chaos=spec,
    )
    assert block.values.shape == (n_paths, n_steps + 1)
    assert block.p0.shape == (n_paths,)
    for p in range(n_paths):
        path = reduced_adjoint_solve(market.a0, market.b0, pi, terminal,
                                     sample_bundle(tg, LevySpec(), seed, p), 0.5, chaos=spec)
        assert type(path.p0) is float
        assert path.p0 == block.p0[p]
        assert np.array_equal(path.values, block.values[p])


@pytest.mark.parametrize("shape", [(3, 9), (3, 11), (10,)])
def test_reduced_adjoint_block_rejects_increments_off_the_grid(shape):
    tg = TimeGrid(0.0, 0.5, 10)
    with pytest.raises(ModelMismatch):
        reduced_adjoint_block(lambda t, z: 0.1, lambda t, z: 0.3, const_policy(1.3), 1.0, tg,
                              np.zeros(shape), 0.0)


@pytest.mark.parametrize("rule", [lambda k, t, x, z, hist: 0.5 + 0.0 * np.asarray(hist.m),
                                  lambda k, t, x, z, hist: 0.5 + 0.1 * x],
                         ids=["ignores-x", "reads-x"])
def test_reduced_adjoint_rejects_an_x_dependent_control(rule):
    # the adjoint's control is evaluated without nodes: a rule that ignored x
    # ran silently, and one that read x died with TypeError inside the rule
    market, utility, spec = pf.benchmark_market(8)
    pi = ControlPolicy(rule=rule, mode="x-dependent")
    tg = TimeGrid(0.0, 0.4, 4)
    db = brownian_increment_matrix(tg, 0, range(3))
    with pytest.raises(ValueError, match="x-independent"):
        reduced_adjoint_block(market.a0, market.b0, pi, 1.0, tg, db, 0.5, chaos=spec)
    with pytest.raises(ValueError, match="x-independent"):
        pf.martingale_match_check(market, utility, spec, 0.5, pi, tg, db)


def test_reduced_adjoint_refuses_a_block_of_no_paths():
    # it died with ZeroDivisionError while sizing the control's chunks
    market, utility, spec = pf.benchmark_market(8)
    tg = TimeGrid(0.0, 0.4, 10)
    db = np.empty((0, 10))
    with pytest.raises(ValueError, match="at least one path"):
        reduced_adjoint_block(market.a0, market.b0, const_policy(1.3), 1.0, tg, db, 0.5)
    with pytest.raises(ValueError, match="at least one path"):
        pf.martingale_match_check(market, utility, spec, 0.5, const_policy(1.3), tg, db)


def test_reduced_adjoint_constant_when_integrand_vanishes():
    tg = TimeGrid(0.0, 0.5, 100)
    b = sample_bundle(tg, LevySpec(), 3, 0)
    a0 = lambda t, z: 0.1
    b0 = lambda t, z: 0.3
    path = reduced_adjoint_solve(a0, b0, const_policy(0.1 / 0.09), 2.5, b, 0.0)
    assert np.ptp(path.values) == 0.0
    assert path.values[0] == pytest.approx(2.5)


def test_reduced_adjoint_sign_constant_and_terminal_match():
    tg = TimeGrid(0.0, 0.5, 100)
    b = sample_bundle(tg, LevySpec(), 5, 1)
    path = reduced_adjoint_solve(lambda t, z: 0.1, lambda t, z: 0.3, const_policy(1.3), -2.0, b, 0.0)
    assert np.all(path.values < 0)
    assert path.values[-1] == pytest.approx(-2.0, abs=1e-12)


def test_reduced_adjoint_degenerate_volatility():
    tg = TimeGrid(0.0, 0.5, 10)
    b = sample_bundle(tg, LevySpec(), 1, 0)
    with pytest.raises(DegenerateVolatility):
        reduced_adjoint_solve(lambda t, z: 0.1, lambda t, z: 0.0, const_policy(1.0), 1.0, b, 0.0)


def test_reduced_adjoint_block_keeps_the_market_volatility_floor():
    # one floor for the adjoint and for optimal_pi: 1e-10 is below it
    tg = TimeGrid(0.0, 0.5, 10)
    with pytest.raises(DegenerateVolatility):
        reduced_adjoint_block(lambda t, z: 0.1, lambda t, z: 1e-10, const_policy(1.0), 1.0, tg,
                              brownian_increment_matrix(tg, 1, range(3)), 0.0)


@pytest.mark.parametrize("value, bounds", [(np.nan, (0.0, 2.0)), (np.inf, (-np.inf, np.inf))],
                         ids=["nan-inside-finite-bounds", "inf-unbounded"])
def test_reduced_adjoint_rejects_a_non_finite_control(value, bounds):
    # both pass ControlPolicy.values' bounds; a NaN at one step of one path
    # gave p0 = [nan nan] with no error
    def rule(k, t, x, z, hist):
        last = np.arange(hist.m.shape[1]) == hist.m.shape[1] - 1
        return np.where(last & (k == 4), value, 1.0)

    tg = TimeGrid(0.0, 0.5, 10)
    pi = ControlPolicy(rule=rule, bounds=bounds)
    with pytest.raises(ValueError, match="non-finite"):
        reduced_adjoint_block(lambda t, z: 0.1, lambda t, z: 0.3, pi, 1.0, tg,
                              brownian_increment_matrix(tg, 1, range(2)), 0.0)
    with pytest.raises(ValueError, match="non-finite"):
        reduced_adjoint_solve(lambda t, z: 0.1, lambda t, z: 0.3, pi, 1.0,
                              sample_bundle(tg, LevySpec(), 1, 0), 0.0)


def test_reduced_adjoint_names_the_first_step_of_a_non_finite_control():
    # path 1 is NaN at steps 4 and 7; the adjoint said only "for the reduced adjoint"
    def rule(k, t, x, z, hist):
        return np.where(((k == 4) | (k == 7)) & (np.arange(hist.m.shape[1]) == 1), np.nan, 1.0)

    tg = TimeGrid(0.0, 0.5, 10)
    with pytest.raises(ValueError, match="non-finite value at step 4"):
        reduced_adjoint_block(lambda t, z: 0.1, lambda t, z: 0.3, ControlPolicy(rule=rule), 1.0, tg,
                              brownian_increment_matrix(tg, 1, range(2)), 0.0)


def test_a_nan_control_inside_finite_bounds_is_refused_at_its_step():
    # NaN fails no comparison with a bound, so it reached the implicit solve
    # and surfaced as LinearSolveFailure, naming neither the control nor the step
    market, _, _ = pf.benchmark_market(8)
    coeffs, op = pf.wealth_dynamics(market)
    rule = lambda k, t, x, z, hist: np.full(hist.m.shape, np.where(k == 2, np.nan, 0.5))
    with pytest.raises(ValueError, match="non-finite value at step 2"):
        run_ensemble(coeffs, op, ControlPolicy(rule=rule, bounds=(0.0, 1.0)), 0.0, market.D,
                     TimeGrid(0.0, 0.5, 10), n_paths=4)


@pytest.mark.parametrize("value, bounds, model", [
    (np.nan, (-np.inf, np.inf), "wealth"),
    (np.inf, (0.0, np.inf), "wealth"),
    (np.nan, (-np.inf, np.inf), "heat"),
    (np.inf, (-np.inf, np.inf), "heat"),
], ids=["nan-unbounded", "inf-on-its-infinite-bound", "nan-unbounded-u-independent",
        "inf-unbounded-u-independent"])
def test_a_non_finite_control_without_a_finite_bound_is_refused_at_its_step(value, bounds, model):
    # ControlPolicy.values did not check such a control: on the wealth
    # dynamics the implicit solve raised LinearSolveFailure, naming neither
    # the control nor the step, and on the heat equation, whose coefficients
    # ignore u, every route ran to the end without a word
    if model == "wealth":
        market, _, _ = pf.benchmark_market(8)
        grid = market.D
        coeffs, op = pf.wealth_dynamics(market)
    else:
        grid = SpatialGrid(0.0, 1.0, 8)
        coeffs = CoefficientSet(a=lambda t, x, y, u, z: 0.0, b=lambda t, x, y, u, z: 0.0,
                                xi=lambda x, z: np.sin(np.pi * x))
        op = OperatorSpec(second_coeff=lambda t, x, u, z: 0.5, first_coeff=lambda t, x, u, z: 0.0)
    tg = TimeGrid(0.0, 0.5, 10)
    rule = lambda k, t, x, z, hist: np.where(k == 2, value, 0.5)
    pol = ControlPolicy(rule=rule, bounds=bounds)
    b = sample_bundle(tg, op.levy, 0, 0)
    base = solve_forward(coeffs, op, ControlPolicy(rule=lambda k, t, x, z, hist: 0.5), 0.0, b, grid)
    phi = np.sin(np.pi * grid.nodes())
    phi[0] = phi[-1] = 0.0
    runs = [
        lambda: run_ensemble(coeffs, op, pol, 0.0, grid, tg, n_paths=4),
        lambda: solve_forward(coeffs, op, pol, 0.0, b, grid),
        lambda: sensitivity_residual(np.zeros_like(base.values), base, coeffs, op, pol,
                                     lambda k, t, x, z, hist: 1.0, 0.0, b),
        lambda: weak_residual(base, phi, coeffs, op, pol, b, 0.0),
    ]
    for run in runs:
        # inf - inf on the way to the solve warns; the warning is not the error
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="non-finite value at step 2"):
            run()


def test_a_perturbed_policy_refuses_an_infinite_base_at_its_step():
    # with invalid operations ignored, the clamp's inf - inf gave a NaN side
    # that no check saw; the base value is now read through its own values
    k = np.arange(4)[:, None]
    hist = PathHistory(m=np.zeros((4, 3)))
    base = ControlPolicy(rule=lambda k, t, x, z, hist: np.where(k == 2, np.inf, 0.5))
    for a in (0.5, -0.5):
        side = perturbed_policy(base, lambda k, t, x, z, hist: 1.0, a)
        with np.errstate(invalid="ignore"), pytest.raises(InadmissibleControl, match="non-finite value at step 2"):
            side.rule(k, 0.1 * k, None, 0.0, hist)
    side = perturbed_policy(ControlPolicy(rule=lambda *args: np.inf), lambda *args: 1.0, 0.5)
    with np.errstate(invalid="ignore"), pytest.raises(InadmissibleControl, match="non-finite value at step 0"):
        side.rule(0, 0.0, None, 0.0, PathHistory(m=np.zeros(3)))


def _infinite_control_at_step_2(case):
    """A rule that returns +inf at step 2, on the wealth dynamics with bounds
    (0, inf), or on a control-dependent operator without bounds."""
    market, _, _ = pf.benchmark_market(8)
    rule = lambda k, t, x, z, hist: np.where(k == 2, np.inf, 0.5)
    if case == "wealth":
        coeffs, op = pf.wealth_dynamics(market)
        return market.D, coeffs, op, ControlPolicy(rule=rule, bounds=(0.0, np.inf))
    coeffs = CoefficientSet(a=lambda t, x, y, u, z: 0.0, b=lambda t, x, y, u, z: 0.1,
                            xi=lambda x, z: np.sin(np.pi * x))
    op = OperatorSpec(second_coeff=lambda t, x, u, z: 0.5 + 0.1 * u**2, first_coeff=lambda t, x, u, z: 0.1 * u)
    return market.D, coeffs, op, ControlPolicy(rule=rule)


@pytest.mark.parametrize("filters", ["warnings-as-errors", "default-warnings", "numpy-raise"])
@pytest.mark.parametrize("case", ["wealth", "control-dependent-operator"])
def test_an_infinite_control_is_refused_at_its_step_whatever_the_warning_filters(case, filters):
    # with warnings as errors, inf * 0 in the wealth coefficient, inf - inf in
    # the operator's assembly or in perturbed_policy's clamp raised a
    # RuntimeWarning before the solve could fail, naming neither the control
    # nor the step
    grid, coeffs, op, pol = _infinite_control_at_step_2(case)
    tg = TimeGrid(0.0, 0.5, 10)
    b = sample_bundle(tg, op.levy, 0, 0)
    base = solve_forward(coeffs, op, ControlPolicy(rule=lambda k, t, x, z, hist: 0.5), 0.0, b, grid)
    runs = [
        lambda: run_ensemble(coeffs, op, pol, 0.0, grid, tg, n_paths=4),
        lambda: solve_forward(coeffs, op, pol, 0.0, b, grid),
        lambda: sensitivity_residual(np.zeros_like(base.values), base, coeffs, op, pol,
                                     lambda k, t, x, z, hist: 1.0, 0.0, b),
    ]
    for run in runs:
        with warnings.catch_warnings(record=True), np.errstate(all="raise" if filters == "numpy-raise" else "warn"):
            warnings.simplefilter("error" if filters == "warnings-as-errors" else "always")
            with pytest.raises(ValueError, match="non-finite value at step 2"):
                run()


def test_ensemble_paths_bitwise_match_single_solver():
    market, spec, coeffs, op, _ = bench()
    pol = pf.optimal_policy(market, spec)
    tg = TimeGrid(0.0, 0.5, 50)
    res = run_ensemble(coeffs, op, pol, 0.5, market.D, tg, chaos=spec, n_paths=8, seed=4)
    b = sample_bundle(tg, LevySpec(), 4, 5)
    f = solve_forward(coeffs, op, pol, 0.5, b, market.D, chaos=spec)
    assert np.array_equal(res.y_terminal[5], f.values[-1])


@pytest.mark.parametrize("n_paths", [0, -3])
def test_ensemble_rejects_fewer_than_one_path(n_paths):
    market, spec, coeffs, op, _ = bench()
    pol = pf.optimal_policy(market, spec)
    with mock.patch.object(mp, "brownian_increment_matrix") as draw:
        with pytest.raises(ValueError, match="n_paths"):
            run_ensemble(coeffs, op, pol, 0.5, market.D, TimeGrid(0.0, 0.5, 5), chaos=spec,
                         n_paths=n_paths)
    draw.assert_not_called()


def test_ensemble_independent_of_blocking():
    market, spec, coeffs, op, _ = bench()
    pol = pf.optimal_policy(market, spec)
    tg = TimeGrid(0.0, 0.5, 20)
    a = run_ensemble(coeffs, op, pol, 0.5, market.D, tg, chaos=spec, n_paths=10, seed=4)
    with mock.patch.object(mp, "_BLOCK_PATHS", 3):
        b = run_ensemble(coeffs, op, pol, 0.5, market.D, tg, chaos=spec, n_paths=10, seed=4)
    assert np.array_equal(a.y_terminal, b.y_terminal)
    assert np.array_equal(a.w_terminal, b.w_terminal)


@pytest.mark.parametrize("h", [0.0, 0.37, -1.25, "profile"])
def test_profit_integral_of_h_without_paths_axis_equals_its_broadcast(h):
    # an h without the paths' axis (a scalar or an (n_nodes,) profile) is
    # summed over the nodes once per step for all paths; the integral equals
    # that of the same h broadcast to (n_paths, n_nodes), bit for bit
    market, spec, coeffs, op, _ = bench()
    pol = pf.optimal_policy(market, spec)
    tg = TimeGrid(0.0, 0.5, 20)
    row = (lambda x: np.sin(3.0 * x) - 0.2) if h == "profile" else (lambda x: h)
    by_row = PerformanceSpec(h=lambda t, x, y, u, z: row(x), k=lambda x, y, z: 0.0)
    by_path = PerformanceSpec(h=lambda t, x, y, u, z: np.broadcast_to(row(x), y.shape).copy(),
                              k=lambda x, y, z: 0.0)
    a, b = (run_ensemble(coeffs, op, pol, 0.5, market.D, tg, chaos=spec, n_paths=37, seed=4,
                         perf=perf).h_integral for perf in (by_row, by_path))
    assert np.array_equal(a, b)
    assert np.all(a == 0.0) == (h == 0.0)


JUMP_LEVY = LevySpec(atoms=((0.5, 3.0),))
JUMP_CHAOS = FirstOrderChaosSpec(
    beta=lambda t: 1.0, psi=lambda t, mark: mark, levy=JUMP_LEVY, T0=1.0
)


def jump_model():
    """General model with a control-dependent nonlocal operator."""
    op = OperatorSpec(
        second_coeff=lambda t, x, u, z: 0.5 + 0.1 * u * u,
        first_coeff=lambda t, x, u, z: 0.1 * u,
        jump_shift=lambda t, x, u, z, mark: 0.2 * mark * u,
        levy=JUMP_LEVY,
    )
    coeffs = CoefficientSet(
        a=lambda t, x, y, u, z: 0.1 * u * y,
        b=lambda t, x, y, u, z: 0.2 * y,
        c=lambda t, x, y, u, z, mark: 0.1 * mark * y,
        xi=lambda x, z: np.sin(math.pi * x),
    )
    return op, coeffs


def _column_at_step(control, k, t, xs, m):
    """An x-independent control's rule called for step k alone, its one value
    per path read as the block's (n_paths, 1) column; a 0-d value stays 0-d."""
    u = control.values(k, t, xs, 0.0, PathHistory(m=m))
    return u[:, None] if u.ndim == 1 else u


def _residuals_assembling_every_step(field, chi, phi, coeffs, op, control, d, bundle):
    """weak_residual and sensitivity_residual at z = 0 as loops that assemble
    the operator afresh at every step and on each side."""
    grid, tgrid = field.grid, field.tgrid
    xs, dt = grid.nodes(), tgrid.dt
    db, counts, means = forward._path_noise(op, None, bundle, tgrid)
    sides = [(s, perturbed_policy(control, d, s)) for s in (mp._TANGENT_EPS, -mp._TANGENT_EPS)]
    acc = grid.inner(field.values[-1], phi) - grid.inner(field.values[0], phi)
    worst = 0.0
    for k, t in enumerate(tgrid.nodes[:-1]):
        Y, dy = field.values[k][None], chi[k][None]
        noise = dict(db_k=db[:, k], counts_k=[c[:, k] for c in counts])
        u = _column_at_step(control, k, t, xs, means[k])
        explicit = forward._explicit_rhs(coeffs, op, t, xs, Y, u, 0.0, dt, **noise) - Y
        acc -= grid.inner((dt * assemble_operator(op, grid, t, u, 0.0).apply(Y) + explicit)[0], phi)
        steps = []
        for s, side in sides:
            u = _column_at_step(side, k, t, xs, means[k])
            steps.append(forward.step_forward(Y + s * dy, k, u, coeffs=coeffs, op=op, xs=xs, tgrid=tgrid,
                                              z=0.0, assembled=assemble_operator(op, grid, t, u, 0.0),
                                              **noise))
        tangent = (steps[0] - steps[1]) / (2.0 * mp._TANGENT_EPS)
        worst = max(worst, float(np.max(np.abs(chi[k + 1] - tangent[0])[1:-1])))
    return abs(acc), worst


@pytest.mark.parametrize("model", ["constant", "t-dependent", "u-dependent-stack-with-jumps"])
def test_residuals_assemble_only_when_a_coefficient_value_changes(model):
    # both residuals assembled the operator at every step, on each side:
    # n_steps and 2 n_steps calls for a constant operator
    tg = TimeGrid(0.0, 0.2, 10)
    coeffs = replace(COEFFS, xi=lambda x, z: np.sin(math.pi * x))
    pol = const_policy(0.3)
    if model == "constant":
        op, changes = OP, 1
    elif model == "t-dependent":
        # constant on [0, 0.065), [0.065, 0.13) and [0.13, 0.2): steps 0-3, 4-6, 7-9
        op = replace(OP, second_coeff=lambda t, x, u, z: 0.2 + 0.1 * math.floor(t / 0.065))
        changes = 3
    else:
        # one control per path, so one operator per path: the same for steps
        # 0-3, then another at each of steps 4-9
        op, coeffs = jump_model()
        pol = ControlPolicy(
            rule=lambda k, t, x, z, hist: np.full(np.shape(hist.m), 0.3 + 0.01 * np.maximum(k - 3, 0)))
        changes = 7
    d = direction(1.0)
    bundle = sample_bundle(tg, op.levy, 2, 0)
    field = solve_forward(coeffs, op, pol, 0.0, bundle, GRID)
    chi = state_sensitivity(coeffs, op, pol, d, 0.0, bundle, GRID)
    phi = np.sin(math.pi * GRID.nodes())
    phi[0] = phi[-1] = 0.0
    with mock.patch.object(forward, "assemble_operator", wraps=forward.assemble_operator) as spy:
        weak = weak_residual(field, phi, coeffs, op, pol, bundle, 0.0)
        assert spy.call_count == changes
        spy.reset_mock()
        sens = sensitivity_residual(chi, field, coeffs, op, pol, d, 0.0, bundle)
        assert spy.call_count == 2 * changes
    assert (weak, sens) == _residuals_assembling_every_step(field, chi, phi, coeffs, op, pol, d, bundle)


@pytest.mark.parametrize("mode", ["x-independent", "x-dependent"])
def test_control_dependent_jump_ensemble_matches_single_path_solver(mode):
    op, coeffs = jump_model()

    def rule(k, t, x, z, hist):
        m = np.asarray(hist.m, dtype=float)
        if x is None:
            return np.clip(0.5 + 0.3 * m, 0.0, 1.0)
        return np.clip(0.5 + 0.3 * m + 0.2 * x, 0.0, 1.0)

    pol = ControlPolicy(rule=rule, mode=mode, bounds=(0.0, 1.0))
    grid = SpatialGrid(0.0, 1.0, 16)
    tg = TimeGrid(0.0, 0.5, 25)
    res = run_ensemble(
        coeffs, op, pol, 0.3, grid, tg, chaos=JUMP_CHAOS, n_paths=6, seed=2
    )
    for p in range(6):
        f = solve_forward(coeffs, op, pol, 0.3, sample_bundle(tg, JUMP_LEVY, 2, p), grid,
                          chaos=JUMP_CHAOS)
        assert np.array_equal(res.y_terminal[p], f.values[-1])


@pytest.mark.parametrize("n_paths", [5, 9])  # 9 paths = 9 nodes
def test_shared_x_dependent_profile_ensemble_matches_single_path_solver(n_paths):
    # the rule returns one (n_nodes,) profile for every path
    op, coeffs = jump_model()
    pol = ControlPolicy(rule=lambda k, t, x, z, hist: 0.2 * x, mode="x-dependent",
                        bounds=(0.0, 1.0))
    grid = SpatialGrid(0.0, 1.0, 8)
    tg = TimeGrid(0.0, 0.5, 10)
    res = run_ensemble(coeffs, op, pol, 0.3, grid, tg, n_paths=n_paths, seed=1)
    for p in range(n_paths):
        ref = solve_forward(coeffs, op, pol, 0.3, sample_bundle(tg, JUMP_LEVY, 1, p), grid).values[-1]
        assert np.array_equal(res.y_terminal[p], ref)


# an x-dependent rule's value of each shape its block allows, built from its
# arguments: x is a (1, n_nodes) row and m an (n_paths, 1) column
_X_DEPENDENT_VALUES = {
    "()": lambda k, t, x, z, m: 0.4 + 0.01 * k,
    "(1, 1)": lambda k, t, x, z, m: np.full((1, 1), 0.4 + 0.01 * k),
    "(1, n_nodes)": lambda k, t, x, z, m: 0.3 + 0.2 * x + 0.01 * k,
    "(n_paths, 1)": lambda k, t, x, z, m: np.clip(0.5 + 0.3 * m, 0.0, 1.0),
    "(n_paths, n_nodes)": lambda k, t, x, z, m: np.clip(0.5 + 0.3 * m + 0.2 * x, 0.0, 1.0),
}


@pytest.mark.parametrize("n_paths", [5, 9, 1])  # 9 paths = 9 nodes
@pytest.mark.parametrize("shape", _X_DEPENDENT_VALUES)
def test_x_dependent_values_of_every_shape_give_ensemble_rows_equal_to_single_path_solves(shape, n_paths):
    # (1, 1), (1, n_nodes) and (n_paths, 1) were refused by values, and a
    # rule had to write m[..., None] for a value per path and node
    op, coeffs = jump_model()
    value = _X_DEPENDENT_VALUES[shape]
    pol = ControlPolicy(rule=lambda k, t, x, z, hist: value(k, t, x, z, hist.m), mode="x-dependent",
                        bounds=(0.0, 1.0))
    grid = SpatialGrid(0.0, 1.0, 8)
    tg = TimeGrid(0.0, 0.5, 10)
    res = run_ensemble(coeffs, op, pol, 0.3, grid, tg, chaos=JUMP_CHAOS, n_paths=n_paths, seed=1)
    for p in range(n_paths):
        ref = solve_forward(coeffs, op, pol, 0.3, sample_bundle(tg, JUMP_LEVY, 1, p), grid, chaos=JUMP_CHAOS)
        assert np.array_equal(res.y_terminal[p], ref.values[-1])


@settings(max_examples=25, deadline=None)
@given(
    jumps=st.booleans(),
    n_paths=st.integers(1, 9),
    block_size=st.integers(1, 10),
    seed=st.integers(0, 2**16),
)
def test_ensemble_bitwise_independent_of_any_block_size(jumps, n_paths, block_size, seed):
    op, coeffs = jump_model()
    pol = ControlPolicy(rule=lambda k, t, x, z, hist: np.clip(0.5 + 0.3 * np.asarray(hist.m), 0.0, 1.0),
                        bounds=(0.0, 1.0))
    if jumps:
        chaos = JUMP_CHAOS
    else:
        chaos = FirstOrderChaosSpec(beta=lambda t: 1.0, T0=1.0)
        op = replace(op, jump_shift=None, levy=LevySpec())
    perf = PerformanceSpec(h=lambda t, x, y, u, z: u * y, k=lambda x, y, z: y)

    def run(bs):
        # patched per example: a function-scoped fixture would not reset between them
        with mock.patch.object(mp, "_BLOCK_PATHS", bs):
            return run_ensemble(
                coeffs, op, pol, 0.3, SpatialGrid(0.0, 1.0, 6), TimeGrid(0.0, 0.2, 4), chaos=chaos,
                n_paths=n_paths, seed=seed, perf=None if jumps else perf,
            )

    whole, split = run(n_paths), run(block_size)
    for attr in ("y_terminal", "w_terminal", "h_integral", "min_interior"):
        a, b = getattr(whole, attr), getattr(split, attr)
        assert (a is None and b is None) or np.array_equal(a, b)


@settings(max_examples=40, deadline=None)
@given(
    mode=st.sampled_from(["x-independent", "x-dependent"]),
    jump=st.sampled_from([None, (0.5, 3.0), (-0.8, 1.5)]),
    kind=st.sampled_from(["constant", "t-dependent", "u-dependent"]),
    n_paths=st.integers(1, 4),
    n_cells=st.integers(3, 10),
    n_steps=st.integers(1, 6),
    lin=st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6),
    seed=st.integers(0, 2**16),
)
def test_ensemble_rows_equal_single_path_solves_bitwise(
    mode, jump, kind, n_paths, n_cells, n_steps, lin, seed
):
    # a path of an ensemble and the same path solved alone run through the
    # same block stepper, so they agree bit for bit for any coefficients;
    # jump shifts reach up to 0.8 of the unit interval, several cells.  The
    # operator's coefficients read nothing, t only, or the control only
    a1, a2, b1, c1, f1, g1 = lin
    levy = LevySpec(atoms=(jump,)) if jump else LevySpec()
    chaos = FirstOrderChaosSpec(beta=lambda t: 1.0, psi=lambda t, mark: mark, levy=levy, T0=1.0)
    speed = 2.0 if kind == "t-dependent" else 0.0

    def coeff(t, x, u):
        return u if kind == "u-dependent" else (0.5 + 0.5 * x) / (1.0 + speed * t)

    op = OperatorSpec(
        second_coeff=lambda t, x, u, z: 0.3 + 0.2 * coeff(t, x, u),
        first_coeff=lambda t, x, u, z: f1 * coeff(t, x, u),
        jump_shift=(lambda t, x, u, z, mark: g1 * mark * coeff(t, x, u)) if jump else None,
        levy=levy,
    )
    coeffs = CoefficientSet(
        a=lambda t, x, y, u, z: a1 * y + a2 * u,
        b=lambda t, x, y, u, z: b1 * y,
        c=lambda t, x, y, u, z, mark: c1 * mark * y,
        xi=lambda x, z: np.sin(math.pi * x),
    )

    def rule(k, t, x, z, hist):
        m = np.asarray(hist.m, dtype=float)
        if x is None:
            return np.clip(0.5 + 0.3 * m, 0.0, 1.0)
        return np.clip(0.5 + 0.3 * m + 0.2 * x, 0.0, 1.0)

    pol = ControlPolicy(rule=rule, mode=mode, bounds=(0.0, 1.0))
    grid = SpatialGrid(0.0, 1.0, n_cells)
    tg = TimeGrid(0.0, 0.3, n_steps)
    res = run_ensemble(coeffs, op, pol, 0.3, grid, tg, chaos=chaos, n_paths=n_paths, seed=seed)
    for p in range(n_paths):
        f = solve_forward(coeffs, op, pol, 0.3, sample_bundle(tg, levy, seed, p), grid, chaos=chaos)
        assert np.array_equal(res.y_terminal[p], f.values[-1])


@pytest.mark.parametrize("mode, shape", [
    ("x-dependent", (5, 2)),
    ("x-dependent", (5,)),
    ("x-dependent", (0,)),
    ("x-independent", (9,)),
    ("x-independent", (5, 9)),
])
def test_ensemble_rejects_control_of_the_wrong_shape(mode, shape):
    op, coeffs = jump_model()
    pol = ControlPolicy(rule=lambda k, t, x, z, hist: np.full(shape, 0.5), mode=mode)
    with pytest.raises(ControlShapeMismatch):
        run_ensemble(coeffs, op, pol, 0.3, SpatialGrid(0.0, 1.0, 8), TimeGrid(0.0, 0.1, 2),
                     n_paths=5, seed=0)


def _ensemble_peak_bytes(op, coeffs):
    """Traced peak memory of 1200 paths at 64 cells, one step."""
    pol = ControlPolicy(rule=lambda k, t, x, z, hist: 0.5 + 0.0 * np.asarray(hist.m),
                        bounds=(0.0, 1.0))
    tracemalloc.start()
    try:
        run_ensemble(coeffs, op, pol, 0.3, SpatialGrid(0.0, 1.0, 64), TimeGrid(0.0, 0.1, 1),
                     n_paths=1200, seed=0)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_control_dependent_jump_ensemble_memory_is_bounded():
    # a dense (n_paths, n, n) stack would hold 40 MB, the per-path diagonals
    # of this narrow shift a few MB
    assert _ensemble_peak_bytes(*jump_model()) < 64 * 2**20


def test_control_dependent_jump_ensemble_memory_is_bounded_at_wide_shifts():
    # shifts across the whole interval from either end give about 2n
    # diagonals per path, which for 1200 paths in one block would hold 80 MB
    op, coeffs = jump_model()
    op = replace(op, jump_shift=lambda t, x, u, z, mark: mark * u * (4.0 - 8.0 * x))
    assert _ensemble_peak_bytes(op, coeffs) < 64 * 2**20


def test_ensemble_rows_independent_of_block_size_at_blocked_band_widths():
    # shifts both ways at 200 cells: the band has more than 64 diagonals above
    # the main one and 32 below, which LAPACK factors in blocks, and each
    # path's width follows its control, so a block is as wide as its widest path
    levy = LevySpec(atoms=((0.5, 3.0), (-0.8, 1.5)))
    op, coeffs = jump_model()
    op = replace(op, jump_shift=lambda t, x, u, z, mark: mark * u * (0.3 + x), levy=levy)
    pol = ControlPolicy(rule=lambda k, t, x, z, hist: np.clip(0.9 + 2.0 * np.asarray(hist.m), 0.1, 1.0),
                        bounds=(0.0, 1.0))
    grid = SpatialGrid(0.0, 1.0, 200)
    widest = assemble_operator(op, grid, 0.0, np.array([[0.1], [1.0]]), 0.3)
    assert widest.ku > 64 and widest.kl >= 32
    chaos = FirstOrderChaosSpec(beta=lambda t: 1.0, T0=1.0)

    def run(bs):
        with mock.patch.object(mp, "_BLOCK_PATHS", bs):
            return run_ensemble(
                coeffs, op, pol, 0.3, grid, TimeGrid(0.0, 0.1, 3), chaos=chaos, n_paths=4, seed=1,
            )

    whole = run(4)
    # the paths' insider means, and so their controls and band widths, differ
    assert np.ptp(whole.w_terminal) > 0
    for bs in (1, 3):
        assert np.array_equal(run(bs).y_terminal, whole.y_terminal)


OTHER_LEVY = LevySpec(atoms=((1.0, 1.0),))


def _run_on(part, entry, levy):
    """Run entry on jump_model(), whose op.levy is JUMP_LEVY, with the part
    named (the insider variable chaos, the PathBundle, or estimate_j's levy)
    on levy instead."""
    op, coeffs = jump_model()
    chaos = replace(JUMP_CHAOS, levy=levy) if part == "chaos" else JUMP_CHAOS
    pol = ControlPolicy(rule=lambda k, t, x, z, hist: 0.5 + 0.0 * np.asarray(hist.m),
                        bounds=(0.0, 1.0))
    perf = PerformanceSpec(h=lambda t, x, y, u, z: 0.0, k=lambda x, y, z: y)
    grid, tg = SpatialGrid(0.0, 1.0, 8), TimeGrid(0.0, 0.2, 5)
    bundle = sample_bundle(tg, levy if part == "bundle" else JUMP_LEVY, 0, 0)
    if entry == "run_ensemble":
        return run_ensemble(coeffs, op, pol, 0.3, grid, tg, chaos=chaos, n_paths=4)
    if entry == "estimate_j":
        kw = {"levy": levy} if part == "levy" else {}
        return estimate_j(coeffs, op, pol, perf, chaos, 0.3, grid, tg, 4, 0, **kw)
    if entry == "gateaux_derivative":
        return gateaux_derivative(coeffs, op, pol, direction(1.0), perf, chaos, 0.3, grid, tg,
                                  n_paths=4)
    if entry == "verify_x_independent_stationarity":
        return verify_x_independent_stationarity(coeffs, op, pol, perf, chaos, 0.3, grid, tg,
                                                 n_windows=2, n_paths=4)
    if entry == "sensitivity_residual":
        base = solve_forward(coeffs, op, pol, 0.3, sample_bundle(tg, JUMP_LEVY, 0, 0), grid,
                             chaos=JUMP_CHAOS)
        return sensitivity_residual(np.zeros_like(base.values), base, coeffs, op, pol, direction(1.0),
                                    0.3, bundle, chaos=chaos)
    field = solve_forward(coeffs, op, pol, 0.3, bundle, grid, chaos=chaos)
    if entry == "weak_residual":
        phi = np.sin(math.pi * grid.nodes())
        phi[0] = phi[-1] = 0.0
        return weak_residual(field, phi, coeffs, op, pol, bundle, 0.3, chaos=chaos)
    return field


@pytest.mark.parametrize("part, entry", [
    ("chaos", "run_ensemble"),
    ("chaos", "estimate_j"),
    ("chaos", "gateaux_derivative"),
    ("chaos", "verify_x_independent_stationarity"),
    ("chaos", "solve_forward"),
    ("chaos", "weak_residual"),
    ("bundle", "solve_forward"),
    ("bundle", "weak_residual"),
    ("chaos", "sensitivity_residual"),
    ("bundle", "sensitivity_residual"),
    ("levy", "estimate_j"),
])
def test_model_on_two_measures_raises(part, entry):
    # op.levy is the model's one measure: the same call runs with the part
    # on op.levy and raises with it on another
    _run_on(part, entry, JUMP_LEVY)
    with pytest.raises(ModelMismatch, match="op.levy"):
        _run_on(part, entry, OTHER_LEVY)


def test_estimate_j_levy_equal_to_op_levy_changes_nothing():
    op, coeffs = jump_model()
    pol = ControlPolicy(rule=lambda k, t, x, z, hist: np.clip(0.5 + 0.3 * np.asarray(hist.m), 0.0, 1.0),
                        bounds=(0.0, 1.0))
    perf = PerformanceSpec(h=lambda t, x, y, u, z: u * y, k=lambda x, y, z: y)
    grid, tg = SpatialGrid(0.0, 1.0, 8), TimeGrid(0.0, 0.2, 5)
    args = (coeffs, op, pol, perf, JUMP_CHAOS, 0.3, grid, tg, 6, 3)
    (est, samples), (est_levy, samples_levy) = (
        estimate_j(*args, return_samples=True, **kw) for kw in ({}, {"levy": op.levy})
    )
    assert est == est_levy
    assert np.array_equal(samples, samples_levy)


def test_ensemble_perf_without_chaos_raises():
    # the profit rate is weighted by the conditional density of chaos
    perf = PerformanceSpec(h=lambda t, x, y, u, z: u * y, k=lambda x, y, z: y)
    with pytest.raises(ModelMismatch, match="without chaos"):
        run_ensemble(COEFFS, OP, const_policy(0.3), 0.0, GRID, TimeGrid(0.0, 0.1, 2),
                     n_paths=2, perf=perf)


def test_estimate_j_without_chaos_raises():
    perf = PerformanceSpec(h=lambda t, x, y, u, z: u * y, k=lambda x, y, z: y)
    with pytest.raises(ModelMismatch, match="without chaos"):
        estimate_j(COEFFS, OP, const_policy(0.3), perf, None, 0.0, SpatialGrid(0.0, 1.0, 8),
                   TimeGrid(0.0, 0.1, 2), 4, 0)


def test_only_estimate_j_takes_levy():
    # the model's measure is op.levy; estimate_j keeps a check-only levy
    takes = sorted(
        name
        for module in (forward, mp)
        for name in module.__all__
        if callable(fn := getattr(module, name)) and not inspect.isclass(fn)
        and "levy" in inspect.signature(fn).parameters
    )
    assert takes == ["estimate_j"]


def test_brownian_only_routines_reject_jump_insider_variable():
    tg = TimeGrid(0.0, 0.2, 10)
    b = sample_bundle(tg, JUMP_LEVY, 1, 0)
    with pytest.raises(ModelMismatch):
        reduced_adjoint_solve(
            lambda t, z: 0.1, lambda t, z: 0.3, const_policy(1.0), 1.0, b, 0.0, chaos=JUMP_CHAOS
        )


def test_stationarity_report_is_json_friendly_and_passes_at_optimum():
    market, spec, coeffs, op, perf = bench()
    pol = pf.optimal_policy(market, spec)
    tg = TimeGrid(0.0, 0.5, 50)
    report = verify_x_independent_stationarity(
        coeffs, op, pol, perf, spec, 0.5, market.D, tg,
        n_windows=2, n_paths=800, seed=0,
    )
    import json

    json.dumps(report)
    assert report["passed"]
    assert len(report["windows"]) == 2


def test_stationarity_refuses_more_windows_than_steps():
    # 8 windows on 4 steps: four windows held no step and read statistic
    # 0.0, stderr 0.0 and t = 0.0, which passed
    market, spec, coeffs, op, perf = bench()
    pol = pf.optimal_policy(market, spec)
    with pytest.raises(ValueError, match="8 windows on 4 steps"):
        verify_x_independent_stationarity(coeffs, op, pol, perf, spec, 0.5, market.D, TimeGrid(0.0, 0.5, 4),
                                          n_windows=8, n_paths=20, seed=0)
    report = verify_x_independent_stationarity(coeffs, op, pol, perf, spec, 0.5, market.D,
                                               TimeGrid(0.0, 0.5, 4), n_windows=4, n_paths=20, seed=0)
    assert all(e["stderr"] > 0.0 for e in report["windows"])


def test_performance_estimate_guards():
    with pytest.raises(ValueError):
        PerformanceEstimate(mean=0.0, stderr=0.0, n_paths=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="two paths"):
            PerformanceEstimate.from_samples(np.array([1.5]))
    assert PerformanceEstimate(mean=0.0, stderr=0.0, n_paths=2).tstat() == 0.0


def _count_rows_drawn():
    """Patch the ensemble's noise draws to count the rows each draws."""
    rows = {"B": 0, "P": 0}

    def brownian(tgrid, seed, path_indices, *rest):
        rows["B"] += len(path_indices)
        return brownian_increment_matrix(tgrid, seed, path_indices, *rest)

    def jumps(tgrid, levy, seed, path_indices, *rest):
        rows["P"] += len(path_indices) if levy.atoms else 0
        return jump_count_matrices(tgrid, levy, seed, path_indices, *rest)

    patches = mock.patch.multiple(mp, brownian_increment_matrix=brownian, jump_count_matrices=jumps)
    return patches, rows


@pytest.mark.parametrize("jumps", [False, True], ids=["gaussian", "atom"])
def test_tuple_of_controls_equals_separate_runs_bitwise(jumps):
    op, coeffs = jump_model()
    if jumps:
        chaos = JUMP_CHAOS
    else:
        chaos = FirstOrderChaosSpec(beta=lambda t: 1.0, T0=1.0)
        op = replace(op, jump_shift=None, levy=LevySpec())
    perf = PerformanceSpec(h=lambda t, x, y, u, z: u * y, k=lambda x, y, z: y)
    pols = tuple(
        ControlPolicy(rule=lambda k, t, x, z, hist, c=c: np.clip(c + 0.3 * np.asarray(hist.m), 0.0, 1.0),
                      bounds=(0.0, 1.0))
        for c in (0.2, 0.5, 0.8)
    )
    kw = dict(chaos=chaos, n_paths=8, seed=5, perf=perf)
    grid, tg = SpatialGrid(0.0, 1.0, 6), TimeGrid(0.0, 0.2, 4)
    patches, rows = _count_rows_drawn()
    with mock.patch.object(mp, "_BLOCK_PATHS", 3):
        alone = [run_ensemble(coeffs, op, p, 0.3, grid, tg, **kw) for p in pols]
        with patches:
            shared = run_ensemble(coeffs, op, pols, 0.3, grid, tg, **kw)
    assert rows == {"B": 8, "P": 8 if jumps else 0}
    assert isinstance(shared, tuple) and len(shared) == 3
    for a, b in zip(alone, shared):
        assert len(a.y_terminal) == len(b.y_terminal) == 8
        for attr in ("y_terminal", "w_terminal", "h_integral", "min_interior"):
            assert np.array_equal(getattr(a, attr), getattr(b, attr))
    assert not np.array_equal(shared[0].y_terminal, shared[2].y_terminal)


@pytest.mark.parametrize("target", ["db", "counts"])
def test_shared_noise_is_read_only(target):
    op, coeffs = jump_model()
    pol = ControlPolicy(rule=lambda k, t, x, z, hist: 0.5 + 0.0 * np.asarray(hist.m),
                        bounds=(0.0, 1.0))
    sweep = mp._sweep

    def writing_sweep(coeffs, op, control, z, grid, tgrid, db, counts, *rest):
        (db if target == "db" else counts[0])[0, 0] = 0
        return sweep(coeffs, op, control, z, grid, tgrid, db, counts, *rest)

    with mock.patch.object(mp, "_sweep", writing_sweep), pytest.raises(ValueError, match="read-only"):
        run_ensemble(coeffs, op, (pol, pol), 0.3, SpatialGrid(0.0, 1.0, 6), TimeGrid(0.0, 0.2, 3),
                     n_paths=4, seed=0)


def _zeroing_rule(k, t, x, z, hist):
    hist.m[:] = 0.0
    return 0.5


@pytest.mark.parametrize("chaos", [FirstOrderChaosSpec(beta=lambda t: 1.0, T0=1.0), None],
                         ids=["gaussian", "none"])
def test_shared_insider_mean_is_read_only(chaos):
    # a rule that zeroed hist.m ran, and changed the density weights of its
    # run: w_terminal [0.390, 0.376, 0.421] against [0.439, 0.430, 0.309]
    market, _, coeffs, op, _ = bench()
    pol = ControlPolicy(rule=_zeroing_rule)
    tg = TimeGrid(0.0, 0.2, 4)
    with pytest.raises(ValueError, match="read-only"):
        run_ensemble(coeffs, op, pol, 0.5, market.D, tg, chaos=chaos, n_paths=3, seed=0)
    with pytest.raises(ValueError, match="read-only"):
        solve_forward(coeffs, op, pol, 0.5, sample_bundle(tg, LevySpec(), 0, 0), market.D, chaos=chaos)


@pytest.mark.parametrize("jumps", [False, True], ids=["gaussian", "atom"])
def test_density_weights_are_computed_once_per_block_for_every_control(jumps):
    op, coeffs = jump_model()
    if jumps:
        chaos = JUMP_CHAOS
    else:
        chaos = FirstOrderChaosSpec(beta=lambda t: 1.0, T0=1.0)
        op = replace(op, jump_shift=None, levy=LevySpec())
    perf = PerformanceSpec(h=lambda t, x, y, u, z: u * y, k=lambda x, y, z: y)
    pols = tuple(ControlPolicy(rule=lambda k, t, x, z, hist, c=c: c, bounds=(0.0, 1.0))
                 for c in (0.2, 0.5, 0.8))
    grid, tg = SpatialGrid(0.0, 1.0, 6), TimeGrid(0.0, 0.2, 4)
    delta = donsker.delta_from_mean
    calls = []

    def counting(spec, z, t, m, **kw):
        calls.append((np.shape(t), np.shape(m)))
        return delta(spec, z, t, m, **kw)

    def count(control, perf):
        calls.clear()
        run_ensemble(coeffs, op, control, 0.3, grid, tg, chaos=chaos, n_paths=8, seed=5, perf=perf)
        return list(calls)

    # blocks of 3, 3 and 2 paths: one call per block on a column of times,
    # n_steps + 1 of them with perf and the horizon's alone without, whatever
    # the number of controls
    per_block = lambda n: [((n, 1), (n, b)) for b in (3, 3, 2)]
    with mock.patch.object(mp, "_BLOCK_PATHS", 3), mock.patch.object(donsker, "delta_from_mean", counting):
        assert count(pols[0], perf) == count(pols, perf) == per_block(tg.n_steps + 1)
        assert count(pols[0], None) == count(pols, None) == per_block(1)


def test_gateaux_draws_each_path_once_for_all_directions():
    market, spec, coeffs, op, perf = bench()
    pol = pf.optimal_policy(market, spec)
    tg = TimeGrid(0.0, 0.3, 12)
    dirs = (direction(1.0), direction(-0.5), direction(0.25))
    kw = dict(a_step=1e-3, n_paths=16, seed=2)
    alone = [gateaux_derivative(coeffs, op, pol, d, perf, spec, 0.5, market.D, tg, **kw) for d in dirs]
    patches, rows = _count_rows_drawn()
    with patches:
        one = gateaux_derivative(coeffs, op, pol, dirs[0], perf, spec, 0.5, market.D, tg, **kw)
    assert rows["B"] == 16
    with patches:
        shared = gateaux_derivative(coeffs, op, pol, dirs, perf, spec, 0.5, market.D, tg, **kw)
    assert rows["B"] == 32
    assert one == alone[0] and shared == tuple(alone)


def test_stationarity_draws_each_path_once_for_all_windows():
    market, spec, coeffs, op, perf = bench()
    pol = pf.optimal_policy(market, spec)
    tg = TimeGrid(0.0, 0.3, 12)
    patches, rows = _count_rows_drawn()
    with patches:
        report = verify_x_independent_stationarity(
            coeffs, op, pol, perf, spec, 0.5, market.D, tg, n_windows=3, n_paths=20, seed=1,
        )
    assert rows["B"] == 20
    for w in report["windows"]:
        bump = lambda k, t, x, z, hist, lo=w["t_lo"], hi=w["t_hi"]: np.where((lo <= t) & (t < hi), 1.0, 0.0)
        est = gateaux_derivative(coeffs, op, pol, bump, perf, spec, 0.5, market.D, tg,
                                 n_paths=20, seed=1)
        width = w["t_hi"] - w["t_lo"]
        assert (w["statistic"], w["stderr"], w["tstat"]) == (est.mean / width, est.stderr / width,
                                                            est.tstat())
