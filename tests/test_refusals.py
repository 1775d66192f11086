"""Library refusals of an unusable input: each names what it refused with a
ValueError before any work is done on it."""
import math

import numpy as np
import pytest

from spdecontrol import noise
from spdecontrol import portfolio as pf
from spdecontrol import zakai as zk
from spdecontrol.forward import ControlPolicy, OperatorSpec, SpatialGrid, assemble_operator
from spdecontrol.maxprinciple import verify_x_independent_stationarity
from spdecontrol.noise import LevySpec, TimeGrid, sample_bundle


def unknown_control_mode():
    ControlPolicy(rule=lambda k, t, x, z, hist: 0.0, mode="x-dependant")


def stack_solve_with_rhs_of_another_shape():
    # a control-dependent operator at three paths' controls is a stack of
    # three operators; two right-hand sides do not fit it
    grid = SpatialGrid(0.0, 1.0, 8)
    op = OperatorSpec(second_coeff=lambda t, x, u, z: 0.2 + u * u, first_coeff=lambda t, x, u, z: 0.0)
    stack = assemble_operator(op, grid, 0.0, np.array([[0.1], [0.5], [0.9]]), 0.0)
    stack.solve_implicit(0.01, np.zeros((2, grid.n_nodes)))


def stationarity_of_an_x_dependent_control():
    market, utility, spec = pf.benchmark_market(8)
    coeffs, op = pf.wealth_dynamics(market)
    perf = pf.log_utility_performance(market, utility)
    control = ControlPolicy(rule=lambda k, t, x, z, hist: 0.5 + 0 * x, mode="x-dependent")
    verify_x_independent_stationarity(coeffs, op, control, perf, spec, 0.5, market.D,
                                      TimeGrid(0.0, 0.5, 10), n_windows=2, n_paths=4)


def negative_utility_weight():
    pf.UtilitySpec(k_weight=lambda x, z: np.asarray(x) - 0.5).k_total(SpatialGrid(0.0, 1.0, 8), 0.5)


def portfolio_from_a_nonpositive_initial_profile():
    # sin(pi x) - 0.5 is negative on the interior nodes next to either end
    market, utility, spec = pf.benchmark_market(8)
    market = pf.MarketSpec(a0=market.a0, b0=market.b0, D=market.D,
                           alpha_init=lambda x: np.sin(math.pi * np.asarray(x)) - 0.5)
    pf.run_portfolio_experiment(market, utility, spec, 0.5, {"zero": pf.constant_policy(0.0)},
                                TimeGrid(0.0, 0.3, 12), 4, 0)


def signal_and_observation_on_two_grids():
    model = zk.SignalModel(
        alpha=lambda x, r, u: -0.5 * x,
        beta=lambda x, r, u: 0.4,
        h_obs=lambda x: x,
        F_init=lambda x, z: np.exp(-(x**2) / 0.08),
    )
    bv = sample_bundle(TimeGrid(0.0, 1.0, 10), LevySpec(), 0, 0, channel=0)
    bw = sample_bundle(TimeGrid(0.0, 1.0, 20), LevySpec(), 0, 0, channel=1)
    zk.simulate_signal_observation(model, None, 0.0, bv, bw, 0.0)


def state_words(n_words, dtype):
    def ask():
        noise._StateWords(np.zeros(4, dtype=np.uint64)).generate_state(n_words, dtype)
    return ask


@pytest.mark.parametrize("call, match", [
    (unknown_control_mode, "unknown control mode 'x-dependant'"),
    (stack_solve_with_rhs_of_another_shape, r"rhs of shape \(2, 9\) for operators of shape \(3, 9\)"),
    (stationarity_of_an_x_dependent_control, "applies to x-independent controls"),
    (negative_utility_weight, "utility weight must be nonnegative"),
    (portfolio_from_a_nonpositive_initial_profile, "initial wealth profile must be positive on interior nodes"),
    (signal_and_observation_on_two_grids, "bundles must share a time grid"),
    (state_words(4, np.uint32), r"only generate_state\(4, np.uint64\)"),
    (state_words(2, np.uint64), r"only generate_state\(4, np.uint64\)"),
], ids=["control-mode", "stack-rhs-shape", "stationarity-x-dependent", "utility-weight-sign",
        "initial-wealth-profile", "bundle-grids", "state-words-dtype", "state-words-count"])
def test_an_unusable_input_is_refused_with_a_value_error_that_names_it(call, match):
    with pytest.raises(ValueError, match=match):
        call()
