"""An x-independent control is evaluated once per chunk of steps
(forward._control_chunks): each step gets the value a call at that step
alone gives, bit for bit, and the rule is called once per chunk.  The
bit-identity rests on numpy's elementwise loops rounding the same whatever
the shape of the arrays they run over."""
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spdecontrol import cli, forward
from spdecontrol import maxprinciple as mp
from spdecontrol import portfolio as pf
from spdecontrol.donsker import FirstOrderChaosSpec
from spdecontrol.errors import ControlShapeMismatch, InadmissibleControl
from spdecontrol.forward import ControlPolicy, PathHistory, SpatialGrid, insider_means, solve_forward
from spdecontrol.maxprinciple import perturbed_policy, reduced_adjoint_block, reduced_adjoint_solve, run_ensemble
from spdecontrol.noise import LevySpec, TimeGrid, brownian_increment_matrix, jump_count_matrices, sample_bundle

# t-dependent coefficients, so that a t-only factor that rounded differently
# in a chunk would show; math's functions take one time at a time
MARKET = pf.MarketSpec(a0=lambda t, z: 0.1 + 0.05 * math.sin(3.0 * t), b0=lambda t, z: 0.3 + 0.1 * math.cos(t),
                       alpha_init=lambda x: 1.0 + np.sin(math.pi * np.asarray(x)), D=SpatialGrid(0.0, 1.0, 4))
SPEC = FirstOrderChaosSpec(beta=lambda s: 1.0 + 0.5 * math.sin(s), T0=1.0)
JUMP_SPEC = FirstOrderChaosSpec(beta=lambda s: 1.0 + 0.5 * math.sin(s), psi=lambda s, mark: mark * (1.0 + s),
                                levy=LevySpec(atoms=((0.5, 3.0),)), T0=1.0)


def _cli_zero_control():
    """The control of the CLI's heat runs, as cli._heat_field hands it to solve_forward."""
    with mock.patch.object(cli, "solve_forward", wraps=cli.solve_forward) as spy:
        cli._heat_field(4, 2, 0.1)
    return spy.call_args.args[2]


_OPTIMAL = pf.optimal_policy(MARKET, SPEC)
# every x-independent rule of the library, and the insider variable of its means
LIBRARY_RULES = {
    "optimal-gaussian": (_OPTIMAL, SPEC),
    "optimal-jump": (pf.optimal_policy(MARKET, JUMP_SPEC), JUMP_SPEC),
    "shifted": (pf.shifted_policy(_OPTIMAL, -0.25), SPEC),
    "constant": (pf.constant_policy(0.3), SPEC),
    "perturbed-stationarity-window": (perturbed_policy(_OPTIMAL, mp._window_direction(0.1, 0.3), 0.5), SPEC),
    "cli-zero": (_cli_zero_control(), None),
}


@pytest.mark.parametrize("name", LIBRARY_RULES)
@settings(max_examples=25, deadline=None)
@given(n_steps=st.integers(1, 24), n_paths=st.integers(1, 5), chunk=st.integers(1, 26),
       seed=st.integers(0, 2**16))
@example(n_steps=7, n_paths=1, chunk=3, seed=0)
def test_chunked_control_rows_equal_per_step_evaluation(name, n_steps, n_paths, chunk, seed):
    control, chaos = LIBRARY_RULES[name]
    tgrid = TimeGrid(0.0, 0.5, n_steps)
    paths = range(n_paths)
    db = brownian_increment_matrix(tgrid, seed, paths)
    means = insider_means(chaos, tgrid, db, jump_count_matrices(tgrid, JUMP_SPEC.levy, seed, paths))
    xs = SpatialGrid(0.0, 1.0, 4).nodes()
    # a chunk of `chunk` steps for this block
    with mock.patch.object(forward, "_CONTROL_BYTES", 8 * n_paths * chunk):
        rows = list(forward._step_controls(control, 0.5, xs, tgrid, means))
    assert len(rows) == n_steps
    for k, (t, row) in enumerate(zip(tgrid.nodes, rows)):
        # the rule called for step k alone: one value per path, or 0-d
        alone = np.reshape(control.values(k, t, xs, 0.5, PathHistory(m=means[k])), (-1, 1))
        assert np.shape(row) in ((), (n_paths, 1))
        assert np.broadcast_to(row, (n_paths, 1)).tobytes() == np.broadcast_to(alone, (n_paths, 1)).tobytes()


@pytest.mark.parametrize("length", ["n_paths", "n_steps"])
@pytest.mark.parametrize("route", ["ensemble", "single-path", "adjoint"])
def test_a_one_dimensional_control_value_is_refused(route, length):
    # one entry per path or one per step: a 1-d value does not say which
    n_paths, n_steps = (3, 5) if route != "single-path" else (1, 5)
    n = n_paths if length == "n_paths" else n_steps
    pol = ControlPolicy(rule=lambda k, t, x, z, hist: np.full(n, 0.5))
    coeffs, op = pf.wealth_dynamics(MARKET)
    tgrid = TimeGrid(0.0, 0.5, n_steps)
    runs = {
        "ensemble": lambda: run_ensemble(coeffs, op, pol, 0.5, MARKET.D, tgrid, n_paths=n_paths),
        "single-path": lambda: solve_forward(coeffs, op, pol, 0.5, sample_bundle(tgrid, LevySpec(), 0, 0),
                                             MARKET.D),
        "adjoint": lambda: reduced_adjoint_block(MARKET.a0, MARKET.b0, pol, 1.0, tgrid,
                                                 brownian_increment_matrix(tgrid, 0, range(n_paths)), 0.5),
    }
    with pytest.raises(ControlShapeMismatch, match=rf"shape \({n},\)"):
        runs[route]()


def test_a_chunk_names_the_first_step_outside_the_bounds():
    # step 3 is outside U, step 5 is NaN: the first is reported, as a step-by-step sweep would
    pol = ControlPolicy(rule=lambda k, t, x, z, hist: np.where(k == 3, 2.0, np.where(k == 5, np.nan, 0.5)),
                        bounds=(-1.0, 1.0))
    k = np.arange(8)[:, None]
    hist = PathHistory(m=np.zeros((8, 2)))
    with pytest.raises(ValueError, match="value outside U at step 3"):
        pol.values(k, 0.1 * k, None, 0.0, hist)
    with pytest.raises(ValueError, match="non-finite value at step 5"):
        pol.values(k[4:], 0.1 * k[4:], None, 0.0, PathHistory(m=hist.m[4:]))
    # U is an interval of reals, so an unbounded control refuses a NaN and
    # either infinity too; it was not checked at all
    for value in (np.nan, np.inf, -np.inf):
        unbounded = ControlPolicy(rule=lambda k, t, x, z, hist: np.where(k == 6, value, 0.5))
        with pytest.raises(InadmissibleControl, match="non-finite value at step 6") as info:
            unbounded.values(k, 0.1 * k, None, 0.0, hist)
        assert info.value.step == 6
        assert np.array_equal(info.value.value, value, equal_nan=True)


def _values_spy():
    return mock.patch.object(ControlPolicy, "values", autospec=True, side_effect=ControlPolicy.values)


@pytest.mark.parametrize("mode", ["x-independent", "x-dependent"])
def test_a_sweep_calls_the_rule_once_per_chunk_or_once_per_step(mode):
    n_paths = 2048
    chunk = max(1, forward._CONTROL_BYTES // (8 * n_paths))
    n_steps = 2 * chunk + 3
    assert 1 < chunk < n_steps
    coeffs, op = pf.wealth_dynamics(MARKET)
    rule = (lambda k, t, x, z, hist: 0.5 + 0.0 * x) if mode == "x-dependent" else _OPTIMAL.rule
    with _values_spy() as spy:
        run_ensemble(coeffs, op, ControlPolicy(rule=rule, mode=mode), 0.5, MARKET.D,
                     TimeGrid(0.0, 0.5, n_steps), chaos=SPEC, n_paths=n_paths)
    assert spy.call_count == (math.ceil(n_steps / chunk) if mode == "x-independent" else n_steps)


def test_a_reduced_adjoint_solve_calls_the_rule_once():
    tgrid = TimeGrid(0.0, 0.5, 50)
    with _values_spy() as spy:
        reduced_adjoint_solve(MARKET.a0, MARKET.b0, _OPTIMAL, 1.0, sample_bundle(tgrid, LevySpec(), 0, 0), 0.5,
                              chaos=SPEC)
    assert spy.call_count == 1
