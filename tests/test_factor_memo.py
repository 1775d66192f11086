"""The t-only factors of pi_hat and phi1 (sigma^2, beta, b0 and a0/b0^2) and
the node columns of beta and psi are memoized per specification or market
and per time column: a memoized column equals a fresh evaluation, one Python
float per time, bit for bit, whatever the column's shape.  Like the chunked
control's bit-identity, this rests on numpy's elementwise loops rounding the
same whatever the shape of the arrays they run over."""
import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spdecontrol import donsker
from spdecontrol import portfolio as pf
from spdecontrol.donsker import EPS_VAR, FirstOrderChaosSpec, gaussian_phi1
from spdecontrol.errors import DegenerateVariance, DegenerateVolatility
from spdecontrol.forward import SpatialGrid, insider_means
from spdecontrol.maxprinciple import _volatility, reduced_adjoint_solve
from spdecontrol.noise import (LevySpec, TimeGrid, brownian_increment_matrix, jump_count_matrices,
                               sample_bundle)


def _market(**kw):
    # time-varying a0 and b0, and an a0 that reads z
    coeffs = dict(a0=lambda t, z: 0.1 + 0.05 * math.sin(3.0 * t) * z, b0=lambda t, z: 0.3 + 0.1 * math.cos(t),
                  alpha_init=lambda x: 1.0 + np.sin(math.pi * np.asarray(x)), D=SpatialGrid(0.0, 1.0, 4))
    return pf.MarketSpec(**{**coeffs, **kw})


def _spec(**kw):
    coeffs = dict(beta=lambda s: 1.0 + 0.5 * math.sin(s), psi=lambda s, mark: mark * (1.0 + s),
                  levy=LevySpec(atoms=((0.5, 3.0), (-0.25, 1.0))), T0=1.0)
    return FirstOrderChaosSpec(**{**coeffs, **kw})


def _fresh_gaussian(spec, t):
    return donsker._per_time(lambda s: donsker._check_time(spec, s), t), donsker._per_time(spec.beta, t)


def _fresh_pi(market, t, z):
    vol = donsker._per_time(lambda s: _volatility(market.b0, s, z), t)
    return vol, donsker._per_time(lambda s, v: market.a0(s, z) / v**2, t, vol)


def _same(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("shape", ["column", "flat", "matrix"])
@settings(max_examples=25, deadline=None)
@given(times=st.lists(st.floats(0.0, 0.95), min_size=1, max_size=12), z=st.floats(-2.0, 2.0))
def test_memoized_columns_equal_fresh_evaluation_bit_for_bit(shape, times, z):
    t = np.array(times)
    t = {"column": t[:, None], "flat": t, "matrix": np.vstack([t, t[::-1]])}[shape]
    spec, market = _spec(psi=None, levy=LevySpec()), _market()
    fresh_spec, fresh_market = replace(spec), replace(market)
    for _ in range(2):  # a miss, then a hit
        for got, want in [(donsker._gaussian_factors(spec, t), _fresh_gaussian(fresh_spec, t)),
                          (market.pi_factors(t, z), _fresh_pi(fresh_market, t, z))]:
            assert all(_same(g, w) for g, w in zip(got, want, strict=True))
        # and each entry is its time's value alone
        sigma2, beta = donsker._gaussian_factors(spec, t)
        vol, drift = market.pi_factors(t, z)
        for k, s in enumerate(t.ravel().tolist()):
            assert sigma2.flat[k] == spec.residual_variance(s) and beta.flat[k] == spec.beta(s)
            assert vol.flat[k] == market.b0(s, z) and drift.flat[k] == market.a0(s, z) / market.b0(s, z) ** 2
    assert len(spec._columns) == len(market._pi_factors) == 1


def test_node_columns_equal_fresh_evaluation_bit_for_bit():
    spec = _spec()
    times = TimeGrid(0.0, 0.5, 20).nodes[:-1]
    for _ in range(2):
        assert _same(spec.node_column(times), np.array([spec.beta(s) for s in times]))
        for a, (mark, _) in enumerate(spec.levy.atoms):
            assert _same(spec.node_column(times, a), np.array([spec.psi(s, mark) for s in times]))
    assert len(spec._columns) == 1 + len(spec.levy.atoms)


def test_a_z_dependent_factor_is_memoized_per_z():
    market = _market()
    t = np.array([[0.1], [0.4]])
    for z in (0.5, 1.5, 0.5):
        assert _same(market.pi_factors(t, z)[1], _fresh_pi(market, t, z)[1])
    assert len(market._pi_factors) == 2


@pytest.mark.parametrize("bad", ["at-T0", "past-T0", "tiny-variance"])
def test_a_failing_column_raises_on_every_call_and_is_never_cached(bad):
    spec = _spec(psi=None, levy=LevySpec())
    last = {"at-T0": spec.T0, "past-T0": 1.5, "tiny-variance": spec.T0 - 1e-14}[bad]
    t = np.array([[0.1], [0.2], [last]])
    if bad == "tiny-variance":
        assert spec.residual_variance(last) < EPS_VAR
    for _ in range(3):
        with pytest.raises(DegenerateVariance):
            gaussian_phi1(spec, 0.5, t, np.zeros((3, 2)))
    assert spec._columns == {}
    # the good rows alone are cached once
    gaussian_phi1(spec, 0.5, t[:2], np.zeros((2, 2)))
    assert len(spec._columns) == 1


def test_a_degenerate_volatility_raises_on_every_call_and_is_never_cached():
    market = _market(b0=lambda t, z: 0.3 if t < 0.3 else 0.0)
    t = np.array([[0.1], [0.4]])
    for _ in range(3):
        with pytest.raises(DegenerateVolatility):
            market.pi_factors(t, 0.5)
    assert market._pi_factors == {}


def test_cached_arrays_are_read_only():
    spec, market = _spec(), _market()
    t = np.array([[0.1], [0.2]])
    times = (0.0, 0.25)
    gauss = replace(spec, psi=None, levy=LevySpec())
    arrays = [*donsker._gaussian_factors(gauss, t), *market.pi_factors(t, 0.5), spec.node_column(times),
              spec.node_column(times, 1)]
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0


def test_a_replaced_spec_or_market_starts_with_an_empty_memo():
    spec, market = _spec(psi=None, levy=LevySpec()), _market()
    t = np.array([[0.1], [0.3]])
    times = (0.0, 0.3)
    donsker._gaussian_factors(spec, t)
    spec.node_column(times)
    market.pi_factors(t, 0.5)

    spec2 = replace(spec, beta=lambda s: 2.0 + s)
    market2 = replace(market, b0=lambda t, z: 0.5 + t)
    assert spec2._columns == {} and spec2._sigma2 == {} and market2._pi_factors == {}
    assert _same(donsker._gaussian_factors(spec2, t)[1], np.array([[2.1], [2.3]]))
    assert _same(spec2.node_column(times), np.array([2.0, 2.3]))
    assert _same(market2.pi_factors(t, 0.5)[0], np.array([[0.6], [0.8]]))
    # the originals keep their own values
    assert _same(spec.node_column(times), np.array([spec.beta(s) for s in times]))
    assert _same(market.pi_factors(t, 0.5)[0], _fresh_pi(market, t, 0.5)[0])


def test_a_jump_spec_reads_its_node_columns_once_per_block_grid():
    calls = Counter()

    def psi(s, mark):
        calls["psi"] += 1
        return mark * (1.0 + s)

    spec = _spec(psi=psi)
    tgrid = TimeGrid(0.0, 0.5, 10)
    for seed in range(3):
        paths = range(4)
        insider_means(spec, tgrid, brownian_increment_matrix(tgrid, seed, paths),
                      jump_count_matrices(tgrid, spec.levy, seed, paths))
    assert calls["psi"] == tgrid.n_steps * len(spec.levy.atoms)


def test_reduced_adjoint_solves_on_one_grid_evaluate_beta_and_pi_hats_b0_once_per_node():
    beta_calls, b0_calls = Counter(), Counter()

    def beta(s):
        beta_calls[s] += 1
        return 1.0 + 0.5 * math.sin(s)

    def b0(t, z):
        b0_calls[t] += 1
        return 0.3 + 0.1 * math.cos(t)

    market = _market(b0=b0)
    spec = FirstOrderChaosSpec(beta=beta, T0=1.0)
    policy = pf.optimal_policy(market, spec)
    tgrid = TimeGrid(0.0, 0.5, 50)
    nodes = tgrid.nodes[:-1]
    first = None
    for p in range(200):
        reduced_adjoint_solve(market.a0, b0, policy, 1.0, sample_bundle(tgrid, LevySpec(), 0, p), 0.5, chaos=spec)
        if first is None:
            first = sum(beta_calls.values())
    # beta: insider_means' and gaussian_phi1's columns, and sigma^2's
    # quadrature, in the first solve only
    assert sum(beta_calls.values()) == first
    assert all(beta_calls[t] >= 2 for t in nodes)
    # b0: once per node for pi_hat's memo, plus the adjoint integrand's own
    # evaluation at each node in every solve
    assert b0_calls == Counter({t: 1 + 200 for t in nodes})
