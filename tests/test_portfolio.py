import math

import numpy as np
import pytest

from spdecontrol import portfolio as pf
from spdecontrol.donsker import FirstOrderChaosSpec, HistorySnapshot, KFunctional
from spdecontrol.errors import DegenerateVolatility, ModelMismatch, WealthNonpositive
from spdecontrol.forward import SpatialGrid
from spdecontrol.noise import LevySpec, TimeGrid, brownian_increment_matrix


def test_optimal_pi_pure_information_term():
    # a0 = 0, b0 = 1, residual variance 0.5 at t = 0.5, z - mean = 1 -> 2.0
    market = pf.MarketSpec(
        a0=lambda t, z: 0.0,
        b0=lambda t, z: 1.0,
        alpha_init=lambda x: 1.0,
        D=SpatialGrid(0.0, 1.0, 8),
    )
    spec = FirstOrderChaosSpec(beta=lambda s: 1.0, T0=1.0)
    hist = HistorySnapshot(t=0.5, accumulated_b=0.0)
    val = pf.optimal_pi(market, pf.UtilitySpec(), spec, 1.0, hist)
    assert val == pytest.approx(2.0, abs=1e-10)


def test_optimal_pi_merton_term_only_at_mean():
    market = pf.MarketSpec(
        a0=lambda t, z: 0.1,
        b0=lambda t, z: 0.5,
        alpha_init=lambda x: 1.0,
        D=SpatialGrid(0.0, 1.0, 8),
    )
    spec = FirstOrderChaosSpec(beta=lambda s: 1.0, T0=1.0)
    hist = HistorySnapshot(t=0.3, accumulated_b=0.7)
    val = pf.optimal_pi(market, pf.UtilitySpec(), spec, 0.7, hist)
    assert val == pytest.approx(0.1 / 0.25, abs=1e-10)


def test_optimal_pi_independent_of_deterministic_weight_scale():
    market, _, spec = pf.benchmark_market(8)
    hist = HistorySnapshot(t=0.4, accumulated_b=0.2)
    u1 = pf.UtilitySpec(k_weight=lambda x, z: 1.0 + 0.0 * np.asarray(x))
    u10 = pf.UtilitySpec(k_weight=lambda x, z: 10.0 + 0.0 * np.asarray(x))
    v1 = pf.optimal_pi(market, u1, spec, 0.9, hist)
    v10 = pf.optimal_pi(market, u10, spec, 0.9, hist)
    assert v1 == pytest.approx(v10, abs=1e-12)


def test_optimal_pi_routes_agree_for_deterministic_weight():
    market, utility, spec = pf.benchmark_market(8)
    hist = HistorySnapshot(t=0.4, accumulated_b=0.2)
    km = KFunctional(value=lambda z: 3.0, deterministic=True)
    via_phi1 = pf.optimal_pi(market, utility, spec, 0.9, hist)
    via_phik = pf.optimal_pi(market, utility, spec, 0.9, hist, k_model=km)
    assert via_phi1 == pytest.approx(via_phik, abs=1e-12)


def test_degenerate_volatility_raises():
    market = pf.MarketSpec(
        a0=lambda t, z: 0.1,
        b0=lambda t, z: 0.0,
        alpha_init=lambda x: 1.0,
        D=SpatialGrid(0.0, 1.0, 8),
    )
    spec = FirstOrderChaosSpec(beta=lambda s: 1.0, T0=1.0)
    with pytest.raises(DegenerateVolatility):
        pf.optimal_pi(market, pf.UtilitySpec(), spec, 0.5, HistorySnapshot(t=0.2, accumulated_b=0.0))


def test_zero_weight_gives_zero_performance():
    market, _, spec = pf.benchmark_market(8)
    utility = pf.UtilitySpec(k_weight=lambda x, z: 0.0 * np.asarray(x))
    tg = TimeGrid(0.0, 0.25, 25)
    with pytest.raises(ValueError):
        # zero total mass is rejected outright rather than returning all-zero rows
        pf.run_portfolio_experiment(
            market, utility, spec, 0.5, {"zero": pf.constant_policy(0.0)}, tg, 50, 0
        )


def test_positivity_no_rejections_on_benchmark():
    market, utility, spec = pf.benchmark_market(16)
    tg = TimeGrid(0.0, 0.5, 100)
    pol = pf.optimal_policy(market, spec)
    res = pf.run_portfolio_experiment(market, utility, spec, 0.5, {"pi_hat": pol}, tg, 200, 0)
    assert res[0].n_rejected == 0
    assert res[0].rejection_rate == 0.0


def test_every_path_rejected_raises_wealth_nonpositive():
    # pi = 1000 multiplies wealth by 1 + 100 dt + 300 dB each step, which
    # turns some interior node negative on every path
    market, utility, spec = pf.benchmark_market(16)
    candidates = {"pi_hat": pf.optimal_policy(market, spec), "huge": pf.constant_policy(1000.0)}
    with pytest.raises(WealthNonpositive, match="huge"):
        pf.run_portfolio_experiment(market, utility, spec, 0.5, candidates, TimeGrid(0.0, 0.5, 20), 50, 0)


def test_one_accepted_path_raises_wealth_nonpositive():
    # pi = 17 leaves exactly one of 20 paths positive: one sample has no
    # standard error, so the candidate fails like an all-rejected one
    market, utility, spec = pf.benchmark_market(16)
    with pytest.raises(WealthNonpositive, match="1 of 20 paths accepted for control 'pi17'"):
        pf.run_portfolio_experiment(
            market, utility, spec, 0.5, {"pi17": pf.constant_policy(17.0)},
            TimeGrid(0.0, 0.5, 20), 20, 0,
        )


def test_zero_control_matches_deterministic_pde_oracle():
    # pi = 0: wealth solves the noise-free diffusion, so each path's utility
    # integral is the same deterministic number weighted by the density
    market, utility, spec = pf.benchmark_market(32)
    tg = TimeGrid(0.0, 0.5, 200)
    res = pf.run_portfolio_experiment(
        market, utility, spec, 0.5, {"zero": pf.constant_policy(0.0)}, tg, 400, 3
    )
    from spdecontrol.forward import CoefficientSet, ControlPolicy
    from spdecontrol.maxprinciple import run_ensemble

    coeffs, op = pf.wealth_dynamics(market)
    one = run_ensemble(
        coeffs, op, pf.constant_policy(0.0), 0.5, market.D, tg, chaos=spec, n_paths=1, seed=3
    )
    grid = market.D
    util_det = float(grid.dx * np.sum(np.log(one.y_terminal[0, 1:-1])))
    # E[weight at T] equals the unconditional density of the terminal variable
    z = 0.5
    expected = util_det * math.exp(-(z**2) / 2) / math.sqrt(2 * math.pi)
    est = res[0].estimate
    assert abs(est.mean - expected) <= 3 * est.stderr


def test_insider_advantage_over_merton():
    market, utility, spec = pf.benchmark_market(16)
    tg = TimeGrid(0.0, 0.5, 200)
    pol = pf.optimal_policy(market, spec)
    merton = pf.constant_policy(0.1 / 0.09)
    res = pf.run_portfolio_experiment(
        market, utility, spec, 0.5, {"pi_hat": pol, "merton": merton}, tg, 4000, 0
    )
    d = {r.name: r for r in res}
    diff = d["pi_hat"].samples - d["merton"].samples
    se = np.std(diff, ddof=1) / math.sqrt(len(diff))
    assert np.mean(diff) > 2 * se


def test_martingale_match_small_at_optimum_large_off():
    market, utility, spec = pf.benchmark_market(16)
    tg = TimeGrid(0.0, 0.5, 400)
    pol = pf.optimal_policy(market, spec)
    db = brownian_increment_matrix(tg, 31, range(200))
    at = pf.martingale_match_check(market, utility, spec, 0.5, pol, tg, db)
    off = pf.martingale_match_check(market, utility, spec, 0.5, pf.shifted_policy(pol, 1.0), tg, db)
    assert at.shape == off.shape == (200,)
    med_at = float(np.median(at))
    med_off = float(np.median(off))
    assert med_at < 3.0 * math.sqrt(tg.dt)
    assert med_off >= 10 * med_at


def test_martingale_match_degenerate_horizon():
    market, utility, spec = pf.benchmark_market(16)
    tg = TimeGrid(0.0, 1e-6, 1)
    db = brownian_increment_matrix(tg, 1, [0])
    pol = pf.optimal_policy(market, spec)
    assert pf.martingale_match_check(market, utility, spec, 0.5, pol, tg, db)[0] <= 1e-6


def test_martingale_match_keeps_the_market_volatility_floor():
    # |b0| = 1e-10 passes the adjoint's own floor but not the market's eps_vol
    market, utility, spec = pf.benchmark_market(8)
    market = pf.MarketSpec(a0=market.a0, b0=lambda t, z: 1e-10,
                           alpha_init=market.alpha_init, D=market.D)
    tg = TimeGrid(0.0, 0.2, 10)
    db = brownian_increment_matrix(tg, 1, range(3))
    with pytest.raises(DegenerateVolatility):
        pf.martingale_match_check(market, utility, spec, 0.5, pf.constant_policy(0.5), tg, db)


def test_martingale_match_rejects_jump_insider_variable():
    market, utility, _ = pf.benchmark_market(8)
    levy = LevySpec(atoms=((0.5, 2.0),))
    spec = FirstOrderChaosSpec(beta=lambda s: 1.0, psi=lambda s, mark: mark, levy=levy, T0=1.0)
    tg = TimeGrid(0.0, 0.2, 10)
    db = brownian_increment_matrix(tg, 1, [0])
    with pytest.raises(ModelMismatch):
        pf.martingale_match_check(market, utility, spec, 0.5, pf.constant_policy(0.5), tg, db)


def test_csv_table_format(tmp_path):
    market, utility, spec = pf.benchmark_market(8)
    tg = TimeGrid(0.0, 0.25, 25)
    res = pf.run_portfolio_experiment(
        market, utility, spec, 0.5, {"pi_hat": pf.optimal_policy(market, spec)}, tg, 50, 0
    )
    out = tmp_path / "table.csv"
    pf.portfolio_table_csv(res, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "control-name,j-mean,stderr,n_paths,rejection-rate"
    assert lines[1].startswith("pi_hat,")
