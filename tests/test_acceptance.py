"""End-to-end acceptance checks at desk scale.

Each test prints one PASS line on success; tolerances and sample sizes are
stated inline.  The heavier Monte Carlo checks pin their seeds so reruns are
deterministic.
"""
import math
import time

import numpy as np
import pytest

from spdecontrol import cli, portfolio as pf, zakai as zk
from spdecontrol.cli import heat_space_error, heat_time_error, run_experiment
from spdecontrol.donsker import (
    FirstOrderChaosSpec,
    HistorySnapshot,
    conditional_delta,
    delta_from_mean,
    effective_mean,
)
from spdecontrol.errors import NumericalCheckFailure
from spdecontrol.forward import SpatialGrid
from spdecontrol.maxprinciple import (
    gateaux_derivative,
    reduced_adjoint_block,
    reduced_adjoint_solve,
    verify_x_independent_stationarity,
)
from spdecontrol.noise import (
    LevySpec,
    TimeGrid,
    brownian_increment_matrix,
    sample_bundle,
)


def _report(label: str):
    print(f"\n{label}: PASS")


def test_criterion_01_density_oracle_equivalence():
    t0 = time.perf_counter()
    spec = FirstOrderChaosSpec(beta=lambda s: 1.0, T0=1.0)
    ts = [0.0, 0.2, 0.4, 0.6, 0.8]
    zs = [-1.0, -0.5, 0.0, 0.5, 1.0]
    worst = 0.0
    for t in ts:
        hist = HistorySnapshot(t=t, accumulated_b=0.1)
        for z in zs:
            cf = conditional_delta(spec, z, hist, method="closed_form")
            qd = conditional_delta(spec, z, hist, method="quadrature")
            worst = max(worst, abs(cf - qd))
    assert worst <= 1e-8
    # unit mass of the density in z at each time
    for t in ts:
        hist = HistorySnapshot(t=t, accumulated_b=0.1)
        m = effective_mean(spec, hist)
        sigma = math.sqrt(1.0 - t)
        zg = np.linspace(m - 10 * sigma, m + 10 * sigma, 4001)
        mass = float(np.trapezoid(delta_from_mean(spec, 0.0, t, m - zg), zg))
        assert abs(mass - 1.0) <= 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed <= 10.0
    _report(f"criterion 1 (density oracle equivalence, max err {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_02_density_martingale():
    spec = FirstOrderChaosSpec(beta=lambda s: 1.0, T0=1.0)
    t1, t2 = 0.2, 0.6
    hist = HistorySnapshot(t=t1, accumulated_b=0.1)
    grid = TimeGrid(t1, t2, 16)
    worst_t = 0.0
    for i, z in enumerate((-0.5, 0.3, 1.0)):
        d1 = conditional_delta(spec, z, hist)
        db = brownian_increment_matrix(grid, 100 + i, range(10**4))
        m2 = 0.1 + db.sum(axis=1)
        d2 = delta_from_mean(spec, z, t2, m2)
        se = float(np.std(d2, ddof=1) / math.sqrt(len(d2)))
        tstat = (float(np.mean(d2)) - d1) / se
        worst_t = max(worst_t, abs(tstat))
        assert abs(tstat) <= 3.0
    _report(f"criterion 2 (density martingale, max |t| {worst_t:.2f})")


def test_criterion_03_forward_convergence_orders():
    t0 = time.perf_counter()
    ex = [heat_space_error(c, 4096, 0.1) for c in (8, 16, 32)]
    et = [heat_time_error(16, s, 0.1) for s in (16, 32, 64)]
    ox = [math.log2(ex[i] / ex[i + 1]) for i in range(2)]
    ot = [math.log2(et[i] / et[i + 1]) for i in range(2)]
    for o in ox:
        assert 1.8 <= o <= 2.2
    for o in ot:
        assert 0.8 <= o <= 1.2
    elapsed = time.perf_counter() - t0
    assert elapsed <= 30.0
    _report(f"criterion 3 (orders dx {ox}, dt {ot}, {elapsed:.1f}s)")


def test_criterion_04_wealth_positivity():
    market, utility, spec = pf.benchmark_market(16)
    tgrid = TimeGrid(0.0, 0.5, 500)  # dt = 1e-3
    pol = pf.optimal_policy(market, spec)
    res = pf.run_portfolio_experiment(
        market, utility, spec, 0.5, {"pi_hat": pol}, tgrid, 1000, 0
    )
    assert res[0].n_rejected == 0
    _report("criterion 4 (wealth positivity, 0 rejections out of 1000)")


def test_criterion_05_optimality_of_closed_form_control():
    t0 = time.perf_counter()
    market, utility, spec = pf.benchmark_market(16)
    tgrid = TimeGrid(0.0, 0.5, 500)
    pol = pf.optimal_policy(market, spec)
    candidates = {
        "pi_hat": pol,
        "plus": pf.shifted_policy(pol, 0.25),
        "minus": pf.shifted_policy(pol, -0.25),
    }
    res = pf.run_portfolio_experiment(
        market, utility, spec, 0.5, candidates, tgrid, 10**4, 0
    )
    d = {r.name: r for r in res}
    tstats = {}
    for other in ("plus", "minus"):
        diff = d["pi_hat"].samples - d[other].samples
        se = float(np.std(diff, ddof=1) / math.sqrt(len(diff)))
        tstats[other] = float(np.mean(diff)) / se
        assert tstats[other] >= 2.0

    # first-order condition: Gateaux derivative at the optimum is noise
    coeffs, op = pf.wealth_dynamics(market)
    perf = pf.log_utility_performance(market, utility)
    tg2 = TimeGrid(0.0, 0.5, 200)
    rng = np.random.default_rng(5)
    gt = []
    for j in range(5):
        vals = rng.uniform(-1.0, 1.0, size=4)

        def bump(k, t, x, z, hist, v=vals):
            return float(v[min(int(t / 0.125), 3)])

        est = gateaux_derivative(
            coeffs, op, pol, bump, perf, spec, 0.5, market.D, tg2,
            n_paths=2000, seed=40 + j,
        )
        gt.append(est.tstat())
        assert abs(est.tstat()) <= 3.0
    elapsed = time.perf_counter() - t0
    assert elapsed <= 300.0
    _report(
        "criterion 5 (optimality: paired t "
        f"{tstats['plus']:.2f}/{tstats['minus']:.2f}, Gateaux |t| max "
        f"{max(abs(g) for g in gt):.2f}, {elapsed:.1f}s)"
    )


def test_criterion_06_x_independent_stationarity():
    market, utility, spec = pf.benchmark_market(16)
    coeffs, op = pf.wealth_dynamics(market)
    perf = pf.log_utility_performance(market, utility)
    pol = pf.optimal_policy(market, spec)
    tgrid = TimeGrid(0.0, 0.5, 100)
    at = verify_x_independent_stationarity(
        coeffs, op, pol, perf, spec, 0.5, market.D, tgrid,
        n_windows=3, n_paths=2000, seed=0,
    )
    assert at["passed"]
    off = verify_x_independent_stationarity(
        coeffs, op, pf.shifted_policy(pol, 1.0), perf, spec, 0.5, market.D, tgrid,
        n_windows=3, n_paths=2000, seed=0,
    )
    signs = [math.copysign(1.0, w["tstat"]) for w in off["windows"]]
    assert all(abs(w["tstat"]) > 3.0 for w in off["windows"])
    assert len(set(signs)) == 1
    _report(
        f"criterion 6 (stationarity: at optimum max |t| {at['max_abs_tstat']:.2f}, "
        f"shifted min |t| {min(abs(w['tstat']) for w in off['windows']):.1f})"
    )


def test_criterion_07_reduced_adjoint_martingale():
    market, _, spec = pf.benchmark_market(8)
    pol = pf.optimal_policy(market, spec)
    tgrid = TimeGrid(0.0, 0.5, 50)
    n = 10**4
    db = brownian_increment_matrix(tgrid, 11, range(n))
    block = reduced_adjoint_block(
        market.a0, market.b0, pol, 1.0, tgrid, db, 0.5, chaos=spec
    )
    ratios = block.values[:, -1] / block.p0
    # a single-path solve is row p of the block, bit for bit
    for p in range(64):
        b = sample_bundle(tgrid, LevySpec(), 11, p)
        path = reduced_adjoint_solve(
            market.a0, market.b0, pol, 1.0, b, 0.5, chaos=spec
        )
        assert path.p0 == block.p0[p]
        assert np.array_equal(path.values, block.values[p])
    se = float(np.std(ratios, ddof=1) / math.sqrt(n))
    assert abs(float(np.mean(ratios)) - 1.0) <= 3 * se
    _report(
        f"criterion 7 (adjoint martingale, mean {np.mean(ratios):.4f} +- {se:.4f})"
    )


def test_criterion_08_filter_triple_agreement(tmp_path):
    t0 = time.perf_counter()
    cfg = tmp_path / "zakai.yaml"
    cfg.write_text("kind: zakai-benchmark\nseed: 0\nparams: {}\n")
    manifest = run_experiment(cfg, tmp_path / "out")
    v = manifest["verdicts"]
    assert v["grid_vs_kalman"]["passed"]
    assert v["grid_vs_kalman"]["abs_err"] <= 5e-2
    assert v["refinement_factor"]["passed"]
    assert all(1.6 <= f <= 2.6 for f in v["refinement_factor"]["factors"])
    # particle oracle within 3 stderr of the Kalman mean: stderr of the
    # weighted mean is bounded by posterior sd / sqrt(ESS); use the crude
    # bound sd(prior-spread) / sqrt(n/10)
    assert v["particle_vs_kalman"]["abs_err"] <= 3 * 0.25 / math.sqrt(10**4 / 10)
    elapsed = time.perf_counter() - t0
    assert elapsed <= 120.0
    _report(
        f"criterion 8 (filter triple: grid err {v['grid_vs_kalman']['abs_err']:.1e}, "
        f"factors {v['refinement_factor']['factors']}, {elapsed:.1f}s)"
    )


def test_criterion_09_girsanov_consistency():
    model = zk.SignalModel(
        alpha=lambda x, r, u: -0.5 * x,
        beta=lambda x, r, u: 0.4,
        h_obs=lambda x: x,
        F_init=lambda x, z: np.exp(-(x**2) / 0.08) / math.sqrt(2 * math.pi * 0.04),
    )
    tg = TimeGrid(0.0, 1.0, 50)
    sg = SpatialGrid(-2.0, 2.0, 100)
    n = 10**4
    dbR = brownian_increment_matrix(tg, 13, range(n), channel=2)
    x0s = zk.sample_initial_states(model, sg, n, 13, channel=6, z=0.0)
    K = np.empty(n)
    fX = np.empty(n)
    for p in range(n):
        bv = sample_bundle(tg, LevySpec(), 13, p, channel=0)
        bw = sample_bundle(tg, LevySpec(), 13, p, channel=4)
        X, _ = zk.simulate_signal_observation(model, None, 0.0, bv, bw, x0s[p])
        obs = zk.ObservationPath(grid=tg, increments=dbR[p])
        K[p] = zk.girsanov_weight(model, X, obs).values[-1]
        fX[p] = X[-1]
    se_K = float(np.std(K, ddof=1) / math.sqrt(n))
    assert abs(float(np.mean(K)) - 1.0) <= 3 * se_K
    # change-of-measure identity E[f(X_T)] = E~[K_T f(X_T)], paired samples
    diff = K * fX - fX
    se_d = float(np.std(diff, ddof=1) / math.sqrt(n))
    assert abs(float(np.mean(diff))) <= 3 * se_d
    _report(
        f"criterion 9 (Girsanov: E[K] t {abs(np.mean(K) - 1) / se_K:.2f}, "
        f"reweighting t {abs(np.mean(diff)) / se_d:.2f})"
    )


def test_criterion_10_coercivity_identity():
    consts = []
    for n_cells in (16, 32, 64):
        sg = SpatialGrid(0.0, 1.0, n_cells)
        xs = sg.nodes()
        y = np.sin(math.pi * xs)
        y[0] = y[-1] = 0.0
        lhs, rhs = zk.coercivity_check(y, 1.0, lambda x: 1.0 + 0.5 * x, sg)
        ratio = lhs / rhs
        assert 1.0 - 5.0 * sg.dx <= ratio <= 1.0 + 5.0 * sg.dx
        consts.append(abs(ratio - 1.0) / sg.dx)
    # fitted constants stay uniformly tiny (identity exact by summation by parts)
    assert max(consts) <= 1e-6
    l0, r0 = zk.coercivity_check(y, 0.0, lambda x: 1.0 + 0.5 * x, SpatialGrid(0.0, 1.0, 64))
    assert l0 == 0.0 and r0 == 0.0
    _report(f"criterion 10 (coercivity, fitted C max {max(consts):.1e}, 0=0 at pi=0)")


def test_criterion_11_determinism_across_reruns(tmp_path):
    configs = {
        "donsker-table": "params: {}\n",
        "forward-convergence": "params:\n  space_steps: 512\n",
        "portfolio": "params:\n  n_paths: 400\n  n_steps: 50\n",
        "stationarity": "params:\n  n_paths: 200\n  n_steps: 25\n",
        "zakai-benchmark": (
            "params:\n  n_cells: 100\n  n_steps: 50\n  refine_levels: 1\n  n_particles: 500\n"
        ),
        "coercivity": "params: {}\n",
    }
    for kind, params in configs.items():
        cfg = tmp_path / f"{kind}.yaml"
        cfg.write_text(f"kind: {kind}\nseed: 3\n{params}")
        outs = []
        for run in ("a", "b"):
            out = tmp_path / f"{kind}-{run}"
            try:
                run_experiment(cfg, out, seed_override=3)
            except NumericalCheckFailure:
                pass  # determinism is what is under test here
            outs.append(out)
        names = [f.name for f in outs[0].iterdir()]
        assert names
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), (
                f"{kind}/{name} differs between reruns"
            )
    _report("criterion 11 (byte-identical reruns for all six experiment kinds)")
