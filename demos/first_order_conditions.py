"""Simulation-based first-order optimality checks.

Verifies the closed-form insider control through three independent routes:
the Gateaux derivative of the performance in random directions, time-window
stationarity statistics for x-independent controls, and the scalar reduced
adjoint process, which is a martingale along the optimal control.
"""
import math

import numpy as np

from spdecontrol import portfolio as pf
from spdecontrol.forward import ControlPolicy
from spdecontrol.maxprinciple import (
    PerturbationDirection,
    gateaux_derivative,
    reduced_adjoint_block,
    verify_x_independent_stationarity,
)
from spdecontrol.noise import TimeGrid, brownian_increment_matrix

market, utility, spec = pf.benchmark_market(16)
coeffs, op = pf.wealth_dynamics(market)
perf = pf.log_utility_performance(market, utility)
pol = pf.optimal_policy(market, spec)
z = 0.5
tgrid = TimeGrid(0.0, 0.5, 100)

print("Gateaux derivative in a constant direction (common random numbers):")
direction = PerturbationDirection(
    beta0=ControlPolicy(rule=lambda k, t, x, z_, hist: 1.0), K_bound=1.0
)
for name, policy in (("at optimum", pol), ("shifted +0.5", pf.shifted_policy(pol, 0.5))):
    est = gateaux_derivative(
        coeffs, op, policy, direction, perf, spec, z, market.D, tgrid,
        n_paths=2000, seed=1,
    )
    print(f"  {name:12s}: {est.mean:+.5f} +- {est.stderr:.5f} (t = {est.tstat():+.2f})")

print("\ntime-window stationarity statistics at the optimum:")
report = verify_x_independent_stationarity(
    coeffs, op, pol, perf, spec, z, market.D, tgrid, n_windows=3, n_paths=2000, seed=0
)
for w in report["windows"]:
    print(f"  [{w['t_lo']:.2f}, {w['t_hi']:.2f}): "
          f"{w['statistic']:+.4f} +- {w['stderr']:.4f} (t = {w['tstat']:+.2f})")
print(f"  max |t| = {report['max_abs_tstat']:.2f}, passed = {report['passed']}")

print("\nreduced adjoint p(T)/p(0) over 4000 paths (martingale => mean 1):")
tg = TimeGrid(0.0, 0.5, 50)
db = brownian_increment_matrix(tg, 11, range(4000))
block = reduced_adjoint_block(market.a0, market.b0, pol, 1.0, tg, db, z, chaos=spec)
ratios = block.values[:, -1] / block.p0
se = np.std(ratios, ddof=1) / math.sqrt(len(ratios))
print(f"  mean = {np.mean(ratios):.4f} +- {se:.4f}")
