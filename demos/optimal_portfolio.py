"""Insider portfolio choice on the spatial wealth benchmark.

Compares the closed-form insider proportion pi = phi1/b0 + a0/b0^2 against
constant and shifted competitors under common random numbers, using the
conditional density as the performance weight for integrated log utility.
"""
import math

import numpy as np

from spdecontrol import portfolio as pf
from spdecontrol.noise import TimeGrid

market, utility, spec = pf.benchmark_market(16)
z = 0.5
tgrid = TimeGrid(0.0, 0.5, 200)

pol = pf.optimal_policy(market, spec)
merton = pf.constant_policy(0.1 / 0.09)  # a0 / b0^2, the no-information rule
candidates = {
    "pi_hat": pol,
    "pi_hat+0.25": pf.shifted_policy(pol, 0.25),
    "pi_hat-0.25": pf.shifted_policy(pol, -0.25),
    "merton": merton,
    "zero": pf.constant_policy(0.0),
}

print(f"initial proportion at z = {z}: "
      f"{pf.optimal_pi(market, spec, z, 0.0, 0.0):.4f}")

results = pf.run_portfolio_experiment(
    market, utility, spec, z, candidates, tgrid, n_paths=4000, seed=0
)
print(f"\n{'control':>12} {'j mean':>10} {'stderr':>9} {'rejected':>9}")
for r in results:
    print(f"{r.name:>12} {r.estimate.mean:10.5f} {r.estimate.stderr:9.5f} {r.n_rejected:9d}")

# paired differences remove the common noise; a rejected path's sample is
# NaN, so only the paths that both candidates accept are paired
d = {r.name: r for r in results}
for other in ("pi_hat+0.25", "pi_hat-0.25", "merton"):
    diff = d["pi_hat"].samples - d[other].samples
    diff = diff[~np.isnan(diff)]
    se = np.std(diff, ddof=1) / math.sqrt(len(diff))
    print(f"pi_hat - {other:12s}: {np.mean(diff):+.5f} +- {se:.5f} "
          f"(t = {np.mean(diff) / se:+.2f})")
