"""Insider portfolio choice on the spatial wealth benchmark.

Compares the closed-form insider proportion pi = phi1/b0 + a0/b0^2 against
constant and shifted competitors under common random numbers, using the
conditional density as the performance weight for integrated log utility.
"""
from spdecontrol import portfolio as pf
from spdecontrol.maxprinciple import PerformanceEstimate
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

# paired differences remove the common noise; every result holds its
# samples on the paths that all candidates accept, so they pair path by path
d = {r.name: r for r in results}
for other in ("pi_hat+0.25", "pi_hat-0.25", "merton"):
    diff = PerformanceEstimate.from_samples(d["pi_hat"].samples - d[other].samples)
    print(f"pi_hat - {other:12s}: {diff.mean:+.5f} +- {diff.stderr:.5f} "
          f"(t = {diff.tstat():+.2f})")
