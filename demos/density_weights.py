"""Conditional density weights of an anticipating variable.

Walks through the core object of the library: the conditional density
E[delta_Z(z) | F_t] of a first-chaos variable Z given the filtration at time
t, evaluated by Fourier quadrature and, in the Gaussian case, in closed form.
The density acts as the per-path weight that turns anticipating functionals
into ordinary adapted expectations.
"""
import math

import numpy as np

from spdecontrol import FirstOrderChaosSpec, delta_from_mean, phi1_from_mean
from spdecontrol.noise import TimeGrid, brownian_increment_matrix

# Gaussian benchmark: Z = B(1), observed along its own filtration
spec = FirstOrderChaosSpec(beta=lambda s: 1.0, T0=1.0)

print("closed form vs quadrature, z = 0.5, history mean 0.1")
print(f"{'t':>5} {'closed':>12} {'quadrature':>12} {'abs err':>10}")
for t in (0.0, 0.25, 0.5, 0.75):
    cf = delta_from_mean(spec, 0.5, t, 0.1, method="closed_form")
    qd = delta_from_mean(spec, 0.5, t, 0.1, method="quadrature")
    print(f"{t:5.2f} {cf:12.8f} {qd:12.8f} {abs(cf - qd):10.2e}")

# the weight is a martingale: continuing the path and re-evaluating at a
# later time averages back to today's value
t1, t2, z = 0.2, 0.6, 0.3
d1 = delta_from_mean(spec, z, t1, 0.1)
grid = TimeGrid(t1, t2, 16)
db = brownian_increment_matrix(grid, 17, range(20000))
d2 = delta_from_mean(spec, z, t2, 0.1 + db.sum(axis=1))
se = np.std(d2, ddof=1) / math.sqrt(len(d2))
print(f"\nmartingale check: weight({t1}) = {d1:.6f}, "
      f"MC mean of weight({t2}) = {np.mean(d2):.6f} +- {se:.6f}")

# the information drift phi1 = (z - m) / remaining variance is the extra
# drift an insider holding Z = z perceives
print("\ninformation drift at z = 1.0:")
for t in (0.0, 0.4, 0.8):
    print(f"  t = {t:.1f}: phi1 = {phi1_from_mean(spec, 1.0, t, 0.2):+.4f}")
