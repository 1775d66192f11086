"""Semi-implicit forward SPDE solver on an interval.

Solves dY = (A Y + a) dt + b dB + jump terms with Dirichlet boundary data by
an implicit treatment of the second-order operator and explicit treatment of
the stochastic terms, and measures the convergence orders on the heat-flow
oracle with sine initial data.
"""
import math

import numpy as np

from spdecontrol import (
    CoefficientSet,
    ControlPolicy,
    OperatorSpec,
    SpatialGrid,
    solve_forward,
    weak_residual,
)
from spdecontrol.cli import heat_space_error, heat_time_error
from spdecontrol.noise import LevySpec, TimeGrid, sample_bundle

print("heat-flow oracle: max-node errors under refinement")
ex = [heat_space_error(c, 4096, 0.1) for c in (8, 16, 32)]
et = [heat_time_error(16, s, 0.1) for s in (16, 32, 64)]
print(f"  space errors {['%.2e' % e for e in ex]} "
      f"orders {[round(math.log2(ex[i] / ex[i + 1]), 2) for i in range(2)]}")
print(f"  time errors  {['%.2e' % e for e in et]} "
      f"orders {[round(math.log2(et[i] / et[i + 1]), 2) for i in range(2)]}")

# one stochastic path with multiplicative noise and compensated jumps
grid = SpatialGrid(0.0, 1.0, 32)
tgrid = TimeGrid(0.0, 0.2, 200)
levy = LevySpec(atoms=((0.5, 2.0),))
coeffs = CoefficientSet(
    a=lambda t, x, y, u, z: 0.1 * y,
    b=lambda t, x, y, u, z: 0.2 * y,
    c=lambda t, x, y, u, z, mark: 0.05 * mark * y,
    xi=lambda x, z: np.sin(math.pi * x),
)
# op.levy is the model's measure: the bundle is drawn on it and c jumps on it
op = OperatorSpec(
    second_coeff=lambda t, x, u, z: 0.5,
    first_coeff=lambda t, x, u, z: 0.0,
    levy=levy,
)
control = ControlPolicy(rule=lambda k, t, x, z, hist: 0.0)
bundle = sample_bundle(tgrid, levy, seed=7, path_index=0)
field = solve_forward(coeffs, op, control, 0.0, bundle, grid)
print(f"\none noisy path: terminal midpoint value {field.values[-1, 16]:.4f}, "
      f"{int(bundle.jump_counts.sum())} jumps")

# weak-form defect against a boundary-vanishing test function
phi = np.sin(math.pi * grid.nodes())
phi[0] = phi[-1] = 0.0
defect = weak_residual(field, phi, coeffs, op, control, bundle, 0.0)
print(f"weak-form residual against sin(pi x): {defect:.2e}")
