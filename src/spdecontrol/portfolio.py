"""Insider wealth model on an interval: reaction-diffusion wealth dynamics,
logarithmic utility of terminal wealth, the closed-form optimal insider
control, and the martingale-matching identity used to validate it.

Wealth follows dY = [half Y_xx + pi a0 Y] dt + pi b0 Y dB with Dirichlet
boundary data and positive initial profile; the optimal x-independent control
is pi_hat = Phi1/b0 + a0/b0^2 when the utility weight is deterministic.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import donsker
from .donsker import FirstOrderChaosSpec
from .errors import WealthNonpositive
from .forward import CoefficientSet, ControlPolicy, OperatorSpec, SpatialGrid, _write_csv
from .maxprinciple import PerformanceEstimate, PerformanceSpec, _adjoint_integrand, _volatility, run_ensemble
from .noise import TimeGrid

__all__ = [
    "MarketSpec",
    "UtilitySpec",
    "PortfolioResult",
    "wealth_dynamics",
    "log_utility_performance",
    "optimal_pi",
    "optimal_policy",
    "constant_policy",
    "shifted_policy",
    "run_portfolio_experiment",
    "portfolio_table_csv",
    "martingale_match_check",
    "benchmark_market",
]


@dataclass(frozen=True)
class MarketSpec:
    """Drift a0(t,z), volatility b0(t,z) with |b0| >= maxprinciple._EPS_VOL,
    positive initial wealth profile alpha_init(x), and the spatial domain D."""

    a0: object
    b0: object
    alpha_init: object
    D: SpatialGrid
    # (b0, a0/b0^2) columns by time array, 0-d for a scalar t, and z; outside the market's equality and hash
    _pi_factors: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def pi_factors(self, t, z):
        """(b0, a0/b0^2) at the times t, each time alone (donsker._per_time),
        b0 checked against the volatility floor, memoized per market, time
        array and z; a scalar t is the 0-d case, memoized as a column is."""
        def factors():
            vol = donsker._per_time(lambda s: _volatility(self.b0, s, z), t)
            return vol, donsker._per_time(lambda s, v: self.a0(s, z) / v**2, t, vol)

        key = donsker._array_key(t), donsker._array_key(z)
        return donsker._memo(self._pi_factors, key, factors)


@dataclass(frozen=True)
class UtilitySpec:
    """Nonnegative terminal utility weight k(x,z); utility k(x,z) ln(y)."""

    k_weight: object = None  # None means k identically 1

    def weight(self, x, z):
        return np.ones_like(np.asarray(x, dtype=float)) if self.k_weight is None \
            else np.asarray(self.k_weight(x, z), dtype=float)

    def k_total(self, grid: SpatialGrid, z) -> float:
        """Integral of the weight over D, interior trapezoid rule."""
        w = np.broadcast_to(self.weight(grid.nodes(), z), (grid.n_nodes,))
        if np.any(w < 0):
            raise ValueError("utility weight must be nonnegative")
        total = float(np.trapezoid(w, dx=grid.dx))
        if not total > 0:
            raise ValueError("utility weight must have positive total mass")
        return total


@dataclass(frozen=True)
class PortfolioResult:
    """One candidate's log-utility performance on the paths that every
    candidate of its run accepts: samples holds one sample per kept path,
    in path order, so the samples of two results of one run are paired.
    The estimate and the rejection count are read off the samples."""

    name: str
    n_paths: int
    samples: np.ndarray

    @property
    def estimate(self) -> PerformanceEstimate:
        return PerformanceEstimate.from_samples(self.samples)

    @property
    def n_rejected(self) -> int:
        return self.n_paths - len(self.samples)

    @property
    def rejection_rate(self) -> float:
        return self.n_rejected / self.n_paths


def wealth_dynamics(market: MarketSpec):
    """Coefficient set and operator of the wealth equation.

    The diffusion operator's coefficients are constants, so the forward
    solver reads it as independent of the control and of time: it assembles
    one operator per sweep and shares it across the ensemble.
    """
    coeffs = CoefficientSet(
        a=lambda t, x, y, u, z: u * market.a0(t, z) * y,
        b=lambda t, x, y, u, z: u * market.b0(t, z) * y,
        xi=lambda x, z: market.alpha_init(x),
        theta=None,
    )
    op = OperatorSpec(
        second_coeff=lambda t, x, u, z: 0.5,
        first_coeff=lambda t, x, u, z: 0.0,
    )
    return coeffs, op


def log_utility_performance(market: MarketSpec, utility: UtilitySpec) -> PerformanceSpec:
    """Terminal log-utility integrated over the open interval.

    Boundary nodes carry zero weight: wealth vanishes there under homogeneous
    Dirichlet data while ln(y) stays integrable in the continuum limit.
    """
    lo, hi = market.D.x_left, market.D.x_right

    def k(x, y, z):
        x = np.asarray(x, dtype=float)
        interior = (x > lo) & (x < hi)
        safe = np.where(y > 0, y, 1.0)
        return np.where(interior, utility.weight(x, z) * np.log(safe), 0.0)

    return PerformanceSpec(h=lambda t, x, y, u, z: 0.0, k=k)


def optimal_pi(market: MarketSpec, spec: FirstOrderChaosSpec, z, t, m) -> float | np.ndarray:
    """Closed-form optimal insider proportion pi_hat = phi1/b0 + a0/b0^2 at
    time t from the compensated mean m(t), a scalar or one per path; t may
    be a column of times, one per row of m, and a scalar t is its 0-d case.
    b0 and a0/b0^2 are taken at each time alone (MarketSpec.pi_factors).  A
    Python float for a scalar t and m (donsker._value), an ndarray otherwise.

    The utility weight k(x, z) is deterministic given z, so it cancels from
    the drift ratio entirely and the proportion reads only the information
    drift phi1.
    """
    vol, drift = market.pi_factors(t, z)
    return donsker._value(donsker.phi1_from_mean(spec, z, t, m) / vol + drift)


def optimal_policy(market: MarketSpec, spec: FirstOrderChaosSpec) -> ControlPolicy:
    """x-independent policy evaluating the optimal proportion from the running
    compensated mean; vectorizes over ensemble paths and a chunk's steps."""
    return ControlPolicy(rule=lambda k, t, x, z, hist: optimal_pi(market, spec, z, t, hist.m),
                         mode="x-independent")


def constant_policy(value: float) -> ControlPolicy:
    return ControlPolicy(rule=lambda k, t, x, z, hist: value, mode="x-independent")


def shifted_policy(base: ControlPolicy, shift: float) -> ControlPolicy:
    """base + shift, in base's U.  The base value is read through
    base.values, so a base value of the wrong shape or outside U raises
    where the base rule is called, before the shift moves it."""
    return ControlPolicy(
        rule=lambda k, t, x, z, hist: base.values(k, t, x, z, hist) + shift,
        mode=base.mode,
        bounds=base.bounds,
    )


def run_portfolio_experiment(
    market: MarketSpec,
    utility: UtilitySpec,
    spec: FirstOrderChaosSpec,
    z,
    candidates: dict,
    tgrid: TimeGrid,
    n_paths: int,
    seed: int,
) -> list:
    """Monte Carlo log-utility performance for each named candidate control.

    Every candidate is swept on the identical noise, drawn once per block by
    one run_ensemble call over all candidates, so differences between
    estimates are low-variance.  A path is kept only if every candidate's
    wealth stays positive on the interior nodes; a path that any candidate
    drives to a nonpositive value leaves all of them, so every result holds
    its samples on the same kept paths and two results' samples pair path by
    path.  Fewer than two kept paths raise WealthNonpositive, with each
    candidate's own rejection count.
    """
    coeffs, op = wealth_dynamics(market)
    grid = market.D
    xs = grid.nodes()
    if np.any(np.asarray(market.alpha_init(xs[1:-1]), dtype=float) <= 0):
        raise ValueError("initial wealth profile must be positive on interior nodes")
    utility.k_total(grid, z)  # validates sign and mass
    perf = log_utility_performance(market, utility)

    runs = run_ensemble(
        coeffs, op, tuple(candidates.values()), z, grid, tgrid,
        chaos=spec, n_paths=n_paths, seed=seed,
    )
    positive = {name: res.min_interior > 0.0 for name, res in zip(candidates, runs)}
    keep = np.logical_and.reduce([np.ones(n_paths, dtype=bool), *positive.values()])
    n_kept = int(np.count_nonzero(keep))
    if n_kept < 2:
        own = ", ".join(f"{name!r} {n_paths - np.count_nonzero(p)}" for name, p in positive.items())
        raise WealthNonpositive(f"{n_kept} of {n_paths} paths accepted by every candidate; a standard "
                                f"error needs two (rejected per candidate: {own})")
    util = [grid.dx * np.sum(perf.k(xs, res.y_terminal[keep], z)[:, 1:-1], axis=1) for res in runs]
    return [PortfolioResult(name, n_paths, res.w_terminal[keep] * u) for name, res, u in zip(candidates, runs, util)]


def portfolio_table_csv(results, path):
    _write_csv(path, ["control-name", "j-mean", "stderr", "n_paths", "rejection-rate"],
               [[r.name, r.estimate.mean, r.estimate.stderr, r.n_paths, r.rejection_rate] for r in results])


def martingale_match_check(
    market: MarketSpec,
    utility: UtilitySpec,
    spec: FirstOrderChaosSpec,
    z,
    control: ControlPolicy,
    tgrid: TimeGrid,
    db,
) -> np.ndarray:
    """Relative defect of the terminal martingale identity on each path of
    the block with Brownian increments db (n_paths, n_steps).

    Left side: total utility weight times the conditional density at the
    horizon.  Right side: the same quantity at time zero propagated by the
    stochastic exponential of (b0 pi - a0/b0) dB, whose exponent comes from
    the reduced adjoint's step loop, which raises ModelMismatch for a jump
    insider variable and ValueError for an x-dependent control.  The two
    sides are computed from independent discretizations; at the optimal
    control the defect is O(sqrt(dt)).
    """
    K_total = utility.k_total(market.D, z)
    expo, m = _adjoint_integrand(market.a0, market.b0, control, tgrid, db, z, spec)

    lhs = K_total * donsker.delta_from_mean(spec, z, tgrid.t_end, m)
    rhs = K_total * donsker.delta_from_mean(spec, z, tgrid.t_start, 0.0) * np.exp(expo[:, -1])
    return np.abs(lhs - rhs) / (np.abs(lhs) + 1e-300)


def benchmark_market(n_cells: int = 32):
    """Shipped benchmark instance: unit interval, smooth positive initial
    profile, constant market coefficients, Gaussian insider variable B(T0)."""
    market = MarketSpec(
        a0=lambda t, z: 0.1,
        b0=lambda t, z: 0.3,
        alpha_init=lambda x: 1.0 + np.sin(math.pi * np.asarray(x, dtype=float)),
        D=SpatialGrid(0.0, 1.0, n_cells),
    )
    utility = UtilitySpec(k_weight=None)
    spec = FirstOrderChaosSpec(beta=lambda s: 1.0, T0=1.0)
    return market, utility, spec
