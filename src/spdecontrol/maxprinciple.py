"""Hamiltonian evaluation, Monte Carlo performance estimators, perturbed
policies, the sensitivity process, the reduced adjoint equation, and
simulation-based verification of the first-order optimality conditions.

The general backward adjoint equation is deliberately not solved here;
optimality is checked through directional derivatives of the performance
functional with common random numbers, which is the directly testable content
of the necessary conditions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import donsker
from .donsker import FirstOrderChaosSpec
from .errors import DegenerateVolatility, ModelMismatch, StepTooLarge
from .forward import (
    CoefficientSet,
    ControlPolicy,
    OperatorSpec,
    PathHistory,
    SpatialGrid,
    _block_control,
    _check_measure,
    _has_jumps,
    _step_operator,
    _sweep,
    assemble_operator,
    insider_means,
    solve_forward,
)
from .noise import (
    LevySpec,
    PathBundle,
    TimeGrid,
    brownian_increment_matrix,
    jump_count_matrices,
)

__all__ = [
    "PerformanceSpec",
    "AdjointTriple",
    "ReducedAdjointPath",
    "PerformanceEstimate",
    "EnsembleResult",
    "run_ensemble",
    "hamiltonian",
    "estimate_j",
    "gateaux_derivative",
    "perturbed_policy",
    "state_sensitivity",
    "sensitivity_residual",
    "reduced_adjoint_solve",
    "reduced_adjoint_block",
    "verify_x_independent_stationarity",
]

_EPS_VOL = 1e-8
# paths swept together by run_ensemble; results are bit-identical for every
# block size, so this only bounds memory
_BLOCK_PATHS = 4096
# memory of a block's per-path diagonals at the widest band (2n per path, as a
# jump may reach any node); larger blocks are split, leaving results unchanged
_JUMP_BAND_BYTES = 2**25


@dataclass(frozen=True)
class PerformanceSpec:
    """Profit rate density h(t,x,y,u,z) and terminal payoff density k(x,y,z)."""

    h: object
    k: object


@dataclass(frozen=True)
class AdjointTriple:
    """Adjoint variables (p, q, r(.)) entering the Hamiltonian."""

    p: float
    q: float
    r: object = None  # callable mark -> float

    def r_at(self, mark):
        return 0.0 if self.r is None else self.r(mark)


@dataclass(frozen=True)
class ReducedAdjointPath:
    """The scalar adjoint martingale at every node of the time grid: values
    (n_steps + 1,) and a float p0 for one path, (n_paths, n_steps + 1) and
    (n_paths,) for a block."""

    values: np.ndarray
    p0: object


@dataclass(frozen=True)
class PerformanceEstimate:
    mean: float
    stderr: float
    n_paths: int

    def __post_init__(self):
        if self.n_paths < 2:
            raise ValueError("need at least two paths for a standard error")

    @classmethod
    def from_samples(cls, samples) -> PerformanceEstimate:
        """Sample mean and its standard error (ddof 1) of Monte Carlo samples."""
        n = len(samples)
        if n < 2:
            raise ValueError("need at least two paths for a standard error")
        return cls(
            mean=float(np.mean(samples)),
            stderr=float(np.std(samples, ddof=1) / math.sqrt(n)),
            n_paths=n,
        )

    def tstat(self) -> float:
        if self.stderr > 0:
            return self.mean / self.stderr
        return 0.0 if self.mean == 0 else math.copysign(math.inf, self.mean)


@dataclass
class EnsembleResult:
    """Path-indexed summary functionals from a vectorized forward sweep."""

    n_paths: int
    y_terminal: np.ndarray  # (n_paths, n_nodes)
    w_terminal: np.ndarray | None  # conditional-density weight at t_end
    h_integral: np.ndarray | None  # running weighted profit integral
    min_interior: np.ndarray  # running min over interior nodes and steps


def _trapezoid_weights(grid: SpatialGrid) -> np.ndarray:
    w = np.full(grid.n_nodes, grid.dx)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def _volatility(b0, t, z) -> float:
    """b0(t, z), checked against the one volatility floor of a0/b0 and pi_hat."""
    v = b0(t, z)
    if abs(v) < _EPS_VOL:
        raise DegenerateVolatility(f"|b0({t}, {z})| = {abs(v):.3e} below {_EPS_VOL}")
    return v


def _require_brownian(chaos, routine: str):
    if _has_jumps(chaos):
        raise ModelMismatch(f"{routine} advances the insider mean by beta dB only; "
                            "it does not support a jump insider variable")


def _density_weights(chaos, z, tgrid: TimeGrid, means, perf):
    """The conditional density of chaos at z along each path of a block whose
    insider_means are means, one read-only row per time: at t_0..t_{n-1},
    where perf's profit rate is weighted, when perf is given, and last at
    the horizon tgrid.t_end.  None without chaos."""
    if chaos is None:
        return None
    times = [*tgrid.nodes[:-1], tgrid.t_end] if perf is not None else [tgrid.t_end]
    weights = np.array([donsker.delta_from_mean(chaos, z, t, m) for t, m in zip(times, means[-len(times):])])
    weights.flags.writeable = False
    return weights


def _ensemble_block(coeffs, op, control, z, grid, tgrid, means, weights, db, counts, perf):
    """Sweep one control over the block of paths with Brownian increments db
    (n_paths, n_steps) and event counts counts, one such matrix per atom of
    op.levy.  means and weights are the block's insider_means and
    _density_weights: computed once per block, read-only and shared by every
    control swept on it."""
    xs = grid.nodes()
    dt = tgrid.dt
    nb = len(db)
    wx = _trapezoid_weights(grid)
    h_int = np.zeros(nb) if perf is not None else None
    # elementwise over interior nodes, reduced over them once at the end
    run_min = np.full((nb, grid.n_nodes - 2), np.inf)

    for k, (t, Y, u) in enumerate(_sweep(coeffs, op, control, z, grid, tgrid, db, counts, means)):
        np.minimum(run_min, Y[:, 1:-1], out=run_min)
        if perf is not None and u is not None:
            h = np.asarray(perf.h(t, xs, Y, u, z), dtype=float)
            # a row sum, not h @ wx: a BLAS product rounds each row
            # differently for different block sizes.  An h without the
            # paths' axis is one row, summed once for every path.
            rows = np.broadcast_to(h, xs.shape if h.ndim < 2 else Y.shape)
            h_int += dt * weights[k] * np.sum(rows * wx, axis=-1)

    return EnsembleResult(
        n_paths=nb,
        y_terminal=Y,
        w_terminal=None if weights is None else weights[-1],
        h_integral=h_int,
        min_interior=run_min.min(axis=1),
    )


def _joined(parts) -> EnsembleResult:
    """One result from the results of consecutive blocks."""
    if len(parts) == 1:
        return parts[0]
    # every field but n_paths is path-indexed, or None in every block
    cat = lambda vals: None if vals[0] is None else np.concatenate(vals)
    per_path = [cat([getattr(p, f.name) for p in parts]) for f in fields(EnsembleResult)[1:]]
    return EnsembleResult(sum(p.n_paths for p in parts), *per_path)


def run_ensemble(
    coeffs: CoefficientSet,
    op: OperatorSpec,
    control: ControlPolicy | tuple,
    z,
    grid: SpatialGrid,
    tgrid: TimeGrid,
    *,
    chaos: FirstOrderChaosSpec | None = None,
    n_paths: int = 1024,
    seed: int = 0,
    perf: PerformanceSpec | None = None,
):
    """Vectorized Monte Carlo sweep of the forward scheme over many paths.

    Path p reproduces sample_bundle(..., path_index=p) bit-exactly; paths are
    swept in blocks of at most _BLOCK_PATHS, and results do not depend on the
    blocking.  control is one ControlPolicy, giving one EnsembleResult, or a
    tuple of them, giving a tuple of results in the same order: each block's
    noise is drawn once (read-only) and every control is swept on it, so the
    controls share common random numbers and each result equals that of a
    call with the control alone.  The insider mean m(t) and the density
    weights depend on the noise alone, so they too are computed once per
    block (insider_means, _density_weights), read-only, and shared by the
    controls: a rule that writes into PathHistory.m raises ValueError.
    The weights are taken at every node when perf is given and at the
    horizon t_end only otherwise.  op.levy is the model's Levy measure: the
    event counts are drawn on it and drive the state's jump term c, the
    nonlocal part and, when chaos has a jump part, the insider mean m, so a
    chaos that jumps on another measure raises ModelMismatch, as does perf
    without chaos (the profit rate is weighted by chaos's conditional
    density), and a chaos with T0 < t_end + dt raises ValueError
    (donsker._check_horizon).  An operator whose coefficient values carry
    the paths' axis is one banded operator per path; the boundary rows of
    I - dt A are identity rows, so each path is solved as if alone, bit for
    bit, whatever its band (AssembledOperator.solve_implicit).  With a jump
    part, blocks are cut to _JUMP_BAND_BYTES of diagonals at the widest band.
    """
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    _check_measure(op, chaos)
    if chaos is not None:
        donsker._check_horizon(chaos, tgrid)
    elif perf is not None:
        raise ModelMismatch("perf weights the profit rate by the conditional density of chaos; "
                            "run_ensemble got perf without chaos")
    controls = control if isinstance(control, tuple) else (control,)
    block_size = _BLOCK_PATHS
    if op.jump_shift is not None and op.levy.atoms:
        block_size = min(block_size, max(1, _JUMP_BAND_BYTES // (16 * grid.n_nodes**2)))
    parts = [[] for _ in controls]
    for lo in range(0, n_paths, block_size):
        path_indices = list(range(lo, min(lo + block_size, n_paths)))
        db = brownian_increment_matrix(tgrid, seed, path_indices)
        counts = jump_count_matrices(tgrid, op.levy, seed, path_indices)
        for noise in (db, *counts):
            noise.flags.writeable = False
        means = insider_means(chaos, tgrid, db, counts)
        weights = _density_weights(chaos, z, tgrid, means, perf)
        for part, c in zip(parts, controls):
            part.append(_ensemble_block(coeffs, op, c, z, grid, tgrid, means, weights, db, counts, perf))
    results = tuple(_joined(part) for part in parts)
    return results if isinstance(control, tuple) else results[0]


def hamiltonian(
    t,
    x_index: int,
    y,
    phi_field,
    u,
    z,
    adjoint: AdjointTriple,
    weight,
    *,
    coeffs: CoefficientSet,
    op: OperatorSpec,
    perf: PerformanceSpec,
    grid: SpatialGrid,
):
    """Pointwise Hamiltonian value at node x_index.

    u is a scalar or a per-node profile (n_nodes,); the operator is assembled
    from the whole profile, whose row x_index reads only u[x_index], and the
    pointwise terms take u[x_index].  weight is the conditional-density
    factor multiplying the profit rate.
    """
    x = grid.nodes()[x_index]
    u_nodes = np.broadcast_to(np.asarray(u, dtype=float), (grid.n_nodes,))
    u_x = u_nodes[x_index]
    A = assemble_operator(op, grid, t, u_nodes, z)
    a_phi = A.apply(np.asarray(phi_field, dtype=float))[x_index]
    val = weight * perf.h(t, x, y, u_x, z)
    val += (a_phi + coeffs.a(t, x, y, u_x, z)) * adjoint.p
    val += coeffs.b(t, x, y, u_x, z) * adjoint.q
    if coeffs.c is not None:
        for mark, lam in op.levy.atoms:
            val += coeffs.c(t, x, y, u_x, z, mark) * adjoint.r_at(mark) * lam
    return float(val)


def estimate_j(
    coeffs: CoefficientSet,
    op: OperatorSpec,
    control: ControlPolicy | tuple,
    perf: PerformanceSpec,
    chaos: FirstOrderChaosSpec,
    z,
    grid: SpatialGrid,
    tgrid: TimeGrid,
    n_paths: int,
    seed: int,
    *,
    levy: LevySpec | None = None,
    return_samples: bool = False,
):
    """Monte Carlo estimate of the z-parametrized performance functional.

    The profit rate is weighted by the conditional density along each path
    and the terminal payoff by its value at the horizon.  A tuple of controls
    gives a tuple of estimates in the same order, all from one run_ensemble
    call, so the controls share one noise draw per block.  The noise is
    drawn on op.levy; levy changes no result and raises ModelMismatch unless
    it is op.levy (kept for perfbench's general-jump workload, which passes it).
    """
    if levy is not None and levy != op.levy:
        raise ModelMismatch(f"levy={levy} is not the model's measure op.levy = {op.levy}")
    results = run_ensemble(
        coeffs, op, control if isinstance(control, tuple) else (control,), z, grid, tgrid,
        chaos=chaos, n_paths=n_paths, seed=seed, perf=perf,
    )
    wx = _trapezoid_weights(grid)
    out = []
    for res in results:
        kvals = np.broadcast_to(
            np.asarray(perf.k(grid.nodes(), res.y_terminal, z), dtype=float), res.y_terminal.shape
        )
        samples = res.h_integral + res.w_terminal * (kvals @ wx)
        est = PerformanceEstimate.from_samples(samples)
        out.append((est, samples) if return_samples else est)
    return tuple(out) if isinstance(control, tuple) else out[0]


def _clamp(u0, b0, bounds):
    """Distance-to-boundary clamp delta of a direction value b0, |b0| <= 1, at
    the control u0, so that u0 + a * delta * b0 stays in U for every |a| < 1."""
    if np.any(np.abs(b0) > 1.0 + 1e-12):
        raise StepTooLarge("direction exceeds its bound 1")
    lo, hi = bounds
    dist = np.minimum(u0 - lo, hi - u0)
    return np.minimum(dist / 2.0, 1.0)


def perturbed_policy(base: ControlPolicy, direction, a: float) -> ControlPolicy:
    """Admissible perturbation u + a * delta * beta0 of a base policy.

    direction is the base direction beta0, a rule (k, t, x, z, hist) ->
    value(s) of the base policy's shape with |beta0| <= 1 (else
    StepTooLarge).  delta is the pointwise distance-to-boundary clamp, so
    the result stays in U for every |a| < 1.
    """
    if abs(a) >= 1.0:
        raise StepTooLarge(f"perturbation size {a} outside (-1, 1)")

    def rule(k, t, x, z, hist):
        u0 = np.asarray(base.rule(k, t, x, z, hist), dtype=float)
        b0 = np.asarray(direction(k, t, x, z, hist), dtype=float)
        delta = _clamp(u0, b0, base.bounds)
        return u0 + a * delta * b0

    return ControlPolicy(rule=rule, mode=base.mode, bounds=base.bounds)


def gateaux_derivative(
    coeffs,
    op,
    control: ControlPolicy,
    direction,
    perf,
    chaos,
    z,
    grid,
    tgrid,
    *,
    a_step: float = 1e-3,
    n_paths: int = 4096,
    seed: int = 0,
):
    """Directional derivative of the performance by central differences with
    common random numbers: both sides are swept on the same noise draw, on
    op.levy.  direction is a rule as perturbed_policy takes it; a tuple of
    them gives a tuple of estimates in the same order, all 2 * len(direction)
    sides from one draw per block."""
    directions = direction if isinstance(direction, tuple) else (direction,)
    sides = tuple(perturbed_policy(control, d, a) for d in directions for a in (a_step, -a_step))
    runs = estimate_j(
        coeffs, op, sides, perf, chaos, z, grid, tgrid, n_paths, seed, return_samples=True,
    )
    out = tuple(
        PerformanceEstimate.from_samples((s_up - s_dn) / (2.0 * a_step))
        for (_, s_up), (_, s_dn) in zip(runs[::2], runs[1::2])
    )
    return out if isinstance(direction, tuple) else out[0]


def state_sensitivity(
    coeffs,
    op,
    control: ControlPolicy,
    direction,
    z,
    bundle: PathBundle,
    grid: SpatialGrid,
    *,
    a_step: float = 1e-3,
    chaos=None,
) -> np.ndarray:
    """Central-difference estimate of the derivative process of the state in
    the perturbation direction, on a single fixed noise path."""
    up = perturbed_policy(control, direction, a_step)
    dn = perturbed_policy(control, direction, -a_step)
    f_up = solve_forward(coeffs, op, up, z, bundle, grid, chaos=chaos)
    f_dn = solve_forward(coeffs, op, dn, z, bundle, grid, chaos=chaos)
    return (f_up.values - f_dn.values) / (2.0 * a_step)


def _partial(fn, args, index, eps=1e-6):
    args_hi = list(args)
    args_lo = list(args)
    args_hi[index] = args[index] + eps
    args_lo[index] = args[index] - eps
    return (np.asarray(fn(*args_hi), dtype=float) - np.asarray(fn(*args_lo), dtype=float)) / (2 * eps)


def sensitivity_residual(
    chi: np.ndarray,
    base_field,
    coeffs,
    op,
    control: ControlPolicy,
    direction,
    z,
    bundle: PathBundle,
    grid: SpatialGrid,
    *,
    chaos=None,
) -> float:
    """Max defect of chi against the discrete linearized state equation.

    The operator of each step is assembled at (t_k, u_k) by the forward
    solver's route.  Requires one whose coefficient values ignore the control
    (the linearization of the operator in u is not formed here;
    NotImplementedError when a value carries the control's axis), a Gaussian
    insider variable, a bundle on op.levy and no jump term c on a measure
    with atoms (its linearization is not formed either; ModelMismatch).
    """
    _require_brownian(chaos, "sensitivity_residual")
    _check_measure(op, chaos, bundle)
    if coeffs.c is not None and op.levy.atoms:
        raise ModelMismatch("sensitivity_residual linearizes a dt + b dB only; "
                            "it does not support a jump term c on a bundle with jumps")
    tgrid = bundle.grid
    xs = grid.nodes()
    dt = tgrid.dt
    db = bundle.brownian_increments[None]
    # the direction's rule sees the x the base control's rule sees, unchecked
    # against U, as in perturbed_policy
    beta0 = ControlPolicy(rule=direction, mode=control.mode)
    means = insider_means(chaos, tgrid, db)
    worst = 0.0
    for k, t in enumerate(tgrid.nodes[:-1]):
        y = base_field.values[k][None]
        u0 = _block_control(control, k, t, xs, z, means[k])
        # a (1, width) control: a value that reads it carries the paths' axis
        A = _step_operator(op, grid, xs, t, np.reshape(u0, (1, -1)), z)[0]
        if A.bands.ndim == 3:
            raise NotImplementedError("residual check needs a control-independent operator")
        b0 = _block_control(beta0, k, t, xs, z, means[k])
        beta_eff = _clamp(u0, b0, control.bounds) * b0

        a_y = _partial(lambda *g: coeffs.a(*g), (t, xs, y, u0, z), 2)
        a_u = _partial(lambda *g: coeffs.a(*g), (t, xs, y, u0, z), 3)
        b_y = _partial(lambda *g: coeffs.b(*g), (t, xs, y, u0, z), 2)
        b_u = _partial(lambda *g: coeffs.b(*g), (t, xs, y, u0, z), 3)

        pred = chi[k] + dt * (a_y * chi[k] + a_u * beta_eff) \
            + (b_y * chi[k] + b_u * beta_eff) * db[:, k, None]
        lhs = chi[k + 1] - dt * A.apply(chi[k + 1])
        defect = lhs - pred
        worst = max(worst, float(np.max(np.abs(defect[:, 1:-1]))))
    return worst


def _adjoint_integrand(a0, b0, pi, tgrid: TimeGrid, db, z, chaos):
    """The reduced adjoint's one step loop: theta = b0 pi - a0/b0 (n_paths,
    n_steps) on the block with Brownian increments db, and the insider mean
    at the horizon.  b0 and a0/b0 are evaluated over the nodes before the
    loop; pi is evaluated once per step for the whole block."""
    _require_brownian(chaos, "the reduced adjoint")
    db = np.asarray(db, dtype=float)
    if db.ndim != 2 or db.shape[1] != tgrid.n_steps:
        raise ModelMismatch(f"Brownian increments of shape {db.shape} for a {tgrid.n_steps}-step grid")
    times = tgrid.nodes[:-1]
    vol = [_volatility(b0, t, z) for t in times]
    shift = [a0(t, z) / v for t, v in zip(times, vol)]
    means = insider_means(chaos, tgrid, db)
    u = np.empty((tgrid.n_steps, len(db)))
    for k, t in enumerate(times):
        u[k] = pi.values(k, t, None, z, PathHistory(m=means[k]))
    return (np.array(vol)[:, None] * u - np.array(shift)[:, None]).T, means[-1]


def reduced_adjoint_block(a0, b0, pi, terminal: float, tgrid: TimeGrid, db, z, *,
                          chaos=None) -> ReducedAdjointPath:
    """Scalar adjoint martingale along each path of a block: the stochastic
    exponential of (b0 pi - a0/b0) dB on the Brownian increments db (n_paths,
    n_steps) of brownian_increment_matrix, scaled to the supplied terminal
    value.  pi is an x-independent ControlPolicy.  The insider variable, if
    given, must be Gaussian.
    """
    theta, _ = _adjoint_integrand(a0, b0, pi, tgrid, db, z, chaos)
    start = np.zeros((len(db), 1))
    raw = np.exp(np.hstack((start, np.cumsum(theta * db - 0.5 * theta**2 * tgrid.dt, axis=1))))
    p0 = terminal / raw[:, -1]
    return ReducedAdjointPath(values=p0[:, None] * raw, p0=p0)


def reduced_adjoint_solve(a0, b0, pi, terminal: float, bundle: PathBundle, z, *,
                          chaos=None) -> ReducedAdjointPath:
    """reduced_adjoint_block on one bundle's increments, a block of one."""
    block = reduced_adjoint_block(a0, b0, pi, terminal, bundle.grid, bundle.brownian_increments[None],
                                  z, chaos=chaos)
    return ReducedAdjointPath(values=block.values[0], p0=float(block.p0[0]))


def verify_x_independent_stationarity(
    coeffs,
    op,
    control: ControlPolicy,
    perf,
    chaos,
    z,
    grid,
    tgrid,
    *,
    n_windows: int = 4,
    n_paths: int = 4096,
    seed: int = 0,
    a_step: float = 1e-3,
    tol_tstat: float = 3.0,
) -> dict:
    """Check the x-independent first-order condition by time-localized
    directional derivatives.

    For an indicator-in-time direction the directional derivative equals the
    time integral of the space-integrated control gradient of the Hamiltonian
    over that window, so a per-unit-time statistic near zero on every window
    is the testable form of the stationarity condition.
    """
    if control.mode != "x-independent":
        raise ValueError("stationarity check applies to x-independent controls")
    edges = np.linspace(tgrid.t_start, tgrid.t_end, n_windows + 1)
    windows = [(float(edges[w]), float(edges[w + 1])) for w in range(n_windows)]

    def bump(lo, hi):
        return lambda k, t, x, z_, hist: 1.0 if lo <= t < hi else 0.0

    directions = tuple(bump(lo, hi) for lo, hi in windows)
    ests = gateaux_derivative(
        coeffs, op, control, directions, perf, chaos, z, grid, tgrid,
        a_step=a_step, n_paths=n_paths, seed=seed,
    )
    entries = [
        {
            "t_lo": t_lo,
            "t_hi": t_hi,
            "statistic": est.mean / (t_hi - t_lo),
            "stderr": est.stderr / (t_hi - t_lo),
            "tstat": est.tstat(),
        }
        for (t_lo, t_hi), est in zip(windows, ests)
    ]
    max_abs = max(abs(e["tstat"]) for e in entries)
    return {
        "windows": entries,
        "max_abs_tstat": max_abs,
        "passed": bool(max_abs <= tol_tstat),
        "tol_tstat": tol_tstat,
        "n_paths": n_paths,
        "seed": seed,
        "a_step": a_step,
    }
