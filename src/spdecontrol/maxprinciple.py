"""Hamiltonian evaluation, Monte Carlo performance estimators, perturbation
directions, the sensitivity process, the reduced adjoint equation, and
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
    _has_jumps,
    _block_control,
    _sweep,
    advance_mean,
    assemble_operator,
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
    "PerturbationDirection",
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

_EPS_VOL = 1e-12
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
    """The scalar adjoint martingale at every grid time: values (n_steps + 1,)
    and a float p0 for one path, (n_paths, n_steps + 1) and (n_paths,) for a block."""

    times: np.ndarray
    values: np.ndarray
    p0: object


@dataclass(frozen=True)
class PerturbationDirection:
    """Bounded base direction with the admissibility clamp built in."""

    beta0: ControlPolicy
    K_bound: float = 1.0


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
    m_terminal: np.ndarray  # compensated insider mean at t_end


def _trapezoid_weights(grid: SpatialGrid) -> np.ndarray:
    w = np.full(grid.n_nodes, grid.dx)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def _require_brownian(chaos, routine: str):
    if _has_jumps(chaos):
        raise ModelMismatch(f"{routine} advances the insider mean by beta dB only; "
                            "it does not support a jump insider variable")


def _weight_vec(chaos, z, t, m):
    if chaos is None:
        return None
    return donsker.delta_from_mean(chaos, z, t, np.asarray(m, dtype=float))


def _ensemble_block(coeffs, op, control, z, grid, tgrid, chaos, levy, db, counts, perf):
    """Sweep one control over the block of paths with Brownian increments db
    (n_paths, n_steps) and event counts counts, one such matrix per atom."""
    xs = grid.nodes()
    dt = tgrid.dt
    nb = len(db)
    wx = _trapezoid_weights(grid)
    h_int = np.zeros(nb) if perf is not None else None
    # elementwise over interior nodes, reduced over them once at the end
    run_min = np.full((nb, grid.n_nodes - 2), np.inf)

    for t, Y, u, m in _sweep(coeffs, op, control, z, grid, tgrid, db, counts, levy, chaos):
        np.minimum(run_min, Y[:, 1:-1], out=run_min)
        if perf is not None and u is not None:
            w = _weight_vec(chaos, z, t, m)
            hvals = np.broadcast_to(np.asarray(perf.h(t, xs, Y, u, z), dtype=float), Y.shape)
            # a row sum, not hvals @ wx: a BLAS product rounds each row
            # differently for different block sizes
            h_int += dt * w * np.sum(hvals * wx, axis=1)

    return EnsembleResult(
        n_paths=nb,
        y_terminal=Y,
        w_terminal=_weight_vec(chaos, z, tgrid.t_end, m),
        h_integral=h_int,
        min_interior=run_min.min(axis=1),
        m_terminal=m,
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
    levy: LevySpec = LevySpec(),
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
    call with the control alone.  levy drives the state's jumps; when chaos
    has a jump part it must be chaos.levy, since the insider mean m is
    advanced with the same jump counts (advance_mean raises ModelMismatch
    otherwise).  A control-dependent operator is one banded operator per
    path; the boundary rows of I - dt A are identity rows, so each path is
    solved as if alone, bit for bit, whatever its band
    (AssembledOperator.solve_implicit).
    """
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    controls = control if isinstance(control, tuple) else (control,)
    block_size = _BLOCK_PATHS
    if op.control_dependent and op.jump_shift is not None and op.levy.atoms:
        block_size = min(block_size, max(1, _JUMP_BAND_BYTES // (16 * grid.n_nodes**2)))
    parts = [[] for _ in controls]
    for lo in range(0, n_paths, block_size):
        path_indices = list(range(lo, min(lo + block_size, n_paths)))
        db = brownian_increment_matrix(tgrid, seed, path_indices)
        counts = jump_count_matrices(tgrid, levy, seed, path_indices)
        for noise in (db, *counts):
            noise.flags.writeable = False
        for part, c in zip(parts, controls):
            part.append(_ensemble_block(coeffs, op, c, z, grid, tgrid, chaos, levy, db, counts, perf))
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
    levy: LevySpec = LevySpec(),
    return_samples: bool = False,
):
    """Monte Carlo estimate of the z-parametrized performance functional.

    The profit rate is weighted by the conditional density along each path
    and the terminal payoff by its value at the horizon.  A tuple of controls
    gives a tuple of estimates in the same order, all from one run_ensemble
    call, so the controls share one noise draw per block.
    """
    if tgrid.t_end > chaos.T0 - tgrid.dt + 1e-12:
        raise ValueError("horizon must stay at least one step before T0")
    results = run_ensemble(
        coeffs, op, control if isinstance(control, tuple) else (control,), z, grid, tgrid,
        chaos=chaos, levy=levy, n_paths=n_paths, seed=seed, perf=perf,
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


def _clamp(u0, b0, bounds, K):
    """Distance-to-boundary clamp delta of a direction b0 bounded by K at the
    control u0, so that u0 + a * delta * b0 stays in U for every |a| < 1."""
    if np.any(np.abs(b0) > K + 1e-12):
        raise StepTooLarge("direction exceeds its stated bound")
    lo, hi = bounds
    dist = np.minimum(u0 - lo, hi - u0)
    return np.minimum(dist / (2.0 * K), 1.0)


def perturbed_policy(base: ControlPolicy, direction: PerturbationDirection, a: float) -> ControlPolicy:
    """Admissible perturbation u + a * delta * beta0 of a base policy.

    delta is the pointwise distance-to-boundary clamp, so the result stays in
    U for every |a| < 1.
    """
    if abs(a) >= 1.0:
        raise StepTooLarge(f"perturbation size {a} outside (-1, 1)")

    def rule(k, t, x, z, hist):
        u0 = np.asarray(base.rule(k, t, x, z, hist), dtype=float)
        b0 = np.asarray(direction.beta0.rule(k, t, x, z, hist), dtype=float)
        delta = _clamp(u0, b0, base.bounds, direction.K_bound)
        return u0 + a * delta * b0

    return ControlPolicy(rule=rule, mode=base.mode, bounds=base.bounds)


def gateaux_derivative(
    coeffs,
    op,
    control: ControlPolicy,
    direction: PerturbationDirection | tuple,
    perf,
    chaos,
    z,
    grid,
    tgrid,
    *,
    a_step: float = 1e-3,
    n_paths: int = 4096,
    seed: int = 0,
    levy: LevySpec = LevySpec(),
):
    """Directional derivative of the performance by central differences with
    common random numbers: both sides are swept on the same noise draw.  A
    tuple of directions gives a tuple of estimates in the same order, all
    2 * len(direction) sides from one draw per block."""
    directions = direction if isinstance(direction, tuple) else (direction,)
    sides = tuple(perturbed_policy(control, d, a) for d in directions for a in (a_step, -a_step))
    runs = estimate_j(
        coeffs, op, sides, perf, chaos, z, grid, tgrid, n_paths, seed,
        levy=levy, return_samples=True,
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
    direction: PerturbationDirection,
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
    direction: PerturbationDirection,
    z,
    bundle: PathBundle,
    grid: SpatialGrid,
    *,
    chaos=None,
) -> float:
    """Max defect of chi against the discrete linearized state equation.

    Requires a control-independent operator (the linearization of the
    operator in u is not formed here), a Gaussian insider variable and no
    jump term c on a bundle with jumps (its linearization is not formed
    either; ModelMismatch).
    """
    if op.control_dependent:
        raise NotImplementedError("residual check needs a control-independent operator")
    _require_brownian(chaos, "sensitivity_residual")
    if coeffs.c is not None and bundle.levy.atoms:
        raise ModelMismatch("sensitivity_residual linearizes a dt + b dB only; "
                            "it does not support a jump term c on a bundle with jumps")
    tgrid = bundle.grid
    xs = grid.nodes()
    dt = tgrid.dt
    db = bundle.brownian_increments[None]
    # the direction's rule sees the x the base control's rule sees, unchecked
    # against U, as in perturbed_policy
    beta0 = ControlPolicy(rule=direction.beta0.rule, mode=control.mode)
    m = np.zeros(1)
    worst = 0.0
    A = assemble_operator(op, grid, tgrid.t_start, 0.0, z)
    for k in range(tgrid.n_steps):
        t = tgrid.time(k)
        y = base_field.values[k][None]
        u0 = _block_control(control, k, t, xs, z, m)
        b0 = _block_control(beta0, k, t, xs, z, m)
        beta_eff = _clamp(u0, b0, control.bounds, direction.K_bound) * b0

        a_y = _partial(lambda *g: coeffs.a(*g), (t, xs, y, u0, z), 2)
        a_u = _partial(lambda *g: coeffs.a(*g), (t, xs, y, u0, z), 3)
        b_y = _partial(lambda *g: coeffs.b(*g), (t, xs, y, u0, z), 2)
        b_u = _partial(lambda *g: coeffs.b(*g), (t, xs, y, u0, z), 3)

        pred = chi[k] + dt * (a_y * chi[k] + a_u * beta_eff) \
            + (b_y * chi[k] + b_u * beta_eff) * db[:, k, None]
        lhs = chi[k + 1] - dt * A.apply(chi[k + 1])
        defect = lhs - pred
        worst = max(worst, float(np.max(np.abs(defect[:, 1:-1]))))
        m = advance_mean(chaos, m, t, dt, db[:, k])
    return worst


def _adjoint_integrand(a0, b0, pi, tgrid: TimeGrid, db, z, chaos):
    """The reduced adjoint's one step loop: theta = b0 pi - a0/b0 (n_paths,
    n_steps) on the block with Brownian increments db, and the insider mean
    at the horizon.  pi is evaluated once per step for the whole block."""
    _require_brownian(chaos, "the reduced adjoint")
    db = np.asarray(db, dtype=float)
    if db.ndim != 2 or db.shape[1] != tgrid.n_steps:
        raise ModelMismatch(f"Brownian increments of shape {db.shape} for a {tgrid.n_steps}-step grid")
    if callable(pi):
        pi = ControlPolicy(rule=lambda k, t, x, z_, hist, f=pi: f(t, z_))
    vol, shift = [], []
    u = np.empty((tgrid.n_steps, len(db)))
    m = np.zeros(len(db))
    for k in range(tgrid.n_steps):
        t = tgrid.time(k)
        vol.append(b0(t, z))
        if abs(vol[k]) < _EPS_VOL:
            raise DegenerateVolatility(f"|b0({t}, {z})| below {_EPS_VOL}")
        shift.append(a0(t, z) / vol[k])
        u[k] = pi.values(k, t, None, z, PathHistory(t=t, m=m))
        m = advance_mean(chaos, m, t, tgrid.dt, db[:, k])
    return (np.array(vol)[:, None] * u - np.array(shift)[:, None]).T, m


def reduced_adjoint_block(a0, b0, pi, terminal: float, tgrid: TimeGrid, db, z, *,
                          chaos=None, method: str = "exact") -> ReducedAdjointPath:
    """Scalar adjoint martingale along each path of a block: the stochastic
    exponential of (b0 pi - a0/b0) dB on the Brownian increments db (n_paths,
    n_steps) of brownian_increment_matrix, scaled to the supplied terminal
    value.  pi is an x-independent ControlPolicy or a plain callable
    (t, z) -> value.  The insider variable, if given, must be Gaussian.
    """
    if method not in ("exact", "euler"):
        raise ValueError(f"unknown method {method!r}")
    theta, _ = _adjoint_integrand(a0, b0, pi, tgrid, db, z, chaos)
    start = np.zeros((len(db), 1))
    if method == "exact":
        raw = np.exp(np.hstack((start, np.cumsum(theta * db - 0.5 * theta**2 * tgrid.dt, axis=1))))
    else:
        raw = np.hstack((start + 1.0, np.cumprod(1.0 + theta * db, axis=1)))
    p0 = terminal / raw[:, -1]
    return ReducedAdjointPath(times=tgrid.times(), values=p0[:, None] * raw, p0=p0)


def reduced_adjoint_solve(a0, b0, pi, terminal: float, bundle: PathBundle, z, *,
                          chaos=None, method: str = "exact") -> ReducedAdjointPath:
    """reduced_adjoint_block on one bundle's increments, a block of one."""
    block = reduced_adjoint_block(a0, b0, pi, terminal, bundle.grid, bundle.brownian_increments[None],
                                  z, chaos=chaos, method=method)
    return ReducedAdjointPath(times=block.times, values=block.values[0], p0=float(block.p0[0]))


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
    levy: LevySpec = LevySpec(),
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

    directions = tuple(
        PerturbationDirection(
            beta0=ControlPolicy(rule=bump(lo, hi), mode="x-independent", bounds=control.bounds),
            K_bound=1.0,
        )
        for lo, hi in windows
    )
    ests = gateaux_derivative(
        coeffs, op, control, directions, perf, chaos, z, grid, tgrid,
        a_step=a_step, n_paths=n_paths, seed=seed, levy=levy,
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
