"""Hamiltonian evaluation, Monte Carlo performance estimators, perturbed
policies, the sensitivity process, the reduced adjoint equation, and
simulation-based verification of the first-order optimality conditions.

The general backward adjoint equation is deliberately not solved here;
optimality is checked through directional derivatives of the performance
functional with common random numbers, which is the directly testable content
of the necessary conditions.  The sensitivity process is checked against the
tangent of forward.step_forward, its central difference in the state and the
control, so the time scheme is written once, in the forward module; the two
sides of the control are perturbed_policy's, so its clamp is written once
too.  A perturbation direction is a control on U = [-1, 1], read through
ControlPolicy.values as every control is, so its shape and its bound are
checked there.  sensitivity_residual reads its grids from the base field and
refuses a chi of another shape (ValueError) and a bundle off the field's time
grid (ModelMismatch).
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
    SpatialGrid,
    _check_measure,
    _control_chunks,
    _has_jumps,
    _path_noise,
    _steps,
    _sweep,
    assemble_operator,
    insider_means,
    solve_forward,
    step_forward,
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
# half-width of the central difference that linearizes step_forward in
# sensitivity_residual: at 1e-6 round-off leaves a defect floor near 1e-10,
# at 1e-3 the eps^2 term of a control-dependent operator shows
_TANGENT_EPS = 1e-4
# largest |t| of a window's statistic at which the stationarity check passes
_TOL_TSTAT = 3.0


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


def _density_weights(chaos, z, tgrid: TimeGrid, means, perf):
    """The conditional density of chaos at z along each path of a block whose
    insider_means are means, one read-only row per time: at t_0..t_{n-1},
    where perf's profit rate is weighted, when perf is given, and last at
    the horizon tgrid.t_end, in one delta_from_mean call on the column of
    times.  None without chaos."""
    if chaos is None:
        return None
    times = [*tgrid.nodes[:-1], tgrid.t_end] if perf is not None else [tgrid.t_end]
    weights = donsker.delta_from_mean(chaos, z, np.array(times)[:, None], means[-len(times):])
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
    wx = _trapezoid_weights(grid)
    h_int = np.zeros(len(db)) if perf is not None else None
    # elementwise over whole rows, which is faster than over the strided
    # interior; the interior is sliced and reduced once at the end
    run_min = np.full((len(db), grid.n_nodes), np.inf)

    for k, (t, Y, u) in enumerate(_sweep(coeffs, op, control, z, grid, tgrid, db, counts, means)):
        np.minimum(run_min, Y, out=run_min)
        if perf is not None and u is not None:
            h = np.asarray(perf.h(t, xs, Y, u, z), dtype=float)
            # a row sum, not h @ wx: a BLAS product rounds each row
            # differently for different block sizes.  An h without the
            # paths' axis is one row, summed once for every path.
            rows = np.broadcast_to(h, xs.shape if h.ndim < 2 else Y.shape)
            h_int += dt * weights[k] * np.sum(rows * wx, axis=-1)

    return EnsembleResult(
        y_terminal=Y,
        w_terminal=None if weights is None else weights[-1],
        h_integral=h_int,
        min_interior=run_min[:, 1:-1].min(axis=1),
    )


def _joined(parts) -> EnsembleResult:
    """One result from the results of consecutive blocks."""
    if len(parts) == 1:
        return parts[0]
    # every field is path-indexed, or None in every block
    cat = lambda vals: None if vals[0] is None else np.concatenate(vals)
    return EnsembleResult(*(cat([getattr(p, f.name) for p in parts]) for f in fields(EnsembleResult)))


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


def perturbed_policy(base: ControlPolicy, direction, a: float) -> ControlPolicy:
    """Admissible perturbation u + a * delta * beta0 of a base policy.

    direction is the base direction beta0, a control on U = [-1, 1] with
    the base's mode: a rule (k, t, x, z, hist) read through
    ControlPolicy.values, as the base is, so its value has a control's shape
    (else ControlShapeMismatch), and a value outside [-1, 1], NaN or
    infinite included, raises InadmissibleControl naming its first step.
    delta = min(dist(u, boundary of U) / 2, 1) is the pointwise
    distance-to-boundary clamp, so the result stays in U for every |a| < 1
    (else StepTooLarge).  The base value is checked the same way before the
    clamp reads it.
    """
    if abs(a) >= 1.0:
        raise StepTooLarge(f"perturbation size {a} outside (-1, 1)")
    lo, hi = base.bounds
    beta0 = ControlPolicy(rule=direction, mode=base.mode, bounds=(-1.0, 1.0))

    def rule(k, t, x, z, hist):
        u0 = base.values(k, t, x, z, hist)
        delta = np.minimum(np.minimum(u0 - lo, hi - u0) / 2.0, 1.0)
        return u0 + a * delta * beta0.values(k, t, x, z, hist)

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
    op.levy.  direction is a rule of a control on [-1, 1], as
    perturbed_policy takes it, so a value of another shape raises
    ControlShapeMismatch and one outside [-1, 1] InadmissibleControl; a tuple
    of them gives a tuple of estimates in the same order, all
    2 * len(direction) sides from one draw per block."""
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


def sensitivity_residual(
    chi: np.ndarray,
    base_field,
    coeffs,
    op,
    control: ControlPolicy,
    direction,
    z,
    bundle: PathBundle,
    *,
    chaos=None,
) -> float:
    """Max interior defect of chi against the tangent of the forward step.

    At each step k the tangent is the central difference
    [S(y_k + eps chi_k, u_k^+) - S(y_k - eps chi_k, u_k^-)] / (2 eps) of
    step_forward S, where u^+ and u^- are perturbed_policy(control,
    direction, +-eps) and each side's control, operator and noise come
    from forward._steps, as in the sweep: the direction is read as a control
    on [-1, 1] (perturbed_policy), and each side's operator is assembled at
    its own control and only when a coefficient value changes.  Whatever the
    step runs, a control-dependent operator, a jump term c or a jumping
    chaos, is linearized with it.  The grids are base_field's; chi must have
    the shape of base_field.values (else ValueError), and the bundle must be
    on base_field.tgrid and, with a jumping chaos, on op.levy (else
    ModelMismatch, forward._path_noise).
    """
    grid, tgrid = base_field.grid, base_field.tgrid
    chi = np.asarray(chi, dtype=float)
    if chi.shape != base_field.values.shape:
        raise ValueError(f"chi of shape {chi.shape} for a field of shape {base_field.values.shape}")
    db, counts, means = _path_noise(op, chaos, bundle, tgrid)
    xs = grid.nodes()
    signs = (_TANGENT_EPS, -_TANGENT_EPS)
    sides = [_steps(op, perturbed_policy(control, direction, s), z, grid, tgrid, db, counts, means)
             for s in signs]
    worst = 0.0
    for k, inputs in enumerate(zip(*sides)):
        y, dy = base_field.values[k][None], chi[k][None]
        up, dn = (
            step_forward(y + s * dy, k, u, coeffs=coeffs, op=op, xs=xs, tgrid=tgrid, z=z,
                         db_k=db_k, counts_k=counts_k, assembled=A)
            for s, (_, _, u, A, db_k, counts_k) in zip(signs, inputs)
        )
        tangent = (up - dn) / (2.0 * _TANGENT_EPS)
        worst = max(worst, float(np.max(np.abs(chi[k + 1] - tangent[0])[1:-1])))
    return worst


def _adjoint_integrand(a0, b0, pi, tgrid: TimeGrid, db, z, chaos):
    """The reduced adjoint's one step loop on the block with Brownian
    increments db (n_paths, n_steps): the exponent of its stochastic
    exponential at t_1..t_n, the running sum of theta dB - theta^2 dt / 2
    with theta = b0 pi - a0/b0 (n_paths, n_steps), and the insider mean at
    the horizon.  b0 and a0/b0 are evaluated over the nodes before the loop;
    pi, a ControlPolicy, is evaluated for the whole block once per chunk of
    steps without nodes (forward._control_chunks), so an x-dependent pi
    raises ValueError there, and a NaN or infinite value of it
    InadmissibleControl naming its first step (ControlPolicy.values).  A
    block of no paths raises ValueError, as in run_ensemble."""
    if _has_jumps(chaos):
        raise ModelMismatch("the reduced adjoint advances the insider mean by beta dB only; "
                            "it does not support a jump insider variable")
    db = np.asarray(db, dtype=float)
    if db.ndim != 2 or db.shape[1] != tgrid.n_steps:
        raise ModelMismatch(f"Brownian increments of shape {db.shape} for a {tgrid.n_steps}-step grid")
    if not len(db):
        raise ValueError("the reduced adjoint needs a block of at least one path, got 0")
    times = tgrid.nodes[:-1]
    vol = [_volatility(b0, t, z) for t in times]
    shift = [a0(t, z) / v for t, v in zip(times, vol)]
    means = insider_means(chaos, tgrid, db)
    u = np.empty((tgrid.n_steps, len(db)))
    for steps, chunk in _control_chunks(pi, z, times, means):
        u[steps] = chunk
    theta = (np.array(vol)[:, None] * u - np.array(shift)[:, None]).T
    return np.add.accumulate(theta * db - 0.5 * theta**2 * tgrid.dt, axis=1), means[-1]


def reduced_adjoint_block(a0, b0, pi, terminal: float, tgrid: TimeGrid, db, z, *,
                          chaos=None) -> ReducedAdjointPath:
    """Scalar adjoint martingale along each path of a block: the stochastic
    exponential of (b0 pi - a0/b0) dB on the Brownian increments db (n_paths,
    n_steps) of brownian_increment_matrix, scaled to the supplied terminal
    value.  pi is an x-independent ControlPolicy: it is evaluated without
    nodes, so an x-dependent one raises ValueError (forward._control_chunks),
    and a value of it outside U, NaN or infinite included, raises
    InadmissibleControl naming its first step (ControlPolicy.values).  The
    insider variable, if given, must be Gaussian.
    """
    expo, _ = _adjoint_integrand(a0, b0, pi, tgrid, db, z, chaos)
    start = np.zeros((len(db), 1))
    raw = np.exp(np.hstack((start, expo)))
    p0 = terminal / raw[:, -1]
    return ReducedAdjointPath(values=p0[:, None] * raw, p0=p0)


def reduced_adjoint_solve(a0, b0, pi, terminal: float, bundle: PathBundle, z, *,
                          chaos=None) -> ReducedAdjointPath:
    """reduced_adjoint_block on one bundle's increments, a block of one."""
    block = reduced_adjoint_block(a0, b0, pi, terminal, bundle.grid, bundle.brownian_increments[None],
                                  z, chaos=chaos)
    return ReducedAdjointPath(values=block.values[0], p0=float(block.p0[0]))


def _window_direction(lo, hi):
    """The direction 1 at times in [lo, hi) and 0 elsewhere, elementwise in t."""
    return lambda k, t, x, z, hist: np.where((lo <= t) & (t < hi), 1.0, 0.0)


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
    n_windows: int,
    n_paths: int = 4096,
    seed: int = 0,
    a_step: float = 1e-3,
) -> dict:
    """Check the x-independent first-order condition by time-localized
    directional derivatives.

    For an indicator-in-time direction the directional derivative equals the
    time integral of the space-integrated control gradient of the Hamiltonian
    over that window, so a per-unit-time statistic near zero on every window
    is the testable form of the stationarity condition.  The windows split
    the horizon evenly, and each must hold a step: more windows than steps
    raise ValueError.  The report's passed is whether every window's |t| is
    at most tol_tstat, the fixed threshold 3.0: for a statistic that is
    normal with mean 0 that fails with probability 0.27% per window.
    """
    if control.mode != "x-independent":
        raise ValueError("stationarity check applies to x-independent controls")
    if n_windows > tgrid.n_steps:
        raise ValueError(f"{n_windows} windows on {tgrid.n_steps} steps: a window would hold no step")
    edges = np.linspace(tgrid.t_start, tgrid.t_end, n_windows + 1)
    windows = [(float(edges[w]), float(edges[w + 1])) for w in range(n_windows)]
    directions = tuple(_window_direction(lo, hi) for lo, hi in windows)
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
        "passed": bool(max_abs <= _TOL_TSTAT),
        "tol_tstat": _TOL_TSTAT,
        "n_paths": n_paths,
        "seed": seed,
        "a_step": a_step,
    }
