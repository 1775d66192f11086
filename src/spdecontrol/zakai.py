"""Partially observed signal machinery: signal/observation simulation,
Girsanov reweighting to the reference measure, a splitting-up solver for the
unnormalized conditional density, independent oracles (Kalman-Bucy, bootstrap
particle filter), the discrete coercivity identity, and the feedback-form
control evaluator.

The signal state space is truncated to a bounded interval; the transport
half-step uses the exact transpose of the generator stencil, so total mass is
conserved exactly and any probability reaching the artificial boundary is
visible as boundary-node mass.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BoundaryViolation,
    DegenerateCurvature,
    MassCollapse,
    ModelMismatch,
    WeightDegeneracy,
)
from .forward import (
    AssembledOperator,
    ControlPolicy,
    OperatorSpec,
    PathHistory,
    SpatialGrid,
    _write_node_csv,
    assemble_operator,
)
from .maxprinciple import PerformanceEstimate
from .noise import (
    LevySpec,
    PathBundle,
    TimeGrid,
    _rng,
    brownian_increment_matrix,
    jump_count_matrices,
)

__all__ = [
    "SignalModel",
    "ObservationPath",
    "GirsanovWeight",
    "UnnormalizedDensity",
    "ZakaiSolution",
    "sample_initial_states",
    "simulate_signal_observation",
    "girsanov_weight",
    "transport_bands",
    "zakai_step",
    "solve_zakai",
    "normalize",
    "particle_filter_oracle",
    "kalman_bucy_oracle",
    "transformed_performance",
    "direct_performance",
    "coercivity_check",
    "feedback_pi",
    "filter_snapshots_csv",
]

_EPS_MASS = 1e-12
_EPS_CURV = 1e-10
_TOL_INIT_MASS = 1e-8


@dataclass(frozen=True)
class SignalModel:
    """Signal drift/volatility/jump coefficients, observation function, and
    initial density on the truncated state space.

    Callables must act elementwise on arrays.  The grid solver and the
    particle filter pass x as the node array or the particle array, and r as
    a scalar or an (n_paths, 1) column of observation values, one per
    reference-measure path; the signal simulator passes scalars for one path
    and (n_paths,) arrays of x and r for a block (direct_performance).  A
    callable may return a scalar where its value does not depend on x or r
    (constant volatility, say); results are broadcast to the full shape.

    A callable that ignores r should return values without the paths' axis
    (computed from x and u only): the grid filter then shares one operator
    among all paths.  One whose value carries that axis takes the per-path
    route, an operator per path and step, with the same results.

    The signal jumps by gamma(x, r, u, mark) at the events of each atom of
    levy, compensated by that atom's rate; without gamma it has no jumps.
    The signal simulator, the particle filter and the grid filter's
    generator all apply them.
    """

    alpha: object  # (x, r, u) -> real
    beta: object  # (x, r, u) -> real
    h_obs: object  # x -> real
    F_init: object  # (x, z) -> density value >= 0
    gamma: object = None  # (x, r, u, mark) -> real
    levy: LevySpec = field(default_factory=LevySpec)

    def check_initial_mass(self, sgrid: SpatialGrid, z) -> float:
        """Mass of F_init on the grid by UnnormalizedDensity.mass, the rectangle
        rule dx * sum of all node values (both boundary nodes in full), which
        the transpose transport conserves exactly; it must be 1 within 1e-8."""
        xs = sgrid.nodes()
        f = _full(self.F_init(xs, z), xs.shape)
        if np.any(f < 0):
            raise ValueError("initial density must be nonnegative")
        mass = UnnormalizedDensity(sgrid, f).mass()
        if abs(mass - 1.0) > _TOL_INIT_MASS:
            raise ValueError(f"initial density mass {mass} differs from 1 beyond {_TOL_INIT_MASS}")
        return mass


@dataclass(frozen=True)
class ObservationPath:
    """Observation increments on a time grid; values() gives R(t_k), R(0)=0."""

    grid: TimeGrid
    increments: np.ndarray

    def values(self) -> np.ndarray:
        return np.concatenate(([0.0], np.cumsum(self.increments)))


@dataclass(frozen=True)
class GirsanovWeight:
    """Change-of-measure weights K(t_k) along one path; K(0)=1, K>0."""

    times: np.ndarray
    values: np.ndarray


@dataclass
class UnnormalizedDensity:
    """Grid values of the unnormalized conditional density at one time."""

    grid: SpatialGrid
    values: np.ndarray

    def mass(self) -> float:
        """Rectangle rule: dx times the sum of all node values, both boundary
        nodes counted in full.  The transpose transport conserves it exactly,
        and normalize and check_initial_mass use it."""
        return float(self.grid.dx * np.sum(self.values))

    def posterior_mean(self) -> float:
        m = self.mass()
        if m < _EPS_MASS:
            raise MassCollapse(f"density mass {m:.3e} below {_EPS_MASS}")
        return float(self.grid.dx * np.sum(self.grid.nodes() * self.values) / m)


@dataclass
class ZakaiSolution:
    """Densities at every grid time plus positivity/truncation telemetry."""

    grid: SpatialGrid
    tgrid: TimeGrid
    values: np.ndarray  # (n_steps + 1, n_nodes)
    clamp_defect: float  # total mass removed by nonnegativity clamping
    boundary_mass: np.ndarray  # escaped-mass telemetry per time node

    def density(self, k: int) -> UnnormalizedDensity:
        return UnnormalizedDensity(self.grid, self.values[k])


def _full(value, shape) -> np.ndarray:
    """A callable's result broadcast to shape (constant lambdas return scalars)."""
    return np.broadcast_to(np.asarray(value, dtype=float), shape)


def sample_initial_states(
    model: SignalModel, sgrid: SpatialGrid, n: int, seed: int, channel: int = 3, *, z
) -> np.ndarray:
    """Draw n initial signal states from F_init(., z) by inverse transform on
    the grid."""
    xs = sgrid.nodes()
    f = _full(model.F_init(xs, z), xs.shape)
    cdf = np.concatenate(([0.0], np.cumsum(0.5 * (f[1:] + f[:-1]) * sgrid.dx)))
    cdf /= cdf[-1]
    u = _rng(seed, 0, channel, 0).uniform(size=n)
    return np.interp(u, cdf, xs)


def _control_value(control, k, t, z):
    """The control of step k.  The filtering routines carry no insider mean,
    so the rule sees m = NaN; a rule that reads it raises ModelMismatch."""
    if control is None:
        return 0.0
    u = control.values(k, t, None, z, PathHistory(t=t, m=np.full(1, np.nan)))
    u = float(np.broadcast_to(u, (1,))[0])
    if not math.isfinite(u):
        raise ModelMismatch(f"control rule gave {u} at step {k}: the filtering routines "
                            "carry no insider mean for it to read")
    return u


def _signal_step(model: SignalModel, x, r, u, dt, dv, counts):
    """One Euler-Maruyama step of the signal from x: x + (alpha dt + beta dv),
    then, with a jump coefficient, + gamma(mark_a) (N_a - lam_a dt) added to
    the increment atom by atom, counts[a] = N_a being the events of atom a of
    model.levy.  Results depend on this order of the sums at round-off; keep
    it."""
    step = model.alpha(x, r, u) * dt + model.beta(x, r, u) * dv
    if model.gamma is not None:
        for (mark, lam), n in zip(model.levy.atoms, counts):
            step = step + model.gamma(x, r, u, mark) * (n - dt * lam)
    return x + step


def _euler_maruyama(model: SignalModel, control, z, tgrid: TimeGrid, x0, dv, dw, counts):
    """Euler-Maruyama signal X (n_steps + 1, ...) and observation increments
    dR (n_steps, ...) from signal and observation Brownian increments dv, dw
    and counts[a], the events of atom a of model.levy, all time first:
    (n_steps,) for one path from a scalar x0, (n_steps, n_paths) for a block
    from x0 (n_paths,)."""
    dt = tgrid.dt
    X = np.empty((tgrid.n_steps + 1,) + np.shape(dv)[1:])
    X[0] = x0
    dR = np.empty(np.shape(dv))
    r = 0.0
    for k in range(tgrid.n_steps):
        u = _control_value(control, k, tgrid.time(k), z)
        x = X[k]
        dR[k] = model.h_obs(x) * dt + dw[k]
        X[k + 1] = _signal_step(model, x, r, u, dt, dv[k], [n[k] for n in counts])
        r = r + dR[k]
    return X, dR


def simulate_signal_observation(
    model: SignalModel,
    control: ControlPolicy | None,
    z,
    bundle_v: PathBundle,
    bundle_w: PathBundle,
    x0: float,
) -> tuple:
    """Euler-Maruyama signal path plus its observation increments.

    bundle_v drives the signal, bundle_w the observation noise; they must live
    on the same time grid and come from independent channels.  With a jump
    coefficient gamma, bundle_v must be drawn on model.levy (else
    ModelMismatch): its counts are compensated with that measure's rates.
    """
    if bundle_v.grid != bundle_w.grid:
        raise ValueError("signal and observation bundles must share a time grid")
    if model.gamma is not None and bundle_v.levy != model.levy:
        raise ModelMismatch(f"signal jumps on {model.levy} but bundle_v is drawn on {bundle_v.levy}")
    X, dR = _euler_maruyama(model, control, z, bundle_v.grid, x0, bundle_v.brownian_increments,
                            bundle_w.brownian_increments, bundle_v.jump_counts)
    return X, ObservationPath(grid=bundle_v.grid, increments=dR)


def girsanov_weight(model: SignalModel, signal: np.ndarray, obs: ObservationPath) -> GirsanovWeight:
    """K(t) = exp(int h(X) dR - half int h(X)^2 ds), left-endpoint sums."""
    tgrid = obs.grid
    h = _full(model.h_obs(signal[:-1]), signal[:-1].shape)
    expo = np.concatenate(([0.0], np.cumsum(h * obs.increments - 0.5 * h**2 * tgrid.dt)))
    return GirsanovWeight(times=tgrid.times(), values=np.exp(expo))


def transport_bands(model: SignalModel, sgrid: SpatialGrid, r, u) -> AssembledOperator:
    """The signal generator L on the grid: the operator of assemble_operator
    with second coefficient half beta^2, first coefficient alpha and, with a
    jump coefficient, the compensated jumps gamma on model.levy, r in its
    control slot.  Boundary rows are zero and interior row sums vanish
    exactly (jump rows too), so the transpose-transport conserves total mass
    to machine precision.

    A scalar r gives one operator.  An (n_paths, 1) column of r gives a stack
    of one per path when a coefficient's value carries the paths' axis, and
    one operator shared by all paths when none does.
    """
    jump_shift = None
    if model.gamma is not None:
        jump_shift = lambda t, x, r_, z, mark: model.gamma(x, r_, u, mark)
    generator = OperatorSpec(
        second_coeff=lambda t, x, r_, z: 0.5 * np.asarray(model.beta(x, r_, u), dtype=float) ** 2,
        first_coeff=lambda t, x, r_, z: model.alpha(x, r_, u),
        jump_shift=jump_shift,
        levy=model.levy,
    )
    return assemble_operator(generator, sgrid, 0.0, r, None)


def _step(Y, transport: AssembledOperator, dx, dR, h_vals, dt):
    """Splitting-up step for one density (n_nodes,) or a block (n_paths,
    n_nodes) with dR a scalar or an (n_paths, 1) column: solve
    (I - dt L^T) y = Y, clamp negative values, multiply by the likelihood
    factor.  Returns the new densities and the clamped mass per density."""
    y = transport.solve_implicit(dt, Y)
    defect = -dx * np.sum(np.minimum(y, 0.0), axis=-1)
    y = np.maximum(y, 0.0)
    return y * np.exp(h_vals * dR - 0.5 * h_vals**2 * dt), defect


def zakai_step(
    density: UnnormalizedDensity, model: SignalModel, u, r, dR: float, dt: float
) -> tuple:
    """One splitting-up step: implicit transpose-transport, then the
    multiplicative observation update.  Returns (density, clamp defect)."""
    sgrid = density.grid
    transport = transport_bands(model, sgrid, r, u).transposed()
    h_vals = _full(model.h_obs(sgrid.nodes()), (sgrid.n_nodes,))
    y, defect = _step(density.values, transport, sgrid.dx, dR, h_vals, dt)
    return UnnormalizedDensity(sgrid, y), float(defect)


def _sweep(model: SignalModel, control, z, dR, sgrid: SpatialGrid, tgrid: TimeGrid):
    """Splitting-up sweep over a block of observation paths at once.

    dR holds one path of observation increments per row, (n_paths, n_steps).
    Yields (Y, defect) at t_0, ..., t_N: Y is the (n_paths, n_nodes) block of
    densities and defect the mass clamped per path in the step to that time
    (zero at t_0).  The operator of step k is transport_bands at the
    paths' column of r(t_k) and the step's control u.  When it comes back
    as one operator (no coefficient value carries the paths' axis) all paths
    share it, and it is reused while u is unchanged; otherwise it is a stack
    of one per path, assembled every step and solved with the paths laid end
    to end.
    """
    n_paths = dR.shape[0]
    dt = tgrid.dt
    xs = sgrid.nodes()
    h_vals = _full(model.h_obs(xs), xs.shape)
    Y = np.tile(np.maximum(_full(model.F_init(xs, z), xs.shape), 0.0), (n_paths, 1))
    yield Y, np.zeros(n_paths)
    r = np.concatenate((np.zeros((n_paths, 1)), np.cumsum(dR, axis=1)), axis=1)
    transport, u_assembled = None, None
    for k in range(tgrid.n_steps):
        u = _control_value(control, k, tgrid.time(k), z)
        if transport is None or transport.bands.ndim == 3 or u != u_assembled:
            transport = transport_bands(model, sgrid, r[:, k, None], u).transposed()
            u_assembled = u
        Y, defect = _step(Y, transport, sgrid.dx, dR[:, k, None], h_vals, dt)
        yield Y, defect


def solve_zakai(
    model: SignalModel,
    control: ControlPolicy | None,
    z,
    obs: ObservationPath,
    sgrid: SpatialGrid,
) -> ZakaiSolution:
    """Splitting-up sweep over a whole observation path (a block of one)."""
    tgrid = obs.grid
    values = np.empty((tgrid.n_steps + 1, sgrid.n_nodes))
    clamp = 0.0
    dR = np.asarray(obs.increments, dtype=float)[None, :]
    for k, (Y, defect) in enumerate(_sweep(model, control, z, dR, sgrid, tgrid)):
        values[k] = Y[0]
        clamp += float(defect[0])
    bmass = sgrid.dx * (values[:, 0] + values[:, -1])
    return ZakaiSolution(grid=sgrid, tgrid=tgrid, values=values, clamp_defect=clamp, boundary_mass=bmass)


def normalize(density: UnnormalizedDensity) -> tuple:
    """Bayes normalization: (unit-mass density, normalizing mass)."""
    mass = density.mass()
    if mass < _EPS_MASS:
        raise MassCollapse(f"density mass {mass:.3e} below {_EPS_MASS}")
    return UnnormalizedDensity(density.grid, density.values / mass), mass


def particle_filter_oracle(
    model: SignalModel,
    obs: ObservationPath,
    n_particles: int,
    seed: int,
    *,
    sgrid: SpatialGrid,
    control: ControlPolicy | None = None,
    z=0.0,
) -> dict:
    """Bootstrap particle filter with systematic resampling every step.

    Each particle moves by the signal's Euler-Maruyama step, jumps included,
    and is weighted by the observation likelihood.  Independent of the grid
    solver in both discretization and randomness.  Initial states come from
    stream 6.  Stream 5 gives, per step and in this order, the particles'
    standard normals, then (only with a jump coefficient) their Poisson
    event counts atom by atom on model.levy, then the resampling uniform.
    Serves as a cross-check oracle for the posterior mean path.
    """
    if n_particles < 100:
        raise ValueError("n_particles must be >= 100")
    tgrid = obs.grid
    dt = tgrid.dt
    rng = _rng(seed, 0, channel=5, sub=0)
    x = sample_initial_states(model, sgrid, n_particles, seed, channel=6, z=z)
    means = np.empty(tgrid.n_steps + 1)
    means[0] = float(np.mean(x))
    r = 0.0
    for k in range(tgrid.n_steps):
        u = _control_value(control, k, tgrid.time(k), z)
        dv = math.sqrt(dt) * rng.standard_normal(n_particles)
        atoms = model.levy.atoms if model.gamma is not None else ()
        counts = [rng.poisson(lam * dt, n_particles) for _, lam in atoms]
        x = _signal_step(model, x, r, u, dt, dv, counts)
        h = _full(model.h_obs(x), x.shape)
        logw = h * obs.increments[k] - 0.5 * h**2 * dt
        w = np.exp(logw - logw.max())
        w /= w.sum()
        ess = 1.0 / np.sum(w**2)
        if ess < 2.0:
            raise WeightDegeneracy(f"effective sample size {ess:.2f} below 2")
        # systematic resampling
        positions = (np.arange(n_particles) + rng.uniform()) / n_particles
        x = x[np.searchsorted(np.cumsum(w), positions)]
        means[k + 1] = float(np.mean(x))
        r += obs.increments[k]
    return {"times": tgrid.times(), "means": means, "final_particles": x}


def kalman_bucy_oracle(a: float, b: float, c: float, m0: float, P0: float, obs: ObservationPath) -> tuple:
    """Continuous-time Kalman filter for dX = aX dt + b dv, dR = cX dt + dw.

    Variance by RK4 on the Riccati equation, mean by the innovation recursion
    driven by the same observation increments.
    """
    tgrid = obs.grid
    dt = tgrid.dt
    n = tgrid.n_steps
    m = np.empty(n + 1)
    P = np.empty(n + 1)
    m[0], P[0] = m0, P0
    ric = lambda p: 2.0 * a * p + b * b - c * c * p * p
    for k in range(n):
        p = P[k]
        k1 = ric(p)
        k2 = ric(p + 0.5 * dt * k1)
        k3 = ric(p + 0.5 * dt * k2)
        k4 = ric(p + dt * k3)
        P[k + 1] = p + dt * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0
        m[k + 1] = m[k] + a * m[k] * dt + P[k] * c * (obs.increments[k] - c * m[k] * dt)
    return m, P


def transformed_performance(
    model: SignalModel,
    control: ControlPolicy | None,
    f,
    g,
    z,
    sgrid: SpatialGrid,
    tgrid: TimeGrid,
    n_paths: int,
    seed: int,
) -> PerformanceEstimate:
    """Reference-measure performance: observations are simulated as Brownian
    motion (noise stream 9) and the profit/bequest densities are integrated
    against the unnormalized filter density.  All paths are swept together as
    one block; only the current densities are kept.

    f: (t, x) -> rate density; g: x -> terminal density.
    """
    xs = sgrid.nodes()
    wq = np.full(sgrid.n_nodes, sgrid.dx)
    g_vals = np.asarray(g(xs), dtype=float) * wq
    db = brownian_increment_matrix(tgrid, seed, range(n_paths), channel=9)
    acc = np.zeros(n_paths)
    for k, (Y, _) in enumerate(_sweep(model, control, z, db, sgrid, tgrid)):
        if f is not None and k < tgrid.n_steps:
            fv = np.asarray(f(tgrid.time(k), xs), dtype=float)
            acc += tgrid.dt * np.sum(fv * wq * Y, axis=1)
    return PerformanceEstimate.from_samples(acc + np.sum(g_vals * Y, axis=1))


def direct_performance(
    model: SignalModel,
    control: ControlPolicy | None,
    f,
    g,
    z,
    sgrid: SpatialGrid,
    tgrid: TimeGrid,
    n_paths: int,
    seed: int,
) -> PerformanceEstimate:
    """Physical-measure Monte Carlo of the same performance functional,
    evaluated directly on simulated signal paths, all paths in one sweep.
    The signal noise is stream 11, the observation noise 12 and the initial
    states 13."""
    x0s = sample_initial_states(model, sgrid, n_paths, seed, channel=13, z=z)
    paths = range(n_paths)
    dv = brownian_increment_matrix(tgrid, seed, paths, channel=11).T
    dw = brownian_increment_matrix(tgrid, seed, paths, channel=12).T
    counts = [n.T for n in jump_count_matrices(tgrid, model.levy, seed, paths, channel=11)]
    X, _ = _euler_maruyama(model, control, z, tgrid, x0s, dv, dw, counts)
    acc = 0.0
    if f is not None:
        for k in range(tgrid.n_steps):
            acc = acc + tgrid.dt * f(tgrid.time(k), X[k])
    return PerformanceEstimate.from_samples(acc + _full(g(X[-1]), (n_paths,)))


def coercivity_check(y, pi: float, beta_vol, sgrid: SpatialGrid, alpha_drift: float = 0.0) -> tuple:
    """Discrete energy identity for the filtering generator.

    Returns (lhs, rhs) with lhs = 2 <-A y, y> for the flux-form operator
    A y = pi alpha y' + half pi^2 (beta^2 y')' and rhs the gradient energy
    pi^2 int beta^2 (y')^2 dx with midpoint volatility and forward
    differences.  Summation by parts makes the two sides agree to rounding
    for any volatility profile; the advection part telescopes to zero.
    """
    y = np.asarray(y, dtype=float)
    if y[0] != 0.0 or y[-1] != 0.0:
        raise BoundaryViolation("test function must vanish at the boundary nodes")
    xs = sgrid.nodes()
    dx = sgrid.dx
    bfun = beta_vol if callable(beta_vol) else (lambda x: beta_vol)
    xm = 0.5 * (xs[1:] + xs[:-1])
    beta_m = np.array([float(bfun(x)) for x in xm])
    flux = beta_m**2 * np.diff(y) / dx
    Ay = np.zeros_like(y)
    Ay[1:-1] = 0.5 * pi**2 * np.diff(flux) / dx
    Ay[1:-1] += pi * alpha_drift * (y[2:] - y[:-2]) / (2.0 * dx)
    lhs = float(-2.0 * dx * y @ Ay)
    dy = np.diff(y) / dx
    rhs = float(pi**2 * dx * np.sum(beta_m**2 * dy**2))
    return lhs, rhs


def feedback_pi(
    p_prime,
    p_double_prime,
    posterior: UnnormalizedDensity,
    *,
    alpha_drift: float,
    beta_vol: float,
) -> float:
    """Feedback control from a supplied adjoint field: minus drift times the
    posterior mean of p' over volatility-squared times the posterior mean of
    p''."""
    dens, _ = normalize(posterior)
    xs = dens.grid.nodes()
    wq = dens.grid.dx * dens.values
    e_p1 = float(np.sum(np.asarray(p_prime(xs), dtype=float) * wq))
    e_p2 = float(np.sum(np.asarray(p_double_prime(xs), dtype=float) * wq))
    den = beta_vol**2 * e_p2
    if abs(den) < _EPS_CURV:
        raise DegenerateCurvature(f"curvature moment {den:.3e} below {_EPS_CURV}")
    return -alpha_drift * e_p1 / den


def filter_snapshots_csv(solution: ZakaiSolution, path):
    """Per-(t,x) CSV of the unnormalized and normalized filter densities."""
    values = solution.values
    mass = solution.grid.dx * np.sum(values, axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        normalized = np.where(mass > _EPS_MASS, values / mass, math.nan)
    _write_node_csv(path, ["t", "x", "unnormalized", "normalized"],
                    solution.tgrid.times(), solution.grid.nodes(), values, normalized)
