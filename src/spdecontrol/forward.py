"""Finite-difference solver for the z-parametrized controlled forward SPDE on
an interval with Dirichlet data.

Scheme: semi-implicit Euler-Maruyama, implicit in the linear operator and
explicit in drift, noise and jump terms, second-order central differences in
space.  The left-endpoint rule is used for every stochastic sum.

There is one stepper, step_forward, and it advances a block of paths held as
an (n_paths, n_nodes) array; a single-path solve is an ensemble of one.  Jumps
enter as per-atom event counts N_a over a step, compensated by lam_a dt, in
the state and in the compensated insider mean m(t) (advance_mean) alike.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dgtsv

from .errors import ControlShapeMismatch, LinearSolveFailure, ModelMismatch, NonParabolic
from .noise import LevySpec, PathBundle, TimeGrid

__all__ = [
    "SpatialGrid",
    "OperatorSpec",
    "CoefficientSet",
    "ControlPolicy",
    "PathHistory",
    "StateField",
    "AssembledOperator",
    "assemble_operator",
    "advance_mean",
    "step_forward",
    "solve_forward",
    "weak_residual",
]


@dataclass(frozen=True)
class SpatialGrid:
    """Nodes x_0..x_n on [x_left, x_right], spacing dx."""

    x_left: float
    x_right: float
    n_cells: int

    def __post_init__(self):
        if self.n_cells < 2:
            raise ValueError("n_cells must be >= 2")
        if not self.x_right > self.x_left:
            raise ValueError("x_right must exceed x_left")

    @property
    def dx(self) -> float:
        return (self.x_right - self.x_left) / self.n_cells

    @property
    def n_nodes(self) -> int:
        return self.n_cells + 1

    def nodes(self) -> np.ndarray:
        return self.x_left + np.arange(self.n_nodes) * self.dx

    def inner(self, u: np.ndarray, v: np.ndarray) -> float:
        """Rectangle-rule L2 inner product on the grid."""
        return float(self.dx * np.sum(u * v, axis=-1))


@dataclass(frozen=True)
class OperatorSpec:
    """Linear integro-differential operator acting in x.

    second_coeff/first_coeff: callables (t, x, u, z) -> real.  jump_shift,
    when present, is a callable (t, x, u, z, zeta) -> shift amount for the
    nonlocal part, with atom weights taken from levy.  Every callable must
    broadcast u against the node array x of shape (n,): u is a scalar or an
    (n,) array for one operator, and an (n_paths, 1) or (n_paths, n) control
    stack when one operator per path is assembled.
    """

    second_coeff: object
    first_coeff: object
    jump_shift: object = None
    levy: LevySpec = field(default_factory=LevySpec)
    time_invariant: bool = False
    control_dependent: bool = True


@dataclass(frozen=True)
class CoefficientSet:
    """Reaction/noise coefficients and boundary data of the forward equation."""

    a: object  # (t, x, y, u, z) -> real
    b: object  # (t, x, y, u, z) -> real
    c: object = None  # (t, x, y, u, z, zeta) -> real
    xi: object = None  # initial (x, z) -> real
    theta: object = None  # boundary (t, x) -> real

    def boundary(self, t, x):
        return 0.0 if self.theta is None else self.theta(t, x)


@dataclass(frozen=True)
class PathHistory:
    """What a control rule may look at: time and the compensated insider mean.

    m is an (n_paths,) array, one entry per path of the block the rule is
    evaluated for; a single path is a block of one.
    """

    t: float
    m: np.ndarray


@dataclass(frozen=True)
class ControlPolicy:
    """Rule (step, t, x, z, history) -> control value(s) in the interval U."""

    rule: object
    mode: str = "x-independent"
    bounds: tuple = (-np.inf, np.inf)

    def __post_init__(self):
        if self.mode not in ("x-independent", "x-dependent"):
            raise ValueError(f"unknown control mode {self.mode!r}")

    def values(self, k, t, xs, z, hist):
        if self.mode == "x-independent":
            val = self.rule(k, t, None, z, hist)
        else:
            val = self.rule(k, t, xs, z, hist)
        val = np.asarray(val, dtype=float)
        lo, hi = self.bounds
        # an infinite bound admits every value, so only finite ones are checked
        if (lo > -np.inf and np.any(val < lo - 1e-12)) or (hi < np.inf and np.any(val > hi + 1e-12)):
            raise ValueError("control rule produced a value outside U")
        return val


@dataclass
class StateField:
    """Solution values Y(t_k, x_i, z) for one (path, z) pair."""

    grid: SpatialGrid
    tgrid: TimeGrid
    z: float
    values: np.ndarray  # (n_steps + 1, n_nodes)

    def to_csv(self, path):
        _write_node_csv(path, ["t", "x", "value"], self.tgrid.times(), self.grid.nodes(), self.values)


def _write_node_csv(path, header, times, xs, *fields):
    """One CSV row per (t_k, x_i) node: t, x and field[k, i] of each
    (n_times, n_nodes) field, every number as the repr of a Python float,
    in csv.writer's format: comma separated, CRLF line ends."""
    x_txt = [repr(x) for x in xs.tolist()]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for k, t in enumerate(times.tolist()):
            t_txt = repr(t)
            cols = zip(x_txt, *(map(repr, f[k].tolist()) for f in fields))
            fh.write("".join(f"{t_txt},{','.join(row)}\r\n" for row in cols))


class AssembledOperator:
    """Discretized operator: tridiagonal bands plus an optional dense block.

    A single operator has bands of shape (n,) and a dense block of shape
    (n, n); a stack of per-path operators has bands of shape (n_paths, n) and
    a dense block of shape (n_paths, n, n).  Boundary rows are identically
    zero; Dirichlet data is imposed by overwriting boundary nodes after each
    implicit solve.
    """

    def __init__(self, lower, diag, upper, dense_part=None):
        self.lower = lower  # coefficient of v[i-1] in row i
        self.diag = diag
        self.upper = upper  # coefficient of v[i+1] in row i
        self.dense_part = dense_part
        self.n = diag.shape[-1]

    @property
    def stacked(self) -> bool:
        return self.diag.ndim == 2

    def apply(self, v):
        v = np.asarray(v, dtype=float)
        out = self.diag * v
        out[..., 1:] += self.lower[..., 1:] * v[..., :-1]
        out[..., :-1] += self.upper[..., :-1] * v[..., 1:]
        if self.dense_part is not None:
            out = out + (self.dense_part @ v[..., None])[..., 0]
        return out

    def dense(self):
        n = self.n
        i = np.arange(n)
        mat = np.zeros(self.diag.shape + (n,))
        mat[..., i, i] = self.diag
        mat[..., i[1:], i[:-1]] = self.lower[..., 1:]
        mat[..., i[:-1], i[1:]] = self.upper[..., :-1]
        if self.dense_part is not None:
            mat = mat + self.dense_part
        return mat

    def solve_implicit(self, dt, rhs):
        """Solve (I - dt A) y = rhs.

        For a single operator rhs is a vector or an (n_rhs, n) array of
        right-hand sides, one per row.  For a stack of n_paths operators rhs
        is (n_paths, n) and row p is solved with operator p.
        """
        rhs = np.asarray(rhs, dtype=float)
        if self.stacked and rhs.shape != self.diag.shape:
            raise ValueError(f"rhs of shape {rhs.shape} for operators of shape {self.diag.shape}")
        try:
            if self.dense_part is not None:
                mat = np.eye(self.n) - dt * self.dense()
                if self.stacked:
                    y = np.linalg.solve(mat, rhs[..., None])[..., 0]
                else:
                    y = np.linalg.solve(mat, rhs.T).T
            elif self.stacked:
                y = _thomas(-dt * self.lower, 1.0 - dt * self.diag, -dt * self.upper, rhs)
            else:
                # the LAPACK routine solve_banded((1, 1), ...) calls, without
                # that wrapper's per-call cost, which dominated one-path steps
                *_, y, info = dgtsv(
                    -dt * self.lower[1:], 1.0 - dt * self.diag, -dt * self.upper[:-1], rhs.T
                )
                if info:
                    raise LinearSolveFailure(f"zero pivot in row {info} of a tridiagonal solve")
                y = y.T
        except np.linalg.LinAlgError as exc:
            raise LinearSolveFailure(str(exc)) from exc
        if not np.all(np.isfinite(y)):
            raise LinearSolveFailure("implicit solve produced non-finite values")
        return y


def _thomas(sub, main, sup, rhs):
    """Tridiagonal elimination without pivoting, vectorized over paths: row i
    of system p reads
    sub[p, i] y[p, i-1] + main[p, i] y[p, i] + sup[p, i] y[p, i+1] = rhs[p, i]."""
    n = main.shape[1]
    c = np.empty(main.shape)
    d = np.empty(main.shape)
    c_prev = d_prev = 0.0
    for i in range(n):
        piv = main[:, i] - sub[:, i] * c_prev
        if np.any(piv == 0.0):
            raise LinearSolveFailure(f"zero pivot in row {i} of a tridiagonal solve")
        c[:, i] = c_prev = sup[:, i] / piv
        d[:, i] = d_prev = (rhs[:, i] - sub[:, i] * d_prev) / piv
    for i in range(n - 2, -1, -1):
        d[:, i] -= c[:, i] * d[:, i + 1]
    return d


def assemble_operator(op: OperatorSpec, grid: SpatialGrid, t, u_field, z) -> AssembledOperator:
    """Central-difference discretization of the operator at time t.

    u_field is a scalar or per-node array of control values for one operator,
    or an (n_paths, 1) or (n_paths, n_nodes) control stack for one operator
    per path (see AssembledOperator for the resulting shapes).
    """
    xs = grid.nodes()
    n = grid.n_nodes
    dx = grid.dx
    shape = (np.shape(u_field)[0], n) if np.ndim(u_field) == 2 else (n,)
    s = np.broadcast_to(np.asarray(op.second_coeff(t, xs, u_field, z), dtype=float), shape).copy()
    f = np.broadcast_to(np.asarray(op.first_coeff(t, xs, u_field, z), dtype=float), shape).copy()
    if np.any(s < -1e-12):
        raise NonParabolic(f"second-order coefficient has minimum {s.min():.3e} < 0")
    s = np.maximum(s, 0.0)

    lower = np.zeros(shape)
    diag = np.zeros(shape)
    upper = np.zeros(shape)
    lower[..., 1:-1] = s[..., 1:-1] / dx**2 - f[..., 1:-1] / (2.0 * dx)
    diag[..., 1:-1] = -2.0 * s[..., 1:-1] / dx**2
    upper[..., 1:-1] = s[..., 1:-1] / dx**2 + f[..., 1:-1] / (2.0 * dx)

    dense_part = None
    if op.jump_shift is not None and op.levy.atoms:
        # lam * [y(x + gamma) - y(x) - gamma y'(x)] on interior rows.  Each
        # update touches every (path, row) once, so fancy-index += is exact
        # and gives the same sums as updating row by row.
        dense_part = np.zeros(shape + (n,))
        dense = dense_part.reshape(-1, n, n)
        paths = np.arange(dense.shape[0])[:, None]
        rows = np.arange(1, n - 1)
        for mark, lam in op.levy.atoms:
            gam = np.broadcast_to(
                np.asarray(op.jump_shift(t, xs, u_field, z, mark), dtype=float), shape
            ).reshape(-1, n)
            shifted = np.clip(xs + gam, grid.x_left, grid.x_right)
            idx = np.clip(np.searchsorted(xs, shifted) - 1, 0, n - 2)
            w = (shifted - xs[idx]) / dx
            idx, w, gam = idx[:, 1:-1], w[:, 1:-1], gam[:, 1:-1]
            dense[paths, rows, idx] += lam * (1.0 - w)
            dense[paths, rows, idx + 1] += lam * w
            dense[paths, rows, rows] -= lam
            dense[paths, rows, rows - 1] += lam * gam / (2.0 * dx)
            dense[paths, rows, rows + 1] -= lam * gam / (2.0 * dx)
    return AssembledOperator(lower, diag, upper, dense_part)


def _has_jumps(chaos) -> bool:
    return chaos is not None and not chaos.is_gaussian


def _bundle_noise(bundle: PathBundle):
    """A bundle's noise as an ensemble of one: Brownian increments (1,
    n_steps) and one (1, n_steps) array of event counts per atom of
    bundle.levy, as brownian_increment_matrix and jump_count_matrices give."""
    return bundle.brownian_increments[None], [n[None] for n in bundle.jump_counts]


def advance_mean(chaos, m, t, dt, db_k, counts_k=(), levy: LevySpec = LevySpec()):
    """Compensated insider mean m(t) advanced across the step [t, t + dt).

    m + beta(t) dB + sum_a psi(t, mark_a) (N_a - lam_a dt), where N_a =
    counts_k[a] counts the events of atom a of levy in the step.  Every
    integrand is taken at the left endpoint t, the compensator's too, so the
    compensator int psi lam ds is the left-endpoint rule.  m, db_k and the
    counts are scalars or (n_paths,) arrays.  A Gaussian chaos reads no
    counts; with a jump part, levy must be chaos.levy (else ModelMismatch).
    chaos None leaves m unchanged.
    """
    if chaos is None:
        return m
    m = m + chaos.beta(t) * db_k
    if _has_jumps(chaos):
        # the counts are the state's; they drive m only on the same measure
        if levy != chaos.levy:
            raise ModelMismatch(f"insider variable jumps on {chaos.levy} but the noise is {levy}")
        for a, (mark, lam) in enumerate(levy.atoms):
            m = m + chaos.psi(t, mark) * counts_k[a] - dt * lam * chaos.psi(t, mark)
    return m


def _block_control(control: ControlPolicy, k, t, xs, z, m):
    """Control values at step k for the block of len(m) paths, shaped to
    broadcast against the (n_paths, n_nodes) state block: an x-dependent rule
    gives one profile (n_nodes,) shared by all paths or one per path
    (n_paths, n_nodes); an x-independent rule gives one value per path
    (n_paths,).  Either may return a scalar."""
    u = control.values(k, t, xs, z, PathHistory(t=t, m=m))
    nb, n_nodes = len(m), len(xs)
    shape = u.shape
    if shape == ():
        return u
    if control.mode == "x-dependent":
        if shape == (n_nodes,):
            return u[None, :]
        if shape == (nb, n_nodes):
            return u
    elif shape == (nb,):
        return u[:, None]
    raise ControlShapeMismatch(
        f"{control.mode} control rule returned shape {shape} for {nb} paths on {n_nodes} nodes"
    )


def _explicit_rhs(coeffs: CoefficientSet, t, xs, Y, u, z, dt, db_k, counts_k, levy):
    """Y + dt a + b dB, then + c(mark_a) (N_a - lam_a dt) atom by atom.
    Results depend on this order of the sums at round-off; keep it."""
    rhs = (
        Y
        + dt * np.broadcast_to(np.asarray(coeffs.a(t, xs, Y, u, z), dtype=float), Y.shape)
        + np.broadcast_to(np.asarray(coeffs.b(t, xs, Y, u, z), dtype=float), Y.shape)
        * db_k[:, None]
    )
    if coeffs.c is not None:
        for a, (mark, lam) in enumerate(levy.atoms):
            cv = np.broadcast_to(np.asarray(coeffs.c(t, xs, Y, u, z, mark), dtype=float), Y.shape)
            rhs += cv * (counts_k[a] - dt * lam)[:, None]
    return rhs


def _step_operator(op: OperatorSpec, grid: SpatialGrid, t, u, z, n_paths):
    """The operator at t: one for all paths when it ignores the control,
    else a stack of one per path."""
    if not op.control_dependent:
        return assemble_operator(op, grid, t, 0.0, z)
    width = np.shape(u)[1] if np.ndim(u) == 2 else 1
    return assemble_operator(op, grid, t, np.broadcast_to(u, (n_paths, width)), z)


def step_forward(
    Y,
    k,
    u,
    *,
    coeffs: CoefficientSet,
    op: OperatorSpec,
    grid: SpatialGrid,
    tgrid: TimeGrid,
    z,
    db_k,
    counts_k,
    levy: LevySpec,
    assembled: AssembledOperator | None = None,
):
    """One semi-implicit step of a block of paths from node k to k+1.

    Y is the (n_paths, n_nodes) state at t_k, u the step's control block (see
    _block_control), db_k the paths' Brownian increments (n_paths,) and
    counts_k[a] their event counts (n_paths,) of atom a of levy.  The
    operator is assembled at t_k, one per path when it depends on the
    control, unless a time-invariant one is passed as assembled.  Returns the
    state at t_{k+1} with the Dirichlet data imposed.
    """
    t = tgrid.time(k)
    dt = tgrid.dt
    xs = grid.nodes()
    rhs = _explicit_rhs(coeffs, t, xs, Y, u, z, dt, db_k, counts_k, levy)
    A = assembled if assembled is not None else _step_operator(op, grid, t, u, z, len(Y))
    Y = A.solve_implicit(dt, rhs)
    t_next = tgrid.time(k + 1)
    Y[:, 0] = coeffs.boundary(t_next, xs[0])
    Y[:, -1] = coeffs.boundary(t_next, xs[-1])
    return Y


def _sweep(coeffs, op, control, z, grid: SpatialGrid, tgrid: TimeGrid, db, counts, levy, chaos):
    """Drive step_forward over the time grid for the block of paths with
    Brownian increments db (n_paths, n_steps) and event counts counts[a]
    (n_paths, n_steps) of atom a of levy.

    Yields (t_k, Y, u, m) at every node k = 0..n_steps: the state block, the
    control of the step from t_k (None at the last node) and the insider mean.
    """
    xs = grid.nodes()
    dt = tgrid.dt
    y0 = np.asarray(coeffs.xi(xs, z), dtype=float) if coeffs.xi is not None else np.zeros_like(xs)
    Y = np.tile(np.broadcast_to(y0, (grid.n_nodes,)), (len(db), 1))
    Y[:, 0] = coeffs.boundary(tgrid.t_start, xs[0])
    Y[:, -1] = coeffs.boundary(tgrid.t_start, xs[-1])
    m = np.zeros(len(db))
    assembled = None
    if op.time_invariant and not op.control_dependent:
        assembled = assemble_operator(op, grid, tgrid.t_start, 0.0, z)
    for k in range(tgrid.n_steps):
        t = tgrid.time(k)
        u = _block_control(control, k, t, xs, z, m)
        yield t, Y, u, m
        db_k, counts_k = db[:, k], [c[:, k] for c in counts]
        Y = step_forward(
            Y, k, u, coeffs=coeffs, op=op, grid=grid, tgrid=tgrid, z=z,
            db_k=db_k, counts_k=counts_k, levy=levy, assembled=assembled,
        )
        m = advance_mean(chaos, m, t, dt, db_k, counts_k, levy)
    yield tgrid.time(tgrid.n_steps), Y, None, m


def solve_forward(
    coeffs: CoefficientSet,
    op: OperatorSpec,
    control: ControlPolicy,
    z,
    bundle: PathBundle,
    grid: SpatialGrid,
    *,
    chaos=None,
) -> StateField:
    """Forward solve on one noise path, recording every time slice.

    The path is an ensemble of one: the sweep of step_forward over the
    bundle's Brownian increments and its per-atom event counts.  Raises
    ModelMismatch when chaos jumps on another LevySpec than the bundle.
    """
    db, counts = _bundle_noise(bundle)
    sweep = _sweep(coeffs, op, control, z, grid, bundle.grid, db, counts, bundle.levy, chaos)
    values = np.empty((bundle.grid.n_steps + 1, grid.n_nodes))
    for k, (_, Y, _, _) in enumerate(sweep):
        values[k] = Y[0]
    return StateField(grid=grid, tgrid=bundle.grid, z=z, values=values)


def weak_residual(
    field: StateField,
    phi,
    coeffs: CoefficientSet,
    op: OperatorSpec,
    control: ControlPolicy,
    bundle: PathBundle,
    z,
    *,
    chaos=None,
) -> float:
    """Discrete defect of the weak form tested against phi.

    Left-endpoint evaluation throughout, so the defect of the solver's own
    output (and of any injected exact solution) shrinks at first order in dt.
    """
    grid = field.grid
    tgrid = field.tgrid
    phi = np.asarray(phi, dtype=float)
    if phi[0] != 0.0 or phi[-1] != 0.0:
        raise ValueError("test function must vanish at the boundary nodes")
    xs = grid.nodes()
    dt = tgrid.dt
    db, counts = _bundle_noise(bundle)
    m = np.zeros(1)

    acc = grid.inner(field.values[-1], phi) - grid.inner(field.values[0], phi)
    for k in range(tgrid.n_steps):
        t = tgrid.time(k)
        Y = field.values[k][None]
        u = _block_control(control, k, t, xs, z, m)
        counts_k = [c[:, k] for c in counts]
        explicit = _explicit_rhs(coeffs, t, xs, Y, u, z, dt, db[:, k], counts_k, bundle.levy) - Y
        A = _step_operator(op, grid, t, u, z, 1)
        acc -= grid.inner((dt * A.apply(Y) + explicit)[0], phi)
        m = advance_mean(chaos, m, t, dt, db[:, k], counts_k, bundle.levy)
    return abs(acc)
