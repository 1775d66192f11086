"""Finite-difference solver for the z-parametrized controlled forward SPDE on
an interval with Dirichlet data.

Scheme: semi-implicit Euler-Maruyama, implicit in the linear operator and
explicit in drift, noise and jump terms, second-order central differences in
space.  The left-endpoint rule is used for every stochastic sum.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_banded

from .errors import LinearSolveFailure, NonParabolic
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

    m is a scalar for single-path solves and an array for ensembles.
    """

    t: float
    m: object = 0.0


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
        if np.any(val < lo - 1e-12) or np.any(val > hi + 1e-12):
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
        ts = self.tgrid.times()
        xs = self.grid.nodes()
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["t", "x", "value"])
            for k, t in enumerate(ts):
                for i, x in enumerate(xs):
                    w.writerow([repr(float(t)), repr(float(x)), repr(float(self.values[k, i]))])


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
            if self.stacked:
                out = out + (self.dense_part @ v[..., None])[..., 0]
            else:
                out = out + self.dense_part @ v
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

    def apply_transpose(self, v):
        """Transpose action on one vector; single operators only."""
        return self.dense().T @ np.asarray(v, dtype=float)

    def solve_implicit(self, dt, rhs):
        """Solve (I - dt A) y = rhs.

        For a single operator rhs is a vector or an (n_rhs, n) array of
        right-hand sides, one per row.  For a stack of n_paths operators rhs
        is (n_paths, n) and row p is solved with operator p.
        """
        rhs = np.asarray(rhs, dtype=float)
        if self.stacked:
            return self._solve_stacked(dt, rhs)
        try:
            if self.dense_part is None:
                ab = np.zeros((3, self.n))
                ab[0, 1:] = -dt * self.upper[:-1]
                ab[1] = 1.0 - dt * self.diag
                ab[2, :-1] = -dt * self.lower[1:]
                if rhs.ndim == 1:
                    return solve_banded((1, 1), ab, rhs)
                return solve_banded((1, 1), ab, rhs.T).T
            mat = np.eye(self.n) - dt * self.dense()
            if rhs.ndim == 1:
                return np.linalg.solve(mat, rhs)
            return np.linalg.solve(mat, rhs.T).T
        except (np.linalg.LinAlgError, ValueError) as exc:
            raise LinearSolveFailure(str(exc)) from exc

    def _solve_stacked(self, dt, rhs):
        if rhs.shape != self.diag.shape:
            raise ValueError(f"rhs of shape {rhs.shape} for operators of shape {self.diag.shape}")
        if self.dense_part is not None:
            mat = np.eye(self.n) - dt * self.dense()
            try:
                y = np.linalg.solve(mat, rhs[..., None])[..., 0]
            except np.linalg.LinAlgError as exc:
                raise LinearSolveFailure(str(exc)) from exc
        else:
            y = _thomas(-dt * self.lower, 1.0 - dt * self.diag, -dt * self.upper, rhs)
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


def _jump_contribution(coeffs, bundle, k, t, xs, y, u, z):
    """Realized compensated jump increment of the c-term at step k."""
    if coeffs.c is None:
        return 0.0
    out = 0.0
    for mark in bundle.jump_events[k]:
        out = out + coeffs.c(t, xs, y, u, z, mark)
    for mark, lam in bundle.levy.atoms:
        out = out - bundle.grid.dt * lam * coeffs.c(t, xs, y, u, z, mark)
    return out


def _advance_history(hist, chaos, bundle, k):
    """Update the compensated insider mean across step k."""
    grid = bundle.grid
    t = grid.time(k)
    if chaos is None:
        return PathHistory(t=grid.time(k + 1), m=hist.m)
    m = hist.m + chaos.beta(t) * bundle.brownian_increments[k]
    if chaos.psi is not None and chaos.levy.atoms:
        for mark in bundle.jump_events[k]:
            m += chaos.psi(t, mark)
        for mark, lam in chaos.levy.atoms:
            m -= grid.dt * lam * chaos.psi(t, mark)
    return PathHistory(t=grid.time(k + 1), m=m)


def step_forward(
    y,
    k,
    *,
    coeffs: CoefficientSet,
    op: OperatorSpec,
    control: ControlPolicy,
    grid: SpatialGrid,
    bundle: PathBundle,
    z,
    hist: PathHistory | None = None,
    assembled: AssembledOperator | None = None,
):
    """One semi-implicit step from node k to k+1.  Returns the next slice."""
    tgrid = bundle.grid
    t = tgrid.time(k)
    dt = tgrid.dt
    xs = grid.nodes()
    if hist is None:
        hist = PathHistory(t=t, m=0.0)
    u = control.values(k, t, xs, z, hist)
    u_nodes = np.broadcast_to(np.asarray(u, dtype=float), (grid.n_nodes,)) \
        if control.mode == "x-dependent" else u
    rhs = (
        y
        + dt * np.broadcast_to(np.asarray(coeffs.a(t, xs, y, u, z), dtype=float), y.shape)
        + np.broadcast_to(np.asarray(coeffs.b(t, xs, y, u, z), dtype=float), y.shape)
        * bundle.brownian_increments[k]
        + _jump_contribution(coeffs, bundle, k, t, xs, y, u, z)
    )
    A = assembled if assembled is not None else assemble_operator(op, grid, t, u_nodes, z)
    y_next = A.solve_implicit(dt, rhs)
    t_next = tgrid.time(k + 1)
    y_next[0] = coeffs.boundary(t_next, xs[0])
    y_next[-1] = coeffs.boundary(t_next, xs[-1])
    return y_next


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
    """Full sweep of step_forward over the bundle's time grid."""
    tgrid = bundle.grid
    xs = grid.nodes()
    values = np.empty((tgrid.n_steps + 1, grid.n_nodes))
    y = np.asarray(coeffs.xi(xs, z), dtype=float) if coeffs.xi is not None else np.zeros_like(xs)
    y = np.broadcast_to(y, (grid.n_nodes,)).copy()
    y[0] = coeffs.boundary(tgrid.t_start, xs[0])
    y[-1] = coeffs.boundary(tgrid.t_start, xs[-1])
    values[0] = y
    hist = PathHistory(t=tgrid.t_start, m=0.0)

    assembled = None
    if op.time_invariant and not op.control_dependent:
        assembled = assemble_operator(op, grid, tgrid.t_start, 0.0, z)
    for k in range(tgrid.n_steps):
        y = step_forward(
            y, k, coeffs=coeffs, op=op, control=control, grid=grid,
            bundle=bundle, z=z, hist=hist, assembled=assembled,
        )
        values[k + 1] = y
        hist = _advance_history(hist, chaos, bundle, k)
    return StateField(grid=grid, tgrid=tgrid, z=z, values=values)


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
    hist = PathHistory(t=tgrid.t_start, m=0.0)

    acc = grid.inner(field.values[-1], phi) - grid.inner(field.values[0], phi)
    for k in range(tgrid.n_steps):
        t = tgrid.time(k)
        y = field.values[k]
        u = control.values(k, t, xs, z, hist)
        u_nodes = u if control.mode == "x-independent" else np.broadcast_to(u, (grid.n_nodes,))
        A = assemble_operator(op, grid, t, u_nodes, z)
        acc -= dt * grid.inner(y, A.apply_transpose(phi))
        acc -= dt * grid.inner(np.broadcast_to(np.asarray(coeffs.a(t, xs, y, u, z), dtype=float), y.shape), phi)
        acc -= grid.inner(
            np.broadcast_to(np.asarray(coeffs.b(t, xs, y, u, z), dtype=float), y.shape), phi
        ) * bundle.brownian_increments[k]
        jump = _jump_contribution(coeffs, bundle, k, t, xs, y, u, z)
        if np.ndim(jump) or jump != 0.0:
            acc -= grid.inner(np.broadcast_to(np.asarray(jump, dtype=float), y.shape), phi)
        hist = _advance_history(hist, chaos, bundle, k)
    return abs(acc)
