"""Finite-difference solver for the z-parametrized controlled forward SPDE on
an interval with Dirichlet data.

Scheme: semi-implicit Euler-Maruyama, implicit in the linear operator and
explicit in drift, noise and jump terms, second-order central differences in
space.  The left-endpoint rule is used for every stochastic sum.

There is one stepper, step_forward, and it advances a block of paths held as
an (n_paths, n_nodes) array; a single-path solve is an ensemble of one.  One
Levy measure, OperatorSpec.levy, drives every jump of a run: jumps enter as
per-atom event counts N_a over a step, compensated by lam_a dt, in the state
and in the compensated insider mean m(t) (insider_means) alike.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dgbsv, dgtsv

from .errors import (
    CoefficientShapeMismatch,
    ControlShapeMismatch,
    LinearSolveFailure,
    ModelMismatch,
    NonParabolic,
)
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
    "insider_means",
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
    """Linear integro-differential operator acting in x, and the model's Levy
    measure.

    second_coeff/first_coeff: callables (t, x, u, z) -> real.  jump_shift,
    when present, is a callable (t, x, u, z, zeta) -> shift amount for the
    nonlocal part, with atom weights taken from levy.  levy is the measure of
    every jump of a forward run: the event counts a run draws, the state's
    jump term c and, with jump_shift, the nonlocal part.  A jumping insider
    variable or a PathBundle on another measure raises ModelMismatch
    (_check_measure).  Every callable must
    broadcast u against the node array x of shape (n,): u is a scalar or an
    (n,) array for one operator, and an (n_paths, 1) or (n_paths, n) control
    stack when one operator per path is assembled.  It acts on interior nodes
    only, so the boundary rows of I - dt A are identity rows.

    Whether the operator depends on t or u is read from the callables' values
    (see _step_operator), never declared.  control_dependent is inert: no
    routine reads it, and it is kept only so that existing calls that pass
    it still construct.
    """

    second_coeff: object
    first_coeff: object
    jump_shift: object = None
    levy: LevySpec = field(default_factory=LevySpec)
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
    """What a control rule may look at besides its step, time, nodes and z:
    the compensated insider mean.

    m is a read-only (n_paths,) array, one entry per path of the block the
    rule is evaluated for (a single path is a block of one): a row of the
    block's insider_means, which every control swept on the block shares.
    """

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
    values: np.ndarray  # (n_steps + 1, n_nodes)


def _write_csv(path, header, rows):
    """A table CSV in csv.writer's format, one line per row of rows, every
    float as its repr."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([repr(float(v)) if isinstance(v, float) else v for v in row])


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
    """Discretized operator stored as diagonals.

    bands[j][..., i] is the coefficient of v[i + j - kl] in row i, for
    j = 0..kl+ku; an entry whose column falls outside the grid is zero.  A
    single operator has bands of shape (kl + ku + 1, n), a stack of per-path
    operators (kl + ku + 1, n_paths, n).  The central-difference stencil is
    kl = ku = 1; a nonlocal part adds diagonals.  An assembled operator has
    zero boundary rows, so those of I - dt A are identity rows; Dirichlet
    data is imposed by overwriting boundary nodes after each implicit solve.
    """

    def __init__(self, bands, kl):
        # read-only, so the system solve_implicit forms from them cannot go stale
        bands.flags.writeable = False
        self.bands = bands
        self.kl = kl
        self.ku = len(bands) - 1 - kl
        self._system = None  # (dt, _implicit_system at dt) of a single operator

    def apply(self, v):
        v = np.asarray(v, dtype=float)
        out = self.bands[self.kl] * v
        for j, band in enumerate(self.bands):
            if j != self.kl:
                out += band * _shifted(v, self.kl - j)
        return out

    def dense(self):
        n = self.bands.shape[-1]
        mat = np.zeros(self.bands.shape[1:] + (n,))
        for j, band in enumerate(self.bands):
            o = j - self.kl
            rows = np.arange(max(0, -o), min(n, n - o))
            mat[..., rows, rows + o] = band[..., rows]
        return mat

    def transposed(self) -> AssembledOperator:
        """A^T, one or a stack: (A^T)[i, i + j - ku] = A[i + j - ku, i]."""
        kl, ku = self.kl, self.ku
        return AssembledOperator(
            np.stack([_shifted(self.bands[kl + ku - j], ku - j) for j in range(kl + ku + 1)]), ku
        )

    def solve_implicit(self, dt, rhs):
        """Solve (I - dt A) y = rhs: dgtsv for a tridiagonal A, else dgbsv.

        For a single operator rhs is a vector or an (n_rhs, n) array, one
        right-hand side per row, solved in one call.  For a stack of n_paths
        operators rhs is (n_paths, n) and row p is solved with operator p;
        the paths are laid end to end, _CHUNK_BYTES of band storage per call.
        That is exact, as entries off the grid are zero and the boundary rows
        of I - dt A are identity rows: LAPACK never pivots or eliminates
        across paths, and each row is bit-identical to its path solved alone.
        A single operator forms I - dt A once per dt and reuses it while dt
        stays the same; a stack is formed afresh on every call.
        """
        rhs = np.asarray(rhs, dtype=float)
        n_diag, kl = len(self.bands), self.kl
        if self.bands.ndim == 2:
            if self._system is None or self._system[0] != dt:
                self._system = dt, _implicit_system(self.bands, kl, dt)
            return _solve_system(self._system[1], rhs.T).T
        n_paths, n = self.bands.shape[1:]
        if rhs.shape != (n_paths, n):
            raise ValueError(f"rhs of shape {rhs.shape} for operators of shape {(n_paths, n)}")
        chunk = max(1, _CHUNK_BYTES // (8 * (n_diag + kl) * n))  # dgbsv stores n_diag + kl rows
        y = np.empty_like(rhs)
        for lo in range(0, n_paths, chunk):
            part = self.bands[:, lo : lo + chunk].reshape(n_diag, -1)
            y[lo : lo + chunk] = _band_solve(part, kl, dt, rhs[lo : lo + chunk].reshape(-1)).reshape(-1, n)
        return y


# band storage of the paths one LAPACK call solves.  Zero diagonals change no
# column-by-column LU, but dgbsv's blocked one (ku > 64, kl >= 32) rounds by
# the band's width; an assembled band has ku <= n - 2, so such a band takes
# over half of this per path and is solved alone, cut to its own width
_CHUNK_BYTES = 2**17


def _band_solve(bands, kl, dt, b):
    """Solve (I - dt M) y = b for M given by diagonals as in AssembledOperator
    over len(b) rows; b is a vector or one column per right-hand side."""
    return _solve_system(_implicit_system(bands, kl, dt), b)


def _implicit_system(bands, kl, dt):
    """I - dt M, for M given by diagonals as in AssembledOperator, as the
    LAPACK routine that solves it and that routine's leading arguments:
    dgtsv with (dl, d, du) for a tridiagonal M, else dgbsv with (kl, ku, ab).
    Both routines copy these inputs before they factor, so one system can be
    solved any number of times."""
    if kl == 1 and len(bands) == 3:
        return dgtsv, (-dt * bands[0, 1:], 1.0 - dt * bands[1], -dt * bands[2, :-1])
    # outer diagonals zero on every row are dropped; I - dt M goes to the
    # column-major ab[kl + ku + i - c, c] of dgbsv (kl rows of fill-in
    # first) as buf[c + kl, 2 kl + ku - j] for entry (i, c = i + j - kl)
    j = np.flatnonzero(np.any(bands != 0.0, axis=1) | (np.arange(len(bands)) == kl))
    bands, kl = bands[j[0] : j[-1] + 1], kl - j[0]
    ku, cols = len(bands) - 1 - kl, bands.shape[1]
    buf = np.zeros((cols + kl + ku, 2 * kl + ku + 1))
    diagonals = np.lib.stride_tricks.as_strided(
        buf.reshape(-1)[2 * kl + ku :], bands.shape, (buf.strides[0] - 8, buf.strides[0])
    )
    np.multiply(bands, -dt, out=diagonals)
    diagonals[kl] += 1.0
    return dgbsv, (kl, ku, buf[kl : kl + cols].T)


def _solve_system(system, b):
    """Solve a system from _implicit_system for b, a vector or one column per
    right-hand side; the system is left as it was."""
    routine, args = system
    *_, y, info = routine(*args, b)
    if info:
        raise LinearSolveFailure(f"zero pivot in row {info} of a banded solve")
    if not np.isfinite(y).all():
        raise LinearSolveFailure("implicit solve produced non-finite values")
    return y


def _shifted(band, o):
    """band moved o places along its last axis, zero-filled:
    _shifted(band, o)[..., i] = band[..., i - o]."""
    out = np.zeros_like(band)
    n = band.shape[-1]
    out[..., max(o, 0) : n + min(o, 0)] = band[..., max(-o, 0) : n - max(o, 0)]
    return out


def assemble_operator(op: OperatorSpec, grid: SpatialGrid, t, u_field, z) -> AssembledOperator:
    """Central-difference discretization of the operator at time t.

    u_field is a scalar or per-node array of control values, or an (n_paths,
    1) or (n_paths, n_nodes) control stack.  The output is sized by what the
    coefficients return, broadcast against the nodes: one operator when no
    coefficient value carries the paths' axis, whatever u_field is, else a
    stack of one per path (see AssembledOperator for the resulting shapes).
    The nonlocal part lam [y(x + gamma) - y(x) - gamma y'(x)] interpolates
    y(x + gamma) linearly; it adds the diagonals its interpolation nodes reach.
    """
    xs = grid.nodes()
    n = grid.n_nodes
    dx = grid.dx
    s = np.asarray(op.second_coeff(t, xs, u_field, z), dtype=float)
    f = np.asarray(op.first_coeff(t, xs, u_field, z), dtype=float)
    atoms = op.levy.atoms if op.jump_shift is not None else ()
    gams = [np.asarray(op.jump_shift(t, xs, u_field, z, mark), dtype=float) for mark, _ in atoms]
    shape = np.broadcast_shapes(xs.shape, s.shape, f.shape, *(g.shape for g in gams))
    s, f = np.broadcast_to(s, shape), np.broadcast_to(f, shape)
    if np.any(s < -1e-12):
        raise NonParabolic(f"second-order coefficient has minimum {s.min():.3e} < 0")
    s = np.maximum(s, 0.0)

    rows = np.arange(1, n - 1)
    jumps = []  # per atom: rate, interpolation offset idx - i, weight, shift
    for (_, lam), gam in zip(atoms, gams):
        gam = np.broadcast_to(gam, shape)
        shifted = np.clip(xs + gam, grid.x_left, grid.x_right)
        idx = np.clip(np.searchsorted(xs, shifted) - 1, 0, n - 2)
        w = (shifted - xs[idx]) / dx
        jumps.append((lam, idx[..., 1:-1] - rows, w[..., 1:-1], gam[..., 1:-1]))
    kl = ku = 1
    if jumps:
        # a nonlocal part always takes dgbsv, even within one cell, so a path
        # solved alone rounds as it does in a stack of wider operators
        kl = max(2, -min(int(off.min()) for _, off, _, _ in jumps))
        ku = max(2, max(int(off.max()) + 1 for _, off, _, _ in jumps))
    bands = np.zeros((kl + ku + 1,) + shape)
    # the nonlocal part on interior rows, atom by atom, in the update order
    # of a row-by-row assembly; each update touches every (path, row) once,
    # so fancy-index += is exact and gives the same sums
    size = bands[0].size
    if jumps:
        cells = np.arange(0, size, n).reshape(shape[:-1] + (1,)) + rows  # flat index of (path, row)
    for lam, off, w, gam in jumps:
        near = (kl + off) * size + cells  # entry of interpolation node idx
        bands.reshape(-1)[near] += lam * (1.0 - w)
        bands.reshape(-1)[near + size] += lam * w
        bands[kl][..., 1:-1] -= lam
        bands[kl - 1][..., 1:-1] += lam * gam / (2.0 * dx)
        bands[kl + 1][..., 1:-1] -= lam * gam / (2.0 * dx)
    s, f = s[..., 1:-1], f[..., 1:-1]
    diffusion, advection = s / dx**2, f / (2.0 * dx)
    bands[kl - 1][..., 1:-1] += diffusion - advection
    bands[kl][..., 1:-1] += -2.0 * s / dx**2
    bands[kl + 1][..., 1:-1] += diffusion + advection
    return AssembledOperator(bands, kl)


def _has_jumps(chaos) -> bool:
    return chaos is not None and not chaos.is_gaussian


def _check_measure(op: OperatorSpec, chaos, bundle: PathBundle | None = None):
    """Raise ModelMismatch unless every jump of a run is on op.levy: those of
    a jumping insider variable chaos and the bundle's event counts."""
    if _has_jumps(chaos) and chaos.levy != op.levy:
        raise ModelMismatch(f"insider variable jumps on {chaos.levy} but op.levy is {op.levy}")
    if bundle is not None and bundle.levy != op.levy:
        raise ModelMismatch(f"bundle is drawn on {bundle.levy} but op.levy is {op.levy}")


def _bundle_noise(bundle: PathBundle):
    """A bundle's noise as an ensemble of one: Brownian increments (1,
    n_steps) and one (1, n_steps) array of event counts per atom of
    bundle.levy, as brownian_increment_matrix and jump_count_matrices give."""
    return bundle.brownian_increments[None], [n[None] for n in bundle.jump_counts]


def insider_means(chaos, tgrid: TimeGrid, db, counts=()) -> np.ndarray:
    """Compensated insider mean m(t_k) at every node k = 0..n_steps of the
    block of paths with Brownian increments db (n_paths, n_steps) and event
    counts counts[a] (n_paths, n_steps) of atom a of chaos.levy, as one
    read-only (n_steps + 1, n_paths) array.

    m(t_0) = 0, and the step [t, t + dt) adds beta(t) dB + sum_a psi(t,
    mark_a) (N_a - lam_a dt).  Every integrand is taken at the left endpoint
    t, the compensator's too, so the compensator int psi lam ds is the
    left-endpoint rule.  A Gaussian chaos reads no counts; a jumping one reads
    the state's, drawn on op.levy, which the forward routines check to be
    chaos.levy once per run (_check_measure).  chaos None gives zeros.  m
    depends on the noise only, never on a control, so it is computed once
    per block and shared by every control swept on it.
    """
    m = np.zeros((tgrid.n_steps + 1, len(db)))
    if chaos is not None:
        for k, t in enumerate(tgrid.nodes[:-1]):
            m_k = m[k] + chaos.beta(t) * db[:, k]
            if _has_jumps(chaos):
                for a, (mark, lam) in enumerate(chaos.levy.atoms):
                    m_k = m_k + chaos.psi(t, mark) * counts[a][:, k] - tgrid.dt * lam * chaos.psi(t, mark)
            m[k + 1] = m_k
    m.flags.writeable = False
    return m


def _block_control(control: ControlPolicy, k, t, xs, z, m):
    """Control values at step k for the block of len(m) paths, whose insider
    mean at t is m (a row of insider_means), shaped to
    broadcast against the (n_paths, n_nodes) state block: an x-dependent rule
    gives one profile (n_nodes,) shared by all paths, read as a read-only
    (n_paths, n_nodes) view, or one per path (n_paths, n_nodes); an
    x-independent rule gives one value per path (n_paths,), read as an
    (n_paths, 1) column.  Either may return a scalar, kept 0-d."""
    u = control.values(k, t, xs, z, PathHistory(m=m))
    nb, n_nodes = len(m), len(xs)
    shape = u.shape
    if shape == ():
        return u
    if control.mode == "x-dependent":
        if shape == (n_nodes,):
            return np.broadcast_to(u, (nb, n_nodes))
        if shape == (nb, n_nodes):
            return u
    elif shape == (nb,):
        return u[:, None]
    raise ControlShapeMismatch(
        f"{control.mode} control rule returned shape {shape} for {nb} paths on {n_nodes} nodes"
    )


def _explicit_rhs(coeffs: CoefficientSet, op: OperatorSpec, t, xs, Y, u, z, dt, db_k, counts_k):
    """Y + dt a + b dB, then + c(mark_a) (N_a - lam_a dt) atom by atom of
    op.levy.  Results depend on this order of the sums at round-off; keep it.
    The sums are taken in place on a copy of the state block Y, so a
    coefficient value that does not broadcast to Y's shape, or would widen
    it, raises CoefficientShapeMismatch."""
    # the callables run outside the try: an error of their own is not renamed
    a = np.asarray(coeffs.a(t, xs, Y, u, z), dtype=float)
    b = np.asarray(coeffs.b(t, xs, Y, u, z), dtype=float)
    c = [] if coeffs.c is None else [
        np.asarray(coeffs.c(t, xs, Y, u, z, mark), dtype=float) for mark, _ in op.levy.atoms
    ]
    rhs = Y.copy()
    try:
        rhs += dt * a
        rhs += b * db_k[:, None]
        for i, (cv, (_, lam)) in enumerate(zip(c, op.levy.atoms)):
            rhs += cv * (counts_k[i] - dt * lam)[:, None]
    except ValueError as exc:
        raise CoefficientShapeMismatch(
            f"a coefficient value does not fit the state block of shape {Y.shape}: {exc}"
        ) from None
    return rhs


def _step_operator(op: OperatorSpec, grid: SpatialGrid, xs, t, u, z, prev=None):
    """The operator at (t, u) and the coefficient values it is built from.

    assemble_operator gives one operator per path when a value carries the
    paths' axis of the control block u and one shared operator when none
    does.  prev is the previous step's (operator, values) pair: the operator
    is a function of these values alone, so prev is handed back when every
    value is the same object or equal elementwise, and an operator constant
    in t and u is assembled once per sweep.
    """
    values = (op.second_coeff(t, xs, u, z), op.first_coeff(t, xs, u, z))
    if op.jump_shift is not None:
        values += tuple(op.jump_shift(t, xs, u, z, mark) for mark, _ in op.levy.atoms)
    if prev and all(map(_same_value, values, prev[1])):
        return prev
    return assemble_operator(op, grid, t, u, z), values


def _same_value(a, b):
    """a is b, or a and b have one shape and are equal elementwise; checked
    in that order, as the identity test is the cheap one."""
    return a is b or (np.shape(a) == np.shape(b) and np.all(a == b))


def step_forward(
    Y,
    k,
    u,
    *,
    coeffs: CoefficientSet,
    op: OperatorSpec,
    xs,
    tgrid: TimeGrid,
    z,
    db_k,
    counts_k,
    assembled: AssembledOperator,
):
    """One semi-implicit step of a block of paths from node k to k+1.

    Y is the (n_paths, n_nodes) state at t_k on the grid nodes xs, u the
    step's control block (see _block_control), db_k the paths' Brownian
    increments (n_paths,) and counts_k[a] their event counts (n_paths,) of
    atom a of op.levy.  assembled is the operator at (t_k, u), as _sweep
    passes it from _step_operator.  Returns the state at t_{k+1} with the
    Dirichlet data imposed.
    """
    t, t_next = tgrid.nodes[k : k + 2]
    dt = tgrid.dt
    rhs = _explicit_rhs(coeffs, op, t, xs, Y, u, z, dt, db_k, counts_k)
    Y = assembled.solve_implicit(dt, rhs)
    Y[:, 0] = coeffs.boundary(t_next, xs[0])
    Y[:, -1] = coeffs.boundary(t_next, xs[-1])
    return Y


def _sweep(coeffs, op, control, z, grid: SpatialGrid, tgrid: TimeGrid, db, counts, means):
    """Drive step_forward over the time grid for the block of paths with
    Brownian increments db (n_paths, n_steps) and event counts counts[a]
    (n_paths, n_steps) of atom a of op.levy.  means is the block's
    insider_means, computed once per block by the caller and read-only, so
    every control swept on the block sees the same m(t_k) in PathHistory.m.

    Yields (t_k, Y, u) at every node k = 0..n_steps: the state block and the
    control of the step from t_k (None at the last node).  Each step's
    operator comes from _step_operator at (t_k, u), which hands back the
    previous one while the coefficient values stay the same.
    """
    xs = grid.nodes()
    y0 = np.asarray(coeffs.xi(xs, z), dtype=float) if coeffs.xi is not None else np.zeros_like(xs)
    Y = np.tile(np.broadcast_to(y0, (grid.n_nodes,)), (len(db), 1))
    Y[:, 0] = coeffs.boundary(tgrid.t_start, xs[0])
    Y[:, -1] = coeffs.boundary(tgrid.t_start, xs[-1])
    operator = None
    for k, t in enumerate(tgrid.nodes[:-1]):
        u = _block_control(control, k, t, xs, z, means[k])
        yield t, Y, u
        operator = _step_operator(op, grid, xs, t, u, z, operator)
        Y = step_forward(
            Y, k, u, coeffs=coeffs, op=op, xs=xs, tgrid=tgrid, z=z,
            db_k=db[:, k], counts_k=[c[:, k] for c in counts], assembled=operator[0],
        )
    yield tgrid.nodes[-1], Y, None


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
    ModelMismatch when the bundle, or a jumping chaos, is on another
    LevySpec than op.levy.
    """
    _check_measure(op, chaos, bundle)
    db, counts = _bundle_noise(bundle)
    means = insider_means(chaos, bundle.grid, db, counts)
    sweep = _sweep(coeffs, op, control, z, grid, bundle.grid, db, counts, means)
    values = np.empty((bundle.grid.n_steps + 1, grid.n_nodes))
    for k, (_, Y, _) in enumerate(sweep):
        values[k] = Y[0]
    return StateField(grid=grid, tgrid=bundle.grid, values=values)


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
    The bundle and a jumping chaos must be on op.levy (else ModelMismatch).
    """
    _check_measure(op, chaos, bundle)
    grid = field.grid
    tgrid = field.tgrid
    phi = np.asarray(phi, dtype=float)
    if phi[0] != 0.0 or phi[-1] != 0.0:
        raise ValueError("test function must vanish at the boundary nodes")
    xs = grid.nodes()
    dt = tgrid.dt
    db, counts = _bundle_noise(bundle)
    means = insider_means(chaos, tgrid, db, counts)

    acc = grid.inner(field.values[-1], phi) - grid.inner(field.values[0], phi)
    for k, t in enumerate(tgrid.nodes[:-1]):
        Y = field.values[k][None]
        u = _block_control(control, k, t, xs, z, means[k])
        counts_k = [c[:, k] for c in counts]
        explicit = _explicit_rhs(coeffs, op, t, xs, Y, u, z, dt, db[:, k], counts_k) - Y
        A = _step_operator(op, grid, xs, t, u, z)[0]
        acc -= grid.inner((dt * A.apply(Y) + explicit)[0], phi)
    return abs(acc)
