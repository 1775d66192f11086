"""Conditional moments of the delta functional of a first-order-chaos variable.

The insider variable is Z = int_0^{T0} beta dB + int_0^{T0} int psi dN~.  Its
conditional density given the flow at time t < T0, and the associated
Brownian / jump stochastic-derivative moments, are evaluated by Fourier
quadrature in the transform variable.  All moments depend on the realized
history only through the compensated scalar

    m(t) = int_0^t beta dB + sum_jumps psi(s_j, z_j) - int_0^t sum_i psi(s, z_i) lam_i ds,

which is what makes vectorized evaluation over ensembles cheap.

Every moment takes the time t and the mean m = m(t), which
forward.insider_means computes for each path of a run, and returns a Python
float for a scalar t and m and an ndarray otherwise, on every route.  t may
be an (n, 1) column of times, one per row of m, so that a block's weights at
all of its nodes are one call: the quadrature then makes one Fourier pass for
all the times and moments of the call (phi1_from_mean's density and Brownian
moment share theirs), and each row equals its scalar-t call bit for bit.  A
scalar t is the 0-d case of that route: its t-only factors are a memoized
0-d array, and its quadrature a column of one time.
For purely Gaussian specifications (no jump component) every moment has a
closed form; delta_from_mean and conditional_malliavin_b keep the quadrature
route selectable (method=) for cross-validation.

The residual variance sigma^2(t) = int_t^{T0} beta^2 ds comes from a built-in
globally adaptive nested Clenshaw-Curtis 8/16 rule, and the transform
integrals from the weights of scipy's composite Simpson rule, summed over a
phase split into baby and giant steps so that each value of m costs a few
small products and rounds the same whatever the other values beside it.  Both
rules are local so that importing the library does not load scipy's
integration subpackage, which brings scipy's optimize and special subpackages
with it.
"""
from __future__ import annotations

import functools
import logging
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateVariance, DivisionUnstable, ModelMismatch, QuadratureFailure, UnknownMark
from .noise import LevySpec, TimeGrid

__all__ = [
    "FirstOrderChaosSpec",
    "delta_from_mean",
    "conditional_malliavin_b",
    "conditional_malliavin_n",
    "phi1_from_mean",
    "gaussian_phi1",
]

log = logging.getLogger(__name__)

EPS_VAR = 1e-12
NEG_CLAMP_REL = 1e-10
# exp(-37) ~ 9e-17: transform truncated where Gaussian damping is below this
_TAIL_EXPONENT = 37.0
_TIME_QUAD_NODES = 64
_FIRST_X_NODES = 257
_MAX_X_NODES = 2**21 + 1
# bytes of one chunk of a Fourier level's temporaries (_fourier_moment), at
# least one item: per time its nodes and transform rows, or its jump
# exponent's phase steps, per entry its baby and giant steps and its
# stage-one products.  Chunks this small keep the temporaries on the heap:
# one time's 1024 entries take no page faults per call, where a single
# chunk took about 300
_CHUNK_BYTES = 2**18
# Fourier quadrature: stop once two Simpson levels agree to within this
_FOURIER_TOL = 1e-10
# sigma^2(t): stop once the summed panel error estimates are below
# max(_SIGMA2_EPSABS, _SIGMA2_EPSREL * |integral|); fail beyond _MAX_PANELS panels
_SIGMA2_EPSABS = 1e-13
_SIGMA2_EPSREL = 1e-12
_MAX_PANELS = 50


@functools.cache
def _cc_rule():
    """Nested Clenshaw-Curtis rule on [-1, 1] without its midpoint: the 16
    nodes cos(k pi/16), k != 8, taken as sin((8 - k) pi/16) so the ends are
    exactly +-1, their 16-interval weights, and the differences from the
    8-interval rule, whose nodes are the even k.  Weights from the closed
    formula w_k = c_k/n (1 - sum_j b_j cos(2 j k pi/n) / (4 j^2 - 1))."""

    def weights(n):
        k = np.arange(n + 1)
        j = np.arange(1, n // 2 + 1)
        b = np.where(j == n // 2, 1.0, 2.0)
        w = 1.0 - (b / (4.0 * j * j - 1.0)) @ np.cos(2.0 * np.pi * np.outer(j, k) / n)
        return np.where((k == 0) | (k == n), 1.0, 2.0) / n * w

    k = np.arange(17)
    w16 = weights(16)
    diff = w16.copy()
    diff[::2] -= weights(8)
    off = k != 8
    return np.sin((8 - k[off]) * np.pi / 16).tolist(), w16[off].tolist(), diff[off].tolist()


def _cc_panel(f, a, b):
    """(error estimate, integral, a, b) of f on [a, b] by the 16-interval rule; the
    error is its distance to the 8-interval rule.  Both weight sets sum to 2, so
    the sums run over f minus its midpoint value: a constant f gives (b - a) f
    and error 0 exactly."""
    x, w, d = _cc_rule()
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    fc = f(c)
    dev = [f(c + h * xk) - fc for xk in x]
    err = abs(h * sum(map(operator.mul, d, dev)))
    return err, h * (2.0 * fc + sum(map(operator.mul, w, dev))), a, b


def _adaptive_quad(f, a, b):
    """int_a^b f for a scalar callable f: globally adaptive, bisecting the panel
    with the largest error estimate until the estimates sum to at most
    max(_SIGMA2_EPSABS, _SIGMA2_EPSREL |integral|).  f is evaluated at both ends."""
    panels = [_cc_panel(f, a, b)]
    while True:
        total = sum(p[1] for p in panels)
        err = sum(p[0] for p in panels)
        if not (math.isfinite(total) and math.isfinite(err)):
            raise QuadratureFailure(f"non-finite integrand on [{a}, {b}]")
        if err <= max(_SIGMA2_EPSABS, _SIGMA2_EPSREL * abs(total)):
            return total
        if len(panels) == _MAX_PANELS:
            raise QuadratureFailure(f"error estimate {err:.3e} after {_MAX_PANELS} panels on [{a}, {b}]")
        worst = max(panels)  # the panel with the largest error estimate
        panels.remove(worst)
        lo, hi = worst[2:]
        mid = 0.5 * (lo + hi)
        panels += [_cc_panel(f, lo, mid), _cc_panel(f, mid, hi)]


@dataclass(frozen=True)
class FirstOrderChaosSpec:
    """Coefficients (beta, psi, levy, T0) of the insider variable."""

    beta: object  # callable s -> float, finite and nonvanishing on [0, T0]
    psi: object = None  # callable (s, mark) -> float, or None for no jump part
    levy: LevySpec = LevySpec()
    T0: float = 1.0
    # sigma^2(t) by float(t), and t-only factor columns by time array, 0-d
    # for a scalar t (_memo); outside the spec's equality and hash
    _sigma2: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _columns: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def is_gaussian(self) -> bool:
        return self.psi is None or not self.levy.atoms

    def residual_variance(self, t: float) -> float:
        """sigma^2(t) = int_t^{T0} beta^2 ds, integrated once per spec and time."""
        key = float(t)
        if key not in self._sigma2:
            self._sigma2[key] = _adaptive_quad(lambda s: self.beta(s) ** 2, t, self.T0)
        return self._sigma2[key]

    def node_column(self, times: tuple, atom: int | None = None) -> np.ndarray:
        """beta, or psi at the mark of levy.atoms[atom], at each time of the
        tuple times, one Python call per time, memoized per spec, times and
        atom."""
        mark = None if atom is None else self.levy.atoms[atom][0]
        f = self.beta if atom is None else lambda s: self.psi(s, mark)
        return _memo(self._columns, ("node", times, atom), lambda: np.array([f(s) for s in times], dtype=float))


@functools.cache
def _gl_rule():
    """Gauss-Legendre nodes and weights on [-1, 1], built on first use (Gaussian
    specs never need them) and rescaled to [t, T0] by _jump_exponent."""
    return np.polynomial.legendre.leggauss(_TIME_QUAD_NODES)


def _check_time(spec: FirstOrderChaosSpec, t: float) -> float:
    if t >= spec.T0:
        raise DegenerateVariance(f"evaluation time {t} not strictly before T0={spec.T0}")
    sigma2 = spec.residual_variance(t)
    if sigma2 < EPS_VAR:
        raise DegenerateVariance(f"residual variance {sigma2:.3e} below floor {EPS_VAR}")
    return sigma2


def _check_horizon(spec: FirstOrderChaosSpec, tgrid: TimeGrid) -> None:
    """t_end + dt <= T0 (to 1e-12): a weighted run keeps a step of residual variance at t_end."""
    if tgrid.t_end > spec.T0 - tgrid.dt + 1e-12:
        raise ValueError(f"horizon must stay at least one step before T0 "
                         f"(t_end={tgrid.t_end}, dt={tgrid.dt}, T0={spec.T0})")


def _jump_nodes(spec, ts):
    """The remaining-jump part of the exponent at each time of the column
    ts, one row per time: psi and lam w at the Gauss-Legendre nodes of
    [t, T0] of every atom, then sum(lam w) and (lam w) @ psi as columns.
    None for a Gaussian spec."""
    if spec.is_gaussian:
        return None
    gx, gw = _gl_rule()
    s_q, w_q = 0.5 * (spec.T0 - ts) * gx + 0.5 * (ts + spec.T0), 0.5 * (spec.T0 - ts) * gw
    # a row at a time, so that one time's values at most are Python floats
    psi = np.stack([np.array([spec.psi(s, mark) for mark, _ in spec.levy.atoms for s in row]) for row in s_q])
    wl = np.concatenate([lam * w_q for _, lam in spec.levy.atoms], axis=1)
    return psi, wl, wl.sum(axis=1, keepdims=True), np.matmul(wl[:, None, :], psi[:, :, None])[:, 0]


def _jump_exponent(jump, rows, x, nb, na):
    """g at the nodes x = k h, k = nb a + b < nb na, one row of x per time
    rows of jump (_jump_nodes): sum_j lam w_j (e^{i x psi_j} - 1 - i x psi_j).
    Per time, the first sum is one (na x J)(J x nb) product of giant and baby
    steps, stacked over the times, which go through in chunks of at most
    _CHUNK_BYTES of steps."""
    psi, wl, wl_sum, wl_psi = (a[rows] for a in jump)
    step = psi * x[:, 1:2]
    n_t, n_j = step.shape
    g = np.empty((n_t, na * nb), dtype=complex)
    for part in _chunks(n_t, 16 * n_j * (nb + na)):
        k = part.stop - part.start
        giant = _phase_powers((step[part] * nb).ravel(), na).reshape(k, n_j, na)
        baby = _phase_powers(step[part].ravel(), nb).reshape(k, n_j, nb)
        g[part] = np.matmul(giant.swapaxes(1, 2) * wl[part, None, :], baby).reshape(k, -1)
    return g[:, : x.shape[1]] - wl_sum - 1j * x * wl_psi


def _simpson_weights(x):
    """Composite Simpson weights on an odd number of strictly increasing
    nodes x, along its last axis, so that y @ w is the rule of scipy's
    simpson(y, x=x) (its uneven-spacing branch, whose guarded divisions
    never guard on such nodes) up to the order of summation."""
    h = np.diff(x, axis=-1)
    h0, h1 = h[..., 0::2], h[..., 1::2]
    hsum = h0 + h1
    h0divh1 = h0 / h1
    sixth = hsum / 6.0
    w = np.zeros_like(x)
    w[..., 0:-2:2] += sixth * (2.0 - 1.0 / h0divh1)
    w[..., 1:-1:2] = sixth * (hsum * (hsum / (h0 * h1)))
    w[..., 2::2] += sixth * (2.0 - h0divh1)
    return w


def _phase_powers(step, count):
    """e^{i step k} for k < count, one row per entry of the 1-d array step.

    cos and sin are taken at step 2^j only, which numpy evaluates faster than
    its complex exp; every power is a product of at most log2(count) of them,
    a few units of rounding.  The products run along the entries of step, so
    a row rounds the same whatever the number of rows."""
    ang = np.multiply.outer(2.0 ** np.arange(max(count - 1, 1).bit_length()), step)
    unit = np.cos(ang) + 1j * np.sin(ang)
    out = np.empty((count, step.size), dtype=complex)
    out[0] = 1.0
    k = 1
    for u in unit:
        r = min(k, count - k)
        np.multiply(out[:r], u, out=out[k:k + r])
        k += r
    return out.T.copy()


def _linspace_rows(stop, n):
    """np.linspace(0.0, s, n) for each entry s of the column stop, one row
    each, bit for bit: k (s / (n - 1)), and s itself last."""
    x = np.arange(n, dtype=float) * (stop / (n - 1))
    x[:, -1] = stop[:, 0]
    return x


def _chunks(count, item_bytes):
    """Consecutive slices that cover range(count), each of at most
    _CHUNK_BYTES // item_bytes items, at least one."""
    size = max(1, _CHUNK_BYTES // item_bytes)
    return [slice(lo, min(lo + size, count)) for lo in range(0, count, size)]


def _fourier_moment(spec, z, t, m, factors, sigma2):
    """(1/2pi) int exp(i x m + g(x) - x^2 sigma^2/2 - i x z) factor(x) dx for
    each factor of factors, in an array of shape (len(factors), *shape):
    shape is that of t and m broadcast, one row of m per time of an (n, 1)
    column t, and m's own for a scalar t, a column of one.  sigma2 is
    sigma^2 at t, of t's shape, checked by the caller.  A factor is called
    as factor(x, rows), x the nodes of the times t[rows], one row each.

    Evaluated on [0, X] using conjugate symmetry by composite Simpson on
    _FIRST_X_NODES equispaced nodes x_k = k h, doubling the node count until
    the estimate agrees with the Simpson estimate on its own even nodes (the
    previous level) to within _FOURIER_TOL.  Each entry and factor stops at
    the first level where it agrees, so its result does not depend on the
    other entries, times or factors: it equals the entry's call alone.

    Both estimates are Re sum_k e^{i theta k h} c_k, with theta = m - z and c
    the transform at x_k times the fine or the coarse Simpson weights.  With
    k = nb a + b the phase splits into baby steps e^{i theta h b} and giant
    steps e^{i theta h nb a} (_phase_powers), built once per entry for all
    factors.  The sum over b is one stacked (1 x nb)(nb x 2 na) product per
    entry and factor, and the sum over a one (2 x na)(na x 1) product, since
    a single matrix product over all entries rounds an entry differently
    depending on their number; the products are grouped by time, factors on
    a batch axis.  The nodes, the jump exponent g (_jump_exponent), the
    Simpson weights and c are built for many times at once.  No array is
    entries x n: those with an entry axis have at most 2 na columns per
    factor.  Times and entries go through in chunks of at most _CHUNK_BYTES
    of temporaries.
    """
    shape = np.broadcast_shapes(np.shape(t), np.shape(m))
    if np.ndim(t) and (np.shape(t) != (np.size(t), 1) or len(shape) != 2):
        raise ValueError(f"t must be a scalar or an (n, 1) column of times, one per row of m; "
                         f"got t of shape {np.shape(t)} and m of shape {np.shape(m)}")
    ts = np.reshape(np.asarray(t, dtype=float), (-1, 1))
    theta = np.broadcast_to(np.asarray(m, dtype=float), shape).reshape(len(ts), -1) - z
    n_e = theta.shape[1]
    theta = theta.ravel()
    s2 = np.reshape(sigma2, (-1, 1))
    x_max = np.sqrt(2.0 * _TAIL_EXPONENT / s2)
    jump = _jump_nodes(spec, ts)
    n_f = len(factors)
    out = np.empty((n_f, theta.size))
    pending = np.ones((n_f, theta.size), dtype=bool)
    todo = np.arange(theta.size)  # entries with a factor whose two estimates do not agree yet
    n = _FIRST_X_NODES
    while todo.size:
        if n > _MAX_X_NODES:
            raise QuadratureFailure(
                f"no convergence to tol={_FOURIER_TOL} with {_MAX_X_NODES} transform nodes"
            )
        nb = 1 << ((n - 1).bit_length() // 2)  # 2^ceil(log2(n - 1) / 2), about sqrt(n)
        na = -(-n // nb)
        time_of = todo // n_e
        # todo[bounds[i]:bounds[i + 1]] are the entries of the time rows[i]
        bounds = [0, *(np.flatnonzero(np.diff(time_of)) + 1).tolist(), todo.size]
        rows = time_of[bounds[:-1]]
        h = np.empty(len(ts))  # x_1 at each time
        est = np.empty((n_f, 2, todo.size))
        # per time: c and its transposed copy, and the node-long rows
        for chunk in _chunks(len(rows), 16 * (4 * n_f * na * nb + 4 * n)):
            times = rows[chunk]
            x = _linspace_rows(x_max[times], n)
            h[times] = x[:, 1]
            g = 0.0 if jump is None else _jump_exponent(jump, times, x, nb, na)
            damp = np.exp(g - 0.5 * s2[times] * x * x)
            fine, coarse = _simpson_weights(x), _simpson_weights(x[:, ::2])
            c = np.zeros((len(times), n_f, 2, na * nb), dtype=complex)
            for f, factor in enumerate(factors):
                base = damp * factor(x, times)
                c[:, f, 0, :n] = fine * base
                c[:, f, 1, :n:2] = coarse * base[:, ::2]
            c = c.reshape(len(times), n_f, 2 * na, nb).swapaxes(2, 3).copy()
            first = bounds[chunk.start]
            for part in _chunks(bounds[chunk.stop] - first, 16 * (nb + na + 2 * na * n_f)):
                lo, hi = first + part.start, first + part.stop
                step = theta[todo[lo:hi]] * h[time_of[lo:hi]]
                baby = _phase_powers(step, nb)[:, None, None, :]
                giant = _phase_powers(step * nb, na)[:, None, :, None]
                for i in range(chunk.start, chunk.stop):
                    a, b = max(bounds[i], lo), min(bounds[i + 1], hi)
                    if a < b:
                        inner = np.matmul(baby[a - lo:b - lo], c[i - chunk.start])
                        sums = np.matmul(inner.reshape(b - a, n_f, 2, na), giant[a - lo:b - lo])
                        est[:, :, a:b] = (sums.real[..., 0] / math.pi).transpose(1, 2, 0)
        # a pending moment takes this level's estimate, and keeps the
        # estimate of the level where it first agrees; a NaN never agrees
        now = pending[:, todo]
        out[:, todo] = np.where(now, est[:, 0], out[:, todo])
        pending[:, todo] = now & ~(np.abs(est[:, 0] - est[:, 1]) < _FOURIER_TOL)
        todo = todo[pending[:, todo].any(axis=0)]
        n = 2 * n - 1
    return out.reshape(n_f, *shape)


def _clamp_density(raw, sigma2, t):
    """The density values raw with the negative ones set to 0.0, one row per
    time of t, a scalar or an (n, 1) column, sigma2 being sigma^2 there.  A
    value below -NEG_CLAMP_REL times its time's envelope 1/sqrt(2 pi sigma^2)
    is logged as a warning that names the time."""
    neg = raw < 0.0
    if not np.any(neg):
        return raw
    rows = raw.reshape(np.size(t), -1)
    for s, var, row in zip(np.ravel(t).tolist(), np.ravel(sigma2).tolist(), rows):
        if not np.any(row < 0.0):
            continue
        envelope = 1.0 / math.sqrt(2.0 * math.pi * var)
        worst = float(row.min())
        if worst < -NEG_CLAMP_REL * envelope:
            log.warning("clamped negative density value %.3e at t=%s (envelope %.3e)", worst, s, envelope)
        else:
            log.debug("clamped tiny negative density value %.3e at t=%s", worst, s)
    return np.where(neg, 0.0, raw)


def _resolve_method(spec, method):
    if method not in ("auto", "closed_form", "quadrature"):
        raise ValueError(f"unknown method {method!r}: expected 'auto', 'closed_form' or 'quadrature'")
    if method == "auto":
        return "closed_form" if spec.is_gaussian else "quadrature"
    if method == "closed_form" and not spec.is_gaussian:
        raise ModelMismatch("closed form requires a purely Gaussian specification")
    return method


def _gaussian_pdf(z, m, sigma2):
    return np.exp(-((z - m) ** 2) / (2.0 * sigma2)) / np.sqrt(2.0 * math.pi * sigma2)


def _value(a):
    """A Python float for a 0-d result, the array itself otherwise."""
    a = np.asarray(a)
    return a if a.ndim else float(a)


def _density(x, rows):
    """The density's factor, 1."""
    return 1.0


def _brownian_factor(beta):
    """The Brownian moment's factor i x beta(t), beta one entry per time."""
    beta = np.reshape(beta, (-1, 1))
    return lambda x, rows: 1j * x * beta[rows]


def delta_from_mean(spec, z, t, m, *, method="auto"):
    """Conditional density E[delta_Z(z) | F_t] of Z at z from the compensated
    mean m(t), a scalar or an array; t is a time or an (n, 1) column of
    times, one per row of m."""
    sigma2 = _time_factors(spec, t)[0]
    if _resolve_method(spec, method) == "closed_form":
        return _value(_gaussian_pdf(z, m, sigma2))
    return _value(_clamp_density(_fourier_moment(spec, z, t, m, (_density,), sigma2)[0], sigma2, t))


def conditional_malliavin_b(spec, z, t, m, *, method="auto"):
    """Conditional Brownian stochastic derivative of the delta functional at
    time t (the diagonal case), from the compensated mean m(t), a scalar or
    an array; t is a time or an (n, 1) column of times, one per row of m."""
    sigma2, beta = _time_factors(spec, t)
    if _resolve_method(spec, method) == "closed_form":
        return _value(gaussian_phi1(spec, z, t, m) * _gaussian_pdf(z, m, sigma2))
    return _value(_fourier_moment(spec, z, t, m, (_brownian_factor(beta),), sigma2)[0])


def conditional_malliavin_n(spec, z, t, m, zeta):
    """Conditional jump stochastic derivative at mark zeta and time t, from
    the compensated mean m(t), a scalar or an array; t is a time or an
    (n, 1) column of times, one per row of m.  It is 0.0 at a time where
    psi(t, zeta) is 0."""
    marks = [mk for mk, _ in spec.levy.atoms]
    if not any(math.isclose(zeta, mk, rel_tol=1e-12, abs_tol=1e-12) for mk in marks):
        raise UnknownMark(f"mark {zeta} is not an atom of the Levy measure")
    sigma2 = _time_factors(spec, t)[0]
    psi = 0.0 if spec.psi is None else _per_time(lambda s: spec.psi(s, zeta), t)
    if not np.any(psi):
        return _value(np.zeros(np.broadcast_shapes(np.shape(t), np.shape(m))))
    col = np.reshape(psi, (-1, 1))
    factor = lambda x, rows: np.exp(1j * x * col[rows]) - 1.0
    return _value(np.where(psi == 0.0, 0.0, _fourier_moment(spec, z, t, m, (factor,), sigma2)[0]))


def phi1_from_mean(spec, z, t, m):
    """Information-drift ratio phi1: the Brownian derivative moment over the
    density, from the compensated mean m(t); m may be an array, and t a
    column of times, one per row of m.  Closed form for a Gaussian spec,
    otherwise one Fourier pass for both moments.  A quadrature density at
    or below _FOURIER_TOL, the tolerance the quadrature is resolved to, is
    rounding noise, and so would be the ratio: it raises DivisionUnstable,
    naming the time and the mean of the first such entry."""
    if spec.is_gaussian:
        return gaussian_phi1(spec, z, t, m)
    sigma2, beta = _time_factors(spec, t)
    den, num = _fourier_moment(spec, z, t, m, (_density, _brownian_factor(beta)), sigma2)
    low = den <= _FOURIER_TOL
    if np.any(low):
        k = np.flatnonzero(low)[0]
        s = float(np.broadcast_to(t, den.shape).flat[k])
        mean = float(np.broadcast_to(m, den.shape).flat[k])
        raise DivisionUnstable(f"conditional density {den.flat[k]:.3e} at or below the quadrature "
                               f"tolerance {_FOURIER_TOL} at z={z}, t={s}, m={mean}")
    return _value(num / den)


def gaussian_phi1(spec, z, t, m):
    """Closed-form information drift beta(t)(z - m)/sigma^2(t); m may be an
    array, and t an array of times that broadcasts against it, such as a
    column of one time per row of m."""
    if not spec.is_gaussian:
        raise ModelMismatch("gaussian_phi1 requires a purely Gaussian specification")
    sigma2, beta = _time_factors(spec, t)
    return _value(beta * (z - np.asarray(m, dtype=float)) / sigma2)


def _time_factors(spec, t):
    """(sigma^2, beta) at the times t (_per_time), sigma^2 checked by
    _check_time, memoized per spec and time array; a scalar t is the 0-d
    case, memoized as a column is."""
    factors = lambda: (_per_time(lambda s: _check_time(spec, s), t), _per_time(spec.beta, t))
    return _memo(spec._columns, ("factors", _array_key(t)), factors)


def _per_time(f, t, *per_t):
    """f(s, *a) at each time s of t as a Python float, a being the entries
    of the arrays per_t of t's shape at s, in an array of t's shape, 0-d
    for a scalar t.  A t-only factor so evaluated rounds as it does at one
    time, whatever array it is then combined with."""
    args = zip(*(np.ravel(a).tolist() for a in (t, *per_t)))
    return np.array([f(*a) for a in args], dtype=float).reshape(np.shape(t))


def _array_key(a):
    """A dict key equal for two arrays exactly when their dtype, shape and bytes are."""
    a = np.asarray(a)
    return a.dtype.str, a.shape, a.tobytes()


def _memo(memo, key, build):
    """memo[key], built by build() on a miss: an array or a tuple of arrays,
    made read-only, since every later caller gets the same ones.  A build
    that raises stores nothing, so a failing evaluation raises on every
    call.  The memo assumes that the functions build calls are
    deterministic, as the sigma^2 memo does."""
    value = memo.get(key)
    if value is None:
        value = build()
        for a in value if isinstance(value, tuple) else (value,):
            a.flags.writeable = False
        memo[key] = value
    return value
