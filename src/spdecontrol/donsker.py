"""Conditional moments of the delta functional of a first-order-chaos variable.

The insider variable is Z = int_0^{T0} beta dB + int_0^{T0} int psi dN~.  Its
conditional density given the flow at time t < T0, and the associated
Brownian / jump stochastic-derivative moments, are evaluated by Fourier
quadrature in the transform variable.  All moments depend on the realized
history only through the compensated scalar

    m(t) = int_0^t beta dB + sum_jumps psi(s_j, z_j) - int_0^t sum_i psi(s, z_i) lam_i ds,

which is what makes vectorized evaluation over ensembles cheap.

For purely Gaussian specifications (no jump component) every moment has a
closed form; conditional_delta, delta_from_mean and conditional_malliavin_b
keep the quadrature route selectable (method=) for cross-validation.

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
from .noise import LevySpec, PathBundle, TimeGrid

__all__ = [
    "FirstOrderChaosSpec",
    "HistorySnapshot",
    "conditional_delta",
    "delta_from_mean",
    "conditional_malliavin_b",
    "conditional_malliavin_n",
    "phi1",
    "phi1_from_mean",
    "gaussian_phi1",
    "effective_mean",
]

log = logging.getLogger(__name__)

EPS_VAR = 1e-12
NEG_CLAMP_REL = 1e-10
# exp(-37) ~ 9e-17: transform truncated where Gaussian damping is below this
_TAIL_EXPONENT = 37.0
_TIME_QUAD_NODES = 64
_FIRST_X_NODES = 257
_MAX_X_NODES = 2**21 + 1
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
    # sigma^2(t) by float(t); outside the spec's equality and hash
    _sigma2: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def is_gaussian(self) -> bool:
        return self.psi is None or not self.levy.atoms

    def residual_variance(self, t: float) -> float:
        """sigma^2(t) = int_t^{T0} beta^2 ds, integrated once per spec and time."""
        key = float(t)
        if key not in self._sigma2:
            self._sigma2[key] = _adaptive_quad(lambda s: self.beta(s) ** 2, t, self.T0)
        return self._sigma2[key]


@dataclass(frozen=True)
class HistorySnapshot:
    """Realized information at time t < T0: the Brownian integral of beta and
    the list of (time, mark) jump events seen so far."""

    t: float
    accumulated_b: float
    jump_events: tuple = ()

    @classmethod
    def from_bundle(cls, spec: FirstOrderChaosSpec, bundle: PathBundle, k: int):
        """Snapshot at node k built from the bundle prefix [t_0, t_k)."""
        grid = bundle.grid
        ts = grid.times()
        acc = float(np.sum([spec.beta(t) for t in ts[:k]] * bundle.brownian_increments[:k])) if k else 0.0
        # events in time order, in atom order within a step
        counts = bundle.jump_counts[:, :k].T
        steps, atoms = np.nonzero(counts)
        n = counts[steps, atoms]
        times = np.repeat(ts[steps], n).tolist()
        marks = np.repeat(bundle.levy.marks[atoms], n).tolist()
        return cls(t=grid.nodes[k], accumulated_b=acc, jump_events=tuple(zip(times, marks)))


@functools.cache
def _gl_rule():
    """Gauss-Legendre nodes and weights on [-1, 1], built on first use (Gaussian
    specs never need them) and rescaled by _gl_nodes."""
    return np.polynomial.legendre.leggauss(_TIME_QUAD_NODES)


def _gl_nodes(a: float, b: float):
    x, w = _gl_rule()
    return 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w


def effective_mean(spec: FirstOrderChaosSpec, hist: HistorySnapshot) -> float:
    """Compensated realized mean m(t) of Z given the snapshot."""
    m = hist.accumulated_b
    if spec.psi is not None and spec.levy.atoms:
        for s, mark in hist.jump_events:
            m += spec.psi(s, mark)
        if hist.t > 0:
            s_q, w_q = _gl_nodes(0.0, hist.t)
            for mark, lam in spec.levy.atoms:
                m -= lam * float(w_q @ np.array([spec.psi(s, mark) for s in s_q]))
    return m


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


def _jump_exponent(spec: FirstOrderChaosSpec, t: float):
    """Callable (x, nb, na) -> complex array: the remaining-jump part of the
    exponent at the equispaced nodes x = k h, k = nb a + b < nb na."""
    if spec.is_gaussian:
        return lambda x, nb, na: 0.0
    s_q, w_q = _gl_nodes(t, spec.T0)
    psi = np.array([spec.psi(s, mark) for mark, _ in spec.levy.atoms for s in s_q])
    wl = np.array([lam * w for _, lam in spec.levy.atoms for w in w_q])
    wl_sum, wl_psi = wl.sum(), wl @ psi

    def g(x, nb, na):
        # sum_j wl_j (e^{i x psi_j} - 1 - i x psi_j); the first sum is one
        # (na x J)(J x nb) product of giant and baby steps
        step = psi * x[1]
        giant = _phase_powers(step * nb, na)
        return ((giant.T * wl) @ _phase_powers(step, nb)).ravel()[: x.size] - wl_sum - 1j * x * wl_psi

    return g


def _simpson_weights(x):
    """Composite Simpson weights on an odd number of nodes x, so that y @ w is
    the rule of scipy's simpson(y, x=x) (its uneven-spacing branch, guarded
    divisions included) up to the order of summation."""
    h = np.diff(x)
    h0, h1 = h[0::2], h[1::2]
    hsum = h0 + h1
    hprod = h0 * h1
    h0divh1 = np.true_divide(h0, h1, out=np.zeros_like(h0), where=h1 != 0)
    h1divh0 = np.true_divide(1.0, h0divh1, out=np.zeros_like(h0divh1), where=h0divh1 != 0)
    hsum2divhprod = np.true_divide(hsum, hprod, out=np.zeros_like(hsum), where=hprod != 0)
    sixth = hsum / 6.0
    w = np.zeros_like(x)
    w[0:-2:2] += sixth * (2.0 - h1divh0)
    w[1:-1:2] = sixth * (hsum * hsum2divhprod)
    w[2::2] += sixth * (2.0 - h0divh1)
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


def _fourier_moment(spec, z, t, m, factor, sigma2):
    """(1/2pi) int exp(i x m + g(x) - x^2 sigma^2/2 - i x z) factor(x) dx;
    sigma2 is sigma^2(t), checked by the caller.

    Evaluated on [0, X] using conjugate symmetry by composite Simpson on
    _FIRST_X_NODES equispaced nodes x_k = k h, doubling the node count until
    the estimate agrees with the Simpson estimate on its own even nodes (the
    previous level) to within _FOURIER_TOL.  m may be a scalar or a 1-d array
    (shared x-nodes, one result per entry); each entry stops at the first
    level where it agrees, so its result does not depend on the other entries.

    Both estimates are Re sum_k e^{i theta k h} c_k, with theta = m - z and c
    the transform at x_k times the fine or the coarse Simpson weights.  With
    k = nb a + b the phase splits into baby steps e^{i theta h b} and giant
    steps e^{i theta h nb a} (_phase_powers).  The sum over b is one stacked
    (1 x nb)(nb x 2 na) product per entry and the sum over a one
    (2 x na)(na x 1) product, since a single matrix product over all entries
    rounds an entry differently depending on their number.  The jump exponent
    g is split the same way; it has no entry axis, so one plain product does.
    No array is entries x n: those with an entry axis have at most 2 na
    columns.
    """
    g = _jump_exponent(spec, t)
    x_max = math.sqrt(2.0 * _TAIL_EXPONENT / sigma2)
    theta = np.atleast_1d(np.asarray(m, dtype=float)) - z
    out = np.empty(theta.size)
    todo = np.arange(theta.size)  # entries whose two estimates do not agree yet
    n = _FIRST_X_NODES
    while n <= _MAX_X_NODES:
        x = np.linspace(0.0, x_max, n)
        nb = 1 << ((n - 1).bit_length() // 2)  # 2^ceil(log2(n - 1) / 2), about sqrt(n)
        na = -(-n // nb)
        base = np.exp(g(x, nb, na) - 0.5 * sigma2 * x * x) * factor(x)
        c = np.zeros((2, na * nb), dtype=complex)
        c[0, :n] = _simpson_weights(x) * base
        c[1, :n:2] = _simpson_weights(x[::2]) * base[::2]
        step = theta[todo] * x[1]
        inner = np.matmul(_phase_powers(step, nb)[:, None, :], c.reshape(2 * na, nb).T.copy())
        giant = _phase_powers(step * nb, na)
        est, coarse = np.matmul(inner.reshape(-1, 2, na), giant[:, :, None]).real.T[0] / math.pi
        done = np.abs(est - coarse) < _FOURIER_TOL
        out[todo[done]] = est[done]
        todo = todo[~done]
        if not todo.size:
            return out if np.ndim(m) else float(out[0])
        n = 2 * n - 1
    raise QuadratureFailure(
        f"no convergence to tol={_FOURIER_TOL} with {_MAX_X_NODES} transform nodes"
    )


def _clamp_density(raw, sigma2):
    envelope = 1.0 / math.sqrt(2.0 * math.pi * sigma2)
    raw = np.asarray(raw, dtype=float)
    neg = raw < 0.0
    if np.any(neg):
        worst = float(raw.min())
        if worst < -NEG_CLAMP_REL * envelope:
            log.warning("clamped negative density value %.3e (envelope %.3e)", worst, envelope)
        else:
            log.debug("clamped tiny negative density value %.3e", worst)
        raw = np.where(neg, 0.0, raw)
    return raw


def _resolve_method(spec, method):
    if method == "auto":
        return "closed_form" if spec.is_gaussian else "quadrature"
    if method == "closed_form" and not spec.is_gaussian:
        raise ModelMismatch("closed form requires a purely Gaussian specification")
    return method


def _gaussian_pdf(z, m, sigma2):
    return np.exp(-((z - m) ** 2) / (2.0 * sigma2)) / math.sqrt(2.0 * math.pi * sigma2)


def conditional_delta(spec, z, hist, *, method="auto"):
    """Conditional density of Z at z given the history snapshot."""
    m = effective_mean(spec, hist)
    return delta_from_mean(spec, z, hist.t, m, method=method)


def delta_from_mean(spec, z, t, m, *, method="auto"):
    """Same as conditional_delta but from the scalar (or array) mean m(t)."""
    sigma2 = _check_time(spec, t)
    if _resolve_method(spec, method) == "closed_form":
        return _gaussian_pdf(z, m, sigma2)
    raw = _fourier_moment(spec, z, t, m, lambda x: 1.0, sigma2)
    out = _clamp_density(raw, sigma2)
    return out if np.ndim(m) else float(out)


def conditional_malliavin_b(spec, z, hist, *, method="auto"):
    """Conditional Brownian stochastic derivative of the delta functional at
    the snapshot time (the diagonal case)."""
    t, m = hist.t, effective_mean(spec, hist)
    sigma2 = _check_time(spec, t)
    beta_t = spec.beta(t)
    if _resolve_method(spec, method) == "closed_form":
        return float(beta_t * (z - m) / sigma2 * _gaussian_pdf(z, m, sigma2))
    return float(_fourier_moment(spec, z, t, m, lambda x: 1j * x * beta_t, sigma2))


def conditional_malliavin_n(spec, z, hist, zeta):
    """Conditional jump stochastic derivative at mark zeta."""
    marks = [mk for mk, _ in spec.levy.atoms]
    if not any(math.isclose(zeta, mk, rel_tol=1e-12, abs_tol=1e-12) for mk in marks):
        raise UnknownMark(f"mark {zeta} is not an atom of the Levy measure")
    if spec.psi is None:
        return 0.0
    m = effective_mean(spec, hist)
    t = hist.t
    psi_tz = spec.psi(t, zeta)
    if psi_tz == 0.0:
        return 0.0
    sigma2 = _check_time(spec, t)
    num = _fourier_moment(spec, z, t, m, lambda x: np.exp(1j * x * psi_tz) - 1.0, sigma2)
    return float(num)


def phi1(spec, z, hist):
    """Information-drift ratio: Brownian derivative moment over the density,
    phi1_from_mean at the history's effective mean."""
    return phi1_from_mean(spec, z, hist.t, effective_mean(spec, hist))


def phi1_from_mean(spec, z, t, m):
    """phi1 evaluated from the compensated mean m(t); m may be an array.
    Closed form for a Gaussian spec, Fourier quadrature otherwise.  A
    quadrature density at or below _FOURIER_TOL, the tolerance the quadrature
    is resolved to, is rounding noise, and so would be the ratio: it raises
    DivisionUnstable."""
    if spec.is_gaussian:
        return gaussian_phi1(spec, z, t, m)
    sigma2 = _check_time(spec, t)
    beta_t = spec.beta(t)
    den = _fourier_moment(spec, z, t, m, lambda x: 1.0, sigma2)
    num = _fourier_moment(spec, z, t, m, lambda x: 1j * x * beta_t, sigma2)
    den = np.asarray(den, dtype=float)
    if np.any(den <= _FOURIER_TOL):
        raise DivisionUnstable(f"conditional density at or below the quadrature tolerance "
                               f"{_FOURIER_TOL} at z={z}")
    out = np.asarray(num, dtype=float) / den
    return out if np.ndim(m) else float(out)


def gaussian_phi1(spec, z, t, m):
    """Closed-form information drift beta(t)(z - m)/sigma^2(t); m may be an array."""
    if not spec.is_gaussian:
        raise ModelMismatch("gaussian_phi1 requires a purely Gaussian specification")
    sigma2 = _check_time(spec, t)
    return spec.beta(t) * (z - np.asarray(m, dtype=float)) / sigma2

