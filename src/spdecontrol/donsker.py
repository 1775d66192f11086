"""Conditional moments of the delta functional of a first-order-chaos variable.

The insider variable is Z = int_0^{T0} beta dB + int_0^{T0} int psi dN~.  Its
conditional density given the flow at time t < T0, and the associated
Brownian / jump stochastic-derivative moments, are evaluated by Fourier
quadrature in the transform variable.  All moments depend on the realized
history only through the compensated scalar

    m(t) = int_0^t beta dB + sum_jumps psi(s_j, z_j) - int_0^t sum_i psi(s, z_i) lam_i ds,

which is what makes vectorized evaluation over ensembles cheap.

For purely Gaussian specifications (no jump component) every moment has a
closed form; the quadrature route is kept available for cross-validation.
"""
from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad, simpson

from .errors import (
    DegenerateVariance,
    DivisionUnstable,
    MissingDerivativeCallback,
    QuadratureFailure,
    UnknownMark,
)
from .noise import LevySpec, PathBundle, TimeGrid, brownian_increment_matrix

__all__ = [
    "FirstOrderChaosSpec",
    "HistorySnapshot",
    "KFunctional",
    "conditional_delta",
    "conditional_malliavin_b",
    "conditional_malliavin_n",
    "phi1",
    "phi1_from_mean",
    "phi_k",
    "gaussian_phi1",
    "effective_mean",
]

log = logging.getLogger(__name__)

EPS_VAR = 1e-12
EPS_DIV = 1e-300
NEG_CLAMP_REL = 1e-10
# exp(-37) ~ 9e-17: transform truncated where Gaussian damping is below this
_TAIL_EXPONENT = 37.0
_TIME_QUAD_NODES = 64
_FIRST_X_NODES = 257
_MAX_X_NODES = 2**21 + 1


@dataclass(frozen=True)
class FirstOrderChaosSpec:
    """Coefficients (beta, psi, levy, T0) of the insider variable."""

    beta: object  # callable s -> float, nonvanishing
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
            val, _ = quad(lambda s: self.beta(s) ** 2, t, self.T0, epsabs=1e-13, epsrel=1e-12)
            self._sigma2[key] = val
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
        ts = grid.times()[:k]
        acc = float(np.sum([spec.beta(t) for t in ts] * bundle.brownian_increments[:k])) if k else 0.0
        # events in time order, in atom order within a step
        counts = bundle.jump_counts[:, :k].T
        steps, atoms = np.nonzero(counts)
        n = counts[steps, atoms]
        times = np.repeat(grid.time(steps), n).tolist()
        marks = np.repeat(bundle.levy.marks[atoms], n).tolist()
        return cls(t=grid.time(k), accumulated_b=acc, jump_events=tuple(zip(times, marks)))


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


def _jump_exponent(spec: FirstOrderChaosSpec, t: float):
    """Callable x -> complex array: the remaining-jump part of the exponent."""
    if spec.is_gaussian:
        return lambda x: 0.0
    s_q, w_q = _gl_nodes(t, spec.T0)
    psi_vals = []  # rows: (weight*lambda, psi at node)
    wl = []
    for mark, lam in spec.levy.atoms:
        for s, w in zip(s_q, w_q):
            psi_vals.append(spec.psi(s, mark))
            wl.append(lam * w)
    psi_vals = np.array(psi_vals)
    wl = np.array(wl)

    def g(x):
        ixp = 1j * np.multiply.outer(x, psi_vals)
        return (np.exp(ixp) - 1.0 - ixp) @ wl

    return g


def _fourier_moment(spec, z, t, m, factor, tol, sigma2):
    """(1/2pi) int exp(i x m + g(x) - x^2 sigma^2/2 - i x z) factor(x) dx;
    sigma2 is sigma^2(t), checked by the caller.

    Evaluated on [0, X] using conjugate symmetry by composite Simpson on
    _FIRST_X_NODES equispaced nodes, doubling the node count until a level
    agrees with the Simpson estimate on its own even nodes (the previous
    level) to within tol.  m may be a scalar or a 1-d array (shared x-nodes,
    one result per entry).
    """
    g = _jump_exponent(spec, t)
    x_max = math.sqrt(2.0 * _TAIL_EXPONENT / sigma2)
    m_arr = np.atleast_1d(np.asarray(m, dtype=float))
    n = _FIRST_X_NODES
    while n <= _MAX_X_NODES:
        x = np.linspace(0.0, x_max, n)
        base = np.exp(g(x) - 0.5 * sigma2 * x * x) * factor(x)
        phase = np.exp(1j * np.multiply.outer(m_arr - z, x))
        vals = (phase * base).real
        est = simpson(vals, x=x, axis=-1) / math.pi
        coarse = simpson(vals[:, ::2], x=x[::2], axis=-1) / math.pi
        if np.max(np.abs(est - coarse)) < tol:
            return est if np.ndim(m) else float(est[0])
        n = 2 * n - 1
    raise QuadratureFailure(f"no convergence to tol={tol} with {_MAX_X_NODES} transform nodes")


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
        raise ValueError("closed form requires a purely Gaussian specification")
    return method


def _gaussian_pdf(z, m, sigma2):
    return np.exp(-((z - m) ** 2) / (2.0 * sigma2)) / math.sqrt(2.0 * math.pi * sigma2)


def conditional_delta(spec, z, hist, *, method="auto", tol=1e-10):
    """Conditional density of Z at z given the history snapshot."""
    m = effective_mean(spec, hist)
    return delta_from_mean(spec, z, hist.t, m, method=method, tol=tol)


def delta_from_mean(spec, z, t, m, *, method="auto", tol=1e-10):
    """Same as conditional_delta but from the scalar (or array) mean m(t)."""
    sigma2 = _check_time(spec, t)
    if _resolve_method(spec, method) == "closed_form":
        return _gaussian_pdf(z, m, sigma2)
    raw = _fourier_moment(spec, z, t, m, lambda x: 1.0, tol, sigma2)
    out = _clamp_density(raw, sigma2)
    return out if np.ndim(m) else float(out)


def conditional_malliavin_b(spec, z, hist, *, method="auto", tol=1e-10):
    """Conditional Brownian stochastic derivative of the delta functional at
    the snapshot time (the diagonal case)."""
    return _malliavin_b_from_mean(spec, z, hist.t, effective_mean(spec, hist), method=method, tol=tol)


def _malliavin_b_from_mean(spec, z, t, m, *, method, tol):
    """conditional_malliavin_b from the scalar mean m(t)."""
    sigma2 = _check_time(spec, t)
    beta_t = spec.beta(t)
    if _resolve_method(spec, method) == "closed_form":
        return float(beta_t * (z - m) / sigma2 * _gaussian_pdf(z, m, sigma2))
    return float(_fourier_moment(spec, z, t, m, lambda x: 1j * x * beta_t, tol, sigma2))


def conditional_malliavin_n(spec, z, hist, zeta, *, tol=1e-10):
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
    num = _fourier_moment(spec, z, t, m, lambda x: np.exp(1j * x * psi_tz) - 1.0, tol, sigma2)
    return float(num)


def phi1(spec, z, hist, *, method="auto", tol=1e-10):
    """Information-drift ratio: Brownian derivative moment over the density,
    phi1_from_mean at the history's effective mean."""
    return phi1_from_mean(spec, z, hist.t, effective_mean(spec, hist), method=method, tol=tol)


def phi1_from_mean(spec, z, t, m, *, method="auto", tol=1e-10):
    """phi1 evaluated from the compensated mean m(t); m may be an array."""
    if _resolve_method(spec, method) == "closed_form":
        return gaussian_phi1(spec, z, t, m)
    sigma2 = _check_time(spec, t)
    beta_t = spec.beta(t)
    den = _fourier_moment(spec, z, t, m, lambda x: 1.0, tol, sigma2)
    num = _fourier_moment(spec, z, t, m, lambda x: 1j * x * beta_t, tol, sigma2)
    den = np.asarray(den, dtype=float)
    if np.any(den <= EPS_DIV):
        raise DivisionUnstable(f"conditional density below division floor at z={z}")
    out = np.asarray(num, dtype=float) / den
    return out if np.ndim(m) else float(out)


def gaussian_phi1(spec, z, t, m):
    """Closed-form information drift beta(t)(z - m)/sigma^2(t); m may be an array."""
    if not spec.is_gaussian:
        raise ValueError("gaussian_phi1 requires a purely Gaussian specification")
    sigma2 = _check_time(spec, t)
    return spec.beta(t) * (z - np.asarray(m, dtype=float)) / sigma2


@dataclass(frozen=True)
class KFunctional:
    """Terminal weight K(z) entering the generalized information-drift ratio.

    Deterministic case: value(z) -> float; the ratio collapses and no
    derivative is needed.  Stochastic case: value(z, hist, bundle) evaluates K
    on a continuation bundle, derivative(z, hist, bundle, t) its stochastic
    derivative at the conditioning time t.
    """

    value: object
    derivative: object = None
    deterministic: bool = True


def phi_k(
    spec,
    k_model: KFunctional,
    z,
    hist,
    *,
    horizon=None,
    n_steps=64,
    n_paths=4096,
    seed=0,
    with_stderr=False,
):
    """Generalized drift ratio for a terminal weight K(z).

    Deterministic K cancels exactly and the plain ratio is returned.  A
    stochastic K is handled by Monte Carlo over Brownian continuations up to
    the horizon, using the supplied derivative callback.
    """
    if k_model.deterministic:
        val = phi1(spec, z, hist)
        return (val, 0.0) if with_stderr else val
    if k_model.derivative is None:
        raise MissingDerivativeCallback("stochastic terminal weight needs a derivative callback")
    if horizon is None or not (hist.t < horizon < spec.T0):
        raise ValueError("stochastic phi_k needs hist.t < horizon < T0")
    if spec.levy.atoms and spec.psi is not None:
        raise NotImplementedError("stochastic terminal weights are supported for Brownian specs")

    grid = TimeGrid(hist.t, horizon, n_steps)
    ts = grid.times()[:-1]
    beta_ts = np.array([spec.beta(t) for t in ts])
    db = brownian_increment_matrix(grid, seed, range(n_paths))
    m_T = effective_mean(spec, hist) + db @ beta_ts
    sigma2_T = spec.residual_variance(horizon)
    dens_T = _gaussian_pdf(z, m_T, sigma2_T)
    ddens_T = (z - m_T) / sigma2_T * dens_T  # d/dm of the terminal density
    beta_t = spec.beta(hist.t)

    num = np.empty(n_paths)
    den = np.empty(n_paths)
    no_jumps = np.zeros((0, n_steps), dtype=np.int64)
    for p in range(n_paths):
        cont = PathBundle(
            grid=grid, brownian_increments=db[p], jump_counts=no_jumps, seed=seed, path_index=p
        )
        K = k_model.value(z, hist, cont)
        dK = k_model.derivative(z, hist, cont, hist.t)
        num[p] = dK * dens_T[p] + K * beta_t * ddens_T[p]
        den[p] = K * dens_T[p]
    den_mean = float(np.mean(den))
    if abs(den_mean) <= EPS_DIV:
        raise DivisionUnstable("Monte Carlo denominator vanished in phi_k")
    ratio = float(np.mean(num)) / den_mean
    if not with_stderr:
        return ratio
    # delta-method standard error of the ratio estimator
    resid = (num - ratio * den) / den_mean
    stderr = float(np.std(resid, ddof=1) / math.sqrt(n_paths))
    return ratio, stderr
