import math
from unittest import mock

import numpy as np
import pytest
from scipy.integrate import simpson
from scipy.stats import poisson

from spdecontrol.donsker import (
    EPS_VAR,
    FirstOrderChaosSpec,
    HistorySnapshot,
    KFunctional,
    conditional_delta,
    conditional_malliavin_b,
    conditional_malliavin_n,
    delta_from_mean,
    effective_mean,
    gaussian_phi1,
    phi1,
    phi1_from_mean,
    phi_k,
)
from spdecontrol.errors import (
    DegenerateVariance,
    MissingDerivativeCallback,
    UnknownMark,
)
from spdecontrol.noise import LevySpec, TimeGrid, brownian_increment_matrix


def gaussian_spec(T0=1.0):
    return FirstOrderChaosSpec(beta=lambda s: 1.0, T0=T0)


def jump_spec():
    levy = LevySpec(atoms=((1.0, 0.5), (-0.5, 1.0)))
    return FirstOrderChaosSpec(
        beta=lambda s: 1.0, psi=lambda s, m: 0.4 * m, levy=levy, T0=1.0
    )


def general_jump_spec():
    levy = LevySpec(atoms=((0.5, 3.0),))
    return FirstOrderChaosSpec(beta=lambda s: 1.0, psi=lambda s, m: m, levy=levy, T0=1.0)


def reference_fourier_moment(spec, z, t, m, factor, tol):
    """The transform integral of one factor as first written: the
    Gauss-Legendre rule and sigma^2(t) rebuilt per call, and Simpson doubling
    from 129 nodes until two successive levels agree to tol."""
    sigma2 = spec.residual_variance(t)
    gx, gw = np.polynomial.legendre.leggauss(64)
    s_q = 0.5 * (spec.T0 - t) * gx + 0.5 * (t + spec.T0)
    w_q = 0.5 * (spec.T0 - t) * gw
    psi_vals = np.array([spec.psi(s, mark) for mark, _ in spec.levy.atoms for s in s_q])
    wl = np.array([lam * w for _, lam in spec.levy.atoms for w in w_q])
    x_max = math.sqrt(2.0 * 37.0 / sigma2)
    m_arr = np.atleast_1d(np.asarray(m, dtype=float))
    n = 129
    prev = None
    while True:
        x = np.linspace(0.0, x_max, n)
        xp = np.multiply.outer(x, psi_vals)
        g = (np.exp(1j * xp) - 1.0 - 1j * xp) @ wl
        base = np.exp(g - 0.5 * sigma2 * x * x) * factor(x)
        vals = (np.exp(1j * np.multiply.outer(m_arr - z, x)) * base).real
        est = simpson(vals, x=x, axis=-1) / math.pi
        if prev is not None and np.max(np.abs(est - prev)) < tol:
            return est if np.ndim(m) else float(est[0])
        prev = est
        n = 2 * n - 1


@pytest.mark.parametrize("make_spec", [jump_spec, general_jump_spec])
@pytest.mark.parametrize("t", [0.0, 0.3, 0.6, 0.95])
@pytest.mark.parametrize("m", [0.2, np.linspace(-1.0, 1.0, 21)], ids=["scalar", "array"])
def test_fourier_moments_equal_reference_doubling_bitwise(make_spec, t, m):
    spec = make_spec()
    z = 0.3
    den = reference_fourier_moment(spec, z, t, m, lambda x: 1.0, 1e-10)
    num = reference_fourier_moment(spec, z, t, m, lambda x: 1j * x * spec.beta(t), 1e-10)
    density = delta_from_mean(spec, z, t, m)
    drift = phi1_from_mean(spec, z, t, m)
    assert np.array_equal(density, np.maximum(den, 0.0))
    assert np.array_equal(drift, np.asarray(num) / den)
    assert type(density) is type(drift) is (float if np.ndim(m) == 0 else np.ndarray)


@pytest.mark.parametrize("routine", [delta_from_mean, phi1_from_mean])
def test_quadrature_route_computes_residual_variance_once(routine):
    spec = jump_spec()
    with mock.patch.object(
        FirstOrderChaosSpec, "residual_variance", autospec=True,
        side_effect=FirstOrderChaosSpec.residual_variance,
    ) as sigma2:
        routine(spec, 0.3, 0.4, np.array([-0.5, 0.0, 0.5]))
    assert sigma2.call_count == 1


@pytest.mark.parametrize("atom", [(0.5, 3.0), (-0.8, 1.5)])
@pytest.mark.parametrize("t", [0.0, 0.25, 0.5, 0.9])
def test_jump_density_equals_poisson_mixture(atom, t):
    # psi(s, mark) = mark: the remaining jump part is mark (K - Lambda) with
    # K ~ Poisson(Lambda), Lambda = lam (T0 - t), so the density is a Poisson
    # mixture of Gaussians (Merton 1976)
    mark, lam = atom
    spec = FirstOrderChaosSpec(
        beta=lambda s: 1.0, psi=lambda s, mk: mk, levy=LevySpec(atoms=(atom,)), T0=1.0
    )
    z = 0.3
    ms = np.linspace(-3.0, 3.0, 97)
    sigma2 = spec.T0 - t
    rate = lam * (spec.T0 - t)
    k = np.arange(60)
    centers = ms[:, None] + mark * (k - rate)
    gauss = np.exp(-((z - centers) ** 2) / (2.0 * sigma2)) / math.sqrt(2.0 * math.pi * sigma2)
    oracle = gauss @ poisson.pmf(k, rate)
    assert np.max(np.abs(delta_from_mean(spec, z, t, ms) - oracle)) <= 1e-10


def test_gaussian_closed_form_matches_quadrature():
    spec = gaussian_spec()
    hist = HistorySnapshot(t=0.4, accumulated_b=-0.3)
    for z in (-1.0, 0.0, 0.7):
        cf = conditional_delta(spec, z, hist, method="closed_form")
        qd = conditional_delta(spec, z, hist, method="quadrature")
        assert qd == pytest.approx(cf, abs=1e-10)


def test_density_at_t0_is_standard_gaussian():
    spec = gaussian_spec()
    hist = HistorySnapshot(t=0.0, accumulated_b=0.0)
    val = conditional_delta(spec, 0.0, hist)
    assert val == pytest.approx(1.0 / math.sqrt(2 * math.pi), abs=1e-12)


def test_degenerate_variance_raises():
    spec = gaussian_spec()
    with pytest.raises(DegenerateVariance):
        conditional_delta(spec, 0.0, HistorySnapshot(t=1.0, accumulated_b=0.0))
    tiny = FirstOrderChaosSpec(beta=lambda s: math.sqrt(EPS_VAR / 10), T0=1.0)
    with pytest.raises(DegenerateVariance):
        conditional_delta(tiny, 0.0, HistorySnapshot(t=0.0, accumulated_b=0.0))


def test_effective_mean_compensates_jumps():
    spec = jump_spec()
    hist = HistorySnapshot(
        t=0.5, accumulated_b=0.2, jump_events=((0.1, 1.0), (0.3, -0.5))
    )
    m = effective_mean(spec, hist)
    # brownian part + realized psi - integral of rates * psi over [0, 0.5]
    expected = 0.2 + 0.4 * 1.0 + 0.4 * (-0.5) - 0.5 * (0.5 * 0.4 * 1.0 + 1.0 * 0.4 * (-0.5))
    assert m == pytest.approx(expected, abs=1e-12)


def test_jump_density_is_normalized():
    spec = jump_spec()
    t = 0.3
    zs = np.linspace(-8, 8, 1601)
    hist = HistorySnapshot(t=t, accumulated_b=0.1)
    m = effective_mean(spec, hist)
    # density as a function of z equals a fixed shape translated by the mean
    vals = delta_from_mean(spec, 0.0, t, m - zs)
    mass = float(np.trapezoid(vals, zs))
    assert mass == pytest.approx(1.0, abs=1e-6)


def test_malliavin_b_closed_form():
    spec = gaussian_spec()
    hist = HistorySnapshot(t=0.4, accumulated_b=0.2)
    z = 0.9
    sigma2 = 0.6
    dens = conditional_delta(spec, z, hist)
    expected = (z - 0.2) / sigma2 * dens
    assert conditional_malliavin_b(spec, z, hist) == pytest.approx(expected, abs=1e-10)
    qd = conditional_malliavin_b(spec, z, hist, method="quadrature")
    assert qd == pytest.approx(expected, abs=1e-8)


def test_phi1_gaussian_ratio():
    spec = gaussian_spec()
    hist = HistorySnapshot(t=0.5, accumulated_b=0.25)
    z = 1.25
    assert phi1(spec, z, hist) == pytest.approx((z - 0.25) / 0.5, abs=1e-10)
    assert gaussian_phi1(spec, z, 0.5, 0.25) == pytest.approx((z - 0.25) / 0.5)


def test_phi1_from_mean_vectorizes():
    spec = jump_spec()
    ms = np.array([-0.2, 0.0, 0.4])
    out = phi1_from_mean(spec, 0.3, 0.25, ms)
    singles = [phi1_from_mean(spec, 0.3, 0.25, float(m)) for m in ms]
    assert np.allclose(out, singles, atol=1e-10)


def test_malliavin_n_unknown_mark():
    spec = jump_spec()
    hist = HistorySnapshot(t=0.2, accumulated_b=0.0)
    with pytest.raises(UnknownMark):
        conditional_malliavin_n(spec, 0.0, hist, 3.0)
    val = conditional_malliavin_n(spec, 0.0, hist, 1.0)
    assert np.isfinite(val)


def test_malliavin_n_difference_identity():
    # E[D_{t,z} delta | F_t] equals the density shift induced by one extra jump
    spec = jump_spec()
    hist = HistorySnapshot(t=0.2, accumulated_b=0.1)
    z = 0.4
    mark = 1.0
    m = effective_mean(spec, hist)
    shift = spec.psi(0.2, mark)
    expected = delta_from_mean(spec, z, 0.2, m + shift) - delta_from_mean(spec, z, 0.2, m)
    got = conditional_malliavin_n(spec, z, hist, mark)
    assert got == pytest.approx(expected, abs=1e-8)


def test_density_martingale_under_continuation():
    spec = gaussian_spec()
    t1, t2 = 0.2, 0.6
    z = 0.3
    hist = HistorySnapshot(t=t1, accumulated_b=0.1)
    d1 = conditional_delta(spec, z, hist)
    grid = TimeGrid(t1, t2, 16)
    db = brownian_increment_matrix(grid, 17, range(4000))
    m2 = 0.1 + db.sum(axis=1)
    d2 = delta_from_mean(spec, z, t2, m2)
    se = np.std(d2, ddof=1) / math.sqrt(len(d2))
    assert abs(np.mean(d2) - d1) <= 3 * se


def test_phi_k_deterministic_collapses_to_phi1():
    spec = gaussian_spec()
    hist = HistorySnapshot(t=0.3, accumulated_b=-0.1)
    km = KFunctional(value=lambda z: 7.0, deterministic=True)
    assert phi_k(spec, km, 0.5, hist) == pytest.approx(phi1(spec, 0.5, hist), abs=1e-14)
    scaled = KFunctional(value=lambda z: 70.0, deterministic=True)
    assert phi_k(spec, scaled, 0.5, hist) == pytest.approx(
        phi_k(spec, km, 0.5, hist), abs=1e-14
    )


def test_phi_k_requires_derivative_callback():
    spec = gaussian_spec()
    hist = HistorySnapshot(t=0.3, accumulated_b=0.0)
    km = KFunctional(value=lambda z, h, cont: 1.0, deterministic=False)
    with pytest.raises(MissingDerivativeCallback):
        phi_k(spec, km, 0.0, hist, horizon=0.7)


def test_phi_k_stochastic_exponential_weight():
    # K = exp(B(T) - T/2): the generalized ratio has the closed form
    # 1 + phi1(t) - (T - t)/(T0 - t), derivable from the Gaussian posterior
    spec = gaussian_spec()
    T = 0.7
    t, bt, z = 0.3, 0.4, 0.6
    hist = HistorySnapshot(t=t, accumulated_b=bt)

    def kval(z_, h, cont):
        return math.exp(h.accumulated_b + float(np.sum(cont.brownian_increments)) - T / 2)

    km = KFunctional(value=kval, derivative=lambda z_, h, c, s: kval(z_, h, c), deterministic=False)
    mc, se = phi_k(spec, km, z, hist, horizon=T, n_paths=20000, seed=0, with_stderr=True)
    closed = 1.0 + phi1(spec, z, hist) - (T - t) / (1.0 - t)
    assert abs(mc - closed) <= 3 * se
