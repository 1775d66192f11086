import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson
from scipy.stats import poisson

from spdecontrol import donsker
from spdecontrol import portfolio as pf
from spdecontrol.donsker import (
    EPS_VAR,
    FirstOrderChaosSpec,
    conditional_malliavin_b,
    conditional_malliavin_n,
    delta_from_mean,
    gaussian_phi1,
    phi1_from_mean,
)
from spdecontrol.errors import (
    DegenerateVariance,
    DivisionUnstable,
    ModelMismatch,
    QuadratureFailure,
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
    # Bit for bit, the density and the drift are the library's own doubling
    # run on each entry of m alone.  Against the oracle the library sums in
    # another order, so the two agree to rounding: a bound 1000x below the
    # quadrature tolerance.  The drift num/den is
    # checked as drift * den against num, because where the density is small
    # the ratio magnifies the rounding of both integrals: at t = 0.95, m = -1
    # (den 6e-5) the oracle's own ratio is 1.25e-12 off the same Simpson sum
    # in extended precision, above the 1.23e-12 a bound on the ratio allows.
    spec = make_spec()
    z = 0.3
    den = reference_fourier_moment(spec, z, t, m, lambda x: 1.0, 1e-10)
    num = reference_fourier_moment(spec, z, t, m, lambda x: 1j * x * spec.beta(t), 1e-10)
    density = delta_from_mean(spec, z, t, m)
    drift = phi1_from_mean(spec, z, t, m)
    for lib, ref in ((density, np.maximum(den, 0.0)), (drift * np.asarray(den), num)):
        assert np.max(np.abs(lib - ref)) <= 1e-13 * max(1.0, np.max(np.abs(ref)))
    own_den, own_num = np.array([fourier_moments(spec, z, t, v) for v in np.atleast_1d(m)]).T
    assert np.array_equal(density, np.maximum(own_den, 0.0).reshape(np.shape(m)))
    assert np.array_equal(drift, (own_num.real / own_den).reshape(np.shape(m)))
    assert type(density) is type(drift) is (float if np.ndim(m) == 0 else np.ndarray)


def fourier_moments(spec, z, t, m):
    """The transform integrals of the density and of the drift's numerator."""
    sigma2 = spec.residual_variance(t)
    return [
        donsker._fourier_moment(spec, z, t, m, factor, sigma2)
        for factor in (lambda x: 1.0, lambda x: 1j * x * spec.beta(t))
    ]


@settings(max_examples=40, deadline=None)
@given(
    atoms=st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(0.1, 5.0)), min_size=1, max_size=2),
    c=st.floats(-0.5, 0.5),
    t=st.floats(0.0, 0.95),
    ms=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=9),
)
# at t = 0.95 the entry 1.0 needs one doubling more than 0.0
@example(atoms=[(1.0, 5.0)], c=0.5, t=0.95, ms=[0.0, 1.0])
def test_fourier_rows_match_reference_and_their_own_calls(atoms, c, t, ms):
    # psi depends on s, so the Gauss-Legendre nodes in time matter
    spec = FirstOrderChaosSpec(
        beta=lambda s: 1.0, psi=lambda s, mk: mk * (1.0 + c * s), levy=LevySpec(atoms=atoms), T0=1.0
    )
    z = 0.3
    m = np.array(ms)
    rows = fourier_moments(spec, z, t, m)
    alone = np.array([fourier_moments(spec, z, t, v) for v in ms]).T
    for lib, own, factor in zip(rows, alone, (lambda x: 1.0, lambda x: 1j * x * spec.beta(t))):
        ref = np.array([reference_fourier_moment(spec, z, t, v, factor, 1e-10) for v in ms])
        assert np.max(np.abs(lib - ref)) <= 1e-13 * max(1.0, np.max(np.abs(ref)))
        assert np.array_equal(lib, own)
    assert fourier_moments(spec, z, t, ms[0]) == [r[0] for r in fourier_moments(spec, z, t, m[:1])]


def test_fourier_moment_raises_when_the_levels_never_agree():
    with mock.patch.object(donsker, "_FOURIER_TOL", 0.0), \
            mock.patch.object(donsker, "_MAX_X_NODES", 1025):
        with pytest.raises(QuadratureFailure, match="1025"):
            delta_from_mean(jump_spec(), 0.3, 0.4, np.array([-0.5, 0.0, 0.5]))


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
    for z in (-1.0, 0.0, 0.7):
        cf = delta_from_mean(spec, z, 0.4, -0.3, method="closed_form")
        qd = delta_from_mean(spec, z, 0.4, -0.3, method="quadrature")
        assert qd == pytest.approx(cf, abs=1e-10)


def test_density_at_t0_is_standard_gaussian():
    spec = gaussian_spec()
    val = delta_from_mean(spec, 0.0, 0.0, 0.0)
    assert val == pytest.approx(1.0 / math.sqrt(2 * math.pi), abs=1e-12)


def test_degenerate_variance_raises():
    spec = gaussian_spec()
    with pytest.raises(DegenerateVariance):
        delta_from_mean(spec, 0.0, 1.0, 0.0)
    tiny = FirstOrderChaosSpec(beta=lambda s: math.sqrt(EPS_VAR / 10), T0=1.0)
    with pytest.raises(DegenerateVariance):
        delta_from_mean(tiny, 0.0, 0.0, 0.0)


def test_jump_density_is_normalized():
    spec = jump_spec()
    t = 0.3
    zs = np.linspace(-8, 8, 1601)
    # Brownian part 0.1 minus the compensator t sum_a lam_a psi(mark_a)
    m = 0.1 - t * (0.5 * 0.4 * 1.0 + 1.0 * 0.4 * (-0.5))
    # density as a function of z equals a fixed shape translated by the mean
    vals = delta_from_mean(spec, 0.0, t, m - zs)
    mass = float(np.trapezoid(vals, zs))
    assert mass == pytest.approx(1.0, abs=1e-6)


def test_malliavin_b_closed_form():
    spec = gaussian_spec()
    z = 0.9
    sigma2 = 0.6
    dens = delta_from_mean(spec, z, 0.4, 0.2)
    expected = (z - 0.2) / sigma2 * dens
    assert conditional_malliavin_b(spec, z, 0.4, 0.2) == pytest.approx(expected, abs=1e-10)
    qd = conditional_malliavin_b(spec, z, 0.4, 0.2, method="quadrature")
    assert qd == pytest.approx(expected, abs=1e-8)


@pytest.mark.parametrize("moment", [
    lambda m: conditional_malliavin_b(gaussian_spec(), 0.9, 0.4, m),
    lambda m: conditional_malliavin_b(gaussian_spec(), 0.9, 0.4, m, method="quadrature"),
    lambda m: conditional_malliavin_b(general_jump_spec(), 0.9, 0.4, m),
    lambda m: conditional_malliavin_n(general_jump_spec(), 0.9, 0.4, m, 0.5),
    lambda m: conditional_malliavin_n(replace(general_jump_spec(), psi=None), 0.9, 0.4, m, 0.5),
    lambda m: conditional_malliavin_n(replace(general_jump_spec(), psi=lambda s, mark: 0.0), 0.9, 0.4, m, 0.5),
], ids=["b-closed-form", "b-quadrature", "b-one-atom", "n-one-atom", "n-without-psi", "n-psi-zero"])
def test_malliavin_moments_take_one_mean_per_path(moment):
    # both moments called float() on m, so an array raised TypeError, and
    # the zero branches of _n returned one 0.0 for every path
    m = np.array([-0.3, 0.45])
    got = moment(m)
    assert isinstance(got, np.ndarray) and got.shape == m.shape
    for m_p, got_p in zip(m.tolist(), got.tolist()):
        alone = moment(m_p)
        assert isinstance(alone, float) and got_p == alone


def test_phi1_gaussian_ratio():
    spec = gaussian_spec()
    z = 1.25
    assert phi1_from_mean(spec, z, 0.5, 0.25) == pytest.approx((z - 0.25) / 0.5, abs=1e-10)
    assert gaussian_phi1(spec, z, 0.5, 0.25) == pytest.approx((z - 0.25) / 0.5)


def test_gaussian_only_rules_raise_model_mismatch_on_jump_spec():
    # a jump spec asked for a Gaussian closed form names the mismatch instead
    # of evaluating the Gaussian part of the model alone
    spec = jump_spec()
    with pytest.raises(ModelMismatch):
        gaussian_phi1(spec, 0.5, 0.4, 0.2)
    with pytest.raises(ModelMismatch):
        delta_from_mean(spec, 0.5, 0.4, 0.2, method="closed_form")
    with pytest.raises(ModelMismatch):
        conditional_malliavin_b(spec, 0.5, 0.4, 0.2, method="closed_form")


@pytest.mark.parametrize("routine", [delta_from_mean, conditional_malliavin_b])
def test_an_unknown_method_is_refused_with_the_allowed_values(routine):
    # "closed" ran the quadrature without a word
    with pytest.raises(ValueError, match="expected 'auto', 'closed_form' or 'quadrature'"):
        routine(gaussian_spec(), 0.5, 0.3, 0.1, method="closed")


def test_residual_variance_integrates_once_per_time():
    # a non-constant beta, so every time needs its own integration
    make = lambda: FirstOrderChaosSpec(beta=lambda s: 1.0 + s, T0=1.0)
    spec = make()
    key = hash(spec)
    ts = np.linspace(0.0, 0.95, 50)
    with mock.patch.object(donsker, "_adaptive_quad", wraps=donsker._adaptive_quad) as integrate:
        first = [spec.residual_variance(t) for t in ts]
        again = [spec.residual_variance(t) for t in ts]
    assert integrate.call_count == 50
    fresh = make()
    assert first == again == [fresh.residual_variance(t) for t in ts]
    assert hash(spec) == key and spec == replace(spec) and "sigma2" not in repr(spec)


@pytest.mark.parametrize("beta", [1.0, 0.3, 1.7])
def test_residual_variance_of_constant_beta_is_exact(beta):
    # the sums over deviations from the midpoint vanish, leaving one rounding
    # each for beta^2, T0 - t and their product
    ts = np.linspace(0.0, 0.95, 39)
    spec = FirstOrderChaosSpec(beta=lambda s: beta, T0=1.0)
    assert [spec.residual_variance(t) for t in ts] == [beta**2 * (1.0 - t) for t in ts]


@pytest.mark.parametrize("t", [0.0, 0.3, 1.1])
def test_residual_variance_of_polynomial_beta_squared_is_exact_to_rounding(t):
    # beta^2 = (1 + s + s^2)^2 has degree 4; the 16-interval rule is exact to degree 17
    spec = FirstOrderChaosSpec(beta=lambda s: 1.0 + s + s * s, T0=1.5)
    antider = lambda s: s + s**2 + s**3 + s**4 / 2 + s**5 / 5
    assert spec.residual_variance(t) == pytest.approx(antider(1.5) - antider(t), rel=1e-15)


@pytest.mark.parametrize("t", [0.0, 0.3, 0.9])
def test_residual_variance_of_exponential_beta(t):
    spec = FirstOrderChaosSpec(beta=math.exp, T0=1.0)
    assert spec.residual_variance(t) == pytest.approx((math.exp(2.0) - math.exp(2.0 * t)) / 2, rel=1e-12)


@pytest.mark.parametrize("t", [0.0, 0.2, 0.7])
def test_residual_variance_of_step_beta_meets_tolerances(t):
    spec = FirstOrderChaosSpec(beta=lambda s: 1.0 if s < 0.5 else 2.0, T0=1.0)
    exact = max(0.5 - t, 0.0) + 4.0 * (1.0 - max(t, 0.5))
    assert abs(spec.residual_variance(t) - exact) <= max(1e-13, 1e-12 * exact)


@pytest.mark.parametrize(
    "beta",
    [lambda s: math.nan, lambda s: math.nan if s > 0.7 else 1.0, lambda s: 1.0 + math.sin(1e4 * s)],
    ids=["nan", "nan-tail", "needs-too-many-panels"],
)
def test_residual_variance_raises_instead_of_returning_garbage(beta):
    spec = FirstOrderChaosSpec(beta=beta, T0=1.0)
    with pytest.raises(QuadratureFailure):
        spec.residual_variance(0.0)
    assert spec._sigma2 == {}


@pytest.mark.parametrize("n", [257, 513])
@pytest.mark.parametrize("rows", [1, 96])
@pytest.mark.parametrize("coarse", [False, True], ids=["fine", "coarse"])
def test_simpson_equals_scipy_bitwise(n, rows, coarse):
    rng = np.random.default_rng(n + rows)
    x = np.linspace(0.0, rng.uniform(1.0, 40.0), n)
    y = rng.standard_normal((rows, n)) * np.exp(-0.1 * x)
    if coarse:
        x, y = x[::2], y[:, ::2]
    w = donsker._simpson_weights(x)
    # each weight is scipy's rule applied to its unit vector, bit for bit
    assert np.array_equal(w, simpson(np.eye(x.size), x=x, axis=-1))
    # y @ w sums in another order than scipy; relative to the rule applied to |y|: some rows integrate to about 1e-3
    assert np.all(np.abs(y @ w - simpson(y, x=x, axis=-1)) <= 1e-14 * (np.abs(y) @ np.abs(w)))


def test_phi1_from_mean_vectorizes():
    spec = jump_spec()
    ms = np.array([-0.2, 0.0, 0.4])
    out = phi1_from_mean(spec, 0.3, 0.25, ms)
    singles = [phi1_from_mean(spec, 0.3, 0.25, float(m)) for m in ms]
    assert np.allclose(out, singles, atol=1e-10)


def test_phi1_from_mean_refuses_a_density_at_the_division_floor():
    # far in the tail the quadrature's density is rounding noise of either
    # sign; a zero moment stands for it
    zero = lambda spec, z, t, m, factor, sigma2: np.zeros(np.shape(m))
    with mock.patch.object(donsker, "_fourier_moment", zero):
        with pytest.raises(DivisionUnstable, match="z=0.3"):
            phi1_from_mean(jump_spec(), 0.3, 0.25, np.array([-0.2, 0.0]))


@pytest.mark.parametrize("z", [10.0, 30.0, 60.0])
def test_phi1_from_mean_refuses_a_density_within_the_quadrature_tolerance(z):
    # densities of 3.6e-12 (z = 10) and below are noise of the quadrature,
    # whose levels agree to 1e-10; their ratio came back as a drift of
    # 3.56, 8.64 and 1.67, and at z = 20 and 40 it raised
    levy = LevySpec(atoms=((1.0, 0.5), (-0.5, 1.0)))
    spec = FirstOrderChaosSpec(beta=lambda s: 1.0, psi=lambda s, mark: mark, levy=levy, T0=1.0)
    assert delta_from_mean(spec, z, 0.5, 0.0) <= donsker._FOURIER_TOL
    with pytest.raises(DivisionUnstable, match=f"z={z}"):
        phi1_from_mean(spec, z, 0.5, 0.0)


def test_malliavin_n_unknown_mark():
    spec = jump_spec()
    m = 0.0 - 0.2 * (0.5 * 0.4 * 1.0 + 1.0 * 0.4 * (-0.5))
    with pytest.raises(UnknownMark):
        conditional_malliavin_n(spec, 0.0, 0.2, m, 3.0)
    val = conditional_malliavin_n(spec, 0.0, 0.2, m, 1.0)
    assert np.isfinite(val)


def test_malliavin_n_checks_the_time_before_its_zero_shortcut():
    # psi(1.5, mark) = 0 past T0 = 1, and the moment returned 0.0 there,
    # where every other moment raises
    spec = replace(general_jump_spec(), psi=lambda s, mark: mark if s < 1.0 else 0.0)
    with pytest.raises(DegenerateVariance):
        delta_from_mean(spec, 0.5, 1.5, 0.0)
    with pytest.raises(DegenerateVariance):
        conditional_malliavin_n(spec, 0.5, 1.5, 0.0, 0.5)


def test_malliavin_n_difference_identity():
    # E[D_{t,z} delta | F_t] equals the density shift induced by one extra jump
    spec = jump_spec()
    z = 0.4
    mark = 1.0
    # Brownian part 0.1 minus the compensator t sum_a lam_a psi(mark_a)
    m = 0.1 - 0.2 * (0.5 * 0.4 * 1.0 + 1.0 * 0.4 * (-0.5))
    shift = spec.psi(0.2, mark)
    expected = delta_from_mean(spec, z, 0.2, m + shift) - delta_from_mean(spec, z, 0.2, m)
    got = conditional_malliavin_n(spec, z, 0.2, m, mark)
    assert got == pytest.approx(expected, abs=1e-8)


def test_density_martingale_under_continuation():
    spec = gaussian_spec()
    t1, t2 = 0.2, 0.6
    z = 0.3
    d1 = delta_from_mean(spec, z, t1, 0.1)
    grid = TimeGrid(t1, t2, 16)
    db = brownian_increment_matrix(grid, 17, range(4000))
    m2 = 0.1 + db.sum(axis=1)
    d2 = delta_from_mean(spec, z, t2, m2)
    se = np.std(d2, ddof=1) / math.sqrt(len(d2))
    assert abs(np.mean(d2) - d1) <= 3 * se


_MOMENTS = {
    "delta-closed-form": lambda m: delta_from_mean(gaussian_spec(), 0.3, 0.4, m, method="closed_form"),
    "delta-quadrature": lambda m: delta_from_mean(gaussian_spec(), 0.3, 0.4, m, method="quadrature"),
    "delta-jump": lambda m: delta_from_mean(jump_spec(), 0.3, 0.4, m),
    "malliavin-b-closed-form": lambda m: conditional_malliavin_b(gaussian_spec(), 0.3, 0.4, m,
                                                                 method="closed_form"),
    "malliavin-b-quadrature": lambda m: conditional_malliavin_b(gaussian_spec(), 0.3, 0.4, m,
                                                                method="quadrature"),
    "malliavin-n": lambda m: conditional_malliavin_n(jump_spec(), 0.3, 0.4, m, 1.0),
    "phi1-gaussian": lambda m: phi1_from_mean(gaussian_spec(), 0.3, 0.4, m),
    "phi1-jump": lambda m: phi1_from_mean(jump_spec(), 0.3, 0.4, m),
    "gaussian-phi1": lambda m: gaussian_phi1(gaussian_spec(), 0.3, 0.4, m),
    "optimal-pi": lambda m: pf.optimal_pi(pf.benchmark_market(8)[0], gaussian_spec(), 0.3, 0.4, m),
}


@pytest.mark.parametrize("moment", _MOMENTS.values(), ids=_MOMENTS.keys())
def test_every_moment_returns_a_float_for_a_scalar_mean_and_an_array_for_an_array(moment):
    # the closed forms returned np.float64, so a verdict built from them was
    # an np.bool_ that json.dump refuses
    for m in (0.1, np.float64(0.1), np.array(0.1)):
        assert type(moment(m)) is float
    out = moment(np.array([0.0, 0.1]))
    assert type(out) is np.ndarray and out.shape == (2,)
    assert out[1] == moment(0.1)
