import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spdecontrol import zakai as zk
from spdecontrol.errors import (
    BoundaryViolation,
    DegenerateCurvature,
    MassCollapse,
    ModelMismatch,
)
from spdecontrol.forward import ControlPolicy, SpatialGrid
from spdecontrol.maxprinciple import PerformanceEstimate
from spdecontrol.noise import (
    LevySpec,
    TimeGrid,
    _rng,
    brownian_increment_matrix,
    jump_count_matrices,
    sample_bundle,
)


def linear_model(a=-0.5, b=0.4, c=1.0, m0=0.0, P0=0.04):
    return zk.SignalModel(
        alpha=lambda x, r, u: a * x,
        beta=lambda x, r, u: b,
        h_obs=lambda x: c * x,
        F_init=lambda x, z: np.exp(-((x - m0) ** 2) / (2 * P0)) / math.sqrt(2 * math.pi * P0),
    )


SGRID = SpatialGrid(-2.0, 2.0, 100)


def bundles(tg, seed, p=0):
    return sample_bundle(tg, LevySpec(), seed, p, channel=0), sample_bundle(
        tg, LevySpec(), seed, p, channel=1
    )


def test_initial_mass_validation():
    model = linear_model()
    assert model.check_initial_mass(SGRID, 0.0) == pytest.approx(1.0, abs=1e-8)
    bad = zk.SignalModel(
        alpha=lambda x, r, u: 0.0,
        beta=lambda x, r, u: 0.0,
        h_obs=lambda x: 0.0,
        F_init=lambda x, z: np.ones_like(np.asarray(x)),
    )
    with pytest.raises(ValueError):
        bad.check_initial_mass(SGRID, 0.0)


def test_zero_observation_function_gives_brownian_observations():
    model = zk.SignalModel(
        alpha=lambda x, r, u: 0.0,
        beta=lambda x, r, u: 1.0,
        h_obs=lambda x: 0.0,
        F_init=linear_model().F_init,
    )
    tg = TimeGrid(0.0, 1.0, 50)
    bv, bw = bundles(tg, 3)
    _, obs = zk.simulate_signal_observation(model, None, 0.0, bv, bw, 0.0)
    assert np.array_equal(obs.increments, bw.brownian_increments)


def test_frozen_signal_when_all_coefficients_vanish():
    model = zk.SignalModel(
        alpha=lambda x, r, u: 0.0,
        beta=lambda x, r, u: 0.0,
        h_obs=lambda x: x,
        F_init=linear_model().F_init,
    )
    tg = TimeGrid(0.0, 1.0, 20)
    bv, bw = bundles(tg, 4)
    X, _ = zk.simulate_signal_observation(model, None, 0.0, bv, bw, 0.7)
    assert np.all(X == 0.7)


def test_linear_signal_moments_match_ode():
    a, b = -0.5, 0.4
    model = linear_model(a=a, b=b)
    tg = TimeGrid(0.0, 1.0, 50)
    x0 = 0.3
    xs = []
    for p in range(4000):
        bv, bw = bundles(tg, 6, p)
        X, _ = zk.simulate_signal_observation(model, None, 0.0, bv, bw, x0)
        xs.append(X[-1])
    xs = np.array(xs)
    mean_exact = x0 * math.exp(a)
    var_exact = b**2 * (math.exp(2 * a) - 1) / (2 * a)
    se = np.std(xs, ddof=1) / math.sqrt(len(xs))
    assert abs(np.mean(xs) - mean_exact) <= 3.5 * se
    assert np.var(xs) == pytest.approx(var_exact, rel=0.15)


def jump_model(a, b, g, levy):
    return zk.SignalModel(
        alpha=lambda x, r, u: a * x,
        beta=lambda x, r, u: b * (1.0 + 0.1 * r),
        h_obs=lambda x: x,
        F_init=linear_model().F_init,
        gamma=lambda x, r, u, mark: g * mark * (1.0 + 0.5 * x),
        levy=levy,
    )


@settings(max_examples=30, deadline=None)
@given(
    a=st.floats(-1.0, 1.0),
    b=st.floats(0.0, 1.0),
    g=st.floats(-1.0, 1.0),
    atoms=st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(0.0, 5.0)), min_size=1, max_size=2),
    n_paths=st.integers(1, 5),
    seed=st.integers(0, 2**16),
)
def test_block_simulation_rows_equal_single_path_simulations(a, b, g, atoms, n_paths, seed):
    levy = LevySpec(atoms=tuple(atoms))
    model = jump_model(a, b, g, levy)
    tg = TimeGrid(0.0, 0.5, 20)
    x0s = np.linspace(-0.5, 0.5, n_paths)
    paths = range(n_paths)
    dv = brownian_increment_matrix(tg, seed, paths, 0)
    dw = brownian_increment_matrix(tg, seed, paths, 1)
    counts = jump_count_matrices(tg, levy, seed, paths, 0)
    X, dR = zk._euler_maruyama(model, None, 0.0, tg, x0s, dv.T, dw.T, [n.T for n in counts])
    for p in paths:
        bv = sample_bundle(tg, levy, seed, p, channel=0)
        bw = sample_bundle(tg, LevySpec(), seed, p, channel=1)
        X1, obs = zk.simulate_signal_observation(model, None, 0.0, bv, bw, x0s[p])
        assert np.array_equal(X[:, p], X1)
        assert np.array_equal(dR[:, p], obs.increments)


@pytest.mark.parametrize("bundle_atoms", [(), ((1.0, 1.0),)])
def test_signal_simulation_rejects_bundle_on_another_levy_spec(bundle_atoms):
    # the bundle's events would be added by gamma and compensated with
    # model.levy's rates: E[X_T] read -1.5 (no atoms) and -0.5 instead of 0
    model = jump_model(0.0, 0.0, 1.0, LevySpec(atoms=((0.5, 3.0),)))
    tg = TimeGrid(0.0, 1.0, 10)
    bv = sample_bundle(tg, LevySpec(atoms=bundle_atoms), 0, 0, channel=0)
    bw = sample_bundle(tg, LevySpec(), 0, 0, channel=1)
    with pytest.raises(ModelMismatch):
        zk.simulate_signal_observation(model, None, 0.0, bv, bw, 0.0)
    # without a jump coefficient the bundle's jumps are not read
    no_gamma = zk.SignalModel(model.alpha, model.beta, model.h_obs, model.F_init, levy=model.levy)
    X, _ = zk.simulate_signal_observation(no_gamma, None, 0.0, bv, bw, 0.0)
    assert np.all(X == 0.0)


def direct_performance_loop(model, f, g, sgrid, tgrid, n_paths, seed, channel=11):
    """direct_performance one path at a time, as a reference for the sweep."""
    x0s = zk.sample_initial_states(model, sgrid, n_paths, seed, channel=channel + 2, z=0.0)
    samples = np.empty(n_paths)
    for p in range(n_paths):
        bv = sample_bundle(tgrid, model.levy, seed, p, channel)
        bw = sample_bundle(tgrid, LevySpec(), seed, p, channel + 1)
        X, _ = zk.simulate_signal_observation(model, None, 0.0, bv, bw, x0s[p])
        acc = 0.0
        if f is not None:
            for k in range(tgrid.n_steps):
                acc += tgrid.dt * float(f(tgrid.time(k), X[k]))
        samples[p] = acc + float(g(X[-1]))
    return samples


@pytest.mark.parametrize("jumps", [False, True])
def test_direct_performance_matches_per_path_loop(jumps):
    levy = LevySpec(atoms=((0.5, 3.0), (-0.2, 1.0)))
    model = jump_model(-0.5, 0.4, 0.3, levy) if jumps else linear_model()
    f = lambda t, x: t * x
    g = lambda x: x**2
    tg = TimeGrid(0.0, 0.5, 25)
    est = zk.direct_performance(model, None, f, g, 0.0, SGRID, tg, 50, 4)
    ref = PerformanceEstimate.from_samples(
        direct_performance_loop(model, f, g, SGRID, tg, 50, 4)
    )
    assert (est.mean, est.stderr, est.n_paths) == (ref.mean, ref.stderr, ref.n_paths)


def test_direct_performance_compensates_signal_jumps():
    # X_T = x0 + compensated jumps, so E[X_T] = E[x0] = 0
    base = linear_model(a=0.0, b=0.0)
    model = zk.SignalModel(base.alpha, base.beta, base.h_obs, base.F_init,
                           gamma=lambda x, r, u, mark: mark, levy=LevySpec(atoms=((0.5, 3.0),)))
    est = zk.direct_performance(model, None, None, lambda x: x, 0.0, SGRID,
                                TimeGrid(0.0, 1.0, 50), 2000, 3)
    assert abs(est.mean) <= 3 * est.stderr


def test_girsanov_trivial_and_martingale():
    model = zk.SignalModel(
        alpha=lambda x, r, u: 0.0,
        beta=lambda x, r, u: 1.0,
        h_obs=lambda x: 0.0,
        F_init=linear_model().F_init,
    )
    tg = TimeGrid(0.0, 1.0, 20)
    bv, bw = bundles(tg, 5)
    X, obs = zk.simulate_signal_observation(model, None, 0.0, bv, bw, 0.0)
    K = zk.girsanov_weight(model, X, obs)
    assert np.all(K.values == 1.0)

    model2 = linear_model()
    n = 4000
    dbR = brownian_increment_matrix(tg, 7, range(n), channel=2)
    x0s = zk.sample_initial_states(model2, SGRID, n, 7, channel=6, z=0.0)
    Ks = np.empty(n)
    for p in range(n):
        bv = sample_bundle(tg, LevySpec(), 7, p, channel=0)
        X, _ = zk.simulate_signal_observation(
            model2, None, 0.0, bv, sample_bundle(tg, LevySpec(), 7, p, channel=4), x0s[p]
        )
        obs = zk.ObservationPath(grid=tg, increments=dbR[p])
        Ks[p] = zk.girsanov_weight(model2, X, obs).values[-1]
    se = Ks.std(ddof=1) / math.sqrt(n)
    assert abs(Ks.mean() - 1.0) <= 3 * se


def test_transport_adjoint_is_exact_transpose_and_conserves_mass():
    model = linear_model()
    L = zk.transport_bands(model, SGRID, 0.0, 0.0).dense()
    # interior rows of L sum to zero, so the transpose transport conserves mass
    assert np.max(np.abs(L.sum(axis=1))) < 1e-12

    dens = zk.UnnormalizedDensity(SGRID, np.asarray(model.F_init(SGRID.nodes(), 0.0)))
    h0 = zk.SignalModel(
        alpha=model.alpha, beta=model.beta, h_obs=lambda x: 0.0, F_init=model.F_init
    )
    before = dens.mass()
    stepped, defect = zk.zakai_step(dens, h0, 0.0, 0.0, 0.1, 0.01)
    assert abs(stepped.mass() - before) < 1e-10
    assert defect == 0.0


def reference_transport_bands(model, sgrid, r, u):
    """The three-point stencil of the signal generator written out: diagonals
    (dif - adv, -2 dif, dif + adv) on interior rows, dif = beta^2 / (2 dx^2)
    and adv = alpha / (2 dx); boundary rows zero."""
    xs = sgrid.nodes()
    shape = np.broadcast_shapes(np.shape(r), xs.shape)
    dx = sgrid.dx
    full = lambda v: np.broadcast_to(np.asarray(v, dtype=float), shape)
    adv = full(model.alpha(xs, r, u)) / (2.0 * dx)
    dif = 0.5 * full(model.beta(xs, r, u)) ** 2 / dx**2
    bands = np.zeros((3,) + shape)
    bands[0][..., 1:-1] = dif[..., 1:-1] - adv[..., 1:-1]
    bands[1][..., 1:-1] = -2.0 * dif[..., 1:-1]
    bands[2][..., 1:-1] = dif[..., 1:-1] + adv[..., 1:-1]
    return bands


@settings(max_examples=60, deadline=None)
@given(
    n_cells=st.integers(2, 199),
    coef=st.tuples(st.floats(-2.0, 2.0), st.floats(-1.0, 1.0), st.floats(0.1, 2.0),
                   st.floats(-1.0, 1.0)),
    reads_r=st.booleans(),
    n_col=st.integers(0, 5),
    seed=st.integers(0, 2**16),
)
def test_transport_bands_equal_reference_stencil_bitwise(n_cells, coef, reads_r, n_col, seed):
    a, c, b, u = coef
    if reads_r:
        model = zk.SignalModel(alpha=lambda x, r, u_: a * x + c * r + u_,
                               beta=lambda x, r, u_: b + 0.3 * np.sin(x + r) * u_,
                               h_obs=lambda x: x, F_init=lambda x, z: x)
    else:
        model = zk.SignalModel(alpha=lambda x, r, u_: a * x + u_, beta=lambda x, r, u_: b,
                               h_obs=lambda x: x, F_init=lambda x, z: x)
    sg = SpatialGrid(-1.5, 2.0, n_cells)
    rng = np.random.default_rng(seed)
    # n_col 0: one operator at a scalar r; else an (n_col, 1) column of r,
    # which gives a stack only to a model that reads r
    r = float(rng.normal()) if n_col == 0 else rng.normal(size=(n_col, 1))
    L = zk.transport_bands(model, sg, r, u)
    ref = reference_transport_bands(model, sg, r, u)
    assert L.kl == 1
    if reads_r or n_col == 0:
        assert np.array_equal(L.bands, ref)
    else:
        assert L.bands.shape == (3, sg.n_nodes)
        assert np.array_equal(np.broadcast_to(L.bands[:, None], ref.shape), ref)


def test_pure_observation_closed_form():
    # no transport: the splitting scheme multiplies the likelihood factors
    # exactly, density(x) = F(x) exp(x R_t - x^2 t / 2) for h(x) = x
    model = zk.SignalModel(
        alpha=lambda x, r, u: 0.0,
        beta=lambda x, r, u: 0.0,
        h_obs=lambda x: x,
        F_init=linear_model().F_init,
    )
    tg = TimeGrid(0.0, 0.5, 25)
    rng_inc = brownian_increment_matrix(tg, 9, [0], channel=2)[0]
    obs = zk.ObservationPath(grid=tg, increments=rng_inc)
    sol = zk.solve_zakai(model, None, 0.0, obs, SGRID)
    xs = SGRID.nodes()
    R_T = float(np.sum(rng_inc))
    exact = np.asarray(model.F_init(xs, 0.0)) * np.exp(xs * R_T - 0.5 * xs**2 * 0.5)
    assert np.max(np.abs(sol.values[-1] - exact)) < 1e-10


def r_dependent_model(reads_r):
    # a drift that reads the observation value r, or the same one without it
    base = linear_model()
    if not reads_r:
        return base
    return zk.SignalModel(
        alpha=lambda x, r, u: -0.5 * x + 0.3 * r,
        beta=base.beta, h_obs=base.h_obs, F_init=base.F_init,
    )


@settings(max_examples=30, deadline=None)
@given(
    n_paths=st.integers(1, 7),
    n_steps=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
    scale=st.floats(0.0, 0.5),
    reads_r=st.booleans(),
)
def test_batched_sweep_rows_equal_single_path_solves(n_paths, n_steps, seed, scale, reads_r):
    model = r_dependent_model(reads_r)
    sg = SpatialGrid(-2.0, 2.0, 40)
    tg = TimeGrid(0.0, 0.5, n_steps)
    dR = scale * np.random.default_rng(seed).standard_normal((n_paths, n_steps))
    block = np.array([Y.copy() for Y, _ in zk._sweep(model, None, 0.0, dR, sg, tg)])
    for p in range(n_paths):
        sol = zk.solve_zakai(model, None, 0.0, zk.ObservationPath(grid=tg, increments=dR[p]), sg)
        assert np.array_equal(block[:, p], sol.values)


@settings(max_examples=40, deadline=None)
@given(
    drift=st.tuples(st.floats(-1.0, 1.0), st.floats(-2.0, 2.0)),
    vol=st.tuples(st.floats(0.5, 1.5), st.floats(0.0, 0.5)),
    n_steps=st.integers(1, 20),
    T=st.floats(0.01, 1.0),
)
def test_transpose_transport_conserves_mass_without_observation(drift, vol, n_steps, T):
    # beta^2 >= |alpha| dx on this grid, so the implicit transpose transport
    # is an M-matrix and keeps the density nonnegative
    sg = SpatialGrid(-2.0, 2.0, 80)
    model = zk.SignalModel(
        alpha=lambda x, r, u: drift[0] + drift[1] * x,
        beta=lambda x, r, u: vol[0] + vol[1] * x * x,
        h_obs=lambda x: 0.0,
        F_init=linear_model().F_init,
    )
    tg = TimeGrid(0.0, T, n_steps)
    obs = zk.ObservationPath(grid=tg, increments=np.full(n_steps, 0.3))
    sol = zk.solve_zakai(model, None, 0.0, obs, sg)
    masses = sg.dx * sol.values.sum(axis=1)
    assert np.max(np.abs(masses - masses[0])) <= 1e-12
    assert sol.clamp_defect <= 1e-12


def test_non_autonomous_sweep_matches_zakai_step_loop():
    # r(t_k) enters the bands of step k; the public one-step routine with a
    # scalar r is the reference
    model = r_dependent_model(reads_r=True)
    sg = SpatialGrid(-2.0, 2.0, 60)
    tg = TimeGrid(0.0, 0.5, 20)
    obs = zk.ObservationPath(grid=tg, increments=brownian_increment_matrix(tg, 6, [0], 2)[0])
    sol = zk.solve_zakai(model, None, 0.0, obs, sg)
    dens = zk.UnnormalizedDensity(sg, np.asarray(model.F_init(sg.nodes(), 0.0)))
    r_vals = obs.values()
    for k in range(tg.n_steps):
        dens, _ = zk.zakai_step(dens, model, 0.0, r_vals[k], obs.increments[k], tg.dt)
        assert np.array_equal(sol.values[k + 1], dens.values)


def test_non_autonomous_route_matches_autonomous_for_r_free_coefficients():
    # + 0.0 * r leaves the drift's values as they are but gives them the
    # paths' axis, which sends the sweep down the per-path route
    sg = SpatialGrid(-2.0, 2.0, 60)
    tg = TimeGrid(0.0, 0.5, 20)
    auto = linear_model()
    banded = zk.SignalModel(
        alpha=lambda x, r, u: auto.alpha(x, r, u) + 0.0 * r,
        beta=auto.beta, h_obs=auto.h_obs, F_init=auto.F_init,
    )
    obs = zk.ObservationPath(grid=tg, increments=brownian_increment_matrix(tg, 5, [0], 2)[0])
    a = zk.solve_zakai(auto, None, 0.0, obs, sg).values
    b = zk.solve_zakai(banded, None, 0.0, obs, sg).values
    assert np.array_equal(a, b)
    f = lambda t, x: x * x
    ea = zk.transformed_performance(auto, None, f, lambda x: x, 0.0, sg, tg, 40, 3)
    eb = zk.transformed_performance(banded, None, f, lambda x: x, 0.0, sg, tg, 40, 3)
    assert (eb.mean, eb.stderr) == (ea.mean, ea.stderr)


@settings(max_examples=30, deadline=None)
@given(
    drift=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
    vol=st.tuples(st.floats(0.3, 1.0), st.floats(-0.2, 0.2)),
    reads_r=st.booleans(),
    controlled=st.booleans(),
    n_paths=st.integers(1, 5),
    n_steps=st.integers(1, 10),
    seed=st.integers(0, 2**32 - 1),
)
def test_sweep_rows_equal_zakai_step_loop(drift, vol, reads_r, controlled, n_paths, n_steps, seed):
    # the sweep picks a shared operator (reused while u holds) or a per-path
    # stack; either way each row is the public one-step routine's result
    a0, a1, ar = drift
    b0, br = vol
    if reads_r:
        alpha = lambda x, r, u: a0 + a1 * x + ar * r + u
        beta = lambda x, r, u: b0 + br * r
    else:
        alpha = lambda x, r, u: a0 + a1 * x + u
        beta = lambda x, r, u: b0
    model = zk.SignalModel(alpha=alpha, beta=beta, h_obs=lambda x: x, F_init=linear_model().F_init)
    control = None
    if controlled:  # a constant that changes every other step
        control = ControlPolicy(rule=lambda k, t, x, z, hist: 0.4 * (k // 2) - 0.3)
    sg = SpatialGrid(-2.0, 2.0, 40)
    tg = TimeGrid(0.0, 0.5, n_steps)
    dR = 0.3 * np.random.default_rng(seed).standard_normal((n_paths, n_steps))
    block = np.array([Y.copy() for Y, _ in zk._sweep(model, control, 0.0, dR, sg, tg)])
    for p in range(n_paths):
        dens = zk.UnnormalizedDensity(sg, np.asarray(model.F_init(sg.nodes(), 0.0)))
        r = 0.0
        for k in range(n_steps):
            u = 0.0 if control is None else 0.4 * (k // 2) - 0.3
            dens, _ = zk.zakai_step(dens, model, u, r, dR[p, k], tg.dt)
            assert np.array_equal(block[k + 1, p], dens.values)
            r += dR[p, k]


def test_normalize_homogeneity_and_collapse():
    dens = zk.UnnormalizedDensity(SGRID, np.asarray(linear_model().F_init(SGRID.nodes(), 0.0)))
    unit, mass = zk.normalize(dens)
    assert mass == pytest.approx(1.0, abs=1e-8)
    scaled = zk.UnnormalizedDensity(SGRID, 7.0 * dens.values)
    unit7, mass7 = zk.normalize(scaled)
    assert mass7 == pytest.approx(7.0 * mass, rel=1e-12)
    assert np.allclose(unit.values, unit7.values, atol=1e-12)
    with pytest.raises(MassCollapse):
        zk.normalize(zk.UnnormalizedDensity(SGRID, np.zeros(SGRID.n_nodes)))


def test_particle_filter_prior_mean_when_uninformative():
    model = zk.SignalModel(
        alpha=lambda x, r, u: 0.0,
        beta=lambda x, r, u: 0.2,
        h_obs=lambda x: 0.0,
        F_init=linear_model(m0=0.3, P0=0.04).F_init,
    )
    tg = TimeGrid(0.0, 0.5, 20)
    obs = zk.ObservationPath(grid=tg, increments=brownian_increment_matrix(tg, 2, [0], 2)[0])
    pf = zk.particle_filter_oracle(model, obs, 4000, 0, sgrid=SGRID)
    se = 0.2 * math.sqrt(0.5) / math.sqrt(4000) + 0.2 / math.sqrt(4000)
    assert abs(pf["means"][-1] - 0.3) <= 5 * se


def particle_filter_loop(model, obs, n_particles, seed, sgrid, channel=5):
    """Per-particle reference: the scalar-callable loop the vectorized
    particle step replaced (no control), with the signal step's order of
    operations, x + (alpha dt + beta dv) plus each atom's compensated jump."""
    tgrid = obs.grid
    dt = tgrid.dt
    rng = _rng(seed, 0, channel, 0)
    x = zk.sample_initial_states(model, sgrid, n_particles, seed, channel=channel + 1, z=0.0)
    means = [float(np.mean(x))]
    r = 0.0
    for k in range(tgrid.n_steps):
        drift = np.array([model.alpha(xi, r, 0.0) for xi in x])
        vol = np.array([model.beta(xi, r, 0.0) for xi in x])
        dv = math.sqrt(dt) * rng.standard_normal(n_particles)
        step = drift * dt + vol * dv
        if model.gamma is not None:
            counts = [rng.poisson(lam * dt, n_particles) for _, lam in model.levy.atoms]
            for (mark, lam), n in zip(model.levy.atoms, counts):
                step = step + np.array([model.gamma(xi, r, 0.0, mark) for xi in x]) * (n - dt * lam)
        x = x + step
        h = np.array([model.h_obs(xi) for xi in x])
        logw = h * obs.increments[k] - 0.5 * h**2 * dt
        w = np.exp(logw - logw.max())
        w /= w.sum()
        positions = (np.arange(n_particles) + rng.uniform()) / n_particles
        x = x[np.searchsorted(np.cumsum(w), positions)]
        means.append(float(np.mean(x)))
        r += obs.increments[k]
    return np.array(means), x


def test_particle_filter_matches_per_particle_loop():
    model = zk.SignalModel(
        alpha=lambda x, r, u: -0.5 * x + 0.2 * r,
        beta=lambda x, r, u: 0.4,  # a scalar for every particle
        h_obs=lambda x: x - 0.1 * x * x * x,
        F_init=linear_model(m0=0.2).F_init,
    )
    jumps = zk.SignalModel(model.alpha, model.beta, model.h_obs, model.F_init,
                           gamma=lambda x, r, u, mark: mark * (0.5 - 0.1 * x),
                           levy=LevySpec(atoms=((1.0, 2.0), (-0.5, 3.0))))
    tg = TimeGrid(0.0, 0.5, 20)
    obs = zk.ObservationPath(grid=tg, increments=brownian_increment_matrix(tg, 8, [0], 2)[0])
    for m in (model, jumps):
        pf = zk.particle_filter_oracle(m, obs, 500, 8, sgrid=SGRID)
        means, final = particle_filter_loop(m, obs, 500, 8, SGRID)
        assert np.array_equal(pf["means"], means)
        assert np.array_equal(pf["final_particles"], final)


def test_particle_filter_minimum_size():
    tg = TimeGrid(0.0, 0.1, 2)
    obs = zk.ObservationPath(grid=tg, increments=np.zeros(2))
    with pytest.raises(ValueError):
        zk.particle_filter_oracle(linear_model(), obs, 50, 0, sgrid=SGRID)


def test_kalman_bucy_trivial_cases():
    tg = TimeGrid(0.0, 1.0, 100)
    obs = zk.ObservationPath(grid=tg, increments=np.zeros(100))
    a, b = -0.5, 0.4
    m, P = zk.kalman_bucy_oracle(a, b, 0.0, 0.2, 0.04, obs)
    # c = 0: pure prediction, variance solves the linear ODE
    t = 1.0
    P_exact = (0.04 + b**2 / (2 * a)) * math.exp(2 * a * t) - b**2 / (2 * a)
    assert P[-1] == pytest.approx(P_exact, rel=1e-6)
    m2, P2 = zk.kalman_bucy_oracle(a, 0.0, 1.0, 0.2, 0.0, obs)
    assert np.all(P2 == 0.0)
    assert m2[-1] == pytest.approx(0.2 * math.exp(a), rel=3e-3)


def test_kalman_bucy_steady_state():
    a, b, c = -0.5, 0.4, 1.0
    tg = TimeGrid(0.0, 20.0, 2000)
    obs = zk.ObservationPath(grid=tg, increments=np.zeros(2000))
    _, P = zk.kalman_bucy_oracle(a, b, c, 0.0, 0.5, obs)
    # root of 2aP + b^2 - c^2 P^2 = 0
    P_inf = (2 * a + math.sqrt(4 * a**2 + 4 * c**2 * b**2)) / (2 * c**2)
    assert P[-1] == pytest.approx(P_inf, rel=1e-4)


def test_transformed_performance_mass_identities():
    model = linear_model()
    sg = SpatialGrid(-3.0, 3.0, 120)
    tg = TimeGrid(0.0, 0.5, 50)
    est_g = zk.transformed_performance(
        model, None, None, lambda x: np.ones_like(x), 0.0, sg, tg, 300, 11
    )
    assert abs(est_g.mean - 1.0) <= 3 * est_g.stderr
    est_f = zk.transformed_performance(
        model, None, lambda t, x: np.ones_like(x), lambda x: np.zeros_like(x), 0.0,
        sg, tg, 300, 11,
    )
    assert abs(est_f.mean - 0.5) <= 3 * est_f.stderr


def test_transformed_matches_direct_performance():
    model = linear_model()
    sg = SpatialGrid(-3.0, 3.0, 120)
    tg = TimeGrid(0.0, 0.5, 50)
    tr = zk.transformed_performance(model, None, None, lambda x: x**2, 0.0, sg, tg, 800, 21)
    dr = zk.direct_performance(model, None, None, lambda x: x**2, 0.0, sg, tg, 4000, 23)
    combined = math.hypot(tr.stderr, dr.stderr)
    assert abs(tr.mean - dr.mean) <= 3 * combined


def test_coercivity_exact_for_constant_volatility():
    sg = SpatialGrid(0.0, 1.0, 40)
    xs = sg.nodes()
    y = np.sin(math.pi * xs)
    y[0] = y[-1] = 0.0
    lhs, rhs = zk.coercivity_check(y, 1.3, 1.0, sg)
    assert lhs == pytest.approx(rhs, rel=1e-12)
    l0, r0 = zk.coercivity_check(y, 0.0, 1.0, sg)
    assert l0 == 0.0 and r0 == 0.0
    l2, r2 = zk.coercivity_check(y, 2.6, 1.0, sg)
    assert l2 == pytest.approx(4 * lhs, rel=1e-12)
    assert r2 == pytest.approx(4 * rhs, rel=1e-12)


def test_coercivity_exact_for_varying_volatility_and_drift():
    # flux-form lhs equals the gradient energy by summation by parts even
    # for non-constant volatility; advection telescopes to zero
    for n_cells in (16, 32, 64):
        sg = SpatialGrid(0.0, 1.0, n_cells)
        xs = sg.nodes()
        y = np.sin(math.pi * xs)
        y[0] = y[-1] = 0.0
        lhs, rhs = zk.coercivity_check(y, 1.0, lambda x: 1.0 + 0.5 * x, sg, alpha_drift=0.3)
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_coercivity_boundary_violation():
    sg = SpatialGrid(0.0, 1.0, 8)
    with pytest.raises(BoundaryViolation):
        zk.coercivity_check(np.ones(sg.n_nodes), 1.0, 1.0, sg)


def test_feedback_pi_analytic_quadratic_field():
    # p(x) = -x^2: feedback value is -alpha * mean / beta^2
    model = linear_model(m0=0.4, P0=0.04)
    dens = zk.UnnormalizedDensity(SGRID, np.asarray(model.F_init(SGRID.nodes(), 0.0)))
    mean = dens.posterior_mean()
    val = zk.feedback_pi(
        lambda x: -2.0 * x,
        lambda x: -2.0 * np.ones_like(x),
        dens,
        alpha_drift=0.7,
        beta_vol=0.5,
    )
    assert val == pytest.approx(-0.7 * mean / 0.25, abs=1e-8)
    # scaling the field leaves the ratio unchanged
    val5 = zk.feedback_pi(
        lambda x: -10.0 * x,
        lambda x: -10.0 * np.ones_like(x),
        dens,
        alpha_drift=0.7,
        beta_vol=0.5,
    )
    assert val5 == pytest.approx(val, abs=1e-10)


def test_feedback_pi_symmetric_posterior_gives_zero():
    dens = zk.UnnormalizedDensity(SGRID, np.asarray(linear_model().F_init(SGRID.nodes(), 0.0)))
    val = zk.feedback_pi(
        lambda x: -2.0 * x, lambda x: -2.0 * np.ones_like(x), dens,
        alpha_drift=1.0, beta_vol=1.0,
    )
    assert val == pytest.approx(0.0, abs=1e-10)


def test_feedback_pi_degenerate_curvature():
    dens = zk.UnnormalizedDensity(SGRID, np.asarray(linear_model().F_init(SGRID.nodes(), 0.0)))
    with pytest.raises(DegenerateCurvature):
        zk.feedback_pi(
            lambda x: np.ones_like(x), lambda x: np.zeros_like(x), dens,
            alpha_drift=1.0, beta_vol=1.0,
        )


def test_snapshot_csv_header(tmp_path):
    model = linear_model()
    tg = TimeGrid(0.0, 0.1, 5)
    obs = zk.ObservationPath(grid=tg, increments=np.zeros(5))
    sol = zk.solve_zakai(model, None, 0.0, obs, SpatialGrid(-2, 2, 10))
    out = tmp_path / "snap.csv"
    zk.filter_snapshots_csv(sol, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,x,unnormalized,normalized"
    assert len(lines) == 1 + 6 * 11


def test_direct_and_transformed_agree_when_the_initial_law_depends_on_z():
    # F_init = N(z, 0.04): both estimators must start from the law at the
    # caller's z, here E[X_T] = z exp(-T / 2)
    base = linear_model()
    model = zk.SignalModel(
        alpha=base.alpha, beta=base.beta, h_obs=base.h_obs,
        F_init=lambda x, z: np.exp(-((x - z) ** 2) / 0.08) / math.sqrt(2 * math.pi * 0.04),
    )
    sg = SpatialGrid(-3.0, 3.0, 120)
    tg = TimeGrid(0.0, 0.5, 25)
    tr = zk.transformed_performance(model, None, None, lambda x: x, 0.5, sg, tg, 800, 21)
    dr = zk.direct_performance(model, None, None, lambda x: x, 0.5, sg, tg, 2000, 23)
    assert abs(tr.mean - dr.mean) <= 4 * math.hypot(tr.stderr, dr.stderr)
    assert abs(dr.mean - 0.5 * math.exp(-0.25)) <= 4 * dr.stderr


def test_transformed_performance_reads_the_control():
    # drift -x/2 + u with u = 1: E[X_1] = 2 (1 - e^{-1/2}) = 0.787
    base = linear_model()
    model = zk.SignalModel(alpha=lambda x, r, u: -0.5 * x + u, beta=base.beta,
                           h_obs=base.h_obs, F_init=base.F_init)
    one = ControlPolicy(rule=lambda k, t, x, z, hist: 1.0)
    tg = TimeGrid(0.0, 1.0, 25)
    tr = zk.transformed_performance(model, one, None, lambda x: x, 0.0, SGRID, tg, 200, 21)
    dr = zk.direct_performance(model, one, None, lambda x: x, 0.0, SGRID, tg, 2000, 23)
    assert abs(tr.mean - dr.mean) <= 3 * math.hypot(tr.stderr, dr.stderr)


def jump_ou_model(h_obs=lambda x: x):
    """OU signal -x/2 dt + 0.3 dv with jumps of 0.5 at rate 2, compensated,
    from N(0, 0.04): Var X_1 = P0 e^{2aT} + (b^2 + lam gamma^2)(1 - e^{2aT})/(-2a)."""
    return zk.SignalModel(
        alpha=lambda x, r, u: -0.5 * x, beta=lambda x, r, u: 0.3, h_obs=h_obs,
        F_init=linear_model().F_init, gamma=lambda x, r, u, mark: 0.5 * mark,
        levy=LevySpec(atoms=((1.0, 2.0),)),
    )


JUMP_OU_VAR = 0.04 * math.exp(-1.0) + (0.09 + 2.0 * 0.25) * (1.0 - math.exp(-1.0))
JUMP_OU_GRID = SpatialGrid(-4.0, 4.0, 400)


def test_transformed_performance_includes_signal_jumps():
    model = jump_ou_model()
    sg = SpatialGrid(-4.0, 4.0, 200)
    tg = TimeGrid(0.0, 1.0, 50)
    g = lambda x: x**2
    tr = zk.transformed_performance(model, None, None, g, 0.0, sg, tg, 1000, 21)
    dr = zk.direct_performance(model, None, None, g, 0.0, sg, tg, 4000, 23)
    assert abs(tr.mean - dr.mean) <= 3 * math.hypot(tr.stderr, dr.stderr)
    assert abs(tr.mean - JUMP_OU_VAR) <= 3 * tr.stderr


def test_zakai_on_the_jump_model_clamps_nothing():
    tg = TimeGrid(0.0, 1.0, 100)
    obs = zk.ObservationPath(grid=tg, increments=brownian_increment_matrix(tg, 3, [0], 2)[0])
    assert zk.solve_zakai(jump_ou_model(), None, 0.0, obs, JUMP_OU_GRID).clamp_defect == 0.0


def test_particle_filter_applies_signal_jumps():
    # with h = 0 the weights are equal and the cloud is the prior at T
    model = jump_ou_model(h_obs=lambda x: 0.0)
    tg = TimeGrid(0.0, 1.0, 100)
    n = 20000
    obs = zk.ObservationPath(grid=tg, increments=np.zeros(tg.n_steps))
    x = zk.particle_filter_oracle(model, obs, n, 0, sgrid=JUMP_OU_GRID)["final_particles"]
    se = np.std((x - x.mean()) ** 2, ddof=1) / math.sqrt(n)
    assert abs(np.var(x) - JUMP_OU_VAR) <= 3 * se


def test_particle_and_grid_filters_agree_on_a_jump_signal():
    # criterion 8's bound on the particle error of the posterior mean
    model = jump_ou_model()
    tg = TimeGrid(0.0, 1.0, 100)
    bv = sample_bundle(tg, model.levy, 0, 0, channel=0)
    bw = sample_bundle(tg, LevySpec(), 0, 0, channel=1)
    _, obs = zk.simulate_signal_observation(model, None, 0.0, bv, bw, 0.0)
    sol = zk.solve_zakai(model, None, 0.0, obs, JUMP_OU_GRID)
    grid_mean = sol.density(tg.n_steps).posterior_mean()
    n = 20000
    pf = zk.particle_filter_oracle(model, obs, n, 0, sgrid=JUMP_OU_GRID)
    assert abs(pf["means"][-1] - grid_mean) <= 3 * 0.25 / math.sqrt(n / 10)


@pytest.mark.parametrize("routine", [
    "simulate_signal_observation", "solve_zakai", "transformed_performance",
    "direct_performance", "particle_filter_oracle",
])
def test_filtering_routines_reject_a_control_that_reads_the_insider_mean(routine):
    # they carry no insider mean; a rule reading hist.m must not run at m = 0
    model = linear_model()
    tg = TimeGrid(0.0, 0.2, 20)
    bv, bw = bundles(tg, 1)
    obs = zk.ObservationPath(grid=tg, increments=bw.brownian_increments)
    g = lambda x: x
    calls = {
        "simulate_signal_observation": lambda pol: zk.simulate_signal_observation(
            model, pol, 0.0, bv, bw, 0.0),
        "solve_zakai": lambda pol: zk.solve_zakai(model, pol, 0.0, obs, SGRID),
        "transformed_performance": lambda pol: zk.transformed_performance(
            model, pol, None, g, 0.0, SGRID, tg, 4, 1),
        "direct_performance": lambda pol: zk.direct_performance(
            model, pol, None, g, 0.0, SGRID, tg, 4, 1),
        "particle_filter_oracle": lambda pol: zk.particle_filter_oracle(
            model, obs, 100, 1, sgrid=SGRID, control=pol),
    }
    calls[routine](ControlPolicy(rule=lambda k, t, x, z, hist: 0.5))
    with pytest.raises(ModelMismatch):
        calls[routine](ControlPolicy(rule=lambda k, t, x, z, hist: 0.5 + 10.0 * hist.m))
