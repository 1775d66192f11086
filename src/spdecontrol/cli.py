"""Configuration-driven command line entry point.

Subcommands: run, list, validate.  Configs are YAML files with top-level keys
kind / seed / params; every run writes its artifacts plus a manifest JSON
(config hash, seeds, versions, per-check verdicts) into the output directory,
and a run that a library error stops writes the manifest with an error entry
in place of the verdicts.
A kind is its _PARAMS table plus a runner that takes those parameters as
keyword arguments.  No parameter sets where a verdict passes: each threshold
is a constant next to the runner that checks it, and `spdecontrol list
<kind>` shows it from _PASSES.  donsker-table passes at |quadrature -
closed form| <= 1e-8; forward-convergence at space orders in [1.8, 2.2] and
time orders in [0.8, 1.2]; zakai-benchmark at |grid mean - Kalman mean| <=
5e-2 and refinement factors in [1.6, 2.6]; coercivity at |ratio - 1| <= 5 dx;
stationarity at |t| <= 3 on every window, maxprinciple's own threshold.
Exit codes: 0 success, 2 configuration error, 3 a numerical check failed or
a library error (an SpdeControlError other than ConfigError) stopped the run.
"""
from __future__ import annotations

import argparse
import difflib
import hashlib
import json
import math
import operator
import sys
from pathlib import Path

import numpy as np
import scipy
import yaml

from . import __version__, donsker, portfolio, zakai
from .donsker import FirstOrderChaosSpec
from .errors import ConfigError, DegenerateVariance, NumericalCheckFailure, SpdeControlError
from .forward import CoefficientSet, ControlPolicy, OperatorSpec, SpatialGrid, _write_csv, solve_forward
from .maxprinciple import _TOL_TSTAT, verify_x_independent_stationarity
from .noise import LevySpec, PathBundle, TimeGrid, sample_bundle
from .zakai import ObservationPath, SignalModel

__all__ = ["main", "validate_config", "run_experiment", "SCHEMAS"]

_COMPARE = {">": operator.gt, ">=": operator.ge, "<": operator.lt, "!=": operator.ne}


def _reader(cast, *bounds, many=None, increasing=False):
    """The reader of one parameter, the one home of its type and range.  It
    reads a value with cast (float or int), or a YAML sequence of at least
    many of them when many is given, each entry < the next if increasing, so
    that no verdict is read off too few values.  It refuses an entry outside
    bounds, (operator, limit) pairs such as (">=", 2).  It refuses a bool,
    and a count refuses a float with a fraction, rather than misread them; a
    float must be finite, since no run can use NaN or an infinity.  Its range
    attribute is the text `spdecontrol list` shows."""
    kind = cast.__name__
    if many is not None:
        kind = f"list of at least {many} {kind}s" if many else f"list of {kind}s"

    def one(value):
        if isinstance(value, bool) or (cast is int and isinstance(value, float) and not value.is_integer()):
            raise ValueError(f"expected {cast.__name__}")
        x = cast(value)
        if cast is float and not math.isfinite(x):
            raise ValueError(f"{x} is not finite")
        for op, limit in bounds:
            if not _COMPARE[op](x, limit):
                raise ValueError(f"{x} is not {op} {limit}")
        return x

    def read(value):
        if many is None:
            return one(value)
        if not isinstance(value, (list, tuple)) or len(value) < many:
            raise ValueError(f"expected {kind}")
        xs = [one(v) for v in value]
        for x, nxt in zip(xs, xs[1:]):
            if increasing and not x < nxt:
                raise ValueError(f"{x} is not < the next entry {nxt}")
        return xs

    limits = " and ".join(f"{op} {limit}" for op, limit in bounds)
    read.range = f"{kind} {limits}".rstrip() + (", each < the next" if increasing else "")
    return read


_real = _reader(float)
_positive = _reader(float, (">", 0))
_at_least_2 = _reader(int, (">=", 2))
_at_least_1 = _reader(int, (">=", 1))
# the insider variable of the model that portfolio and stationarity run
_BENCHMARK_SPEC = portfolio.benchmark_market()[2]
_HORIZON = f"with T + T/n_steps <= T0 = {_BENCHMARK_SPEC.T0}"

# kind -> parameter -> (reader, default, description).  validate_config reads
# every parameter with its reader and fills in the defaults, so a run gets
# values it can use or the config is refused.
_PARAMS = {
    "donsker-table": {
        "T0": (_positive, 1.0, "terminal information time"),
        "beta_const": (_reader(float, ("!=", 0)), 1.0, "constant integrand of the information variable"),
        "t_values": (_reader(float, (">=", 0), many=1), [0.0, 0.25, 0.5, 0.75], "evaluation times, each < T0"),
        "z_values": (_reader(float, many=1), [-1.0, -0.5, 0.0, 0.5, 1.0], "density evaluation points"),
        "history_mean": (_real, 0.0, "realized conditioning mean m(t)"),
    },
    "forward-convergence": {
        "t_end": (_positive, 0.1, "horizon of the diffusion oracle"),
        "space_cells": (_reader(int, (">=", 2), many=2, increasing=True), [8, 16, 32], "cell counts of the space study"),
        "space_steps": (_at_least_1, 4096, "fine step count shared by the space study"),
        "time_steps": (_reader(int, (">=", 1), many=2, increasing=True), [16, 32, 64], "step counts of the time study"),
        "time_cells": (_at_least_2, 16, "cell count shared by the time study"),
    },
    "portfolio": {
        "T": (_positive, 0.5, f"trading horizon, {_HORIZON}"),
        "z": (_real, 0.5, "conditioning value of the insider variable"),
        "n_cells": (_at_least_2, 16, "spatial cells of the wealth grid"),
        "n_steps": (_at_least_1, 200, "time steps"),
        "n_paths": (_at_least_2, 2000, "Monte Carlo paths"),
        "shifts": (_reader(float, many=0), [-0.25, 0.25], "constant control offsets compared against the optimum"),
    },
    "stationarity": {
        "T": (_positive, 0.5, f"horizon, {_HORIZON}"),
        "z": (_real, 0.5, "conditioning value"),
        "n_cells": (_at_least_2, 16, "spatial cells"),
        "n_steps": (_at_least_1, 100, "time steps"),
        "n_paths": (_at_least_2, 2000, "Monte Carlo paths"),
        "n_windows": (_at_least_1, 3, "time windows for localized directions, <= n_steps"),
        "a_step": (_reader(float, (">", 0), ("<", 1)), 1e-3, "central difference step"),
    },
    "zakai-benchmark": {
        "a": (_real, -0.5, "signal drift rate dX = aX dt + b dv"),
        "b": (_real, 0.4, "signal volatility"),
        "c": (_real, 1.0, "observation gain dR = cX dt + dw"),
        "m0": (_real, 0.0, "initial state mean"),
        "P0": (_positive, 0.04, "initial state variance"),
        "x_lo": (_real, -2.0, "state-space truncation, lower edge"),
        "x_hi": (_real, 2.0, "state-space truncation, upper edge, > x_lo"),
        "n_cells": (_at_least_2, 400, "spatial cells at the base resolution"),
        "n_steps": (_at_least_1, 100, "time steps at the base resolution"),
        "T": (_positive, 1.0, "horizon"),
        "n_particles": (_reader(int, (">=", 100)), 10000, "particle-filter oracle size"),
        "refine_levels": (_at_least_1, 2, "number of halvings of dx and dt measured"),
    },
    "coercivity": {
        "pi": (_reader(float, ("!=", 0)), 1.0, "control value scaling the generator"),
        "beta_slope": (_real, 0.5, "volatility profile beta(x) = 1 + slope*x"),
        "cells": (_reader(int, (">=", 2), many=1), [16, 32, 64], "cell counts"),
    },
}

SCHEMAS = {
    kind: {key: f"{reader.range}, {desc} (default {default})" for key, (reader, default, desc) in params.items()}
    for kind, params in _PARAMS.items()
}


def _read_params(kind: str, params: dict) -> dict:
    """Every parameter of the kind read by its reader, defaults filled in."""
    p = {}
    for key, (reader, default, _) in _PARAMS[kind].items():
        value = params.get(key, default)
        try:
            p[key] = reader(value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"parameter {key} = {value!r} of kind {kind} is unusable: {exc}")
    return p


def _check_constraints(kind: str, p: dict):
    """The rules that tie parameters together; each reader checks the range
    of its own parameter."""
    if kind == "donsker-table":
        spec = _donsker_spec(p["beta_const"], p["T0"])
        for t in p["t_values"]:
            try:
                donsker._check_time(spec, t)
            except DegenerateVariance as exc:
                raise ConfigError(f"constraint violated: t_values: {exc}") from None
    if kind in ("portfolio", "stationarity"):
        try:
            donsker._check_horizon(_BENCHMARK_SPEC, TimeGrid(0.0, p["T"], p["n_steps"]))
        except ValueError as exc:
            raise ConfigError(f"constraint violated: T < T0 with T + T/n_steps <= T0: {exc}") from None
    if kind == "stationarity" and p["n_windows"] > p["n_steps"]:
        raise ConfigError("constraint violated: n_windows <= n_steps, so that every window holds a step")
    if kind == "zakai-benchmark":
        try:
            SpatialGrid(p["x_lo"], p["x_hi"], p["n_cells"])
        except ValueError as exc:
            raise ConfigError(f"constraint violated: x_lo < x_hi: {exc}") from None


def _read_seed(seed):
    """The seed rule of a config, of --seed and of run_experiment's seed_override."""
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ConfigError(f"seed must be a nonnegative integer, not {seed!r}")
    return seed


def validate_config(cfg: dict) -> dict:
    """Schema plus physical-constraint validation; returns the normalized
    config with every parameter read and defaults filled in.  A value the
    run could not use raises ConfigError."""
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a mapping")
    kind = cfg.get("kind")
    if not isinstance(kind, str) or kind not in SCHEMAS:
        raise ConfigError(f"unknown kind {kind!r}; expected one of {sorted(SCHEMAS)}")
    params = cfg.get("params", {}) or {}
    if not isinstance(params, dict):
        raise ConfigError("params must be a mapping")
    unknown = set(params) - set(SCHEMAS[kind])
    if unknown:
        raise ConfigError(f"unknown parameter(s) {sorted(unknown, key=str)} for kind {kind}")
    seed = _read_seed(cfg.get("seed", 0))
    p = _read_params(kind, params)
    _check_constraints(kind, p)
    return {"kind": kind, "seed": seed, "params": p}


def _load_config(config_path) -> tuple:
    """The bytes of a config file and its validated config: the one loader
    of validate and run."""
    raw = Path(config_path).read_bytes()
    try:
        cfg = yaml.safe_load(raw)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config parse failure: {exc}") from exc
    return raw, validate_config(cfg)


def _write_json(path: Path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)


def _zero_bundle(tgrid: TimeGrid) -> PathBundle:
    return PathBundle(
        grid=tgrid,
        brownian_increments=np.zeros(tgrid.n_steps),
        jump_counts=np.zeros((0, tgrid.n_steps), dtype=np.int64),
    )


def _heat_field(n_cells: int, n_steps: int, t_end: float):
    grid = SpatialGrid(0.0, 1.0, n_cells)
    tgrid = TimeGrid(0.0, t_end, n_steps)
    coeffs = CoefficientSet(
        a=lambda t, x, y, u, z: 0.0,
        b=lambda t, x, y, u, z: 0.0,
        xi=lambda x, z: np.sin(math.pi * x),
    )
    op = OperatorSpec(
        second_coeff=lambda t, x, u, z: 0.5,
        first_coeff=lambda t, x, u, z: 0.0,
    )
    control = ControlPolicy(rule=lambda k, t, x, z, hist: 0.0)
    field = solve_forward(coeffs, op, control, 0.0, _zero_bundle(tgrid), grid)
    return grid, field


def heat_space_error(n_cells: int, n_steps: int, t_end: float) -> float:
    """Max-node error against the continuum solution of the half-Laplacian
    heat flow with sine initial data."""
    grid, field = _heat_field(n_cells, n_steps, t_end)
    exact = math.exp(-0.5 * math.pi**2 * t_end) * np.sin(math.pi * grid.nodes())
    return float(np.max(np.abs(field.values[-1] - exact)))


def heat_time_error(n_cells: int, n_steps: int, t_end: float) -> float:
    """Max-node error against the exact flow of the space-discretized system,
    isolating the first-order time error."""
    grid, field = _heat_field(n_cells, n_steps, t_end)
    dx = grid.dx
    mu = 0.5 * (2.0 * math.cos(math.pi * dx) - 2.0) / dx**2
    exact = math.exp(mu * t_end) * np.sin(math.pi * grid.nodes())
    return float(np.max(np.abs(field.values[-1] - exact)))


def _orders(errors):
    return [math.log2(errors[i] / errors[i + 1]) for i in range(len(errors) - 1)]


def _donsker_spec(beta_const: float, T0: float) -> FirstOrderChaosSpec:
    """The insider variable of a donsker-table config: beta = beta_const on [0, T0]."""
    return FirstOrderChaosSpec(beta=lambda s: beta_const, T0=T0)


# largest |quadrature - closed form| of a density weight that passes
_QUADRATURE_TOL = 1e-8


def _run_donsker_table(seed, out: Path, *, T0, beta_const, t_values, z_values, history_mean):
    spec = _donsker_spec(beta_const, T0)
    rows = []
    worst = 0.0
    for t in t_values:
        for z in z_values:
            cf = donsker.delta_from_mean(spec, z, t, history_mean, method="closed_form")
            qd = donsker.delta_from_mean(spec, z, t, history_mean, method="quadrature")
            worst = max(worst, abs(cf - qd))
            rows.append([float(t), float(z), float(cf), float(qd), float(abs(cf - qd))])
    _write_csv(out / "donsker_table.csv", ["t", "z", "closed_form", "quadrature", "abs_err"], rows)
    passed = worst <= _QUADRATURE_TOL
    verdicts = {"quadrature_matches_closed_form": {"max_abs_err": worst, "tol": _QUADRATURE_TOL, "passed": passed}}
    return verdicts, ["donsker_table.csv"]


# the empirical orders that pass: the scheme is second order in space and
# first order in time
_SPACE_ORDER_RANGE = (1.8, 2.2)
_TIME_ORDER_RANGE = (0.8, 1.2)


def _run_forward_convergence(seed, out: Path, *, t_end, space_cells, space_steps, time_steps, time_cells):
    dx_lo, dx_hi = _SPACE_ORDER_RANGE
    dt_lo, dt_hi = _TIME_ORDER_RANGE
    ex = [heat_space_error(c, space_steps, t_end) for c in space_cells]
    et = [heat_time_error(time_cells, s, t_end) for s in time_steps]
    ox, ot = _orders(ex), _orders(et)
    rows = [["space", float(1.0 / c), float(e)] for c, e in zip(space_cells, ex)]
    rows += [["time", float(t_end / s), float(e)] for s, e in zip(time_steps, et)]
    _write_csv(out / "convergence.csv", ["study", "h", "max_error"], rows)
    verdicts = {
        "space_order": {"orders": ox, "range": [dx_lo, dx_hi], "passed": all(dx_lo <= o <= dx_hi for o in ox)},
        "time_order": {"orders": ot, "range": [dt_lo, dt_hi], "passed": all(dt_lo <= o <= dt_hi for o in ot)},
    }
    return verdicts, ["convergence.csv"]


def _run_portfolio(seed, out: Path, *, T, z, n_cells, n_steps, n_paths, shifts):
    market, utility, spec = portfolio.benchmark_market(n_cells)
    tgrid = TimeGrid(0.0, T, n_steps)
    pol = portfolio.optimal_policy(market, spec)
    candidates = {"pi_hat": pol}
    for s in shifts:
        candidates[f"pi_hat{s:+g}"] = portfolio.shifted_policy(pol, s)
    results = portfolio.run_portfolio_experiment(
        market, utility, spec, z, candidates, tgrid, n_paths, seed
    )
    portfolio.portfolio_table_csv(results, out / "portfolio.csv")
    best = max(results, key=lambda r: r.estimate.mean)
    verdicts = {
        "optimum_has_max_mean": {"best": best.name, "means": {r.name: r.estimate.mean for r in results}},
        "no_rejections": {
            "rates": {r.name: r.rejection_rate for r in results},
            "passed": all(r.n_rejected == 0 for r in results),
        },
    }
    if shifts:  # without shifts pi_hat is the only candidate: informational
        verdicts["optimum_has_max_mean"]["passed"] = best.name == "pi_hat"
    return verdicts, ["portfolio.csv"]


def _run_stationarity(seed, out: Path, *, T, z, n_cells, n_steps, n_paths, n_windows, a_step):
    market, utility, spec = portfolio.benchmark_market(n_cells)
    coeffs, op = portfolio.wealth_dynamics(market)
    perf = portfolio.log_utility_performance(market, utility)
    pol = portfolio.optimal_policy(market, spec)
    tgrid = TimeGrid(0.0, T, n_steps)
    report = verify_x_independent_stationarity(
        coeffs, op, pol, perf, spec, z, market.D, tgrid,
        n_windows=n_windows, n_paths=n_paths, seed=seed, a_step=a_step,
    )
    _write_json(out / "stationarity.json", report)
    verdicts = {"stationarity": {"max_abs_tstat": report["max_abs_tstat"], "passed": report["passed"]}}
    return verdicts, ["stationarity.json"]


# largest |grid mean - Kalman mean| that passes, and the error-reduction
# factors per halving of dx and dt that pass: a first-order refinement
# halves the error
_GRID_TOL = 5e-2
_FACTOR_RANGE = (1.6, 2.6)


def _run_zakai_benchmark(
    seed, out: Path, *, a, b, c, m0, P0, x_lo, x_hi, n_cells, n_steps, T, n_particles, refine_levels
):
    f_lo, f_hi = _FACTOR_RANGE
    model = SignalModel(
        alpha=lambda x, r, u: a * x,
        beta=lambda x, r, u: b,
        h_obs=lambda x: c * x,
        F_init=lambda x, z: np.exp(-((x - m0) ** 2) / (2 * P0)) / math.sqrt(2 * math.pi * P0),
    )
    # one underlying observation path at the finest resolution, aggregated
    # down; each grid run is compared against the Kalman recursion driven by
    # the identically aggregated increments
    fine_steps = n_steps * 2 ** (refine_levels - 1)
    tg_fine = TimeGrid(0.0, T, fine_steps)
    x0 = zakai.sample_initial_states(model, SpatialGrid(x_lo, x_hi, n_cells), 1, seed, channel=15, z=0.0)[0]
    bv = sample_bundle(tg_fine, LevySpec(), seed, 0, channel=13)
    bw = sample_bundle(tg_fine, LevySpec(), seed, 0, channel=14)
    _, obs_fine = zakai.simulate_signal_observation(model, None, 0.0, bv, bw, x0)

    errors = []
    base = None
    for lvl in range(refine_levels):
        ns = n_steps * 2**lvl
        sg = SpatialGrid(x_lo, x_hi, n_cells * 2**lvl)
        obs = zakai.ObservationPath(
            grid=TimeGrid(0.0, T, ns),
            increments=obs_fine.increments.reshape(ns, -1).sum(axis=1),
        )
        sol = zakai.solve_zakai(model, None, 0.0, obs, sg)
        kb_m, kb_P = zakai.kalman_bucy_oracle(a, b, c, m0, P0, obs)
        gm = sol.density(ns).posterior_mean()
        errors.append(abs(gm - float(kb_m[-1])))
        if lvl == 0:
            base = (sol, obs, gm, float(kb_m[-1]), float(kb_P[-1]))

    sol0, obs0, grid_mean, kalman_mean, kalman_var = base
    pf = zakai.particle_filter_oracle(model, obs0, n_particles, seed, sgrid=SpatialGrid(x_lo, x_hi, n_cells))
    factors = [errors[i] / errors[i + 1] for i in range(len(errors) - 1)]
    report = {
        "grid_mean": grid_mean,
        "particle_mean": float(pf["means"][-1]),
        "kalman_mean": kalman_mean,
        "kalman_var": kalman_var,
        "grid_errors": errors,
        "refinement_factors": factors,
        "clamp_defect": sol0.clamp_defect,
        "boundary_mass_final": float(sol0.boundary_mass[-1]),
        "seed": seed,
    }
    _write_json(out / "zakai_report.json", report)
    zakai.filter_snapshots_csv(sol0, out / "zakai_density.csv")
    verdicts = {
        "grid_vs_kalman": {"abs_err": errors[0], "tol": _GRID_TOL, "passed": errors[0] <= _GRID_TOL},
        "refinement_factor": {"factors": factors, "range": [f_lo, f_hi]},
        "particle_vs_kalman": {"abs_err": abs(float(pf["means"][-1]) - kalman_mean)},
    }
    if factors:  # one level measures no factor: informational
        verdicts["refinement_factor"]["passed"] = all(f_lo <= f <= f_hi for f in factors)
    return verdicts, ["zakai_report.json", "zakai_density.csv"]


# the constant C of |ratio - 1| <= C dx that passes
_C_MAX = 5.0


def _run_coercivity(seed, out: Path, *, pi, beta_slope, cells):
    rows = []
    ok = True
    for n_cells in cells:
        sgrid = SpatialGrid(0.0, 1.0, n_cells)
        xs = sgrid.nodes()
        y = np.sin(math.pi * xs)
        y[0] = y[-1] = 0.0
        lhs, rhs = zakai.coercivity_check(y, pi, lambda x: 1.0 + beta_slope * x, sgrid)
        ratio = lhs / rhs if rhs != 0 else math.nan
        rows.append([float(sgrid.dx), float(lhs), float(rhs), float(ratio)])
        if not abs(ratio - 1.0) <= _C_MAX * sgrid.dx:
            ok = False
    _write_csv(out / "coercivity.csv", ["dx", "lhs", "rhs", "ratio"], rows)
    verdicts = {"ratio_within_C_dx": {"C_max": _C_MAX, "passed": ok}}
    return verdicts, ["coercivity.csv"]


# kind -> where its verdicts pass, as `spdecontrol list <kind>` shows it
_PASSES = {
    "donsker-table": f"quadrature_matches_closed_form at max |quadrature - closed form| <= {_QUADRATURE_TOL}",
    "forward-convergence": f"space_order at every order in {list(_SPACE_ORDER_RANGE)}, "
    f"time_order at every order in {list(_TIME_ORDER_RANGE)}",
    "portfolio": "optimum_has_max_mean if pi_hat has the largest mean, no_rejections if no path is rejected",
    "stationarity": f"stationarity at |t| <= {_TOL_TSTAT} on every window",
    "zakai-benchmark": f"grid_vs_kalman at |grid mean - Kalman mean| <= {_GRID_TOL}, "
    f"refinement_factor at every factor in {list(_FACTOR_RANGE)}; particle_vs_kalman is informational",
    "coercivity": f"ratio_within_C_dx at |ratio - 1| <= {_C_MAX} dx for every cell count",
}

_RUNNERS = {
    "donsker-table": _run_donsker_table,
    "forward-convergence": _run_forward_convergence,
    "portfolio": _run_portfolio,
    "stationarity": _run_stationarity,
    "zakai-benchmark": _run_zakai_benchmark,
    "coercivity": _run_coercivity,
}


def run_experiment(config_path: Path, out_dir: Path, seed_override=None) -> dict:
    """Validate, run, and write artifacts plus a manifest.  Returns the
    manifest dict; raises ConfigError / NumericalCheckFailure.  A library
    error that stops the runner still leaves a manifest, whose error entry
    names it in place of the verdicts, and then propagates."""
    raw, cfg = _load_config(config_path)
    seed = cfg["seed"] if seed_override is None else _read_seed(seed_override)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "kind": cfg["kind"],
        "config_sha256": hashlib.sha256(raw).hexdigest(),
        "seed": seed,
        "versions": {
            "spdecontrol": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": ".".join(map(str, sys.version_info[:3])),
        },
    }
    try:
        verdicts, artifacts = _RUNNERS[cfg["kind"]](seed, out_dir, **cfg["params"])
    except SpdeControlError as exc:
        _write_json(out_dir / "manifest.json", {**manifest, "error": f"{type(exc).__name__}: {exc}"})
        raise
    manifest.update(verdicts=verdicts, artifacts=artifacts)
    _write_json(out_dir / "manifest.json", manifest)
    failed = [name for name, v in verdicts.items() if v.get("passed") is False]
    if failed:
        raise NumericalCheckFailure(f"numerical check failed: {', '.join(failed)}")
    return manifest


def _cmd_list(args) -> int:
    if args.kind is None:
        for kind in sorted(SCHEMAS):
            print(kind)
        return 0
    if args.kind not in SCHEMAS:
        hint = difflib.get_close_matches(args.kind, SCHEMAS, n=1)
        msg = f"unknown kind {args.kind!r}"
        if hint:
            msg += f"; did you mean {hint[0]!r}?"
        print(msg, file=sys.stderr)
        return 2
    print(args.kind)
    for field_name, desc in SCHEMAS[args.kind].items():
        print(f"  {field_name}: {desc}")
    print(f"  passes: {_PASSES[args.kind]}")
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="spdecontrol",
        description="Run configured experiments: insider-density tables, forward "
        "convergence studies, portfolio comparisons, stationarity reports, "
        "filtering benchmarks, and coercivity tables.  CSV columns per kind "
        "are listed by `spdecontrol list <kind>`.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run one experiment from a config file")
    run_p.add_argument("--config", required=True)
    run_p.add_argument("--out", required=True)
    run_p.add_argument("--seed", type=int, default=None, help="override the config seed")
    val_p = sub.add_parser("validate", help="validate a config without running it")
    val_p.add_argument("--config", required=True)
    list_p = sub.add_parser("list", help="list experiment kinds or one kind's schema")
    list_p.add_argument("kind", nargs="?", default=None)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list(args)
    try:
        if args.command == "validate":
            _load_config(args.config)
            print("ok")
        else:
            manifest = run_experiment(args.config, args.out, args.seed)
            print(json.dumps({"kind": manifest["kind"], "verdicts": manifest["verdicts"]}, sort_keys=True))
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SpdeControlError as exc:  # a failed check or a library error that stopped the run
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
