"""Configuration-driven command line entry point.

Subcommands: run, list, validate.  Configs are YAML files with top-level keys
kind / seed / params; every run writes its artifacts plus a manifest JSON
(config hash, seeds, versions, per-check verdicts) into the output directory.
Exit codes: 0 success, 2 configuration error, 3 numerical-check failure.
"""
from __future__ import annotations

import argparse
import csv
import difflib
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np
import scipy
import yaml

from . import __version__, donsker, portfolio, zakai
from .donsker import FirstOrderChaosSpec, HistorySnapshot
from .errors import ConfigError, NumericalCheckFailure
from .forward import CoefficientSet, ControlPolicy, OperatorSpec, SpatialGrid, solve_forward
from .maxprinciple import verify_x_independent_stationarity
from .noise import LevySpec, PathBundle, TimeGrid, sample_bundle
from .zakai import ObservationPath, SignalModel

__all__ = ["main", "validate_config", "run_experiment", "SCHEMAS"]

SCHEMAS = {
    "donsker-table": {
        "T0": "terminal information time, float > 0 (default 1.0)",
        "beta_const": "constant integrand of the information variable (default 1.0)",
        "t_values": "list of evaluation times, each in [0, T0)",
        "z_values": "list of density evaluation points",
        "history_mean": "realized conditioning mean m(t) (default 0.0)",
        "tol_abs": "max |quadrature - closed form| allowed (default 1e-8)",
    },
    "forward-convergence": {
        "t_end": "horizon of the diffusion oracle (default 0.1)",
        "space_cells": "list of cell counts for the space study (default [8, 16, 32])",
        "space_steps": "fine step count shared by the space study (default 4096)",
        "time_steps": "list of step counts for the time study (default [16, 32, 64])",
        "time_cells": "cell count shared by the time study (default 16)",
        "dx_order_range": "accepted empirical order interval (default [1.8, 2.2])",
        "dt_order_range": "accepted empirical order interval (default [0.8, 1.2])",
    },
    "portfolio": {
        "T": "trading horizon, must satisfy T < T0 = 1",
        "z": "conditioning value of the insider variable (default 0.5)",
        "n_cells": "spatial cells of the wealth grid (default 16)",
        "n_steps": "time steps (default 200)",
        "n_paths": "Monte Carlo paths (default 2000)",
        "shifts": "constant control offsets compared against the optimum (default [-0.25, 0.25])",
    },
    "stationarity": {
        "T": "horizon, must satisfy T < T0 = 1",
        "z": "conditioning value (default 0.5)",
        "n_cells": "spatial cells (default 16)",
        "n_steps": "time steps (default 100)",
        "n_paths": "Monte Carlo paths (default 2000)",
        "n_windows": "time windows for localized directions (default 3)",
        "a_step": "central difference step (default 1e-3)",
        "tol_tstat": "verdict threshold on |t| (default 3.0)",
    },
    "zakai-benchmark": {
        "a": "signal drift rate dX = aX dt + b dv (default -0.5)",
        "b": "signal volatility (default 0.4)",
        "c": "observation gain dR = cX dt + dw (default 1.0)",
        "m0": "initial state mean (default 0.0)",
        "P0": "initial state variance (default 0.04)",
        "x_lo": "state-space truncation, lower edge (default -2.0)",
        "x_hi": "state-space truncation, upper edge (default 2.0)",
        "n_cells": "spatial cells at the base resolution (default 400)",
        "n_steps": "time steps at the base resolution (default 100)",
        "T": "horizon (default 1.0)",
        "n_particles": "particle-filter oracle size (default 10000)",
        "tol_grid": "allowed |grid mean - Kalman mean| (default 5e-2)",
        "refine_levels": "number of halvings of dx and dt measured (default 2)",
        "factor_range": "accepted per-halving error-reduction interval (default [1.6, 2.6])",
    },
    "coercivity": {
        "pi": "control value scaling the generator (default 1.0)",
        "beta_slope": "volatility profile beta(x) = 1 + slope*x (default 0.5)",
        "cells": "list of cell counts (default [16, 32, 64])",
        "C_max": "allowed constant in |ratio - 1| <= C dx (default 5.0)",
    },
}

_CONSTRAINTS = {
    "portfolio": "T < T0",
    "stationarity": "T < T0",
}


def _fail_config(msg: str):
    raise ConfigError(msg)


def validate_config(cfg: dict) -> dict:
    """Schema plus physical-constraint validation; returns normalized config."""
    if not isinstance(cfg, dict):
        _fail_config("config root must be a mapping")
    kind = cfg.get("kind")
    if kind not in SCHEMAS:
        _fail_config(f"unknown kind {kind!r}; expected one of {sorted(SCHEMAS)}")
    params = cfg.get("params", {}) or {}
    if not isinstance(params, dict):
        _fail_config("params must be a mapping")
    unknown = set(params) - set(SCHEMAS[kind])
    if unknown:
        _fail_config(f"unknown parameter(s) {sorted(unknown)} for kind {kind}")
    seed = cfg.get("seed", 0)
    if not isinstance(seed, int) or seed < 0:
        _fail_config("seed must be a nonnegative integer")

    p = dict(params)
    if kind == "donsker-table":
        T0 = float(p.get("T0", 1.0))
        if T0 <= 0:
            _fail_config("constraint violated: T0 > 0")
        for t in p.get("t_values", [0.0, 0.5]):
            if not 0 <= t < T0:
                _fail_config(f"constraint violated: t < T0 (t={t}, T0={T0})")
    if kind in ("portfolio", "stationarity"):
        T = float(p.get("T", 0.5))
        if not T < 1.0:
            _fail_config(f"constraint violated: T < T0 (T={T}, T0=1.0)")
        if T <= 0:
            _fail_config("constraint violated: T > 0")
    if kind == "zakai-benchmark":
        if float(p.get("x_hi", 2.0)) <= float(p.get("x_lo", -2.0)):
            _fail_config("constraint violated: x_hi > x_lo")
        if int(p.get("n_particles", 10000)) < 100:
            _fail_config("constraint violated: n_particles >= 100")
    for key in ("n_paths", "n_steps", "n_cells"):
        if key in p and int(p[key]) < 1:
            _fail_config(f"constraint violated: {key} >= 1")
    return {"kind": kind, "seed": seed, "params": p}


def _jsonify(obj):
    """Recursively coerce numpy scalars/arrays to plain Python types."""
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    return obj


def _write_csv(path: Path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([repr(float(v)) if isinstance(v, float) else v for v in row])


def _zero_bundle(tgrid: TimeGrid) -> PathBundle:
    return PathBundle(
        grid=tgrid,
        brownian_increments=np.zeros(tgrid.n_steps),
        jump_events=tuple(() for _ in range(tgrid.n_steps)),
        seed=0,
        path_index=0,
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
        time_invariant=True,
        control_dependent=False,
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


def _run_donsker_table(p, seed, out: Path):
    T0 = float(p.get("T0", 1.0))
    beta_const = float(p.get("beta_const", 1.0))
    t_values = [float(t) for t in p.get("t_values", [0.0, 0.25, 0.5, 0.75])]
    z_values = [float(z) for z in p.get("z_values", [-1.0, -0.5, 0.0, 0.5, 1.0])]
    m0 = float(p.get("history_mean", 0.0))
    tol = float(p.get("tol_abs", 1e-8))
    spec = FirstOrderChaosSpec(beta=lambda s: beta_const, T0=T0)
    rows = []
    worst = 0.0
    for t in t_values:
        hist = HistorySnapshot(t=t, accumulated_b=m0)
        for z in z_values:
            cf = donsker.conditional_delta(spec, z, hist, method="closed_form")
            qd = donsker.conditional_delta(spec, z, hist, method="quadrature")
            worst = max(worst, abs(cf - qd))
            rows.append([float(t), float(z), float(cf), float(qd), float(abs(cf - qd))])
    _write_csv(out / "donsker_table.csv", ["t", "z", "closed_form", "quadrature", "abs_err"], rows)
    verdicts = {"quadrature_matches_closed_form": {"max_abs_err": worst, "tol": tol, "passed": worst <= tol}}
    return verdicts, ["donsker_table.csv"]


def _run_forward_convergence(p, seed, out: Path):
    t_end = float(p.get("t_end", 0.1))
    space_cells = [int(c) for c in p.get("space_cells", [8, 16, 32])]
    space_steps = int(p.get("space_steps", 4096))
    time_steps = [int(s) for s in p.get("time_steps", [16, 32, 64])]
    time_cells = int(p.get("time_cells", 16))
    dx_lo, dx_hi = [float(v) for v in p.get("dx_order_range", [1.8, 2.2])]
    dt_lo, dt_hi = [float(v) for v in p.get("dt_order_range", [0.8, 1.2])]

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


def _run_portfolio(p, seed, out: Path):
    T = float(p.get("T", 0.5))
    z = float(p.get("z", 0.5))
    n_cells = int(p.get("n_cells", 16))
    n_steps = int(p.get("n_steps", 200))
    n_paths = int(p.get("n_paths", 2000))
    shifts = [float(s) for s in p.get("shifts", [-0.25, 0.25])]
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
        "optimum_has_max_mean": {
            "best": best.name,
            "passed": best.name == "pi_hat",
            "means": {r.name: r.estimate.mean for r in results},
        },
        "no_rejections": {
            "rates": {r.name: r.rejection_rate for r in results},
            "passed": all(r.n_rejected == 0 for r in results),
        },
    }
    return verdicts, ["portfolio.csv"]


def _run_stationarity(p, seed, out: Path):
    T = float(p.get("T", 0.5))
    z = float(p.get("z", 0.5))
    n_cells = int(p.get("n_cells", 16))
    n_steps = int(p.get("n_steps", 100))
    n_paths = int(p.get("n_paths", 2000))
    n_windows = int(p.get("n_windows", 3))
    a_step = float(p.get("a_step", 1e-3))
    tol_tstat = float(p.get("tol_tstat", 3.0))
    market, utility, spec = portfolio.benchmark_market(n_cells)
    coeffs, op = portfolio.wealth_dynamics(market)
    perf = portfolio.log_utility_performance(market, utility)
    pol = portfolio.optimal_policy(market, spec)
    tgrid = TimeGrid(0.0, T, n_steps)
    report = verify_x_independent_stationarity(
        coeffs, op, pol, perf, spec, z, market.D, tgrid,
        n_windows=n_windows, n_paths=n_paths, seed=seed, a_step=a_step, tol_tstat=tol_tstat,
    )
    with open(out / "stationarity.json", "w") as fh:
        json.dump(_jsonify(report), fh, indent=2, sort_keys=True)
    verdicts = {"stationarity": {"max_abs_tstat": report["max_abs_tstat"], "passed": report["passed"]}}
    return verdicts, ["stationarity.json"]


def _run_zakai_benchmark(p, seed, out: Path):
    a = float(p.get("a", -0.5))
    b = float(p.get("b", 0.4))
    c = float(p.get("c", 1.0))
    m0 = float(p.get("m0", 0.0))
    P0 = float(p.get("P0", 0.04))
    x_lo = float(p.get("x_lo", -2.0))
    x_hi = float(p.get("x_hi", 2.0))
    n_cells = int(p.get("n_cells", 400))
    n_steps = int(p.get("n_steps", 100))
    T = float(p.get("T", 1.0))
    n_particles = int(p.get("n_particles", 10000))
    tol_grid = float(p.get("tol_grid", 5e-2))
    levels = int(p.get("refine_levels", 2))
    f_lo, f_hi = [float(v) for v in p.get("factor_range", [1.6, 2.6])]

    model = SignalModel(
        alpha=lambda x, r, u: a * x,
        beta=lambda x, r, u: b,
        h_obs=lambda x: c * x,
        F_init=lambda x, z: np.exp(-((x - m0) ** 2) / (2 * P0)) / math.sqrt(2 * math.pi * P0),
    )
    # one underlying observation path at the finest resolution, aggregated
    # down; each grid run is compared against the Kalman recursion driven by
    # the identically aggregated increments
    fine_steps = n_steps * 2 ** (levels - 1)
    tg_fine = TimeGrid(0.0, T, fine_steps)
    x0 = zakai.sample_initial_states(model, SpatialGrid(x_lo, x_hi, n_cells), 1, seed, channel=15)[0]
    bv = sample_bundle(tg_fine, LevySpec(), seed, 0, channel=13)
    bw = sample_bundle(tg_fine, LevySpec(), seed, 0, channel=14)
    _, obs_fine = zakai.simulate_signal_observation(model, None, 0.0, bv, bw, x0)

    errors = []
    base = None
    for lvl in range(levels):
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
    with open(out / "zakai_report.json", "w") as fh:
        json.dump(_jsonify(report), fh, indent=2, sort_keys=True)
    zakai.filter_snapshots_csv(sol0, out / "zakai_density.csv")
    verdicts = {
        "grid_vs_kalman": {"abs_err": errors[0], "tol": tol_grid, "passed": errors[0] <= tol_grid},
        "refinement_factor": {
            "factors": factors,
            "range": [f_lo, f_hi],
            "passed": all(f_lo <= f <= f_hi for f in factors),
        },
        "particle_vs_kalman": {"abs_err": abs(float(pf["means"][-1]) - kalman_mean)},
    }
    return verdicts, ["zakai_report.json", "zakai_density.csv"]


def _run_coercivity(p, seed, out: Path):
    pi = float(p.get("pi", 1.0))
    slope = float(p.get("beta_slope", 0.5))
    cells = [int(c) for c in p.get("cells", [16, 32, 64])]
    C_max = float(p.get("C_max", 5.0))
    rows = []
    ok = True
    for n_cells in cells:
        sgrid = SpatialGrid(0.0, 1.0, n_cells)
        xs = sgrid.nodes()
        y = np.sin(math.pi * xs)
        y[0] = y[-1] = 0.0
        lhs, rhs = zakai.coercivity_check(y, pi, lambda x: 1.0 + slope * x, sgrid)
        ratio = lhs / rhs if rhs != 0 else math.nan
        rows.append([float(sgrid.dx), float(lhs), float(rhs), float(ratio)])
        if pi != 0.0 and not abs(ratio - 1.0) <= C_max * sgrid.dx:
            ok = False
    _write_csv(out / "coercivity.csv", ["dx", "lhs", "rhs", "ratio"], rows)
    verdicts = {"ratio_within_C_dx": {"C_max": C_max, "passed": ok}}
    return verdicts, ["coercivity.csv"]


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
    manifest dict; raises ConfigError / NumericalCheckFailure."""
    raw = Path(config_path).read_bytes()
    try:
        cfg = yaml.safe_load(raw)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config parse failure: {exc}") from exc
    cfg = validate_config(cfg)
    seed = int(seed_override) if seed_override is not None else cfg["seed"]
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    verdicts, artifacts = _RUNNERS[cfg["kind"]](cfg["params"], seed, out_dir)
    verdicts = _jsonify(verdicts)
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
        "verdicts": verdicts,
        "artifacts": artifacts,
    }
    with open(out_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
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
    if args.command == "validate":
        try:
            raw = Path(args.config).read_bytes()
            validate_config(yaml.safe_load(raw))
        except (ConfigError, OSError, yaml.YAMLError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        print("ok")
        return 0
    try:
        manifest = run_experiment(args.config, args.out, args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalCheckFailure as exc:
        print(str(exc), file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"kind": manifest["kind"], "verdicts": manifest["verdicts"]}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
