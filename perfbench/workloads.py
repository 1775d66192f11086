"""The four benchmark workloads.

Each workload is one closed-loop user experiment: build the models, run the
library, read back what it produced and check it.  ``iterate(seed, out_dir)``
does all of that for one library seed and returns the experiment's result
numbers and its named checks.  Sizes are fixed here; only the seed varies.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from pathlib import Path

import numpy as np
import yaml

from spdecontrol import cli, donsker, maxprinciple, noise, portfolio, zakai
from spdecontrol.forward import CoefficientSet, ControlPolicy, OperatorSpec, SpatialGrid
from spdecontrol.noise import LevySpec, TimeGrid

# martingale checks accept |mean - expected| <= Z_TOL standard errors
Z_TOL = 4.0


def _run_cli(kind, params, seed, out_dir: Path):
    """One ``spdecontrol run`` on a config file; returns (exit code, manifest,
    output directory)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    config = out_dir / f"{kind}.yaml"
    config.write_text(yaml.safe_dump({"kind": kind, "seed": 0, "params": params}))
    out = out_dir / kind
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["run", "--config", str(config), "--out", str(out), "--seed", str(seed)])
    manifest = json.loads((out / "manifest.json").read_text())
    return code, manifest, out


def _csv_rows(path: Path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _verdicts(manifest, names):
    v = manifest["verdicts"]
    return [(f"{manifest['kind']}.{n}", v[n]["passed"] is True) for n in names]


class InsiderPortfolio:
    """The paper's headline insider experiment on the vectorized ensemble:
    pi-hat against shifted controls, then time-localized stationarity."""

    name = "insider-portfolio"
    PORTFOLIO = {"T": 0.5, "z": 0.5, "n_cells": 16, "n_steps": 200, "n_paths": 1000,
                 "shifts": [-0.25, 0.25]}
    STATIONARITY = {"T": 0.5, "z": 0.5, "n_cells": 16, "n_steps": 50, "n_paths": 500,
                    "n_windows": 3}
    expected = ["noise.draw", "donsker.density", "donsker.drift", "donsker.closed_form",
                "donsker.sigma2", "forward.assemble", "forward.solve", "forward.policy",
                "maxprinciple.ensemble", "maxprinciple.estimate", "maxprinciple.gateaux",
                "maxprinciple.stationarity", "portfolio.experiment", "cli.run", "cli.write",
                "cli.json_dump"]

    @property
    def path_steps(self):
        p, s = self.PORTFOLIO, self.STATIONARITY
        n_candidates = 1 + len(p["shifts"])
        return (n_candidates * p["n_paths"] * p["n_steps"]
                + 2 * s["n_windows"] * s["n_paths"] * s["n_steps"])

    def iterate(self, seed, out_dir: Path):
        code, manifest, out = _run_cli("portfolio", self.PORTFOLIO, seed, out_dir)
        checks = [("portfolio.exit_code", code == 0)]
        checks += _verdicts(manifest, ["optimum_has_max_mean", "no_rejections"])
        numbers = {}
        for row in _csv_rows(out / "portfolio.csv"):
            for col in ("j-mean", "stderr", "rejection-rate"):
                numbers[f"portfolio.{row['control-name']}.{col}"] = float(row[col])

        s = self.STATIONARITY
        market, utility, spec = portfolio.benchmark_market(s["n_cells"])
        coeffs, op = portfolio.wealth_dynamics(market)
        perf = portfolio.log_utility_performance(market, utility)
        policy = portfolio.optimal_policy(market, spec)
        report = maxprinciple.verify_x_independent_stationarity(
            coeffs, op, policy, perf, spec, s["z"], market.D, TimeGrid(0.0, s["T"], s["n_steps"]),
            n_windows=s["n_windows"], n_paths=s["n_paths"], seed=seed,
        )
        checks.append(("stationarity.passed", report["passed"] is True))
        for i, w in enumerate(report["windows"]):
            for key in ("statistic", "stderr", "tstat"):
                numbers[f"stationarity.{i}.{key}"] = float(w[key])
        return numbers, checks


class GeneralJump:
    """The paper's general model: one Levy atom drives the insider variable
    and the state, with a control-dependent nonlocal operator."""

    name = "general-jump"
    SIZE = {"n_paths": 96, "n_steps": 25, "n_cells": 16, "T": 0.5, "z": 0.3}
    expected = ["noise.draw", "donsker.density", "donsker.fourier", "donsker.sigma2",
                "forward.assemble", "forward.solve", "forward.policy",
                "maxprinciple.ensemble", "maxprinciple.estimate"]

    @property
    def path_steps(self):
        return self.SIZE["n_paths"] * self.SIZE["n_steps"]

    def iterate(self, seed, out_dir: Path):
        s = self.SIZE
        # one LevySpec object feeds the insider variable, the operator and the
        # ensemble, so no component silently runs without the jumps
        levy = LevySpec(((0.5, 3.0),))
        chaos = donsker.FirstOrderChaosSpec(
            beta=lambda t: 1.0, psi=lambda t, mark: mark, levy=levy, T0=1.0
        )
        op = OperatorSpec(
            second_coeff=lambda t, x, u, z: 0.5 + 0.1 * u * u,
            first_coeff=lambda t, x, u, z: 0.1 * u,
            jump_shift=lambda t, x, u, z, mark: 0.05 * mark,
            levy=levy,
            control_dependent=True,
        )
        coeffs = CoefficientSet(
            a=lambda t, x, y, u, z: 0.1 * u * y,
            b=lambda t, x, y, u, z: 0.2 * y,
            c=lambda t, x, y, u, z, mark: 0.1 * mark * y,
            xi=lambda x, z: np.sin(math.pi * x),
        )
        policy = ControlPolicy(
            rule=lambda k, t, x, z, hist: np.clip(0.5 + 0.1 * np.asarray(hist.m), 0.0, 1.0),
            bounds=(0.0, 1.0),
        )
        perf = maxprinciple.PerformanceSpec(
            h=lambda t, x, y, u, z: -0.5 * u * u * y, k=lambda x, y, z: y
        )
        est, samples = maxprinciple.estimate_j(
            coeffs, op, policy, perf, chaos, s["z"], SpatialGrid(0.0, 1.0, s["n_cells"]),
            TimeGrid(0.0, s["T"], s["n_steps"]), s["n_paths"], seed,
            levy=levy, return_samples=True,
        )
        checks = [
            ("estimate.samples_finite", bool(np.all(np.isfinite(samples)))),
            ("estimate.stderr_positive", est.stderr > 0.0),
        ]
        numbers = {"estimate.mean": est.mean, "estimate.stderr": est.stderr,
                   "estimate.sample_sum_sq": float(samples @ samples)}
        return numbers, checks


def _linear_gaussian_model(a=-0.5, b=0.4, c=1.0, m0=0.0, P0=0.04):
    """The signal model of the CLI's zakai-benchmark at its defaults."""
    return zakai.SignalModel(
        alpha=lambda x, r, u: a * x,
        beta=lambda x, r, u: b,
        h_obs=lambda x: c * x,
        F_init=lambda x, z: np.exp(-((x - m0) ** 2) / (2 * P0)) / math.sqrt(2 * math.pi * P0),
    )


class Filtering:
    """Partial observation only: Zakai grid sweeps at two resolutions against
    Kalman and a particle filter, plus reference-measure performance."""

    name = "filtering"
    ZAKAI = {"n_cells": 200, "n_steps": 50, "n_particles": 4000, "refine_levels": 2}
    TRANSFORMED = {"n_paths": 200, "n_steps": 25, "n_cells": 100}
    expected = ["noise.draw", "zakai.particle", "zakai.sweep", "zakai.kalman",
                "zakai.simulate", "zakai.transformed", "cli.run", "cli.write",
                "cli.json_dump"]

    @property
    def path_steps(self):
        z, t = self.ZAKAI, self.TRANSFORMED
        sweeps = sum(z["n_steps"] * 2**lvl for lvl in range(z["refine_levels"]))
        return sweeps + z["n_particles"] * z["n_steps"] + t["n_paths"] * t["n_steps"]

    def iterate(self, seed, out_dir: Path):
        code, manifest, out = _run_cli("zakai-benchmark", self.ZAKAI, seed, out_dir)
        checks = [("zakai-benchmark.exit_code", code == 0)]
        checks += _verdicts(manifest, ["grid_vs_kalman", "refinement_factor"])
        report = json.loads((out / "zakai_report.json").read_text())
        numbers = {}
        for key, val in sorted(report.items()):
            if key == "seed":
                continue
            for i, v in enumerate(val if isinstance(val, list) else [val]):
                numbers[f"zakai.{key}.{i}"] = float(v)

        t = self.TRANSFORMED
        model = _linear_gaussian_model()
        sgrid = SpatialGrid(-2.0, 2.0, t["n_cells"])
        est = zakai.transformed_performance(
            model, None, None, lambda x: np.ones_like(x), 0.0, sgrid,
            TimeGrid(0.0, 1.0, t["n_steps"]), t["n_paths"], seed,
        )
        # with g = 1 the estimate is E[mass(T)], a martingale started at the
        # initial rectangle-rule mass
        mass0 = sgrid.dx * float(np.sum(model.F_init(sgrid.nodes(), 0.0)))
        checks.append(("transformed.mass_martingale",
                       abs(est.mean - mass0) <= Z_TOL * est.stderr))
        numbers["transformed.mean"] = est.mean
        numbers["transformed.stderr"] = est.stderr
        return numbers, checks


class SinglePath:
    """One scalar path at a time: the single-path forward convergence study
    and the reduced adjoint martingale under pi-hat."""

    name = "single-path"
    CONVERGENCE = {"space_cells": [4, 8, 16], "space_steps": 1024}
    ADJOINT = {"n_paths": 200, "n_steps": 50, "T": 0.5, "z": 0.5}
    TIME_STEPS = [16, 32, 64]  # the CLI's default time study
    expected = ["noise.draw", "donsker.closed_form", "donsker.drift", "donsker.sigma2",
                "forward.assemble", "forward.solve", "forward.sweep", "forward.step",
                "forward.policy", "maxprinciple.adjoint", "cli.run", "cli.write",
                "cli.json_dump"]

    @property
    def path_steps(self):
        a = self.ADJOINT
        return (len(self.CONVERGENCE["space_cells"]) * self.CONVERGENCE["space_steps"] + sum(self.TIME_STEPS)
                + a["n_paths"] * a["n_steps"])

    def iterate(self, seed, out_dir: Path):
        code, manifest, out = _run_cli("forward-convergence", self.CONVERGENCE, seed, out_dir)
        checks = [("forward-convergence.exit_code", code == 0)]
        checks += _verdicts(manifest, ["space_order", "time_order"])
        numbers = {f"convergence.{i}.max_error": float(row["max_error"])
                   for i, row in enumerate(_csv_rows(out / "convergence.csv"))}

        a = self.ADJOINT
        market, _, spec = portfolio.benchmark_market()
        policy = portfolio.optimal_policy(market, spec)
        tgrid = TimeGrid(0.0, a["T"], a["n_steps"])
        inv_p0 = np.empty(a["n_paths"])
        for p in range(a["n_paths"]):
            bundle = noise.sample_bundle(tgrid, LevySpec(), seed, p)
            path = maxprinciple.reduced_adjoint_solve(
                market.a0, market.b0, policy, 1.0, bundle, a["z"], chaos=spec
            )
            inv_p0[p] = 1.0 / path.p0
        # the adjoint with terminal value 1 is a stochastic exponential, so
        # 1 / p0 has mean exactly 1 in discrete time
        mean = float(np.mean(inv_p0))
        stderr = float(np.std(inv_p0, ddof=1) / math.sqrt(a["n_paths"]))
        checks.append(("adjoint.martingale", abs(mean - 1.0) <= Z_TOL * stderr))
        numbers["adjoint.mean_inv_p0"] = mean
        numbers["adjoint.stderr"] = stderr
        return numbers, checks


WORKLOADS = {w.name: w for w in (InsiderPortfolio(), GeneralJump(), Filtering(), SinglePath())}
