"""Span timing around the library's entry points, recorded from outside it.

Each wrapped entry point belongs to a *group* (``noise.draw``,
``forward.solve``, ...) whose first component is its *layer*.  A wrapper
records the span of every call and the time spent in the spans of wrapped
calls it makes, so that

* a group's inclusive time counts only its outermost calls (a group calling
  itself is not counted twice), and
* a group's self time is its spans minus the spans of its direct children;
  self times of all groups add up to the time covered by top-level spans.

Wrappers are installed into every ``spdecontrol`` module namespace that holds
the original object (``from .noise import brownian_increment_matrix`` leaves a
second reference in ``maxprinciple``), and onto classes for methods.  The
originals are restored when the ``installed`` context exits.
"""
from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path


class Tracer:
    """In-memory span and counter store for one traced iteration."""

    def __init__(self):
        self.reset()

    def reset(self):
        self._stack = []  # child-time accumulators of the open spans
        self._depth = defaultdict(int)
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self.maxima = defaultdict(float)
        self.keys = defaultdict(set)

    def wrap(self, group, fn, hook=None):
        """Return fn wrapped in a span of ``group``; ``hook(tracer, arguments,
        result)`` adds counters after the span has closed."""
        sig = inspect.signature(fn) if hook is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            child = [0.0]
            self._stack.append(child)
            self._depth[group] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - start
                self._stack.pop()
                self._depth[group] -= 1
                if self._stack:
                    self._stack[-1][0] += dur
                if self._depth[group] == 0:
                    self.inclusive[group] += dur
                self.self_time[group] += dur - child[0]
                self.calls[group] += 1
            if hook is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(self, bound.arguments, result)
            return result

        return wrapper

    def layer_self(self, layer):
        return sum(v for g, v in self.self_time.items() if g.split(".")[0] == layer)

    def covered(self):
        return sum(self.self_time.values())


# hooks: counters measured where the work happens; each receives the call's
# bound arguments (defaults applied) and its result ------------------------

def _rows_drawn(kind):
    def hook(tr, a, result):
        if kind == "P" and not result:  # no atoms: nothing drawn
            return
        tr.counts["noise.rows"] += len(a["path_indices"])
        tr.keys["noise.keys"].update(
            (kind, a["seed"], a["channel"], int(p)) for p in a["path_indices"]
        )

    return hook


def _sigma2_hook(tr, a, result):
    tr.keys["donsker.sigma2_t"].add((id(a["self"]), float(a["t"])))


def _solve_hook(tr, a, result):
    rhs = a["rhs"]
    tr.counts["forward.rows_solved"] += 1 if getattr(rhs, "ndim", 1) == 1 else rhs.shape[0]


def _portfolio_hook(tr, a, result):
    for r in result:
        tr.counts["portfolio.rejected"] += r.n_rejected
        tr.counts["portfolio.paths"] += r.n_paths


def _sweep_hook(tr, a, result):
    tr.counts["zakai.grid_steps"] += result.tgrid.n_steps
    tr.counts["zakai.clamp_defect"] += result.clamp_defect
    tr.maxima["zakai.boundary_mass"] = max(
        tr.maxima["zakai.boundary_mass"], float(result.boundary_mass[-1])
    )


def _particle_hook(tr, a, result):
    tr.counts["zakai.particle_steps"] += a["n_particles"] * a["obs"].grid.n_steps


def _bytes_hook(tr, a, result):
    argv = a["argv"]
    out = Path(argv[argv.index("--out") + 1])
    tr.counts["cli.bytes_written"] += sum(
        f.stat().st_size for f in out.rglob("*") if f.is_file()
    )


# (group, module, attribute or Class.method, hook)
ENTRY_POINTS = [
    ("noise.draw", "noise", "brownian_increment_matrix", _rows_drawn("B")),
    ("noise.draw", "noise", "jump_count_matrices", _rows_drawn("P")),
    ("noise.draw", "noise", "sample_bundle", None),
    ("donsker.density", "donsker", "delta_from_mean", None),
    ("donsker.density", "donsker", "conditional_delta", None),
    ("donsker.density", "donsker", "gaussian_weight", None),
    ("donsker.drift", "donsker", "phi1_from_mean", None),
    ("donsker.drift", "donsker", "phi1", None),
    ("donsker.fourier", "donsker", "_fourier_moment", None),
    ("donsker.closed_form", "donsker", "gaussian_phi1", None),
    ("donsker.closed_form", "donsker", "_gaussian_pdf", None),
    ("donsker.sigma2", "donsker", "FirstOrderChaosSpec.residual_variance", _sigma2_hook),
    ("forward.assemble", "forward", "assemble_operator", None),
    ("forward.solve", "forward", "AssembledOperator.solve_implicit", _solve_hook),
    ("forward.sweep", "forward", "solve_forward", None),
    ("forward.step", "forward", "step_forward", None),
    ("forward.policy", "forward", "ControlPolicy.values", None),
    ("maxprinciple.ensemble", "maxprinciple", "run_ensemble", None),
    ("maxprinciple.estimate", "maxprinciple", "estimate_j", None),
    ("maxprinciple.gateaux", "maxprinciple", "gateaux_derivative", None),
    ("maxprinciple.stationarity", "maxprinciple", "verify_x_independent_stationarity", None),
    ("maxprinciple.adjoint", "maxprinciple", "reduced_adjoint_solve", None),
    ("portfolio.experiment", "portfolio", "run_portfolio_experiment", _portfolio_hook),
    ("zakai.particle", "zakai", "particle_filter_oracle", _particle_hook),
    ("zakai.sweep", "zakai", "solve_zakai", _sweep_hook),
    ("zakai.kalman", "zakai", "kalman_bucy_oracle", None),
    ("zakai.simulate", "zakai", "simulate_signal_observation", None),
    ("zakai.transformed", "zakai", "transformed_performance", None),
    ("cli.run", "cli", "main", _bytes_hook),
    ("cli.run", "cli", "run_experiment", None),
    # artifact writers count as the cli write path wherever they live
    ("cli.write", "cli", "_write_csv", None),
    ("cli.write", "portfolio", "portfolio_table_csv", None),
    ("cli.write", "zakai", "filter_snapshots_csv", None),
]

class _JsonWithTracedDump:
    """Stand-in for the ``json`` module inside ``cli`` whose ``dump`` is
    wrapped, so report and manifest writes count as the cli write path."""

    def __init__(self, dump):
        self.dump = dump

    def __getattr__(self, name):
        return getattr(json, name)


def _library_modules():
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "spdecontrol" or name.startswith("spdecontrol."))]


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Install every wrapper for the duration of the block, then restore."""
    import spdecontrol.cli  # noqa: F401  (load every module before scanning)

    modules = _library_modules()
    patches = []  # (owner, attribute, original)
    try:
        for group, mod_name, attr, hook in ENTRY_POINTS:
            # an entry point a later version renamed or removed is skipped; its
            # group then counts no calls, which fails the wrappers-hit check
            owner = sys.modules[f"spdecontrol.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                original = vars(getattr(owner, cls_name, object)).get(meth)
                if original is None:
                    continue
                cls = getattr(owner, cls_name)
                patches.append((cls, meth, original))
                setattr(cls, meth, tracer.wrap(group, original, hook))
                continue
            original = getattr(owner, attr, None)
            if original is None:
                continue
            wrapped = tracer.wrap(group, original, hook)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        patches.append((module, name, original))
                        setattr(module, name, wrapped)
        cli = sys.modules["spdecontrol.cli"]
        patches.append((cli, "json", cli.json))
        cli.json = _JsonWithTracedDump(tracer.wrap("cli.json_dump", json.dump))
        yield tracer
    finally:
        for owner, name, original in reversed(patches):
            setattr(owner, name, original)
        for owner, name, original in patches:
            if getattr(owner, name) is not original:
                raise RuntimeError(f"failed to restore {owner!r}.{name}")


def layer_metrics(tr: Tracer, wall_s: float) -> dict:
    """Per-layer metrics of one traced iteration (name -> value)."""
    s, c = tr.inclusive, tr.calls
    rows = tr.counts["noise.rows"]
    sig_calls = c["donsker.sigma2"]
    paths = tr.counts["portfolio.paths"]
    return {
        "noise.draw_s": tr.layer_self("noise"),
        "noise.paths_drawn": rows,
        "noise.redraw_ratio": rows / len(tr.keys["noise.keys"]) if rows else 0.0,
        "donsker.density_s": s["donsker.density"],
        "donsker.density_calls": c["donsker.density"],
        "donsker.drift_s": s["donsker.drift"],
        "donsker.drift_calls": c["donsker.drift"],
        "donsker.fourier_s": s["donsker.fourier"],
        "donsker.fourier_calls": c["donsker.fourier"],
        "donsker.closed_form_s": s["donsker.closed_form"],
        "donsker.closed_form_calls": c["donsker.closed_form"],
        "donsker.sigma2_s": s["donsker.sigma2"],
        "donsker.sigma2_calls": sig_calls,
        "donsker.sigma2_reuse_ratio": (
            sig_calls / len(tr.keys["donsker.sigma2_t"]) if sig_calls else 0.0
        ),
        "donsker.self_s": tr.layer_self("donsker"),
        "forward.assemble_s": s["forward.assemble"],
        "forward.assemble_calls": c["forward.assemble"],
        "forward.solve_s": s["forward.solve"],
        "forward.solve_calls": c["forward.solve"],
        "forward.rows_solved": tr.counts["forward.rows_solved"],
        "forward.sweep_s": s["forward.sweep"],
        "forward.step_calls": c["forward.step"],
        "forward.policy_s": tr.self_time["forward.policy"],
        "forward.policy_calls": c["forward.policy"],
        "forward.self_s": tr.layer_self("forward"),
        "maxprinciple.ensemble_s": tr.self_time["maxprinciple.ensemble"],
        "maxprinciple.ensemble_calls": c["maxprinciple.ensemble"],
        "maxprinciple.gateaux_s": s["maxprinciple.gateaux"],
        "maxprinciple.adjoint_s": s["maxprinciple.adjoint"],
        "maxprinciple.adjoint_calls": c["maxprinciple.adjoint"],
        "maxprinciple.self_s": tr.layer_self("maxprinciple"),
        "portfolio.experiment_s": tr.self_time["portfolio.experiment"],
        "portfolio.rejection_rate": tr.counts["portfolio.rejected"] / paths if paths else 0.0,
        "portfolio.self_s": tr.layer_self("portfolio"),
        "zakai.particle_s": s["zakai.particle"],
        "zakai.particle_steps": tr.counts["zakai.particle_steps"],
        "zakai.sweep_s": s["zakai.sweep"],
        "zakai.grid_steps": tr.counts["zakai.grid_steps"],
        "zakai.kalman_s": s["zakai.kalman"],
        "zakai.clamp_defect": tr.counts["zakai.clamp_defect"],
        "zakai.boundary_mass": tr.maxima["zakai.boundary_mass"],
        "zakai.self_s": tr.layer_self("zakai"),
        "cli.run_s": tr.self_time["cli.run"],
        "cli.write_s": s["cli.write"] + s["cli.json_dump"],
        "cli.bytes_written": tr.counts["cli.bytes_written"],
        "cli.self_s": tr.layer_self("cli"),
        "trace.unattributed_s": wall_s - tr.covered(),
    }

