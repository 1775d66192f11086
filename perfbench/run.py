"""spdecontrol benchmark: one closed-loop experiment at a time, timed to a
checked result.

    python3 perfbench/run.py --workload insider-portfolio --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics (see README.md).  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``, where
attempted/failed count correctness checks over all iterations.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

# Iteration i of a run with --seed n uses library seed pool[(n + i) % POOL];
# reference.json holds each workload's pool and the result numbers of every
# pool seed, recorded on the baseline commit.
POOL = 16
# result_drift above this relative deviation fails the reference check
DRIFT_TOL = 1e-6
DRIFT_FLOOR = 1e-12
SETUP_PROBES = 5
# the tail is the highest percentile with this many samples beyond it
TAIL_BEYOND = 10
MIN_ITERATIONS = 2 * TAIL_BEYOND + 1  # keeps the tail at or above the median
MAX_RUN_S = 100.0  # stop early on a very slow commit, to exit within 180 s
BLAS_THREADS = "1"
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def pin_environment():
    """One process, one BLAS thread (at most nproc).  Must run before numpy
    is imported, because BLAS reads these when it loads; that is why modules
    that import numpy are imported inside functions here."""
    for var in _THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
    sys.dont_write_bytecode = True


def import_library():
    """Import spdecontrol from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "spdecontrol" / "__init__.py").is_file():
        raise SystemExit(f"error: no library source at {src}/spdecontrol; "
                         "run from the root of a spdecontrol checkout")
    sys.path.insert(0, str(src))
    import spdecontrol

    if Path(spdecontrol.__file__).resolve().parent != (src / "spdecontrol").resolve():
        raise SystemExit(f"error: imported spdecontrol from {spdecontrol.__file__}, not {src}")
    return spdecontrol


def result_drift(numbers, ref):
    """Max relative deviation from the reference numbers, with |reference|
    floored at DRIFT_FLOOR (0 = bit-identical); inf when the set of result
    names differs."""
    if set(numbers) != set(ref):
        return float("inf")
    return max(abs(v - ref[k]) / max(abs(ref[k]), DRIFT_FLOOR) for k, v in numbers.items())


def load_reference(workload):
    ref = json.loads(REFERENCE.read_text())
    return ref["workloads"][workload]


def environment_record(seed):
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": BLAS_THREADS,
        "commit": _commit(),
        "seed": seed,
    }


def _commit():
    """HEAD of the checkout if it is a git work tree, else None."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


class Runner:
    """Runs iterations of one workload, checking each."""

    def __init__(self, workload, reference, work_dir: Path):
        self.workload = workload
        self.pool = reference["pool"]
        self.reference = reference["results"]
        self.work_dir = work_dir
        self.attempted = 0
        self.failed = 0
        self.max_drift = 0.0
        self._n = 0

    def library_seed(self, seed, i):
        return self.pool[(seed + i) % len(self.pool)]

    def iterate(self, lib_seed):
        """One checked iteration; returns (seconds, result numbers)."""
        out = self.work_dir / f"it{self._n}"
        self._n += 1
        start = time.perf_counter()
        try:
            numbers, checks = self.workload.iterate(lib_seed, out)
            drift = result_drift(numbers, self.reference[str(lib_seed)])
            checks.append(("result_drift", drift <= DRIFT_TOL))
        except Exception:  # noqa: BLE001  a failing iteration is counted, the run goes on
            traceback.print_exc()
            numbers, drift, checks = None, float("inf"), [("iteration_completed", False)]
        elapsed = time.perf_counter() - start
        shutil.rmtree(out, ignore_errors=True)
        # a thread left running would also slow the speed gauge's kernel
        checks.append(("no_threads_left", threading.active_count() == 1))
        self.max_drift = max(self.max_drift, drift)
        self.count(checks)
        return elapsed, numbers

    def count(self, checks):
        for name, ok in checks:
            self.attempted += 1
            if not ok:
                self.failed += 1
                print(f"check failed: {self.workload.name}: {name}", file=sys.stderr)


def tail(samples):
    """Highest value with TAIL_BEYOND samples above it (the maximum when the
    run has fewer samples than that)."""
    s = sorted(samples)
    return s[max(len(s) - 1 - TAIL_BEYOND, 0)]


def measure_setup(args):
    """Median over SETUP_PROBES fresh processes of: process start to library
    imported, models built and one checked warm-up iteration done.  The probe
    prints its ready time on the system-wide monotonic clock."""
    import speed

    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    gauge = speed.Gauge()
    raw, scaled = [], []
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"error: setup probe exited with {proc.returncode}")
        raw.append(float(proc.stdout.split()[-1]) - start)
        scaled.append(gauge.scale(raw[-1]))
    return statistics.median(scaled), raw


def setup_probe(workload, args, work_dir):
    """Warm up and print the ready time; the measuring process counts the
    checks, so a failed check shows as ``correct: false``, not as a crash."""
    runner = Runner(workload, load_reference(workload.name), work_dir)
    runner.iterate(runner.library_seed(args.seed, 0))
    print(repr(time.monotonic()))
    return 0


def timed_run(args, runner):
    """Closed loop for --seconds; returns (reference seconds, raw seconds,
    kernel seconds) per iteration."""
    import speed

    gauge = speed.Gauge()
    raw, scaled = [], []
    start = time.perf_counter()
    i = 1
    while True:
        elapsed = time.perf_counter() - start
        if (elapsed >= args.seconds and len(raw) >= MIN_ITERATIONS) or elapsed >= MAX_RUN_S:
            break
        wall, _ = runner.iterate(runner.library_seed(args.seed, i))
        raw.append(wall)
        scaled.append(gauge.scale(wall))
        i += 1
    return scaled, raw, gauge.kernels


def traced_run(args, runner):
    """Alternate untraced and traced iterations on the same seed; per-layer
    metrics are medians over the traced ones."""
    import tracer as tracing

    tr = tracing.Tracer()
    plain, traced, per_layer = [], [], []
    start = time.perf_counter()
    i = 1
    while True:
        elapsed = time.perf_counter() - start
        if (elapsed >= args.seconds and len(traced) >= 3) or elapsed >= MAX_RUN_S:
            break
        lib_seed = runner.library_seed(args.seed, i)
        wall, numbers = runner.iterate(lib_seed)
        plain.append(wall)
        tr.reset()
        with tracing.installed(tr):
            t_wall, t_numbers = runner.iterate(lib_seed)
        traced.append(t_wall)
        per_layer.append(tracing.layer_metrics(tr, t_wall))
        missing = [g for g in runner.workload.expected if tr.calls[g] == 0]
        runner.count([("trace.results_identical", numbers is not None and numbers == t_numbers),
                      ("trace.wrappers_hit", not missing)])
        if missing:
            print(f"wrappers never called: {missing}", file=sys.stderr)
        i += 1
    metrics = {k: statistics.median(m[k] for m in per_layer) for k in per_layer[0]}
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    return metrics, len(traced)


def main(argv=None):
    pin_environment()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_library()
    import speed
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"expected one of {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    units = json.loads((ROOT / "BENCHMARK.json").read_text())

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        work_dir = Path(tmp)
        if args.setup_probe:
            return setup_probe(workload, args, work_dir)

        if args.trace == 0:
            setup_s, setup_samples = measure_setup(args)
        runner = Runner(workload, load_reference(workload.name), work_dir)
        runner.iterate(runner.library_seed(args.seed, 0))  # untimed warm-up, still checked

        if args.trace == 0:
            import resource

            walls, raw, kernels = timed_run(args, runner)
            wall_s = statistics.median(walls)
            values = {
                "setup_s": setup_s,
                "wall_s": wall_s,
                "wall_s_tail": tail(walls),
                "path_steps_per_s": workload.path_steps / wall_s,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            spec = units["end_to_end"]
            summary = {
                "iterations": len(walls),
                "tail_samples_beyond": min(TAIL_BEYOND, len(walls) - 1),
                "wall_s_quartiles": statistics.quantiles(walls, n=4),
                "raw_wall_s_median": statistics.median(raw),
                "kernel_s_median": statistics.median(kernels),
                "nominal_kernel_s": speed.NOMINAL_KERNEL_S,
                "raw_setup_s_samples": setup_samples,
                "path_steps_per_iteration": workload.path_steps,
                "checks_failed": runner.failed / runner.attempted,
                "result_drift": runner.max_drift,
                "result_drift_tolerance": DRIFT_TOL,
            }
        else:
            values, n_traced = traced_run(args, runner)
            values["check.checks_failed"] = runner.failed / runner.attempted
            values["check.result_drift"] = runner.max_drift
            spec = units["per_layer"]
            summary = {"traced_iterations": n_traced}

    print("environment " + json.dumps(environment_record(args.seed), sort_keys=True))
    print(f"workload {workload.name} " + json.dumps(summary, sort_keys=True))
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in spec}
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
