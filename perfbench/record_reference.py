"""Record the reference result numbers that ``result_drift`` compares against.

    python3 perfbench/record_reference.py [workload ...]

Runs library seeds 0, 1, 2, ... of each workload until POOL of them pass every
check; those form the workload's seed pool, and their result numbers are
written to reference.json together with the seeds skipped and the checks
they failed.  Run it only on a commit whose results are the accepted
baseline.
"""
from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run

# give up on a workload that passes at fewer than POOL of this many seeds
MAX_SCANNED = 64


def main(argv):
    run.pin_environment()
    run.import_library()
    import workloads

    names = argv or list(workloads.WORKLOADS)
    ref = json.loads(run.REFERENCE.read_text()) if run.REFERENCE.is_file() else {}
    ref.setdefault("workloads", {})
    ref["environment"] = run.environment_record(None)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=run.ROOT) as tmp:
        for name in names:
            entry = {"pool": [], "results": {}, "skipped": {}}
            seed = 0
            while len(entry["pool"]) < run.POOL and seed < MAX_SCANNED:
                numbers, checks = workloads.WORKLOADS[name].iterate(seed, Path(tmp) / f"{name}-{seed}")
                bad = [c for c, ok in checks if not ok]
                if bad:
                    entry["skipped"][str(seed)] = bad
                else:
                    entry["pool"].append(seed)
                    entry["results"][str(seed)] = numbers
                print(f"{name} seed {seed}: {', '.join(bad) or 'ok'}", file=sys.stderr)
                seed += 1
            if len(entry["pool"]) < run.POOL:
                print(f"not written: {name} passes at only {len(entry['pool'])} seeds",
                      file=sys.stderr)
                return 1
            ref["workloads"][name] = entry
    run.REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
