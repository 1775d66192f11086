"""Configuration-driven experiment runner.

Writes a small YAML config, runs it through the same entry point as the
`spdecontrol` console script, and inspects the manifest that every run leaves
behind (config hash, seed, library versions, per-check verdicts).  Rerunning
with the manifest seed reproduces every CSV byte for byte.
"""
import json
import tempfile
from pathlib import Path

from spdecontrol.cli import SCHEMAS, run_experiment

print("experiment kinds:", ", ".join(sorted(SCHEMAS)))

with tempfile.TemporaryDirectory(prefix="spdecontrol-demo-") as tmp:
    workdir = Path(tmp)
    cfg = workdir / "donsker.yaml"
    cfg.write_text(
        "kind: donsker-table\n"
        "seed: 42\n"
        "params:\n"
        "  t_values: [0.0, 0.25, 0.5]\n"
        "  z_values: [-1.0, 0.0, 1.0]\n"
    )

    out1 = workdir / "run1"
    manifest = run_experiment(cfg, out1)
    print(f"\nran {manifest['kind']} with seed {manifest['seed']}")
    print("verdicts:", json.dumps(manifest["verdicts"], indent=2))
    print("artifacts:", manifest["artifacts"])

    out2 = workdir / "run2"
    run_experiment(cfg, out2, seed_override=manifest["seed"])
    for name in manifest["artifacts"]:
        same = (out1 / name).read_bytes() == (out2 / name).read_bytes()
        print(f"rerun of {name} byte-identical: {same}")

print("\nartifacts were written to run1/ and run2/ of a temporary directory, removed on exit")
print("equivalent shell usage:")
print("  spdecontrol run --config donsker.yaml --out run1")
print("  spdecontrol list donsker-table")
print("  spdecontrol validate --config donsker.yaml")
