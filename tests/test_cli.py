import ast
import csv
import hashlib
import importlib
import inspect
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import spdecontrol
from spdecontrol import cli, errors, portfolio
from spdecontrol.cli import SCHEMAS, main, run_experiment, validate_config
from spdecontrol.errors import ConfigError


def run_cli(args):
    proc = subprocess.run(
        [sys.executable, "-m", "spdecontrol.cli", *args],
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


DONSKER_CFG = """\
kind: donsker-table
seed: 0
params:
  t_values: [0.0, 0.4]
  z_values: [-0.5, 0.5]
"""


def test_cli_import_leaves_out_scipy_integrate():
    # scipy.integrate pulls in scipy.optimize and scipy.special: about 0.3 s of every start-up
    heavy = ("scipy.integrate", "scipy.optimize", "scipy.special")
    code = f"import sys, spdecontrol.cli; print(*[m for m in {heavy!r} if m in sys.modules])"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.split() == []


ROOT = Path(__file__).resolve().parents[1]
LIBRARY_MODULES = ("donsker", "forward", "maxprinciple", "noise", "portfolio", "zakai")


def _referenced_names(path, own):
    """Names a file refers to as an ast Name, Attribute or import alias; a
    reference to a name in own does not count inside that name's definition."""
    refs = []

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        elif isinstance(node, ast.Name):
            refs.append((node.id, inside))
        elif isinstance(node, ast.Attribute):
            refs.append((node.attr, inside))
        elif isinstance(node, ast.alias):
            refs.append((node.name, inside))
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(ast.parse(path.read_text(), filename=str(path)), frozenset())
    return {name for name, inside in refs if name not in inside & own}


def _readme_paper_objects():
    text = (ROOT / "README.md").read_text()
    heading = "## Paper objects without a library caller\n"
    section = re.search(f"^{heading}(.*?)(?=^## |\\Z)", text, re.M | re.S)
    return set(re.findall(r"`(\w+)`", section.group(1))) if section else set()


def test_every_public_name_has_a_caller():
    # a public name has a caller in the library, a demo, the benchmark or an
    # acceptance criterion, or README names it as an object of the paper
    lib = ROOT / "src" / "spdecontrol"
    files = [p for p in lib.glob("*.py") if p.name != "__init__.py"]
    files += [*(ROOT / "demos").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    files.append(ROOT / "tests" / "test_acceptance.py")
    paper = _readme_paper_objects()
    orphans = []
    for mod in LIBRARY_MODULES:
        public = importlib.import_module(f"spdecontrol.{mod}").__all__
        used = set()
        for path in files:
            used |= _referenced_names(path, set(public) if path == lib / f"{mod}.py" else set())
        orphans += [f"{mod}.{name}" for name in public if name not in used | paper]
    assert orphans == [], orphans


def test_no_except_clause_in_the_library_catches_a_floating_point_warning():
    # a control value is checked once, where its rule is called
    # (ControlPolicy.values); an except clause that caught RuntimeWarning or
    # FloatingPointError would check it again, after a step had failed
    caught = []
    for path in sorted((ROOT / "src" / "spdecontrol").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                names = {n.id if isinstance(n, ast.Name) else n.attr
                         for n in ast.walk(node.type) if isinstance(n, (ast.Name, ast.Attribute))}
                caught += [f"{path.name}:{node.lineno} {name}"
                           for name in sorted(names & {"RuntimeWarning", "FloatingPointError"})]
    assert caught == [], caught


class _RuleCalls(ast.NodeVisitor):
    """Each call of a .rule attribute or of a name direction, a perturbation
    direction's rule, as "module:Class.function" of the definitions that
    enclose it."""

    def __init__(self, module):
        self.scope, self.calls = [module], []

    def _enter(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = _enter

    def visit_Call(self, node):
        if (isinstance(node.func, ast.Attribute) and node.func.attr == "rule"
                or isinstance(node.func, ast.Name) and node.func.id == "direction"):
            self.calls.append(f"{self.scope[0]}:{'.'.join(self.scope[1:])}")
        self.generic_visit(node)


def test_only_control_policy_values_calls_a_control_rule():
    # a control's whole contract, its value's shape and U, is checked where
    # its rule is called (ControlPolicy.values); a caller of .rule elsewhere
    # would skip it, as portfolio.shifted_policy did, and so would a call of
    # a perturbation direction, a control on [-1, 1], as perturbed_policy did
    calls = []
    for path in sorted((ROOT / "src" / "spdecontrol").glob("*.py")):
        visitor = _RuleCalls(path.name)
        visitor.visit(ast.parse(path.read_text(), filename=str(path)))
        calls += visitor.calls
    assert "forward.py:ControlPolicy.values" in calls
    assert [c for c in calls if c != "forward.py:ControlPolicy.values"] == []


def test_every_private_name_in_the_library_and_readme_is_defined():
    # a helper that is renamed or folded away leaves its name behind in
    # docstrings, comments and README; every _name there must still be bound
    # in some library module.  Two characters at least: a one-letter
    # subscript, such as README's integral sign followed by _t, is notation
    lib = sorted((ROOT / "src" / "spdecontrol").glob("*.py"))
    defined = set()
    for path in lib:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Store):
                defined.add(node.id if isinstance(node, ast.Name) else node.attr)
            elif isinstance(node, ast.arg):
                defined.add(node.arg)
    stale = [
        f"{path.name}: {name}"
        for path in [ROOT / "README.md", *lib]
        for name in sorted(set(re.findall(r"(?<!\w)_[A-Za-z]\w+", path.read_text())) - defined)
    ]
    assert stale == [], stale


def test_package_namespace_is_the_modules_api():
    # every public name of the six library modules and every exception of
    # errors is importable from the package as the same object
    missing = []
    for mod in LIBRARY_MODULES:
        module = importlib.import_module(f"spdecontrol.{mod}")
        missing += [f"{mod}.{name}" for name in module.__all__ if getattr(spdecontrol, name, None) is not getattr(module, name)]
    missing += [
        f"errors.{name}" for name, value in vars(errors).items()
        if isinstance(value, type) and issubclass(value, Exception) and getattr(spdecontrol, name, None) is not value
    ]
    assert missing == [], missing


# members whose only readers are tests or the benchmark, kept on purpose
MEMBER_EXEMPTIONS = {
    "AssembledOperator.dense": "the dense matrix the banded solves are tested against",
    "OperatorSpec.control_dependent": "inert, but perfbench's general-jump workload still passes it",
}


def _class_members(cls_node):
    """Names a class defines: its fields, class attributes and methods, and
    the attributes its __init__ sets on self; dunder names are left out."""
    names = []
    for node in cls_node.body:
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.append(node.name)
            if node.name == "__init__":
                names += [
                    t.attr for sub in ast.walk(node) if isinstance(sub, ast.Assign)
                    for t in sub.targets
                    if isinstance(t, ast.Attribute) and isinstance(t.value, ast.Name) and t.value.id == "self"
                ]
    return [n for n in dict.fromkeys(names) if not (n.startswith("__") and n.endswith("__"))]


def _attribute_reads(path):
    """(attribute name, enclosing class, enclosing member of that class) of
    every attribute a file loads; class and member are None outside a class."""
    reads = []

    def visit(node, cls, member):
        if isinstance(node, ast.ClassDef):
            cls, member = node.name, None
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and cls is not None and member is None:
            member = node.name
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads.append((node.attr, cls, member))
        for child in ast.iter_child_nodes(node):
            visit(child, cls, member)

    visit(ast.parse(path.read_text(), filename=str(path)), None, None)
    return reads


def test_every_public_member_has_a_reader():
    # a field or method of a public class is read as an attribute by the
    # library, a demo, the benchmark or an acceptance criterion, or by
    # another member of its own class; a read inside the member itself does
    # not count, and the construction of a value is not a read
    lib = ROOT / "src" / "spdecontrol"
    files = [*lib.glob("*.py"), *(ROOT / "demos").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    files.append(ROOT / "tests" / "test_acceptance.py")
    reads = {path: _attribute_reads(path) for path in files}
    unread, members = [], set()
    for mod in LIBRARY_MODULES:
        path = lib / f"{mod}.py"
        public = set(importlib.import_module(f"spdecontrol.{mod}").__all__)
        classes = [n for n in ast.parse(path.read_text()).body if isinstance(n, ast.ClassDef) and n.name in public]
        for cls in classes:
            for name in _class_members(cls):
                members.add(f"{cls.name}.{name}")
                read = any(
                    attr == name and not (f == path and c == cls.name and m == name)
                    for f, rs in reads.items() for attr, c, m in rs
                )
                if not read and f"{cls.name}.{name}" not in MEMBER_EXEMPTIONS:
                    unread.append(f"{mod}.{cls.name}.{name}")
    assert unread == [], unread
    # every exemption still names a member
    assert set(MEMBER_EXEMPTIONS) <= members, set(MEMBER_EXEMPTIONS) - members


def test_list_enumerates_all_kinds():
    code, out, _ = run_cli(["list"])
    assert code == 0
    kinds = out.split()
    assert sorted(kinds) == sorted(SCHEMAS)
    assert len(kinds) == 6


def test_list_single_kind_shows_schema_fields():
    code, out, _ = run_cli(["list", "zakai-benchmark"])
    assert code == 0
    assert "n_particles" in out
    assert "refine_levels" in out


def test_list_unknown_kind_suggests_and_exits_2():
    code, _, err = run_cli(["list", "zakai-bench"])
    assert code == 2
    assert "unknown kind" in err
    assert "zakai-benchmark" in err


def test_validate_rejects_horizon_constraint(tmp_path):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text("kind: portfolio\nseed: 0\nparams:\n  T: 1.5\n")
    code, _, err = run_cli(["validate", "--config", str(cfg)])
    assert code == 2
    assert "T < T0" in err


def test_validate_rejects_unknown_kind_and_missing_fields():
    with pytest.raises(ConfigError):
        validate_config({"kind": "nope", "seed": 0, "params": {}})
    with pytest.raises(ConfigError):
        validate_config({"seed": 0, "params": {}})
    with pytest.raises(ConfigError):
        validate_config([1, 2, 3])
    with pytest.raises(ConfigError):
        validate_config({"kind": "coercivity", "seed": True, "params": {}})


@pytest.mark.parametrize(
    "kind, params",
    [
        ("portfolio", "{n_cells: 1}"),
        ("coercivity", "{cells: [0]}"),
        ("stationarity", "{T: abc}"),
        ("stationarity", "{n_paths: 1}"),
        ("portfolio", "{T: 0.95, n_steps: 10}"),
        ("forward-convergence", "{space_cells: [8, 1]}"),
        ("forward-convergence", "{time_cells: 1}"),
        ("donsker-table", "{t_values: abc}"),
        ("zakai-benchmark", "{P0: 0.0}"),
        ("zakai-benchmark", "{n_cells: [400]}"),
        ("coercivity", "{1: 2, foo: 3}"),
        # each of these was misread and run with another value
        ("coercivity", '{cells: "32"}'),
        ("stationarity", "{n_steps: 200.9}"),
        ("stationarity", "{n_paths: 2.5}"),
        ("stationarity", "{n_windows: true}"),
        # non-finite floats: a NaN z and an infinite T crashed the run in
        # the implicit solve
        ("portfolio", "{z: .nan}"),
        ("zakai-benchmark", "{T: .inf}"),
        # t < T0, but the residual variance T0 - t is below its floor
        ("donsker-table", "{t_values: [0.0, 0.9999999999999]}"),
        # each of these validated, and run read a vacuous verdict off it:
        # fewer than two resolutions measured no order and "passed", a
        # decreasing list failed, and no evaluation point checked nothing
        ("forward-convergence", "{space_cells: [8]}"),
        ("forward-convergence", "{time_steps: []}"),
        ("forward-convergence", "{space_cells: [32, 16, 8]}"),
        ("forward-convergence", "{time_steps: [16, 16, 32]}"),
        ("donsker-table", "{t_values: []}"),
        ("donsker-table", "{z_values: []}"),
        ("coercivity", "{cells: []}"),
        ("zakai-benchmark", "{x_lo: 1.0, x_hi: 1.0}"),
        # more windows than steps left windows with no step, which passed
        # at t = 0; pi = 0 gave lhs = rhs = 0 and a NaN ratio, which passed
        ("stationarity", "{n_steps: 4, n_windows: 8}"),
        ("coercivity", "{pi: 0}"),
        # two shifts that share a candidate name ran as one candidate
        ("portfolio", "{n_paths: 20, n_steps: 20, shifts: [0.25, 0.2500001, -0.25]}"),
        # each of these set where a verdict passes, here at its old default;
        # each verdict's threshold is a constant, so each name is unknown
        ("donsker-table", "{tol_abs: 1.0e-8}"),
        ("forward-convergence", "{dx_order_range: [1.8, 2.2]}"),
        ("forward-convergence", "{dt_order_range: [0.8, 1.2]}"),
        ("stationarity", "{tol_tstat: 3.0}"),
        ("zakai-benchmark", "{tol_grid: 5.0e-2}"),
        ("zakai-benchmark", "{factor_range: [1.6, 2.6]}"),
        ("coercivity", "{C_max: 5.0}"),
    ],
)
@pytest.mark.parametrize("command", ["validate", "run"])
def test_unusable_parameter_exits_2(tmp_path, capsys, kind, params, command):
    # each of these passed validate and then crashed the run, or crashed
    # validate itself, with a traceback and exit code 1
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(f"kind: {kind}\nseed: 0\nparams: {params}\n")
    args = ["--config", str(cfg)] + (["--out", str(tmp_path / "out")] if command == "run" else [])
    assert main([command, *args]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_shifts_that_share_a_candidate_name_are_named():
    # 0.25 and 0.2500001 both name the candidate pi_hat+0.25: the run kept
    # one of them, filed the 0.2500001 numbers under that name and exited 0
    with pytest.raises(ConfigError, match=re.escape("{'pi_hat+0.25': [0.25, 0.2500001]}")):
        validate_config({"kind": "portfolio", "params": {"shifts": [0.25, 0.2500001, -0.25]}})


def test_a_run_that_rejects_paths_records_one_rejection_count(tmp_path, capsys):
    # every candidate of a run is kept on one acceptance mask, so the
    # no_rejections verdict repeated one rate per candidate
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("kind: portfolio\nseed: 0\nparams: {T: 0.95, z: 2.0, n_steps: 60, n_paths: 200}\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 3
    assert "no_rejections" in capsys.readouterr().err
    verdict = json.loads((out / "manifest.json").read_text())["verdicts"]["no_rejections"]
    assert sorted(verdict) == ["n_rejected", "passed"] and verdict["passed"] is False
    assert 0 < verdict["n_rejected"] < 199
    with open(out / "portfolio.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["control-name"] for r in rows] == ["pi_hat", "pi_hat-0.25", "pi_hat+0.25"]
    assert {float(r["rejection-rate"]) for r in rows} == {verdict["n_rejected"] / 200}


@pytest.mark.parametrize(
    "config, seed_args, command",
    [
        ("kind: portfolio\nseed: 0\n", ["--seed", "-1"], "run"),
        ("kind: coercivity\nseed: 0\n", ["--seed", "-1"], "run"),
        ("kind: [portfolio]\nseed: 0\n", [], "run"),
        ("kind: [portfolio]\nseed: 0\n", [], "validate"),
    ],
)
def test_bad_seed_override_or_kind_exits_2(tmp_path, capsys, config, seed_args, command):
    # a negative --seed crashed the portfolio run with exit 1 and wrote
    # "seed": -1 into the coercivity manifest; a list kind raised TypeError
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(config)
    args = ["--config", str(cfg)] + (["--out", str(tmp_path / "out")] if command == "run" else [])
    assert main([command, *args, *seed_args]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_seed_override_follows_the_config_seed_rule(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("kind: coercivity\nseed: 0\n")
    for seed in (-1, True, 1.5, "7"):
        with pytest.raises(ConfigError, match="seed"):
            run_experiment(cfg, tmp_path / "out", seed_override=seed)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind", ["portfolio", "stationarity"])
def test_list_shows_the_checked_T0(capsys, kind):
    # the horizon rule printed by list names the T0 that validate checks
    T0 = portfolio.benchmark_market()[2].T0
    assert main(["list", kind]) == 0
    horizon = next(line for line in capsys.readouterr().out.splitlines() if line.strip().startswith("T:"))
    assert f"T0 = {T0} " in horizon
    with pytest.raises(ConfigError, match=f"T0={T0}"):
        validate_config({"kind": kind, "params": {"T": T0}})


@pytest.mark.parametrize("kind, params, verdict", [
    ("zakai-benchmark", {"n_cells": 40, "n_steps": 20, "n_particles": 100, "refine_levels": 1},
     "refinement_factor"),
    ("portfolio", {"n_steps": 50, "n_paths": 50, "shifts": []}, "optimum_has_max_mean"),
])
def test_a_verdict_that_measured_nothing_is_informational(tmp_path, kind, params, verdict):
    # one refinement level measures no factor, and pi_hat alone is the best
    # of one candidate; both read "passed": true
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(json.dumps({"kind": kind, "seed": 0, "params": params}))
    manifest = run_experiment(cfg, tmp_path / "out")
    assert "passed" not in manifest["verdicts"][verdict]
    written = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert "passed" not in written["verdicts"][verdict]


def test_validate_fills_in_read_defaults():
    cfg = validate_config({"kind": "portfolio", "params": {"n_cells": "8", "shifts": [1]}})
    assert cfg["params"]["n_cells"] == 8
    assert cfg["params"]["shifts"] == [1.0]
    assert cfg["params"]["T"] == 0.5


@pytest.mark.parametrize("kind", sorted(SCHEMAS))
def test_each_runner_takes_its_kinds_parameters_as_keywords(kind):
    # a parameter declared but not taken, or taken but not declared, would
    # fail only at run time; the two lists are one
    positional, keyword = inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.KEYWORD_ONLY
    params = inspect.signature(cli._RUNNERS[kind]).parameters.values()
    assert [(p.name, p.kind) for p in params] == (
        [("seed", positional), ("out", positional)] + [(key, keyword) for key in cli._PARAMS[kind]]
    )


def test_validate_accepts_good_config(tmp_path):
    cfg = tmp_path / "ok.yaml"
    cfg.write_text(DONSKER_CFG)
    code, out, _ = run_cli(["validate", "--config", str(cfg)])
    assert code == 0


def test_run_writes_manifest_and_artifacts(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(DONSKER_CFG)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    for key in ("kind", "config_sha256", "seed", "versions", "verdicts", "artifacts"):
        assert key in manifest
    assert manifest["kind"] == "donsker-table"
    assert "time" not in manifest and "timestamp" not in manifest
    assert "threads" not in manifest
    assert manifest["versions"]["spdecontrol"] == spdecontrol.__version__
    for name in manifest["artifacts"]:
        assert (out / name).exists()


def test_rerun_same_seed_is_byte_identical(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(DONSKER_CFG)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["run", "--config", str(cfg), "--out", str(out2)]) == 0
    for name in json.loads((out1 / "manifest.json").read_text())["artifacts"]:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_manifest_seed_reproduces_run(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("kind: coercivity\nseed: 7\nparams: {}\n")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(cfg), "--out", str(out1)]) == 0
    seed = json.loads((out1 / "manifest.json").read_text())["seed"]
    assert main(["run", "--config", str(cfg), "--out", str(out2), "--seed", str(seed)]) == 0
    assert (out1 / "coercivity.csv").read_bytes() == (out2 / "coercivity.csv").read_bytes()


def test_numerical_failure_exits_3_and_names_check(tmp_path):
    # one step over the whole horizon leaves the time error above the space
    # error, so the space orders read near 0, outside the fixed [1.8, 2.2]
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("kind: forward-convergence\nseed: 0\nparams: {space_steps: 1}\n")
    out = tmp_path / "out"
    code, _, err = run_cli(["run", "--config", str(cfg), "--out", str(out)])
    assert code == 3
    assert "space_order" in err and "time_order" not in err
    # artifacts and manifest still written for post-mortem inspection
    verdicts = json.loads((out / "manifest.json").read_text())["verdicts"]
    assert verdicts["space_order"]["passed"] is False and verdicts["time_order"]["passed"] is True


def test_a_library_error_exits_3_on_one_line_that_names_it(tmp_path, capsys):
    # at z = 3 near the horizon pi_hat drives every wealth path nonpositive;
    # the WealthNonpositive this raises ended the run with a traceback and
    # exit code 1
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("kind: portfolio\nseed: 0\nparams: {T: 0.98, z: 3.0, n_steps: 60, n_paths: 4}\n")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert "WealthNonpositive" in err


def test_a_library_error_leaves_a_manifest_that_names_it(tmp_path, capsys):
    # the run this WealthNonpositive stops left an empty output directory:
    # nothing recorded the config hash, the seed or the error
    text = "kind: portfolio\nseed: 0\nparams: {T: 0.98, z: 3.0, n_steps: 60, n_paths: 4}\n"
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["error"] == err.strip() and manifest["error"].startswith("WealthNonpositive: ")
    assert manifest["kind"] == "portfolio" and manifest["seed"] == 0
    assert manifest["config_sha256"] == hashlib.sha256(text.encode()).hexdigest()
    assert manifest["versions"]["spdecontrol"] == spdecontrol.__version__
    assert "verdicts" not in manifest and "artifacts" not in manifest


@pytest.mark.parametrize("kind", sorted(SCHEMAS))
def test_list_shows_where_the_verdicts_pass_and_no_setting_of_it(capsys, kind):
    assert main(["list", kind]) == 0
    shown = capsys.readouterr().out
    assert f"  passes: {cli._PASSES[kind]}\n" in shown
    removed = ("tol_abs", "dx_order_range", "dt_order_range", "tol_tstat", "tol_grid", "factor_range", "C_max")
    assert not any(f"  {name}:" in shown for name in removed)
    for name in removed:
        with pytest.raises(ConfigError, match=f"unknown parameter.*{name}"):
            validate_config({"kind": kind, "params": {name: 1.0}})
