"""Code-base rules checked on the source tree itself."""

import ast
import importlib.util
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "sbskit"

# public names that need no caller inside src/, each with the reason
NO_CALLER_NEEDED = {
    "cli.main": "the entry point of the sbskit console script and of python -m sbskit.cli",
    "cli._Parser.error": "argparse calls it on every usage error",
    "oracle.analytic_reduced_state": "reference route the tests compare the partial-trace oracle against",
}

# public dataclass fields that need no reader inside src/, each with the reason
NO_READER_NEEDED: dict[str, str] = {}

# public module-level constants that need no reader inside src/, each with the reason
NO_CONSTANT_READER_NEEDED = {
    "oracle.QUBIT_FAMILIES": "names the family axis of qubit_families, which the tests index by",
}


def public_definitions(trees):
    """(qualified name, bare name, is_method, node) of every public function and method."""
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                yield f"{module}.{node.name}", node.name, False, node
            elif isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                        yield f"{module}.{node.name}.{member.name}", member.name, True, member


def uses(trees):
    """Bare name -> the Name and Attribute nodes that use it anywhere in src/."""
    out = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                out.setdefault(node.attr, []).append(node)
            elif isinstance(node, ast.Name):
                out.setdefault(node.id, []).append(node)
    return out


def referenced(uses_by_name, name, is_method, definition) -> bool:
    """Whether src/ uses the name outside its own definition (methods: as an attribute)."""
    candidates = [n for n in uses_by_name.get(name, []) if isinstance(n, ast.Attribute) or not is_method]
    own = {id(n) for n in ast.walk(definition)} if candidates else set()
    return any(id(n) not in own for n in candidates)


def test_every_public_function_has_a_caller_in_src():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    uses_by_name = uses(trees)
    defined = set()
    unused = []
    for qualified, name, is_method, node in public_definitions(trees):
        defined.add(qualified)
        if qualified not in NO_CALLER_NEEDED and not referenced(uses_by_name, name, is_method, node):
            unused.append(qualified)
    assert not unused, f"public names only tests (or nothing) call: {unused}"
    assert set(NO_CALLER_NEEDED) <= defined, "the exemption list names a function that no longer exists"


def dataclass_fields(trees):
    """Qualified name and bare name of every public field of a dataclass."""
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
            if any(getattr(d, "id", None) == "dataclass" for d in decorators):
                for member in node.body:
                    if isinstance(member, ast.AnnAssign) and not member.target.id.startswith("_"):
                        yield f"{module}.{node.name}.{member.target.id}", member.target.id


def test_every_dataclass_field_has_a_reader_in_src():
    """A field counts as read when src/ loads an attribute or passes a keyword
    of its bare name, as the caller rule matches bare names.  Loads from the
    CLI's argparse namespace (args.<name> in cli.py) read no dataclass and do
    not count."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    read = set()
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                if not (module == "cli" and isinstance(node.value, ast.Name) and node.value.id == "args"):
                    read.add(node.attr)
            elif isinstance(node, ast.keyword):
                read.add(node.arg)
    fields = dict(dataclass_fields(trees))
    unread = [q for q, name in fields.items() if q not in NO_READER_NEEDED and name not in read]
    assert not unread, f"dataclass fields nothing in src/ reads: {unread}"
    assert set(NO_READER_NEEDED) <= set(fields), "the exemption list names a field that no longer exists"


def module_constants(trees):
    """Qualified name and bare name of every public name a module assigns at its top level."""
    for module, tree in trees.items():
        for node in tree.body:
            targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
            for target in targets:
                if isinstance(target, ast.Name) and not target.id.startswith("_"):
                    yield f"{module}.{target.id}", target.id


def test_every_module_constant_has_a_reader_in_src():
    """A constant counts as read when src/ loads its bare name, as a name
    (also after an import) or as an attribute, as the caller rule matches
    bare names."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    constants = dict(module_constants(trees))
    unread = [q for q, name in constants.items() if q not in NO_CONSTANT_READER_NEEDED and name not in read]
    assert not unread, f"module constants nothing in src/ reads: {unread}"
    assert set(NO_CONSTANT_READER_NEEDED) <= set(constants), "the exemption list names a constant that no longer exists"


def stream_calls_in_loops(src: Path):
    """(module, line) of each sample_stream call inside a loop, comprehension,
    lambda or nested function, in every module but ensemble.py."""
    loops = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp, ast.Lambda)
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    found = set()
    for path in sorted(src.glob("*.py")):
        if path.stem == "ensemble":
            continue
        tree = ast.parse(path.read_text())
        scopes = [n for n in ast.walk(tree) if isinstance(n, loops)]
        scopes += [inner for outer in ast.walk(tree) if isinstance(outer, functions)
                   for inner in ast.walk(outer) if inner is not outer and isinstance(inner, functions)]
        for scope in scopes:
            for node in ast.walk(scope):
                if isinstance(node, ast.Call) and "sample_stream" in (getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                    found.add((path.stem, node.lineno))
    return sorted(found)


def test_per_index_streams_go_through_sample_rows():
    """A stack with row i drawn from stream (label, i) is made by
    ensemble.sample_rows, so that rule is written once; a single stream per
    suite may still be opened directly."""
    assert stream_calls_in_loops(SRC) == []


def stream_labels(src: Path):
    """(label, callee, module, line) of each integer literal passed as the
    label argument of a function of src/ that has a parameter named label."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    position = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                names = [a.arg for a in node.args.posonlyargs + node.args.args]
                if "label" in names:
                    position[node.name] = names.index("label")
    found = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            callee = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if callee in position:
                # the label passed by keyword or at its position
                args = [k.value for k in node.keywords if k.arg == "label"] + node.args[position[callee]:][:1]
                found += [(a.value, callee, module, node.lineno) for a in args
                          if isinstance(a, ast.Constant) and type(a.value) is int]
    return sorted(found)


def test_stream_labels_are_unique():
    """Every sampler draws from its own stream label: two that shared one
    would draw correlated streams from the same seed."""
    labels = stream_labels(SRC)
    assert {"sample_rows", "sample_stream", "_timed_spin_rows", "_random_state_pairs"} <= {c for _, c, _, _ in labels}
    values = [label for label, _, _, _ in labels]
    repeated = [entry for entry in labels if values.count(entry[0]) > 1]
    assert not repeated, f"stream labels passed more than once: {repeated}"


def rounding_scaffolding(src: Path):
    """(module, line, pattern) of each np.add.accumulate and each complex
    magnitude taken as np.hypot(x.real, x.imag) in src/."""
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr == "accumulate" and getattr(node.value, "attr", None) == "add":
                found.append((path.stem, node.lineno, "np.add.accumulate"))
            elif (isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "hypot"
                  and [getattr(a, "attr", None) for a in node.args] == ["real", "imag"]):
                found.append((path.stem, node.lineno, "np.hypot(x.real, x.imag)"))
    return found


def test_no_rounding_scaffolding():
    """Sums and magnitudes take numpy's own route: a running sum or a hypot
    of the parts only reproduces a loop's rounding.  np.sum and np.abs hold
    to a stated tolerance against the loop references; the hypot of two real
    standard errors stays allowed."""
    assert rounding_scaffolding(SRC) == []


def test_verify_suites_are_fixed_definitions():
    """A verify suite takes the seed (or nothing), the oracle corpus and
    run_all also the verify.instances count, and none has a default: every
    size lives in the suite's body, so the tests run exactly what the verify
    scenario ships."""
    from sbskit import verify

    takes_instances = {"oracle_inequalities", "run_all"}
    for name, fn in vars(verify).items():
        if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != verify.__name__:
            continue
        params = inspect.signature(fn).parameters
        allowed = [["seed", "instances"]] if name in takes_instances else [["seed"], []]
        assert list(params) in allowed, f"verify.{name} takes {list(params)}"
        assert all(p.default is p.empty for p in params.values()), f"verify.{name} has a default"


def test_traced_benchmark_finds_every_name(tmp_path, monkeypatch):
    """perfbench reads sbskit functions, counters and parameters by name; a
    refactor that renames one would silently zero its metric."""
    out, trace_dir = tmp_path / "out", tmp_path / "trace"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    cmd = [sys.executable, str(ROOT / "perfbench" / "tracer.py"), "--out", str(trace_dir), "--run-id", "guard",
           "--", "--scenario", "timescales", "--out-dir", str(out)]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, run)  # its dataclasses look the module up
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    spec.loader.exec_module(run)
    trace = json.loads((trace_dir / "trace.json").read_text())
    trace["manifest"] = json.loads((out / "manifest.json").read_text())
    trace["artifact"] = out / "timescales.csv"
    _, missing = run.layer_metrics(trace)
    assert missing == []
    # the tracer's call hooks bind these parameters by name
    from sbskit import ensemble, oracle

    assert {"samples", "n_spins", "tau_points"} <= set(inspect.signature(ensemble.fig1_node).parameters)
    assert "d_s" in inspect.signature(oracle.random_instance).parameters


def test_cli_import_loads_only_the_shared_modules():
    """verify and discrimination are imported by the runners that use them,
    and concurrent.futures only for more than one thread, so starting the
    CLI loads neither the oracle stack nor a thread pool."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    code = "import sys, sbskit.cli; print(' '.join(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert {"sbskit.cli", "sbskit.ensemble", "sbskit.spin_model"} <= loaded
    not_loaded = {"sbskit.verify", "sbskit.oracle", "sbskit.sbs_core", "sbskit.densmat", "sbskit.discrimination",
                  "concurrent.futures"}
    assert not loaded & not_loaded


def config_leaves(section: dict, prefix: str = ""):
    """Dotted path of every non-section value in a config."""
    for key, value in section.items():
        if isinstance(value, dict):
            yield from config_leaves(value, f"{prefix}{key}.")
        else:
            yield prefix + key


def test_every_config_field_is_checked(tmp_path):
    """Each default field but config_version has an entry in cli.FIELDS and is
    checked by every scenario, whether it reads the field or not, as the
    manifest records the whole config: None there exits as a config error
    naming it before any output is written."""
    from sbskit import cli

    leaves = set(config_leaves(cli.DEFAULT_CONFIG)) - {"config_version"}
    assert set(cli.FIELDS) == leaves
    for path in sorted(leaves):
        section, _, key = path.rpartition(".")
        for scenario in cli.SCENARIOS:
            config = cli.load_config(None)
            (config[section] if section else config)[key] = None
            with pytest.raises(cli.ConfigError, match=f"^{re.escape(path)}: "):
                cli.run_scenario(scenario, config, tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_cli_options_are_scenario_config_and_out_dir():
    """Every run parameter has one route, the config file: the parser defines
    no option that would set a config field a second way."""
    tree = ast.parse((SRC / "cli.py").read_text())
    options = [node.args[0].value for node in ast.walk(tree)
               if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "add_argument"]
    assert sorted(options) == ["--config", "--out-dir", "--scenario"]
