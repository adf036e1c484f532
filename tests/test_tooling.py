"""Guards on the tooling that measures the package and on its module boundaries."""
import ast
import importlib
import importlib.util
import json
import os
import re
import sys

import pytest

from membranelab import cli

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")
README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_traced_targets_resolve_to_package_functions(monkeypatch):
    # the benchmark tracer rebinds functions by name; a target that no
    # longer exists would silently drop its layer from the trace
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)  # its dataclasses look it up
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for home, name, _ in tracer.TARGETS:
        assert home in tracer.MODULES
        module = importlib.import_module(f"membranelab.{home}")
        fn = getattr(module, name, None)
        assert callable(fn), f"membranelab.{home}.{name} is not a callable"
        assert fn.__module__ == module.__name__, f"{name} is not defined in membranelab.{home}"


def test_float_text_rule_lives_in_grid_only():
    # every artifact writes floats in one text form, held by grid; another
    # module spelling the format would let two artifacts drift apart
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src", "membranelab")
    holders = []
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as fh:
                if ".17g" in fh.read():
                    holders.append(name)
    assert holders == ["grid.py"]


def test_window_and_eps_minimums_live_in_freeboundary_only():
    # check_window and check_eps own the smallest graph-fit window and
    # covering radius; a module restating either would hold a second rule
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src", "membranelab")
    holders = []
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as fh:
                if re.search(r"MIN_(WINDOW|EPS)_STEPS", fh.read()):
                    holders.append(name)
    assert holders == ["freeboundary.py"]


NUMERICAL_MODULES = ("solver", "profiles", "monotonicity", "freeboundary")


def test_numerical_modules_write_no_files():
    # artifacts are written by cli.write_json and grid.write_csv only; the
    # numerical modules neither open files nor format floats for them
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src", "membranelab")
    for name in NUMERICAL_MODULES:
        with open(os.path.join(src, f"{name}.py")) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                fn = node.func
                called = fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None)
                assert called != "open", f"{name}.py calls open (line {node.lineno})"
            used = (getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None))
            assert "float_repr" not in used, f"{name}.py uses float_repr"


def test_runtime_imports_are_stdlib_numpy_or_the_package():
    # numpy is the only runtime dependency: an import of anything else
    # (scipy, say, for a linear program) would pass every other test here
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src", "membranelab")
    allowed = set(sys.stdlib_module_names) | {"numpy", "membranelab"}
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(src, name)) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                tops = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                tops = [node.module.split(".")[0]]
            else:
                continue   # relative imports stay inside the package
            for top in tops:
                assert top in allowed, f"{name} imports {top} (line {node.lineno})"


def test_only_profiles_reads_its_private_names():
    # profiles owns both blow-up distances and the disk nodes they share;
    # another module importing a private helper would own half a rule
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src", "membranelab")
    found = []
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py") or name == "profiles.py":
            continue
        with open(os.path.join(src, name)) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module, node.level) in (
                    ("profiles", 1), ("membranelab.profiles", 0)):
                found += [f"{name}:{node.lineno} {alias.name}"
                          for alias in node.names if alias.name.startswith("_")]
    assert not found, f"private names of profiles imported elsewhere: {found}"
    from membranelab import dist_to_M, dist_to_polynomial_class
    assert dist_to_M.__module__ == dist_to_polynomial_class.__module__ == "membranelab.profiles"


PHASE_COEFFICIENTS = {"lambda_plus", "lambda_minus"}


def test_phase_coefficients_have_no_defaults():
    # the ramp class, every blow-up distance and the classification cuts
    # are set by the field's own lambdas; a default of 2.0 would silently
    # measure an asymmetric field against the symmetric ramps
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src", "membranelab")
    found = []
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(src, name)) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                positional = a.posonlyargs + a.args
                defaulted = positional[len(positional) - len(a.defaults):]
                defaulted += [arg for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
                found += [f"{name}:{node.lineno} parameter {arg.arg}"
                          for arg in defaulted if arg.arg in PHASE_COEFFICIENTS]
            elif isinstance(node, ast.ClassDef):
                found += [f"{name}:{stmt.lineno} field {node.name}.{stmt.target.id}"
                          for stmt in node.body
                          if isinstance(stmt, ast.AnnAssign) and stmt.value is not None
                          and isinstance(stmt.target, ast.Name) and stmt.target.id in PHASE_COEFFICIENTS]
    assert not found, f"phase coefficients with a default: {found}"


def readme_config_defaults():
    """README's config table as {section.key: default cell}.

    A row may name several keys, as in `domain.x_min`, `x_max`; a bare key
    belongs to the section of the row's first key.
    """
    with open(README) as fh:
        table = fh.read().split("| key | default | range |", 1)[1].split("\n\n", 1)[0]
    defaults = {}
    for row in table.splitlines():
        if row.startswith("| `"):
            keys_cell, default_cell = (cell.strip() for cell in row.split("|")[1:3])
            names = re.findall(r"`([^`]+)`", keys_cell)
            section = names[0].split(".")[0]
            for name in names:
                defaults[name if "." in name else f"{section}.{name}"] = default_cell
    return defaults


def test_readme_config_table_matches_the_config_table():
    # a key documented but not read, or read but not documented, or a
    # default documented as required when it is not, is a stale README
    table = {f"{sec}.{key}": default
             for sec, keys in cli._TABLE.items() for key, (_, default) in keys.items()}
    table.update({f"boundary.{key}": default
                  for keys in cli._KINDS.values() for key, (_, default) in keys.items()})
    readme = readme_config_defaults()
    assert set(readme) == set(table)
    wrong = [key for key, cell in readme.items() if (cell == "required") != (table[key] is cli._REQUIRED)]
    assert not wrong, f"required marked wrongly for {wrong}"


SWEEP_INI = """
[domain]
x_min = -1.0
x_max = 1.0
y_min = -1.0
y_max = 1.0
n = 129

[problem]
lambda_plus = 2.0
lambda_minus = 2.0

[boundary]
kind = profile
beta1 = 1.0

[sweep]
family = constant
amplitudes = 0.1
classify_budget = 1

[output]
dir = {out}
"""


def readme_stability_keys():
    """README's `stability.json` keys: (top level, row, graph summary), each in the order written.

    A key named again in its own sentence, as `point` is in `theta`'s
    description, counts once.
    """
    with open(README) as fh:
        text = fh.read().split("`stability.json` holds the sweep:", 1)[1].split("\n\n", 1)[0]
    top, rest = text.split("A row holds", 1)
    row, summary = rest.split("Each summary holds", 1)
    return tuple(list(dict.fromkeys(re.findall(r"`([^`]+)`", part))) for part in (top, row, summary))


def test_readme_stability_keys_match_what_the_sweep_writes(tmp_path):
    # a key written but not documented, or documented but no longer
    # written, is a stale README; the sweep must reach a graph fit
    ini = tmp_path / "sweep.ini"
    ini.write_text(SWEEP_INI.format(out=tmp_path / "out"))
    assert cli.main(["sweep", str(ini)]) == 0
    with open(tmp_path / "out" / "stability.json") as fh:
        report = json.load(fh)
    row = report["rows"][0]
    written = (list(report), list(row), list(row["graph_summaries"][0]))
    assert readme_stability_keys() == written


CONSTANT = re.compile(r"_?[A-Z][A-Z0-9_]*")


def test_every_module_constant_is_read():
    # a constant whose code was deleted would otherwise linger, still
    # documented as if it tuned something
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src", "membranelab")
    defined, read = [], set()
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(src, name)) as fh:
            tree = ast.parse(fh.read())
        for stmt in tree.body:
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
            for target in targets:
                for node in ast.walk(target) if target is not None else ():
                    if isinstance(node, ast.Name) and CONSTANT.fullmatch(node.id):
                        defined.append((name, node.id))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    assert defined
    unread = [f"{name}: {const}" for name, const in defined if const not in read]
    assert not unread, f"module constants never read: {unread}"


def readme_block(lang: str) -> str:
    """The one fenced block of README in ``lang``."""
    with open(README) as fh:
        block, = re.findall(rf"```{lang}\n(.*?)```", fh.read(), re.S)
    return block


def test_readme_solve_report_is_the_report_of_its_config(tmp_path):
    # README shows the solve_report.json of its minimal config; a solver
    # change that moves a count would otherwise leave the example stale
    out = tmp_path / "out"
    path = tmp_path / "exp.ini"
    path.write_text(readme_block("ini").replace("dir = out/exp1", f"dir = {out}"))
    assert cli.main(["solve", str(path)]) == 0
    got = json.loads((out / "solve_report.json").read_text())
    want = json.loads(readme_block("json"))
    assert set(got) == set(want)
    for key in ("iterations", "pattern_changes", "converged", "levels"):
        assert got[key] == want[key], key
    assert got["final_energy"] == pytest.approx(want["final_energy"], rel=1e-12, abs=0.0)
    assert got["energy_history"] == pytest.approx(want["energy_history"], rel=1e-12, abs=0.0)
    # the residual moves with rounding; README's value only illustrates it
    assert got["final_residual"] <= cli.load_config(str(path)).spec.tol_linear


def test_readme_library_example_runs():
    # the Library block is the public surface in one screen; a changed
    # signature or export would break it without failing any other test
    namespace: dict = {}
    exec(compile(readme_block("python"), README, "exec"), namespace)
    assert namespace["report"].converged
    assert namespace["label"] == "branch"
