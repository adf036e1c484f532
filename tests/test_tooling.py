"""Guards on the tooling that measures the package and on its module boundaries."""
import ast
import importlib
import importlib.util
import os
import sys

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")


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
