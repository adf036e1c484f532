"""Guards on the tooling that measures the package."""
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
