"""The benchmark tracer finds every name it rebinds, and puts them all back.

``benchmarks/tracer.py`` rebinds drorder functions and methods by their
string names.  Installing it here makes a deleted or renamed traced name
fail the test suite, not only the slower ``benchmarks/selftest.py``.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

# every drorder module the tracer rebinds names in
from drorder import analysis, cli, config, harness, operators, splitting  # noqa: F401

TRACER_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("drorder_bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _namespaces():
    """Every drorder module and every class defined in one."""
    modules = [m for key, m in sorted(sys.modules.items())
               if key == "drorder" or key.startswith("drorder.")]
    classes = {cls for m in modules for cls in vars(m).values()
               if inspect.isclass(cls) and cls.__module__.startswith("drorder")}
    return modules + sorted(classes, key=lambda c: (c.__module__, c.__qualname__))


def _snapshot():
    return {(ns, attr): value for ns in _namespaces() for attr, value in vars(ns).items()}


def test_tracer_installs_and_restores_every_name():
    tracer_module = _load_tracer()
    before = _snapshot()
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        for name in tracer_module.ANALYSIS_FUNCTIONS:
            assert getattr(analysis, name) is not before[(analysis, name)], name
        assert splitting.iterate is not before[(splitting, "iterate")]
    finally:
        tracer.uninstall()
    after = _snapshot()
    assert after.keys() == before.keys()
    changed = [f"{getattr(ns, '__name__', ns)}.{attr}"
               for (ns, attr), value in before.items() if after[(ns, attr)] is not value]
    assert changed == []


def test_every_catalog_class_holds_its_own_resolve():
    # the tracer wraps ``resolve`` per kind only where a class's own
    # namespace holds it; an inherited one would count under the parent's kind
    assert [kind for kind, cls in operators._CATALOG.items() if "resolve" not in vars(cls)] == []
