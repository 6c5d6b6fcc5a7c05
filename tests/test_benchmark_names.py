"""The benchmark's traced run (`perfbench/run.py --trace 1`) wraps library
functions by name.  Every name its table looks up must exist, or a rename in
the library crashes the traced run.  The table is read, never installed."""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    tracing = _tracing_module()
    for module, entries in tracing.TRACED.items():
        mod = importlib.import_module(f"onsagergeo.{module}")
        for entry in entries:
            attr = entry[1] if isinstance(entry, tuple) else entry
            if module in tracing.METHOD_MODULES:
                owners = [cls for cls in vars(mod).values()
                          if isinstance(cls, type) and attr in vars(cls)]
                assert owners, f"no class in onsagergeo.{module} defines {attr}"
            else:
                assert callable(getattr(mod, attr, None)), f"onsagergeo.{module}.{attr}"


def test_counted_functions_resolve():
    dynamics = importlib.import_module("onsagergeo.dynamics")
    connection = importlib.import_module("onsagergeo.connection")
    params = inspect.signature(dynamics.advance_interior).parameters
    assert list(params) == ["f", "y", "dt", "is_ok", "depth"]
    assert params["depth"].default == 0
    assert callable(connection.geodesic_ivp)
    assert callable(connection.geodesic_bvp)
