import importlib
import importlib.util
import sys
from pathlib import Path

import lotnn
from lotnn import classify, otsolve


def test_package_exports_resolve():
    assert len(set(lotnn.__all__)) == len(lotnn.__all__)
    for name in lotnn.__all__:
        assert getattr(lotnn, name) is not None


def _tracing():
    # benchmarks/tracing.py imports only the standard library at load time;
    # its dataclasses look their module up in sys.modules while it loads
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"
    spec = importlib.util.spec_from_file_location("lotnn_bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_traced_layers_resolve():
    # the benchmark's tracer wraps these by name; a rename must fail here
    layers = _tracing().LAYERS
    assert layers
    for mod_name, qual in layers:
        obj = importlib.import_module(f"lotnn.{mod_name}")
        for attr in qual.split("."):
            obj = getattr(obj, attr)
        assert callable(obj), f"{mod_name}.{qual}"


def test_classify_keeps_the_solver_step_the_benchmark_traces():
    # benchmarks/test_bench.py checks the traced run wraps this name too
    assert classify.solver_step is otsolve.solver_step
