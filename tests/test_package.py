import importlib

import lotnn
from lotnn import classify, otsolve
from conftest import load_tracing


def test_package_exports_resolve():
    assert len(set(lotnn.__all__)) == len(lotnn.__all__)
    for name in lotnn.__all__:
        assert getattr(lotnn, name) is not None


def test_traced_layers_resolve():
    # the benchmark's tracer wraps these by name; a rename must fail here
    layers = load_tracing().LAYERS
    assert layers
    for mod_name, qual in layers:
        obj = importlib.import_module(f"lotnn.{mod_name}")
        for attr in qual.split("."):
            obj = getattr(obj, attr)
        assert callable(obj), f"{mod_name}.{qual}"


def test_classify_keeps_the_solver_step_the_benchmark_traces():
    # benchmarks/test_bench.py checks the traced run wraps this name too
    assert classify.solver_step is otsolve.solver_step
