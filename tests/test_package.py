import ast
import importlib
from pathlib import Path

import lotnn


def test_package_exports_resolve():
    assert len(set(lotnn.__all__)) == len(lotnn.__all__)
    for name in lotnn.__all__:
        assert getattr(lotnn, name) is not None


def test_traced_layers_resolve():
    # the benchmark's tracer wraps these by name; a rename must fail here
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"
    layers = next(ast.literal_eval(node.value)
                  for node in ast.parse(path.read_text()).body
                  if isinstance(node, ast.Assign)
                  and getattr(node.targets[0], "id", None) == "LAYERS")
    assert layers
    for mod_name, qual in layers:
        obj = importlib.import_module(f"lotnn.{mod_name}")
        for attr in qual.split("."):
            obj = getattr(obj, attr)
        assert callable(obj), f"{mod_name}.{qual}"
