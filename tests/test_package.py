import ast
import importlib
import pkgutil
import types
from pathlib import Path

import lotnn
from lotnn import classify, otsolve
from conftest import load_tracing


def test_package_namespace_holds_only_its_modules():
    # every name is imported from its module; the package re-exports none
    import lotnn.cli  # noqa: F401  (the lotnn command loads it, so it may be present)

    modules = {info.name for info in pkgutil.iter_modules(lotnn.__path__)}
    public = {name for name in vars(lotnn) if not name.startswith("_")}
    assert public == modules
    for name in public:
        assert isinstance(getattr(lotnn, name), types.ModuleType), name
    assert isinstance(lotnn.__version__, str)


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


PIPE_METHODS = {"send", "recv", "send_bytes", "recv_bytes", "recv_bytes_into"}
PIPE_HELPERS = {"send_arrays", "recv_arrays"}


def test_only_nncore_reads_or_writes_a_pipe():
    # every other module hands its tasks and replies to nncore.post and
    # nncore.take, so the message format is nncore's alone
    for path in sorted(Path(lotnn.__file__).parent.glob("*.py")):
        if path.name == "nncore.py":
            continue
        found = []
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom):
                found += [a.name for a in node.names if a.name in PIPE_HELPERS]
            elif isinstance(node, ast.Call):
                f = node.func
                name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
                if name in PIPE_HELPERS or (isinstance(f, ast.Attribute)
                                            and name in PIPE_METHODS):
                    found.append(f"{name}() on line {node.lineno}")
        assert not found, f"{path.name}: {found}"
