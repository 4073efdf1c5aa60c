import ast
import dataclasses
import importlib
import pkgutil
import types
from pathlib import Path

import lotnn
from lotnn import classify, otsolve
from conftest import load_benchmark


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
    layers = load_benchmark("tracing").LAYERS
    assert layers
    for mod_name, qual in layers:
        obj = importlib.import_module(f"lotnn.{mod_name}")
        for attr in qual.split("."):
            obj = getattr(obj, attr)
        assert callable(obj), f"{mod_name}.{qual}"


def test_a_tiny_benchmark_round_fails_no_check(tmp_path):
    # benchmarks/pipeline.py reads emb.meta["best_phase"], the history's
    # ot_loss_mean and clf_loss, TrainSchedule's fields, pair.phi and
    # ModelBundle's fields: a rename fails here too, not only in the
    # benchmark's own tests
    pipeline = load_benchmark("pipeline")
    for name, w in pipeline.WORKLOADS.items():
        w = dataclasses.replace(
            w, n_points=40, train=2, val=1, test=1, extra=1 if w.untrained_bundle else 0,
            schedule=classify.TrainSchedule(ot_epochs_per_phase=1, clf_epochs_per_phase=1,
                                            total_epochs=2),
            embed_iters=1, oracle_pairs=1, oracle_n=40, ds_epochs=1, ds_members=1,
            resamples=2)
        ops = pipeline.run_round(w, pipeline.setup(w, 3, tmp_path / name), 3).ops
        assert ops.attempted > 0 and ops.failed == 0, (name, ops.failures)


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
