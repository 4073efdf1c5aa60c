"""Tests of the benchmark itself: python -m pytest benchmarks"""

from __future__ import annotations

import dataclasses
import json

import pytest

import bench
import pipeline
import runner
import tracing
from lotnn import classify, lot
from tracing import Span, aggregate, self_times

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())


def test_self_time_on_hand_built_tree():
    spans = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 4.0, 0),
        Span("a1", 2.0, 3.0, 1),
        Span("b", 5.0, 7.0, 0),
        Span("c", 6.0, 8.0, 0),   # overlaps b: [5, 8] is covered once
        Span("a", 8.5, 9.5, 0),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 2.0, 2.0, 1.0])
    agg = aggregate(spans)
    assert agg["a"] == pytest.approx({"calls": 2, "s": 4.0, "self_s": 3.0})
    assert agg["root"] == pytest.approx({"calls": 1, "s": 10.0, "self_s": 3.0})


def test_reentered_name_counts_inclusive_time_once():
    spans = [Span("f", 0.0, 4.0, -1), Span("f", 1.0, 2.0, 0)]
    assert aggregate(spans)["f"] == pytest.approx({"calls": 2, "s": 4.0, "self_s": 4.0})


def test_tracer_records_parent_spans():
    tr = tracing.Tracer()
    inner = tr.wrap("inner", lambda: 1)
    outer = tr.wrap("outer", lambda: inner() + inner())
    assert outer() == 2
    spans = tr.take()
    assert [(s.name, s.parent) for s in spans] == [
        ("outer", -1), ("inner", 0), ("inner", 0)]
    assert all(s.start <= s.end for s in spans)
    assert tr.take() == []


def test_installed_wraps_imported_names_and_restores_them():
    from lotnn import otsolve
    orig_step = otsolve.solver_step
    orig_build = lot.EmbeddingSet.__dict__["build"]
    with tracing.installed(tracing.Tracer()):
        assert classify.solver_step is otsolve.solver_step
        assert classify.solver_step is not orig_step
        assert isinstance(lot.EmbeddingSet.__dict__["build"], classmethod)
    assert classify.solver_step is orig_step and otsolve.solver_step is orig_step
    assert lot.EmbeddingSet.__dict__["build"] is orig_build


def test_stage_slowdown_uses_the_kernel_passes_around_it(monkeypatch):
    ref = pipeline.REFERENCE_S
    passes = iter([2 * ref, ref, 3 * ref])
    monkeypatch.setattr(pipeline, "kernel_seconds", lambda: next(passes))
    out = pipeline.RoundResult()
    assert pipeline._stage(out, "a", lambda: 7) == 7
    pipeline._stage(out, "b", lambda: None)  # shares the pass after "a"
    assert out.slowdown == pytest.approx({"a": 1.5, "b": 2.0})
    assert next(passes, None) is None


def test_reference_seconds_divide_each_stage_by_its_slowdown():
    r = pipeline.RoundResult(times={"fit": 2.0, "dist": 1.0, "wall": 3.0},
                             slowdown={"fit": 2.0, "dist": 0.5})
    assert runner._ref_s(r, "fit") == pytest.approx(1.0)
    assert runner._ref_s(r, "dist") == pytest.approx(2.0)
    assert runner._ref_s(r, "wall") == pytest.approx(3.0)


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(pipeline.WORKLOADS)
    assert [w["why"] for w in SPEC["workloads"]] == [
        w.why for w in pipeline.WORKLOADS.values()]
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == runner.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == runner.PER_LAYER


def _tiny(w: pipeline.Workload) -> pipeline.Workload:
    return dataclasses.replace(
        w, n_points=40, train=2, val=1, test=1, extra=1 if w.untrained_bundle else 0,
        schedule=classify.TrainSchedule(ot_epochs_per_phase=1, clf_epochs_per_phase=1,
                                        total_epochs=2),
        embed_iters=1, oracle_pairs=1, oracle_n=40, ds_epochs=1, ds_members=1,
        resamples=2)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(pipeline.WORKLOADS))
def test_tiny_run_prints_every_metric_with_its_unit(name, trace, monkeypatch, capsys):
    monkeypatch.setitem(pipeline.WORKLOADS, name, _tiny(pipeline.WORKLOADS[name]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, bench.BLAS_THREADS)
    rc = bench.main(["--workload", name, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    assert rc == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = runner.PER_LAYER if trace else runner.END_TO_END
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    for k, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), k
        assert f"{k} {m['value']} {m['unit']}" in lines
    assert not (bench.ROOT / ".bench_work").exists()


def test_unknown_workload_exits_nonzero(capsys):
    assert bench.main(["--workload", "nope", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
