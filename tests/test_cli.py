import json
import os
import subprocess
import sys

import numpy as np
import pytest

from lotnn.bundle import read_document, write_document
from lotnn.cli import load_config, main
from lotnn.data import gen_synthetic
from lotnn.errors import NumericError

from conftest import start_workers

TINY_CONFIG = {
    "subsample_n": 50,
    "synth_clouds_per_class": 20,
    "synth_points": 50,
    "solver": {"hidden": [4], "batch_size": 16, "iters": 2},
    "schedule": {"ot_epochs_per_phase": 1, "clf_epochs_per_phase": 1,
                 "total_epochs": 2},
    "classifier": {"hidden": [4], "eval_n": 50},
    "deepsets": {"phi_hidden": [4], "pooled_dim": 4, "rho_hidden": [4]},
    "deepsets_epochs": 2,
    "bagging": 1,
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    cfg = d / "config.json"
    cfg.write_text(json.dumps(TINY_CONFIG))
    base = ["--config", str(cfg)]
    assert main(base + ["gen", "--out", str(d / "data")]) == 0
    assert main(base + ["train", "--data", str(d / "data"),
                        "--bundle", str(d / "bundle.json"),
                        "--history", str(d / "history.csv")]) == 0
    return d, base


def _header(workdir):
    d, _ = workdir
    return read_document(d / "bundle.json")[0]


def _csv_rows(path):
    return [line.split(",") for line in path.read_text().splitlines()
            if not line.startswith("#")]


def test_eval_test_subset(workdir, capsys):
    d, base = workdir
    out = d / "metrics.csv"
    assert main(base + ["eval", "--bundle", str(d / "bundle.json"),
                        "--data", str(d / "data"), "--subset", "test",
                        "--resamples", "2", "--out", str(out)]) == 0
    assert out.exists() and out.with_suffix(".probs.csv").exists()
    err = capsys.readouterr().err
    assert "config_hash" not in err
    # split() leaves the tiny config a test set of class 1 only
    assert err.count("note: subset 'test' holds only class 1;") == 1


def test_eval_embeds_with_the_bundle_solver(workdir, capsys):
    # without --config the run's solver is the default (5000 iterations,
    # hidden (64, 64, 64)); held-out clouds must still get the bundle's
    d, base = workdir
    args = ["eval", "--bundle", str(d / "bundle.json"), "--data", str(d / "data"),
            "--subset", "test", "--resamples", "1"]
    assert main(base + args + ["--out", str(d / "with_config.csv")]) == 0
    capsys.readouterr()
    assert main(args + ["--out", str(d / "bare.csv")]) == 0
    config_hash = _header(workdir)["config_hash"]
    err = capsys.readouterr().err.splitlines()
    assert len([line for line in err if f"config_hash={config_hash}" in line]) == 1
    assert (_csv_rows(d / "bare.probs.csv")
            == _csv_rows(d / "with_config.probs.csv"))


def test_eval_single_resample_rows_are_distinct(workdir):
    d, base = workdir
    out = d / "metrics_k1.csv"
    assert main(base + ["eval", "--bundle", str(d / "bundle.json"),
                        "--data", str(d / "data"), "--subset", "test",
                        "--resamples", "1", "--out", str(out)]) == 0
    tags = [row[0] for row in _csv_rows(out)[1:]]
    assert tags == ["eval_sample", "k=1"]
    header = _csv_rows(out.with_suffix(".probs.csv"))[0]
    assert header == ["id", "label", "prob_eval_sample", "prob_k1"]


def _eval_budgets(workdir, monkeypatch, bundle):
    """(steps, cloud ids) of every fit_pairs call that `eval --subset test` makes."""
    import lotnn.cli as cli_mod

    d, base = workdir
    real, budgets = cli_mod.fit_pairs, []

    def counted(sigma, clouds, pairs, states, cfg, steps):
        budgets.append((steps, sorted(clouds)))
        return real(sigma, clouds, pairs, states, cfg, steps)

    monkeypatch.setattr(cli_mod, "fit_pairs", counted)
    code = main(base + ["eval", "--bundle", str(bundle), "--data", str(d / "data"),
                        "--subset", "test", "--resamples", "1"])
    return code, budgets


def _set_iterations(workdir, name, counts):
    d, _ = workdir
    header, payload = read_document(d / "bundle.json")
    for p, n in zip(header["pairs"], counts):
        p["meta"]["iterations"] = n
    write_document(d / name, header, payload)
    return d / name


def test_eval_embeds_at_the_recorded_budget(workdir, monkeypatch):
    # the kept pairs took 1 step each, while solver.iters is 2; one call
    # fits every test cloud
    d, _ = workdir
    test_ids = _header(workdir)["split"]["test"]
    code, budgets = _eval_budgets(workdir, monkeypatch, d / "bundle.json")
    assert code == 0 and budgets == [(1, sorted(test_ids))]


def test_eval_budget_falls_back_to_solver_iters(workdir, monkeypatch):
    # untrained pairs hold 0 steps
    path = _set_iterations(workdir, "zero_steps.json", [0] * 1000)
    test_ids = _header(workdir)["split"]["test"]
    code, budgets = _eval_budgets(workdir, monkeypatch, path)
    assert code == 0 and budgets == [(TINY_CONFIG["solver"]["iters"], sorted(test_ids))]


def test_eval_rejects_pairs_with_different_budgets(workdir, monkeypatch, capsys):
    path = _set_iterations(workdir, "mixed_steps.json", [1, 3])
    code, budgets = _eval_budgets(workdir, monkeypatch, path)
    assert code == 3 and budgets == []
    assert "different step counts [1, 3]" in capsys.readouterr().err


def _bundle_storing(workdir, name, record, settings):
    """The tiny bundle with settings added to one record of its header.

    record is "header" itself, "reference", "solver" (config.solver) or
    "net" (every pair's psi and phi cfg).
    """
    d, _ = workdir
    header, payload = read_document(d / "bundle.json")
    records = {"header": [header], "reference": [header["reference"]],
               "solver": [header["config"]["solver"]],
               "net": [p[net]["cfg"] for p in header["pairs"] for net in ("psi", "phi")]}
    for r in records[record]:
        r.update(settings)
    write_document(d / name, header, payload)
    return d / name


@pytest.mark.parametrize("command,record,settings,message", [
    ("eval", "solver", {"adaptive_quad": False},
     "bundle {path} has an unusable solver config: unknown config key 'adaptive_quad'"),
    ("dist", "net", {"sharpness": 2.0}, "unknown config key 'sharpness'"),
    ("eval", "solver", {"beta1": 0.5},
     "bundle {path} has an unusable solver config: unknown config key 'beta1'"),
    ("eval", "solver", {"init_scale": 1.0},
     "bundle {path} has an unusable solver config: unknown config key 'init_scale'"),
    ("dist", "net", {"activation": "relu"}, "unknown config key 'activation'"),
    ("dist", "reference", {"kind": "box"}, "unknown reference kind 'box'"),
    ("eval", "reference", {"halfwidth": 0.5}, "unknown config key 'halfwidth'"),
    ("eval", "reference", {"kind": "standard"}, "unknown reference kind 'standard'"),
    ("dist", "header", {"format_version": 1}, "unsupported format version 1"),
], ids=["adaptive_quad", "sharpness", "beta1", "init_scale", "activation", "box",
        "halfwidth", "standard", "version_1"])
def test_bundle_with_a_removed_setting_off_its_value_exits_3(
        workdir, capsys, command, record, settings, message):
    d, base = workdir
    path = _bundle_storing(workdir, f"removed_{command}.json", record, settings)
    args = {"eval": ["--data", str(d / "data")], "dist": ["--out", str(d / "x.csv")]}
    assert main(base + [command, "--bundle", str(path)] + args[command]) == 3
    err = capsys.readouterr().err
    assert message.format(path=path) in err and "Traceback" not in err


def test_eval_scores_each_cloud_the_same_in_any_subset(workdir):
    # a held-out cloud's seeds come from its id, not its place in the list
    d, base = workdir
    rows = {}
    for subset in ("test", "all"):
        out = d / f"subset_{subset}.csv"
        assert main(base + ["eval", "--bundle", str(d / "bundle.json"),
                            "--data", str(d / "data"), "--subset", subset,
                            "--resamples", "2", "--out", str(out)]) == 0
        rows[subset] = {row[0]: row
                        for row in _csv_rows(out.with_suffix(".probs.csv"))[1:]}
    test_ids = _header(workdir)["split"]["test"]
    assert test_ids and set(test_ids) == set(rows["test"]) < set(rows["all"])
    for cid in test_ids:
        assert rows["test"][cid] == rows["all"][cid]


@pytest.mark.parametrize("cpus", [1, 3])
def test_eval_outputs_equal_the_per_cloud_scores_bytewise(workdir, monkeypatch, cpus):
    # eval scores every cloud on the fixed sample with the weight net
    # evaluated once; the files must hold the bytes that score() per
    # cloud, at one CPU, writes
    import lotnn.cli as cli_mod
    from lotnn import nncore
    from lotnn.classify import score

    d, base = workdir
    args = ["eval", "--bundle", str(d / "bundle.json"), "--data", str(d / "data"),
            "--subset", "all", "--resamples", "2", "--out"]
    monkeypatch.setattr(nncore, "_usable_cpus", lambda: 1)
    monkeypatch.setattr(cli_mod, "scores", lambda model, pairs, S:
                        [score(model, pair, S) for pair in pairs])
    assert main(base + args + [str(d / "per_cloud.csv")]) == 0
    monkeypatch.undo()
    monkeypatch.setattr(nncore, "_usable_cpus", lambda: cpus)
    assert main(base + args + [str(d / "pooled.csv")]) == 0
    for suffix in (".csv", ".probs.csv"):
        assert ((d / f"pooled{suffix}").read_bytes()
                == (d / f"per_cloud{suffix}").read_bytes())


def test_eval_embeds_each_cloud_on_two_processes_with_the_same_bytes(workdir, monkeypatch):
    # the bundle holds no pair of the test clouds, so eval fits them all in
    # one fit_pairs call, which at 2 CPUs hands a chunk of them to a worker
    import lotnn.otsolve as otsolve_mod
    from lotnn import nncore

    d, base = workdir
    test_ids = _header(workdir)["split"]["test"]
    assert len(test_ids) > 1
    assert not set(test_ids) & {p["id"] for p in _header(workdir)["pairs"]}
    args = ["eval", "--bundle", str(d / "bundle.json"), "--data", str(d / "data"),
            "--subset", "test", "--resamples", "2", "--out"]
    monkeypatch.setattr(nncore, "_usable_cpus", lambda: 1)
    assert main(base + args + [str(d / "one_cpu.csv")]) == 0
    start_workers(monkeypatch, 2)
    recv, replies = otsolve_mod._recv_chunk, []
    monkeypatch.setattr(otsolve_mod, "_recv_chunk", lambda *a: replies.append(1) or recv(*a))
    assert main(base + args + [str(d / "two_cpus.csv")]) == 0
    assert len(replies) == 1  # the one solver step, its second chunk on the worker
    for suffix in (".csv", ".probs.csv"):
        assert ((d / f"two_cpus{suffix}").read_bytes()
                == (d / f"one_cpu{suffix}").read_bytes())


@pytest.mark.parametrize("value", [1.5, 0.0, 1.0, float("nan"), float("inf"), "0.5", True])
def test_bundle_with_a_bad_threshold_exits_3(workdir, capsys, value):
    _bad_eval_setting(workdir, capsys, "threshold", value, "threshold must be")


@pytest.mark.parametrize("value", [0, -3, 2.5, "10", True])
def test_bundle_with_a_bad_eval_sample_size_exits_3(workdir, capsys, value):
    _bad_eval_setting(workdir, capsys, "n", value, "eval_sample.n must be")


@pytest.mark.parametrize("value", [-1, 1.5, None])
def test_bundle_with_a_bad_eval_seed_exits_3(workdir, capsys, value):
    _bad_eval_setting(workdir, capsys, "seed", value, "eval_sample.seed must be")


def _bad_eval_setting(workdir, capsys, key, value, message):
    d, base = workdir
    header, payload = read_document(d / "bundle.json")
    (header if key == "threshold" else header["eval_sample"])[key] = value
    path = d / f"bad_{key}.json"
    write_document(path, header, payload)
    for command in (["eval", "--data", str(d / "data")], ["dist"]):
        assert main(base + [command[0], "--bundle", str(path), *command[1:]]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"data error: bundle {path}: ")
        assert message in err[0]


def _with_payload_value(workdir, name, offset, value):
    d, _ = workdir
    header, payload = read_document(d / "bundle.json")
    payload[offset(header)] = value
    write_document(d / name, header, payload)
    return d / name


def test_dist_rejects_an_infinite_frame_scale(workdir, capsys):
    d, base = workdir
    # the scale is the last of a frame's 2 dim + 1 values
    path = _with_payload_value(workdir, "inf_scale.json",
                               lambda h: sum(h["pairs"][0]["frame"]) - 1, np.inf)
    assert main(base + ["dist", "--bundle", str(path),
                        "--out", str(d / "inf_dist.csv")]) == 3
    err = capsys.readouterr().err
    assert f"bundle {path}: the payload holds inf;" in err and "Traceback" not in err
    assert not (d / "inf_dist.csv").exists()


def test_eval_rejects_a_nan_weight_net(workdir, capsys):
    d, base = workdir
    path = _with_payload_value(workdir, "nan_weightnet.json",
                               lambda h: h["weightnet"]["theta"][0], np.nan)
    assert main(base + ["eval", "--bundle", str(path), "--data", str(d / "data"),
                        "--resamples", "1"]) == 3
    err = capsys.readouterr().err
    assert f"bundle {path}: the payload holds nan;" in err and "Traceback" not in err


def test_eval_marks_recall_undefined_without_positives(workdir, tmp_path):
    # only the class-0 clouds: no positive label, so recall has no denominator
    d, base = workdir
    data = tmp_path / "negatives"
    data.mkdir()
    labels = (d / "data" / "labels.csv").read_text().splitlines()
    kept = [labels[0]] + [row for row in labels[1:] if row.endswith(",0")]
    (data / "labels.csv").write_text("\n".join(kept) + "\n")
    for row in kept[1:]:
        cid = row.split(",")[0]
        (data / f"cloud_{cid}.csv").write_bytes((d / "data" / f"cloud_{cid}.csv").read_bytes())
    out = tmp_path / "metrics.csv"
    assert main(base + ["eval", "--bundle", str(d / "bundle.json"), "--data", str(data),
                        "--subset", "all", "--resamples", "1", "--out", str(out)]) == 0
    header, *rows = _csv_rows(out)
    assert header[-2:] == ["precision_defined", "recall_defined"]
    assert rows and all(row[header.index("recall")] == "0.0" and row[-1] == "0"
                        for row in rows)


def test_gen_manifest_records_each_cloud_scale_and_shift(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"synth": {"dim": 3, "scale_jitter": 0.3},
                               "synth_clouds_per_class": 3, "synth_points": 5}))
    assert main(["--config", str(cfg), "gen", "--out", str(tmp_path / "data")]) == 0
    run = load_config(str(cfg), None)
    ds = gen_synthetic(run.synth, run.synth_clouds_per_class, run.synth_points,
                       seed=run.seed)
    manifest = json.loads((tmp_path / "data" / "manifest.json").read_text())
    assert manifest["clouds"] == {c.id: {"scale": c.meta["scale"], "shift": c.meta["shift"]}
                                  for c in ds.clouds}
    assert len({entry["scale"] for entry in manifest["clouds"].values()}) == len(ds.clouds)


def test_dist_writes_square_csv(workdir):
    d, base = workdir
    out = d / "dist.csv"
    assert main(base + ["dist", "--bundle", str(d / "bundle.json"),
                        "--out", str(out)]) == 0
    rows = _csv_rows(out)
    ids = rows[0][1:]
    D = np.array([[float(v) for v in row[1:]] for row in rows[1:]])
    bundle_ids = [p["id"] for p in _header(workdir)["pairs"]]
    assert ids == bundle_ids and D.shape == (len(ids), len(ids))
    assert np.array_equal(D, D.T) and np.all(np.diag(D) == 0)


def _spans(header):
    """Every [offset, length] block the header names, as the lists themselves."""
    for p in header["pairs"]:
        yield from (p["psi"]["theta"], p["phi"]["theta"], p["frame"])
    if header["weightnet"]:
        yield header["weightnet"]["theta"]


def test_dist_rejects_a_bundle_with_a_cut_block(workdir, capsys):
    # the first pair's psi one value short, the file otherwise consistent
    d, base = workdir
    header, payload = read_document(d / "bundle.json")
    psi = header["pairs"][0]["psi"]["theta"]
    for span in _spans(header):
        span[0] -= span[0] > psi[0]
    psi[1] -= 1
    path = d / "cut_psi.json"
    write_document(path, header, np.delete(payload, psi[0] + psi[1]))
    assert main(base + ["dist", "--bundle", str(path),
                        "--out", str(d / "cut_dist.csv")]) == 3
    pid = header["pairs"][0]["id"]
    assert f"pair {pid!r} psi holds {psi[1]} values; its layout has {psi[1] + 1}" \
        in capsys.readouterr().err


def test_dist_rejects_a_bundle_whose_blocks_overlap(workdir, tmp_path, capsys):
    # the second pair's psi named at the first pair's block
    d, base = workdir
    header, payload = read_document(d / "bundle.json")
    first, second = header["pairs"][:2]
    end = second["psi"]["theta"][0]
    second["psi"]["theta"] = list(first["psi"]["theta"])
    path = tmp_path / "overlap.json"
    write_document(path, header, payload)
    assert main(base + ["dist", "--bundle", str(path),
                        "--out", str(tmp_path / "dist.csv")]) == 3
    assert (f"pair {second['id']!r} psi starts at {first['psi']['theta'][0]}; "
            f"the block before it ends at {end}") in capsys.readouterr().err
    assert not (tmp_path / "dist.csv").exists()


def test_dist_rejects_a_bundle_that_repeats_a_pair_id(workdir, tmp_path, capsys):
    d, base = workdir
    header, payload = read_document(d / "bundle.json")
    pid = header["pairs"][0]["id"]
    header["pairs"][1]["id"] = pid
    path = tmp_path / "repeated.json"
    write_document(path, header, payload)
    assert main(base + ["dist", "--bundle", str(path),
                        "--out", str(tmp_path / "dist.csv")]) == 3
    assert f"pair id {pid!r} repeats" in capsys.readouterr().err
    assert not (tmp_path / "dist.csv").exists()


def _malformed(case, workdir, path):
    d, _ = workdir
    if case == "header_only":
        path.write_text('{"format_version": 1}')
        return
    header, payload = read_document(d / "bundle.json")
    block = header["pairs"][0]["psi"]["theta"]
    if case == "wrong_type":
        header["pairs"][0]["psi"]["cfg"]["hidden"] = 4
    elif case == "short_payload":
        payload = payload[:-1]
    elif case == "long_payload":
        payload = np.append(payload, 0.0)
    elif case == "theta_length":
        block[1] += 1
    write_document(path, header, payload)


@pytest.mark.parametrize("case", ["header_only", "wrong_type", "short_payload",
                                  "long_payload", "theta_length"])
def test_dist_rejects_a_malformed_bundle(workdir, tmp_path, capsys, case):
    d, base = workdir
    path = tmp_path / f"{case}.json"
    _malformed(case, workdir, path)
    assert main(base + ["dist", "--bundle", str(path),
                        "--out", str(tmp_path / "dist.csv")]) == 3
    err = capsys.readouterr().err
    assert f"bundle {path}" in err and "Traceback" not in err


def test_train_rerun_is_byte_identical(workdir):
    d, base = workdir
    again = d / "bundle_again.json"
    assert main(base + ["train", "--data", str(d / "data"),
                        "--bundle", str(again)]) == 0
    assert again.read_bytes() == (d / "bundle.json").read_bytes()


# a tiny run whose bundle bytes differ between one and two BLAS threads
BLAS_CONFIG = {
    "synth": {"dim": 2},
    "synth_clouds_per_class": 20,
    "synth_points": 60,
    "solver": {"iters": 2, "batch_size": 32},
    "schedule": {"ot_epochs_per_phase": 1, "clf_epochs_per_phase": 2,
                 "total_epochs": 6},
    "classifier": {"eval_n": 1000},
}


def test_train_bundle_ignores_blas_threads_in_the_environment(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(BLAS_CONFIG))
    base = ["--config", str(cfg), "--seed", "1"]
    assert main(base + ["gen", "--out", str(tmp_path / "data")]) == 0
    bundles = []
    for threads in (None, "1", "2"):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        env.pop("OPENBLAS_NUM_THREADS", None)
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        path = tmp_path / f"bundle_{threads}.json"
        subprocess.run([sys.executable, "-m", "lotnn.cli", *base, "train",
                        "--data", str(tmp_path / "data"), "--bundle", str(path)],
                       env=env, check=True, capture_output=True)
        bundles.append(path.read_bytes())
    assert bundles[0] == bundles[1] == bundles[2]


def test_bundle_pairs_record_their_solver_steps(workdir):
    # one phase of one solver epoch of one step
    d, _ = workdir
    pairs = _header(workdir)["pairs"]
    assert pairs and all(p["meta"]["iterations"] == 1 for p in pairs)


def test_bundle_digest_holds_the_final_validation_accuracy(workdir):
    d, _ = workdir
    rows = _csv_rows(d / "history.csv")
    final = dict(zip(rows[0], rows[-1]))
    assert _header(workdir)["history_digest"] == {
        "phases": len(rows) - 1, "val_accuracy": float(final["val_accuracy"])}


def test_bundle_storing_the_retired_steps_per_ot_epoch_still_loads(workdir):
    d, base = workdir
    header, payload = read_document(d / "bundle.json")
    header["config"]["schedule"]["steps_per_ot_epoch"] = 1
    write_document(d / "old_schedule.json", header, payload)
    assert main(base + ["eval", "--bundle", str(d / "old_schedule.json"),
                        "--data", str(d / "data"), "--resamples", "1"]) == 0
    assert main(base + ["dist", "--bundle", str(d / "old_schedule.json"),
                        "--out", str(d / "old_schedule.csv")]) == 0


@pytest.mark.usefixtures("one_cpu")
def test_train_numeric_failure_exits_4(workdir, monkeypatch, capsys):
    import lotnn.otsolve as otsolve_mod

    def fail(pair, X, Y, lam, state):
        raise NumericError("injected")

    d, base = workdir
    monkeypatch.setattr(otsolve_mod, "solver_step", fail)
    assert main(base + ["train", "--data", str(d / "data"),
                        "--bundle", str(d / "failed.json")]) == 4
    first = _header(workdir)["split"]["train"][0]
    err = capsys.readouterr().err
    assert "numeric failure" in err and first in err and "step 0" in err
    assert not (d / "failed.json").exists()


def test_baseline_and_bound(workdir, capsys):
    d, base = workdir
    assert main(base + ["baseline", "--data", str(d / "data")]) == 0
    # the test subset it scores holds class 1 only, as in test_eval_test_subset
    assert capsys.readouterr().err.count("note: subset 'test' holds only class 1;") == 1
    assert main(["bound", "--beta", "1", "--eps", "0.1", "--R", "1",
                 "--delta", "0.05", "--n", "1000"]) == 0


@pytest.mark.parametrize("command", ["train", "eval", "baseline"])
def test_non_integer_dim_header_exits_3(workdir, tmp_path, capsys, command):
    d, base = workdir
    (tmp_path / "cloud_a.csv").write_text("#dim=abc\n1.0,2.0\n")
    (tmp_path / "labels.csv").write_text("id,label\na,0\n")
    args = {"train": ["--bundle", str(tmp_path / "bundle.json")],
            "eval": ["--bundle", str(d / "bundle.json")],
            "baseline": []}[command]
    assert main(base + [command, "--data", str(tmp_path)] + args) == 3
    assert "cloud_a.csv: bad header '#dim=abc'" in capsys.readouterr().err


def test_threads_flag_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--threads", "2", "bound", "--beta", "1", "--eps", "0.1",
              "--R", "1", "--delta", "0.05", "--n", "1000"])
    assert exc.value.code == 2


def test_threads_config_key_is_a_data_error(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"threads": 1}))
    assert main(["--config", str(cfg), "gen", "--out", str(tmp_path / "data")]) == 3
    assert "unknown config key 'threads'" in capsys.readouterr().err


MALFORMED_CONFIGS = {
    "solver_not_an_object": {"solver": 3},
    "batch_size_1": {"solver": {"batch_size": 1}},
    "batch_size_string": {"solver": {"batch_size": "x"}},
    "list": [1, 2],
    "total_epochs_0": {"schedule": {"total_epochs": 0}},
    "batch_points_0": {"deepsets": {"batch_points": 0}},
    "pooled_dim_0": {"deepsets": {"pooled_dim": 0}},
    "solver_hidden_int": {"solver": {"hidden": 4}},
    "solver_activation": {"solver": {"activation": "tanh"}},
    "solver_lr_0": {"solver": {"lr": 0}},
    "classifier_hidden_0": {"classifier": {"hidden": [0]}},
    "classifier_lr_negative": {"classifier": {"lr": -1}},
    "classifier_eval_n_0": {"classifier": {"eval_n": 0}},
    "classifier_threshold": {"classifier": {"threshold": 1.5}},
    "box_halfwidth_negative": {"reference": "box", "box_halfwidth": -1},
    "reference_kind": {"reference": "boxy"},
    "subsample_n_negative": {"subsample_n": -1},
    "deepsets_lr_0": {"deepsets": {"lr": 0}},
    "deepsets_hidden_0": {"deepsets": {"phi_hidden": [0]}},
    "bagging_0": {"bagging": 0},
    "deepsets_epochs_negative": {"deepsets_epochs": -1},
    "seed_negative": {"seed": -1},
    "solver_seed_negative": {"solver": {"seed": -1}},
    # a float or a bool where an integer is meant
    "synth_dim_float": {"synth": {"dim": 1.5}},
    "synth_points_float": {"synth_points": 1.5},
    "batch_size_float": {"solver": {"batch_size": 2.5}},
    "solver_hidden_float": {"solver": {"hidden": [2.5]}},
    "batch_size_and_hidden_float": {"solver": {"batch_size": 2.5, "hidden": [2.5]}},
    "eval_n_whole_float": {"classifier": {"eval_n": 1000.0}},
    "bagging_bool": {"bagging": True},
    # settings that no longer exist
    "resamples": {"resamples": 10},
    "patience": {"schedule": {"patience": 3}},
    "adaptive_quad": {"solver": {"adaptive_quad": True}},
    "quad_psi": {"solver": {"quad_psi": 0.05}},
    "quad_phi": {"solver": {"quad_phi": 0.5}},
    "sharpness": {"solver": {"sharpness": 1.0}},
    # ... also at the one value every run now uses
    "reference": {"reference": "fitted"},
    "box_halfwidth": {"box_halfwidth": 1.0},
    "activation": {"solver": {"activation": "smooth_relu"}},
    "solver_init_scale": {"solver": {"init_scale": 0.1}},
    "beta1": {"solver": {"beta1": 0.9}},
    "beta2": {"solver": {"beta2": 0.999}},
    "eps": {"solver": {"eps": 1e-8}},
    "classifier_init_scale": {"classifier": {"init_scale": 1.0}},
    "steps_per_ot_epoch": {"schedule": {"steps_per_ot_epoch": 1}},
    "deepsets_init_scale": {"deepsets": {"init_scale": 1.0}},
}


@pytest.mark.parametrize("case", sorted(MALFORMED_CONFIGS))
def test_malformed_config_is_a_data_error(tmp_path, capsys, case):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(MALFORMED_CONFIGS[case]))
    assert main(["--config", str(cfg), "gen", "--out", str(tmp_path / "data")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error") and len(err.splitlines()) == 1


def test_negative_seed_flag_is_a_data_error(tmp_path, capsys):
    assert main(["--seed", "-1", "gen", "--out", str(tmp_path / "data")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error") and len(err.splitlines()) == 1
    assert not (tmp_path / "data").exists()


@pytest.mark.parametrize("command", [
    ["eval", "--bundle", "bundle.json", "--data", "data", "--resamples", "0"],
    ["bound", "--beta", "1", "--eps", "0", "--R", "1", "--delta", "0.05", "--n", "1000"],
], ids=["resamples_0", "eps_0"])
def test_invalid_flag_value_is_a_data_error(workdir, capsys, command):
    d, _ = workdir
    assert main([str(d / a) if a in ("bundle.json", "data") else a
                 for a in command]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error") and len(err.splitlines()) == 1
