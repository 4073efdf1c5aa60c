import json

import numpy as np
import pytest

from lotnn.cli import main
from lotnn.errors import NumericError

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
    config_hash = json.loads((d / "bundle.json").read_text())["config_hash"]
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


def test_dist_writes_square_csv(workdir):
    d, base = workdir
    out = d / "dist.csv"
    assert main(base + ["dist", "--bundle", str(d / "bundle.json"),
                        "--out", str(out)]) == 0
    rows = _csv_rows(out)
    ids = rows[0][1:]
    D = np.array([[float(v) for v in row[1:]] for row in rows[1:]])
    bundle_ids = [p["id"] for p in json.loads((d / "bundle.json").read_text())["pairs"]]
    assert ids == bundle_ids and D.shape == (len(ids), len(ids))
    assert np.array_equal(D, D.T) and np.all(np.diag(D) == 0)


def test_train_rerun_is_byte_identical(workdir):
    d, base = workdir
    again = d / "bundle_again.json"
    assert main(base + ["train", "--data", str(d / "data"),
                        "--bundle", str(again)]) == 0
    assert again.read_bytes() == (d / "bundle.json").read_bytes()


def test_bundle_pairs_record_their_solver_steps(workdir):
    # one phase of one solver epoch of one step
    d, _ = workdir
    pairs = json.loads((d / "bundle.json").read_text())["pairs"]
    assert pairs and all(p["meta"]["iterations"] == 1 for p in pairs)


def test_train_numeric_failure_exits_4(workdir, monkeypatch, capsys):
    import lotnn.otsolve as otsolve_mod

    def fail(pair, X, Y, lam, state):
        raise NumericError("injected")

    d, base = workdir
    monkeypatch.setattr(otsolve_mod, "solver_step", fail)
    assert main(base + ["train", "--data", str(d / "data"),
                        "--bundle", str(d / "failed.json")]) == 4
    first = json.loads((d / "bundle.json").read_text())["split"]["train"][0]
    err = capsys.readouterr().err
    assert "numeric failure" in err and first in err and "step 0" in err
    assert not (d / "failed.json").exists()


def test_baseline_and_bound(workdir):
    d, base = workdir
    assert main(base + ["baseline", "--data", str(d / "data")]) == 0
    assert main(["bound", "--beta", "1", "--eps", "0.1", "--R", "1",
                 "--delta", "0.05", "--n", "1000"]) == 0


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
