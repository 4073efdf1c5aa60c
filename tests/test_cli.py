import json

import numpy as np
import pytest

from lotnn.cli import main

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


def test_eval_test_subset(workdir):
    d, base = workdir
    out = d / "metrics.csv"
    assert main(base + ["eval", "--bundle", str(d / "bundle.json"),
                        "--data", str(d / "data"), "--subset", "test",
                        "--resamples", "2", "--out", str(out)]) == 0
    assert out.exists() and out.with_suffix(".probs.csv").exists()


def test_dist_writes_square_csv(workdir):
    d, base = workdir
    out = d / "dist.csv"
    assert main(base + ["dist", "--bundle", str(d / "bundle.json"),
                        "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()
            if not line.startswith("#")]
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
