import json

import numpy as np
import pytest

from lotnn.bundle import ModelBundle, load_bundle, save_bundle
from lotnn.classify import WeightNet
from lotnn.data import PointCloud
from lotnn.errors import DataError
from lotnn.lot import ReferenceMeasure
from lotnn.nncore import mlp_init
from lotnn.otsolve import SolverConfig, train_map


def pair_arrays(pair):
    return ([*pair.psi.wx, *pair.psi.wz, *pair.psi.b,
             *pair.phi.wx, *pair.phi.wz, *pair.phi.b]
            + [np.asarray(pair.frame.sigma_mean), np.asarray(pair.frame.mu_mean),
               np.asarray([pair.frame.scale])])


def bitwise_equal(xs, ys):
    return len(xs) == len(ys) and all(
        x.shape == y.shape and x.tobytes() == y.tobytes() for x, y in zip(xs, ys))


@pytest.fixture
def bundle(rng):
    clouds = [PointCloud(f"c{i}", rng.normal((40, 2)) + np.array([2.0 * i, 0.0]))
              for i in range(3)]
    ref = ReferenceMeasure.fitted(clouds, seed=7)
    pairs = {c.id: train_map(ref, c, SolverConfig(batch_size=16, iters=3,
                                                  hidden=(4,), seed=i))
             for i, c in enumerate(clouds)}
    wn = WeightNet(mlp_init((2, 5, 2), rng.spawn(1)), hidden=(5,))
    return ModelBundle(reference=ref, pair_ids=sorted(pairs), pairs=pairs,
                       weightnet=wn, threshold=0.5, eval_seed=11, eval_n=30,
                       split_ids={"train": ["c0", "c1"], "val": [], "test": ["c2"]})


def test_round_trip_is_bitwise(bundle, tmp_path):
    path = tmp_path / "b.json"
    save_bundle(bundle, path)
    got = load_bundle(path)
    assert got.reference == bundle.reference
    assert got.pair_ids == bundle.pair_ids
    assert got.split_ids == bundle.split_ids
    for cid in bundle.pair_ids:
        assert bitwise_equal(pair_arrays(got.pairs[cid]), pair_arrays(bundle.pairs[cid]))
        assert "loss_history" in bundle.pairs[cid].meta
        assert got.pairs[cid].meta == {k: v for k, v in bundle.pairs[cid].meta.items()
                                       if k != "loss_history"}
    assert got.weightnet.hidden == bundle.weightnet.hidden
    assert bitwise_equal(got.weightnet.params.weights + got.weightnet.params.biases,
                         bundle.weightnet.params.weights + bundle.weightnet.params.biases)


def test_wrong_format_version_rejected(bundle, tmp_path):
    path = tmp_path / "b.json"
    save_bundle(bundle, path)
    doc = json.loads(path.read_text())
    doc["format_version"] = 2
    path.write_text(json.dumps(doc))
    with pytest.raises(DataError):
        load_bundle(path)


def test_classifier_needs_a_weight_net(bundle, tmp_path):
    bundle.weightnet = None
    path = tmp_path / "b.json"
    save_bundle(bundle, path)
    with pytest.raises(DataError):
        load_bundle(path).classifier()


def test_document_with_deepsets_key_loads(bundle, tmp_path):
    # bundles written before the unused "deepsets" list was dropped
    path = tmp_path / "b.json"
    save_bundle(bundle, path)
    doc = json.loads(path.read_text())
    doc["deepsets"] = []
    path.write_text(json.dumps(doc))
    assert load_bundle(path).pair_ids == bundle.pair_ids


def _with_head_bias(path, value):
    # the layout of documents written while the ICNN head had a bias
    doc = json.loads(path.read_text())
    for p in doc["pairs"]:
        for net in ("psi", "phi"):
            p[net]["b"].append({"shape": [1],
                                "hex": np.array([value], "<f8").tobytes().hex()})
    path.write_text(json.dumps(doc))


def test_document_with_zero_head_bias_loads(bundle, tmp_path, rng):
    path = tmp_path / "b.json"
    save_bundle(bundle, path)
    _with_head_bias(path, 0.0)
    got = load_bundle(path)
    X = rng.normal((20, 2))
    for cid in bundle.pair_ids:
        assert bitwise_equal(pair_arrays(got.pairs[cid]), pair_arrays(bundle.pairs[cid]))
        assert (got.pairs[cid].map_forward(X).tobytes()
                == bundle.pairs[cid].map_forward(X).tobytes())


def test_document_with_nonzero_head_bias_rejected(bundle, tmp_path):
    path = tmp_path / "b.json"
    save_bundle(bundle, path)
    _with_head_bias(path, 0.25)
    with pytest.raises(DataError, match="head bias"):
        load_bundle(path)


def _drop_first_row(block):
    a = np.frombuffer(bytes.fromhex(block["hex"]), "<f8").reshape(block["shape"])[1:]
    return {"shape": list(a.shape), "hex": a.tobytes().hex()}


@pytest.mark.parametrize("net,group", [("psi", "wx"), ("phi", "wz"), ("psi", "b")])
def test_document_with_wrong_block_shape_rejected(bundle, tmp_path, net, group):
    path = tmp_path / "b.json"
    save_bundle(bundle, path)
    doc = json.loads(path.read_text())
    blocks = doc["pairs"][0][net][group]
    blocks[0] = _drop_first_row(blocks[0])
    path.write_text(json.dumps(doc))
    with pytest.raises(DataError, match=f"ICNN {group} shapes"):
        load_bundle(path)
