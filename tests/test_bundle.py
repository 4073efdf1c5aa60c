import dataclasses
import json

import numpy as np
import pytest

import lotnn.bundle as bundle_mod
from lotnn.bundle import (ModelBundle, decode_config, load_bundle, read_document,
                          save_bundle, write_document)
from lotnn.classify import TrainSchedule, WeightNet
from lotnn.cli import RunConfig
from lotnn.errors import DataError
from lotnn.icnn import IcnnConfig, IcnnParams
from lotnn.lot import ReferenceMeasure
from lotnn.nncore import MlpParams
from lotnn.otsolve import DualPair, Frame, SolverConfig


def handmade_bundle() -> ModelBundle:
    """Three pairs (hidden (4,)) and a weight net drawn from one PCG64 stream."""
    g = np.random.default_rng(20240801)
    cfg = IcnnConfig(dim=2, hidden=(4,))

    def net():
        return IcnnParams([g.normal(size=(4, 2)), g.normal(size=(1, 2))],
                          [np.abs(g.normal(size=(1, 4)))], [g.normal(size=4)])

    pairs = {f"c{i}": DualPair(net(), cfg, net(), cfg,
                               Frame(tuple(g.normal(size=2)), tuple(g.normal(size=2)),
                                     float(g.uniform(0.5, 2.0))),
                               {"iterations": 3, "loss_history": [1.5, 0.75, 0.5]})
             for i in range(3)}
    wn = WeightNet(MlpParams([g.normal(size=(5, 2)), g.normal(size=(2, 5))],
                             [g.normal(size=5), g.normal(size=2)]), hidden=(5,))
    return ModelBundle(reference=ReferenceMeasure(kind="fitted", dim=2, mean=(0.5, -1.0),
                                                  var=(2.0, 0.25), seed=7),
                       pair_ids=sorted(pairs), pairs=pairs, weightnet=wn, threshold=0.5,
                       eval_seed=11, eval_n=30,
                       split_ids={"train": ["c0", "c1"], "val": [], "test": ["c2"]},
                       config_hash="0123abcd", seed=3, build_version="0.1.0")


def pair_arrays(pair):
    return ([*pair.psi.wx, *pair.psi.wz, *pair.psi.b,
             *pair.phi.wx, *pair.phi.wz, *pair.phi.b]
            + [np.asarray(pair.frame.sigma_mean), np.asarray(pair.frame.mu_mean),
               np.asarray([pair.frame.scale])])


def bitwise_equal(xs, ys):
    return len(xs) == len(ys) and all(
        x.shape == y.shape and x.tobytes() == y.tobytes() for x, y in zip(xs, ys))


def assert_loads_as(got, want, rng):
    assert got.reference == want.reference
    assert got.pair_ids == want.pair_ids
    assert got.split_ids == want.split_ids
    X = rng.normal((20, 2))
    for cid in want.pair_ids:
        assert bitwise_equal(pair_arrays(got.pairs[cid]), pair_arrays(want.pairs[cid]))
        assert "loss_history" in want.pairs[cid].meta
        assert got.pairs[cid].meta == {k: v for k, v in want.pairs[cid].meta.items()
                                       if k != "loss_history"}
        assert (got.pairs[cid].map_forward(X).tobytes()
                == want.pairs[cid].map_forward(X).tobytes())
    assert got.weightnet.hidden == want.weightnet.hidden
    assert bitwise_equal(got.weightnet.params.weights + got.weightnet.params.biases,
                         want.weightnet.params.weights + want.weightnet.params.biases)


@pytest.fixture
def bundle():
    return handmade_bundle()


def test_round_trip_is_bitwise(bundle, tmp_path, rng):
    path = tmp_path / "b.bundle"
    save_bundle(bundle, path)
    assert_loads_as(load_bundle(path), bundle, rng)


def _v2_copy_with(bundle, tmp_path, edit):
    """bundle saved, then edit applied to its header, written again."""
    path = tmp_path / "b.bundle"
    save_bundle(bundle, path)
    header, payload = read_document(path)
    edit(header, payload)
    write_document(path, header, payload)
    return path


@pytest.mark.parametrize("record,key,value,message", [
    ("psi", "activation", "relu", "unknown config key 'activation' in \"pair 'c1' psi\""),
    ("phi", "sharpness", 2.0, "unknown config key 'sharpness' in \"pair 'c1' phi\""),
    ("reference", "halfwidth", 2.0, "unknown config key 'halfwidth'"),
    ("reference", "kind", "box", "unknown reference kind 'box'"),
], ids=["activation", "sharpness", "halfwidth", "box"])
def test_document_with_a_retired_setting_off_its_value_rejected(
        bundle, tmp_path, record, key, value, message):
    def edit(header, payload):
        cfg = (header["reference"] if record == "reference"
               else header["pairs"][1][record]["cfg"])
        cfg[key] = value

    path = _v2_copy_with(bundle, tmp_path, edit)
    with pytest.raises(DataError, match=message) as e:
        load_bundle(path)
    assert f"bundle {path}" in str(e.value)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_document_with_a_non_finite_value_rejected(bundle, tmp_path, value):
    def edit(header, payload):
        payload[header["pairs"][2]["frame"][0]] = value

    path = _v2_copy_with(bundle, tmp_path, edit)
    with pytest.raises(DataError, match=f"bundle {path}: the payload holds {value}"):
        load_bundle(path)


def test_header_is_one_padded_line_before_the_payload(bundle, tmp_path):
    path = tmp_path / "b.bundle"
    save_bundle(bundle, path)
    raw = path.read_bytes()
    end = raw.index(b"\n") + 1
    assert raw.startswith(b'{"format_version":2,') and end % 8 == 0
    header, payload = read_document(path)
    assert payload.nbytes == len(raw) - end
    assert payload.tobytes() == raw[end:]


def test_loaded_thetas_are_aligned_writable_views(bundle, tmp_path):
    path = tmp_path / "b.bundle"
    save_bundle(bundle, path)
    got = load_bundle(path)
    thetas = [t for p in got.pairs.values() for t in (p.psi.theta, p.phi.theta)]
    thetas.append(got.weightnet.params.theta)
    for t in thetas:
        assert t.flags.aligned and t.flags.writeable and not t.flags.owndata
    # every block is a view of one buffer
    assert len({id(t.base) for t in thetas}) == 1


def test_wrong_format_version_rejected(bundle, tmp_path):
    path = tmp_path / "b.bundle"
    save_bundle(bundle, path)
    header, payload = read_document(path)
    header["format_version"] = 3
    write_document(path, header, payload)
    with pytest.raises(DataError, match="unsupported format version 3"):
        load_bundle(path)


def test_classifier_needs_a_weight_net(bundle, tmp_path):
    bundle.weightnet = None
    path = tmp_path / "b.bundle"
    save_bundle(bundle, path)
    with pytest.raises(DataError):
        load_bundle(path).classifier()


def test_document_with_deepsets_key_loads(bundle, tmp_path):
    # bundles written before the unused "deepsets" list was dropped
    path = tmp_path / "b.bundle"
    save_bundle(bundle, path)
    header, payload = read_document(path)
    header["deepsets"] = []
    write_document(path, header, payload)
    assert load_bundle(path).pair_ids == bundle.pair_ids


def test_failed_save_keeps_the_old_bundle(bundle, tmp_path, monkeypatch):
    path = tmp_path / "b.bundle"
    save_bundle(bundle, path)
    old = path.read_bytes()

    class FailAfterHeader:
        def __init__(self, f):
            self.f, self.writes = f, 0

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.f.close()

        def write(self, data):
            self.writes += 1
            if self.writes == 2:
                raise OSError("no space left on device")
            return self.f.write(data)

    monkeypatch.setattr(bundle_mod, "open",
                        lambda *a, **k: FailAfterHeader(open(*a, **k)), raising=False)
    bundle.threshold = 0.25
    with pytest.raises(OSError, match="no space left"):
        save_bundle(bundle, path)
    assert path.read_bytes() == old
    assert sorted(p.name for p in tmp_path.iterdir()) == ["b.bundle"]


@pytest.mark.parametrize("record", [
    RunConfig(seed=4, subsample_n=200,
              solver=SolverConfig(hidden=(4, 2), iters=7, lr=0.01),
              schedule=TrainSchedule(total_epochs=40)),
    IcnnConfig(dim=3, hidden=(5, 2), quad=0.25),
    ReferenceMeasure(kind="fitted", dim=2, mean=(0.5, -1.0), var=(2.0, 0.25), seed=7),
], ids=lambda r: type(r).__name__)
def test_config_codec_round_trips(record):
    doc = json.loads(json.dumps(dataclasses.asdict(record)))
    assert decode_config(type(record), doc) == record
