import threading
import time

import numpy as np
import pytest

from lotnn import deepsets, nncore
from lotnn.data import LabeledDataset, PointCloud
from lotnn.deepsets import (
    DeepSetsConfig,
    DeepSetsModel,
    ds_bagging,
    ds_forward,
    ds_loss_and_grads,
    ds_train,
    init_deepsets,
)
from lotnn.errors import DataError, NumericError
from lotnn.nncore import Rng, bce, finite_diff_grad, mlp_backward, mlp_forward
from conftest import blocks, relerr


def test_ds_forward_bitwise_permutation_invariant(rng):
    cfg = DeepSetsConfig(phi_hidden=(8,), pooled_dim=6, rho_hidden=(4,))
    model = init_deepsets(3, cfg, rng.spawn(0))
    pts = rng.normal((400, 3), scale=3.0)
    want = ds_forward(model, pts)
    for k in range(5):
        assert ds_forward(model, pts[rng.spawn(k + 1).permutation(400)]) == want


def test_ds_bagging_averages_members(rng):
    cfg = DeepSetsConfig(phi_hidden=(4,), pooled_dim=3, rho_hidden=(4,))
    models = [init_deepsets(2, cfg, rng.spawn(k)) for k in range(3)]
    pts = rng.normal((50, 2))
    assert ds_bagging(models, pts) == float(np.mean([ds_forward(m, pts) for m in models]))



def ds_sets(rng, sizes=(30, 7, 12, 3, 25, 9), dim=2):
    """Train set of clouds on both sides of batch_points 10, and a val set."""
    clouds = [PointCloud(f"c{k}", rng.normal((n, dim)) + 1.5 * (k % 2))
              for k, n in enumerate(sizes)]
    ds = LabeledDataset(clouds, {c.id: k % 2 for k, c in enumerate(clouds)})
    return ds.subset(ds.ids[:-2]), ds.subset(ds.ids[-2:])


SMALL = DeepSetsConfig(phi_hidden=(5,), pooled_dim=4, rho_hidden=(3,),
                       batch_points=10, lr=1e-2)


def test_loss_gradients_match_finite_differences(rng):
    # clouds above batch_points enter as subsamples of batch_points rows,
    # the others whole, so the segments differ in length
    model = init_deepsets(2, SMALL, rng.spawn(0))
    batches = [rng.normal((n, 2), scale=1.5) for n in (10, 7, 10, 3, 1)]
    y = np.array([0.0, 1.0, 1.0, 0.0, 1.0])
    _, g_phi, g_rho = ds_loss_and_grads(model, batches, y)
    for net, g in (("phi", g_phi), ("rho", g_rho)):
        p = getattr(model, net)

        def loss(th, net=net, p=p):
            nets = {"phi": model.phi, "rho": model.rho, net: p.with_theta(th)}
            return ds_loss_and_grads(DeepSetsModel(nets["phi"], nets["rho"], SMALL),
                                     batches, y)[0]

        fd = finite_diff_grad(loss, p.theta.copy(), 1e-6)
        for (key, a), (_, b) in zip(blocks(p, g, f"{net}."), blocks(p, fd)):
            assert relerr(a, b) < 1e-6, key


def test_loss_and_grads_equal_the_segment_loops_bitwise(rng):
    # the reference: per-cloud loops over the stacked batch's segments
    for trial in range(20):
        model = init_deepsets(3, SMALL, rng.spawn(trial))
        sizes = [int(n) for n in rng.integers(1, 15, size=int(rng.integers(1, 7)))]
        batches = [rng.normal((n, 3)) for n in sizes]
        y = rng.integers(0, 2, size=len(sizes)).astype(np.float64)
        feats, phi_cache = mlp_forward(model.phi, np.vstack(batches))
        offsets = np.cumsum([0] + sizes)
        pooled = np.empty((len(sizes), SMALL.pooled_dim))
        for i in range(len(sizes)):
            pooled[i] = feats[offsets[i]:offsets[i + 1]].mean(axis=0)
        logits, rho_cache = mlp_forward(model.rho, pooled)
        loss, resid = bce(logits[:, 0], y)
        g_rho, d_pooled = mlp_backward(model.rho, rho_cache, resid[:, None])
        upstream = np.empty_like(feats)
        for i in range(len(sizes)):
            upstream[offsets[i]:offsets[i + 1]] = d_pooled[i] / sizes[i]
        g_phi, _ = mlp_backward(model.phi, phi_cache, upstream)
        got = ds_loss_and_grads(model, batches, y)
        assert got[0] == loss
        assert got[1].tobytes() == g_phi.tobytes() and got[2].tobytes() == g_rho.tobytes()


def test_ds_train_reruns_are_byte_identical(rng):
    train, val = ds_sets(rng)
    (m1, h1), (m2, h2) = [ds_train(train, val, 8, SMALL, seed=4) for _ in range(2)]
    assert m1.phi.theta.tobytes() == m2.phi.theta.tobytes()
    assert m1.rho.theta.tobytes() == m2.rho.theta.tobytes()
    assert h1 == h2 and len(h1) == 8


def test_ds_train_zero_epochs_returns_the_initial_model(rng):
    train, val = ds_sets(rng)
    model, history = ds_train(train, val, 0, SMALL, seed=4)
    init = init_deepsets(train.dim, SMALL, Rng(4).spawn(0))
    assert history == []
    assert model.phi.theta.tobytes() == init.phi.theta.tobytes()
    assert model.rho.theta.tobytes() == init.rho.theta.tobytes()


def test_ds_train_rejects_empty_val_and_one_class_train(rng):
    train, val = ds_sets(rng)
    with pytest.raises(DataError, match="val set is empty"):
        ds_train(train, val.subset([]), 1, SMALL, seed=0)
    with pytest.raises(DataError, match="both classes"):
        ds_train(train.subset(train.class_ids(1)), val, 1, SMALL, seed=0)


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.usefixtures("one_blas_thread")
def test_pooled_validation_and_bagging_equal_the_serial_runs_bitwise(
        rng, monkeypatch, cpus):
    # validation overlaps the next epoch's step; one val cloud starts no
    # helper, and one epoch has no next step to overlap
    clouds = [PointCloud(f"c{k}", rng.normal((n, 3)) + 1.5 * (k % 2))
              for k, n in enumerate((30, 7, 12, 3, 25, 9, 40, 14, 20, 5, 33))]
    ds = LabeledDataset(clouds, {c.id: k % 2 for k, c in enumerate(clouds)})
    train = ds.subset(ds.ids[:6])
    cfg = DeepSetsConfig(phi_hidden=(16,), pooled_dim=8, rho_hidden=(8,),
                         batch_points=10, lr=1e-2)

    def runs(val, epochs):
        members, histories = zip(*[ds_train(train, val, epochs, cfg, seed=s)
                                   for s in (1, 2, 3)])
        return members, histories, [ds_bagging(members, c) for c in ds.clouds]

    for val_ids, epochs in ((ds.ids[6:], 6), (ds.ids[6:7], 6), (ds.ids[6:], 1)):
        val = ds.subset(val_ids)
        monkeypatch.setattr(nncore, "_usable_cpus", lambda: 1)
        want = runs(val, epochs)
        monkeypatch.setattr(nncore, "_usable_cpus", lambda: cpus)
        got = runs(val, epochs)
        for m, w in zip(got[0], want[0]):
            assert m.phi.theta.tobytes() == w.phi.theta.tobytes()
            assert m.rho.theta.tobytes() == w.rho.theta.tobytes()
        assert got[1] == want[1] and got[2] == want[2]
        assert [len(h) for h in got[1]] == [epochs] * 3


@pytest.mark.parametrize("cpus", [1, 3])
@pytest.mark.usefixtures("one_blas_thread")
def test_failing_step_finishes_the_validation_in_flight(rng, monkeypatch, cpus):
    # epoch 1's loss is NaN while epoch 0's validation is still running:
    # ds_train raises once every val cloud is scored, and leaves no thread
    train, val = ds_sets(rng, sizes=(30, 7, 12, 3, 25, 9, 14, 20, 5))
    real_prob, real_loss = deepsets._prob, deepsets.ds_loss_and_grads
    scored, steps = [], []

    def slow_prob(model, points):
        time.sleep(0.02)
        scored.append(points)
        return real_prob(model, points)

    def nan_at_epoch_1(model, batches, y):
        loss, g_phi, g_rho = real_loss(model, batches, y)
        steps.append(loss)
        return (np.nan if len(steps) == 2 else loss), g_phi, g_rho

    monkeypatch.setattr(deepsets, "_prob", slow_prob)
    monkeypatch.setattr(deepsets, "ds_loss_and_grads", nan_at_epoch_1)
    monkeypatch.setattr(nncore, "_usable_cpus", lambda: cpus)
    threads = threading.active_count()
    with pytest.raises(NumericError, match="epoch 1"):
        ds_train(train, val, 3, SMALL, seed=4)
    assert len(scored) == len(val.clouds) and threading.active_count() == threads
