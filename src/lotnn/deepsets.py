"""DeepSets baseline: encoder, mean pooling, sigmoid head, bagging.

f(X) = rho( mean_k phi(x_k) ) with phi and rho plain MLPs. Inference
runs phi on every point and sums each pooled coordinate in sorted order,
so the output is bitwise invariant under point reordering. Training
(ds_loss_and_grads) applies phi's linear head once per cloud, to the
plain mean of its last hidden layer, which is the same pooled row up to
rounding. Bagging averages the probabilities of independently seeded
models.

ds_train's per-epoch validation (over the val clouds) and ds_bagging
(over its members) run on every CPU through nncore's thread pool, one
whole forward pass per thread, so both are bitwise the serial results.
Each epoch's validation scores a copy of the model and overlaps the
next epoch's training step, which itself runs on the calling thread.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .errors import DataError, NumericError, ShapeError
from .data import LabeledDataset
from .nncore import (
    _mlp_forward,
    Array,
    MlpParams,
    OptimState,
    Rng,
    adam_step,
    as_f64,
    bce,
    check_widths,
    mlp_backward,
    mlp_forward,
    mlp_init,
    on_cpus,
    sorted_mean,
    start_on_cpus,
)


@dataclass(frozen=True)
class DeepSetsConfig:
    phi_hidden: tuple[int, ...] = (64, 64)
    pooled_dim: int = 32
    rho_hidden: tuple[int, ...] = (32, 32)
    lr: float = 1e-3
    batch_points: int = 256

    def __post_init__(self):
        check_widths((1, *self.phi_hidden, self.pooled_dim, *self.rho_hidden, 1))
        if self.batch_points < 1:
            raise ValueError("batch_points must be >= 1")
        OptimState(lr=self.lr)


@dataclass
class DeepSetsModel:
    phi: MlpParams
    rho: MlpParams
    cfg: DeepSetsConfig

    def __post_init__(self):
        if self.phi.out_dim != self.rho.in_dim:
            raise ShapeError("pooled dim mismatch between phi and rho")

    def copy(self) -> "DeepSetsModel":
        return DeepSetsModel(self.phi.copy(), self.rho.copy(), self.cfg)


def init_deepsets(dim: int, cfg: DeepSetsConfig, rng: Rng) -> DeepSetsModel:
    phi = mlp_init((dim, *cfg.phi_hidden, cfg.pooled_dim), rng.spawn(1))
    rho = mlp_init((cfg.pooled_dim, *cfg.rho_hidden, 1), rng.spawn(2))
    return DeepSetsModel(phi, rho, cfg)


def _prob(model: DeepSetsModel, points) -> float:
    """The body of ds_forward, which on_cpus workers call instead."""
    pts = np.atleast_2d(as_f64(points.points if hasattr(points, "points") else points))
    if pts.size == 0:
        raise ShapeError("empty cloud")
    feats, _ = _mlp_forward(model.phi, pts)
    out, _ = _mlp_forward(model.rho, sorted_mean(feats)[None, :])
    return float(expit(out[0, 0]))


def ds_forward(model: DeepSetsModel, points) -> float:
    """Class probability of one cloud; bitwise permutation invariant."""
    return _prob(model, points)


def ds_bagging(models, points) -> float:
    """Arithmetic mean of member probabilities."""
    if not models:
        raise ValueError("need at least one model")
    return float(np.mean(on_cpus(lambda m: _prob(models[m], points), len(models))))


def ds_loss_and_grads(model: DeepSetsModel, batches: list[Array],
                      y: Array) -> tuple[float, Array, Array]:
    """Mean BCE of the clouds' logits and its gradients in phi and rho.

    batches holds one point batch per cloud; y holds their labels. phi's
    layers below its linear head run on every row, and the head on each
    cloud's plain mean of the last hidden layer: mean_k(A h_k + c) =
    A mean_k(h_k) + c, so the head costs C rows, not one per point.
    Training pools by plain means. Inference (_prob) keeps the head on
    every row and the sorted mean of phi's outputs, which makes it
    bitwise permutation invariant; sorting the wider hidden layer there
    would cost more than the head saves.
    """
    counts = np.array([b.shape[0] for b in batches])
    phi = model.phi
    hidden, hidden_cache = mlp_forward(phi, np.vstack(batches), slice(-1))
    hbar = np.array([seg.mean(axis=0)
                     for seg in np.split(hidden, np.cumsum(counts)[:-1])])
    pooled, head_cache = mlp_forward(phi, hbar, slice(-1, None))
    logits, rho_cache = mlp_forward(model.rho, pooled)
    loss, resid = bce(logits[:, 0], y)
    g_rho, d_pooled = mlp_backward(model.rho, rho_cache, resid[:, None])
    g_head, d_hbar = mlp_backward(phi, head_cache, d_pooled, slice(-1, None))
    g_hidden, _ = mlp_backward(phi, hidden_cache,
                               np.repeat(d_hbar / counts[:, None], counts, axis=0),
                               slice(-1), input_grad=False)
    return loss, g_head + g_hidden, g_rho


def ds_train(
    train: LabeledDataset,
    val: LabeledDataset,
    epochs: int,
    cfg: DeepSetsConfig,
    seed: int,
) -> tuple[DeepSetsModel, list[dict]]:
    """BCE training with one full-batch step per epoch over all clouds.

    Per epoch each cloud contributes batch_points of its points, drawn
    afresh with replacement (the whole cloud if it has no more than
    batch_points), and Adam updates both networks
    in place. Keeps and returns the best-validation-accuracy snapshot;
    deterministic for a fixed seed.

    Each epoch's validation scores a copy of the model on helper threads
    while the next epoch's step runs on the calling thread; that copy is
    the snapshot kept if it is the best so far. A validation in flight is
    finished before any error propagates.
    """
    if epochs < 0:
        raise ValueError("epochs must be >= 0")
    for name, ds in (("train", train), ("val", val)):
        if not ds.clouds:
            raise DataError(f"{name} set is empty")
    if len(set(train.labels.values())) < 2:
        raise DataError("training set must contain both classes")

    rng = Rng(seed)
    model = init_deepsets(train.dim, cfg, rng.spawn(0))
    state_phi = OptimState(lr=cfg.lr)
    state_rho = OptimState(lr=cfg.lr)
    rows_rng = rng.spawn(1)
    ids = sorted(train.ids)
    y = np.array([train.labels[i] for i in ids], dtype=np.float64)
    cloud_pts = {c.id: c.points for c in train.clouds}
    val_pos = np.array([val.labels[c.id] == 1 for c in val.clouds])

    def step(epoch: int) -> float:
        batches = [pts if pts.shape[0] <= cfg.batch_points else
                   pts[rows_rng.integers(0, pts.shape[0], size=cfg.batch_points)]
                   for pts in (cloud_pts[cid] for cid in ids)]
        loss, g_phi, g_rho = ds_loss_and_grads(model, batches, y)
        if not np.isfinite(loss):
            raise NumericError(f"non-finite DeepSets loss at epoch {epoch}")
        model.rho.theta -= adam_step(g_rho, state_rho)
        model.phi.theta -= adam_step(g_phi, state_phi)
        return loss

    history: list[dict] = []
    best_model = model.copy()
    best_acc = -1.0
    pending = None  # (epoch, loss, snapshot, finish) of the validation in flight
    try:
        for epoch in range(epochs + 1):
            # this epoch's step runs while the last epoch's validation does
            loss = step(epoch) if epoch < epochs else None
            if pending is not None:
                done, done_loss, snap, finish = pending
                pending = None
                acc = float(np.mean((np.array(finish()) > 0.5) == val_pos))
                history.append({"epoch": done, "loss": done_loss, "val_accuracy": acc})
                if acc > best_acc:
                    best_model, best_acc = snap, acc
            if epoch < epochs:
                snap = model.copy()
                pending = (epoch, loss, snap, start_on_cpus(
                    lambda k, m=snap: _prob(m, val.clouds[k]), len(val.clouds)))
    finally:
        if pending is not None:  # an error propagates: join its validation's threads
            pending[-1]()
    return best_model, history
