"""DeepSets baseline: encoder, mean pooling, sigmoid head, bagging.

f(X) = rho( mean_k phi(x_k) ) with phi and rho plain MLPs. Pooling sums
each pooled coordinate in sorted order, so the output is bitwise
invariant under point reordering. Bagging averages the probabilities of
independently seeded models.

ds_train's per-epoch validation (over the val clouds) and ds_bagging
(over its members) run on every CPU through nncore.on_cpus, one whole
forward pass per thread, so both are bitwise the serial results.
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

    batches holds one point batch per cloud, each pooled by its plain
    mean (training needs no sorted sums); y holds their labels.
    """
    counts = np.array([b.shape[0] for b in batches])
    feats, phi_cache = mlp_forward(model.phi, np.vstack(batches))
    pooled = np.array([seg.mean(axis=0)
                       for seg in np.split(feats, np.cumsum(counts)[:-1])])
    logits, rho_cache = mlp_forward(model.rho, pooled)
    loss, resid = bce(logits[:, 0], y)
    g_rho, d_pooled = mlp_backward(model.rho, rho_cache, resid[:, None])
    g_phi, _ = mlp_backward(model.phi, phi_cache,
                            np.repeat(d_pooled / counts[:, None], counts, axis=0))
    return loss, g_phi, g_rho


def ds_train(
    train: LabeledDataset,
    val: LabeledDataset,
    epochs: int,
    cfg: DeepSetsConfig,
    seed: int,
) -> tuple[DeepSetsModel, list[dict]]:
    """BCE training with one full-batch step per epoch over all clouds.

    Per epoch each cloud contributes a fresh point subsample of size
    batch_points (whole cloud if smaller), and Adam updates both networks
    in place. Keeps and returns the best-validation-accuracy snapshot;
    deterministic for a fixed seed.
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
    batch_rng = rng.spawn(1)
    ids = sorted(train.ids)
    y = np.array([train.labels[i] for i in ids], dtype=np.float64)
    cloud_pts = {c.id: c.points for c in train.clouds}

    def val_accuracy() -> float:
        preds = np.array(on_cpus(lambda k: _prob(model, val.clouds[k]), len(val.clouds)))
        ys = np.array([val.labels[c.id] for c in val.clouds])
        return float(np.mean((preds > 0.5) == (ys == 1)))

    history: list[dict] = []
    best_model = model.copy()
    best_acc = -1.0
    for epoch in range(epochs):
        batches = [pts if pts.shape[0] <= cfg.batch_points else
                   pts[batch_rng.integers(0, pts.shape[0], size=cfg.batch_points)]
                   for pts in (cloud_pts[cid] for cid in ids)]
        loss, g_phi, g_rho = ds_loss_and_grads(model, batches, y)
        if not np.isfinite(loss):
            raise NumericError(f"non-finite DeepSets loss at epoch {epoch}")
        model.rho.theta -= adam_step(g_rho, state_rho)
        model.phi.theta -= adam_step(g_phi, state_phi)

        acc = val_accuracy()
        history.append({"epoch": epoch, "loss": loss, "val_accuracy": acc})
        if acc > best_acc:
            best_acc = acc
            best_model = model.copy()
    return best_model, history
