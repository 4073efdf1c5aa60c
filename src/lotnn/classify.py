"""Permutation-invariant classification on top of the transport maps.

A cloud with trained potential pair is scored by

    p = rho( (1/n) sum_k <W(x_k), grad psi(x_k)> )

with W a learned weight network, rho a sigmoid, and x_k a shared
reference-measure sample. The pooled sum is computed over sorted
addends, which makes the score bitwise invariant to any reordering of
the sample, not just invariant up to rounding.

Training alternates solver phases (`otsolve.fit_pairs` advancing every
map on shared reference batches) with classifier phases (W updated by
the binary cross-entropy gradient while all maps stay frozen), and
keeps the best-validation-accuracy snapshot: the weights often converge
before the maps do.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .errors import DataError, NumericError, ShapeError
from .data import LabeledDataset
from .lot import EmbeddingSet, ReferenceMeasure, maps_on
from .nncore import (
    Array,
    MlpParams,
    OptimState,
    Rng,
    adam_step,
    as_f64,
    bce,
    check_widths,
    mlp_apply,
    mlp_backward,
    mlp_forward,
    mlp_init,
    sorted_mean,
)
from .otsolve import DualPair, SolverConfig, fit_pairs, pair_for_cloud
# unused here; benchmarks/test_bench.py asserts the traced run wraps classify.solver_step
from .otsolve import solver_step  # noqa: F401


@dataclass
class WeightNet:
    """MLP from point space to point space supplying the inner-product weights."""

    params: MlpParams
    hidden: tuple[int, ...]

    def apply(self, x: Array) -> Array:
        return mlp_apply(self.params, x)

    def copy(self) -> "WeightNet":
        return WeightNet(self.params.copy(), self.hidden)


@dataclass
class ClassifierModel:
    weightnet: WeightNet
    threshold: float = 0.5

    def __post_init__(self):
        _check_threshold(self.threshold)


def _check_threshold(threshold: float) -> None:
    if not (0.0 < threshold < 1.0):
        raise ValueError("threshold must be in (0, 1)")


@dataclass(frozen=True)
class TrainSchedule:
    """Alternation plan: ot/clf phase lengths and the total epoch budget."""

    ot_epochs_per_phase: int = 10
    clf_epochs_per_phase: int = 10
    total_epochs: int = 1000
    steps_per_ot_epoch: int = 1           # shared-batch solver steps per epoch

    def __post_init__(self):
        if min(self.ot_epochs_per_phase, self.clf_epochs_per_phase,
               self.total_epochs, self.steps_per_ot_epoch) < 1:
            raise ValueError("schedule values must be >= 1")
        if self.total_epochs < self.ot_epochs_per_phase + self.clf_epochs_per_phase:
            raise ValueError("total_epochs smaller than one phase pair")


@dataclass(frozen=True)
class ClassifierConfig:
    hidden: tuple[int, ...] = (64, 64)
    lr: float = 1e-3
    eval_n: int = 1000
    threshold: float = 0.5

    def __post_init__(self):
        check_widths((1, *self.hidden, 1))
        OptimState(lr=self.lr)
        if self.eval_n < 1:
            raise ValueError("eval_n must be >= 1")
        _check_threshold(self.threshold)


@dataclass
class Metrics:
    """Confusion counts and ratios at a fixed decision threshold.

    When a ratio's denominator is zero (no predicted positives for
    precision, no true positives in the labels for recall) the value is
    reported as the sentinel 0.0 with the matching *_defined flag
    cleared, keeping the record total.
    """

    tp: int
    fp: int
    fn: int
    tn: int
    precision: float
    recall: float
    accuracy: float
    precision_defined: bool = True
    recall_defined: bool = True

    @property
    def n(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


def evaluate(preds, labels, threshold: float = 0.5) -> Metrics:
    """Threshold probabilities and count the confusion matrix."""
    p = np.asarray(preds, dtype=np.float64).ravel()
    y = np.asarray(labels).ravel()
    if p.shape != y.shape or p.size == 0:
        raise ShapeError("preds and labels must have equal nonzero length")
    yhat = p > threshold
    ypos = y == 1
    tp = int(np.sum(yhat & ypos))
    fp = int(np.sum(yhat & ~ypos))
    fn = int(np.sum(~yhat & ypos))
    tn = int(np.sum(~yhat & ~ypos))
    prec_def = (tp + fp) > 0
    rec_def = (tp + fn) > 0
    return Metrics(
        tp=tp, fp=fp, fn=fn, tn=tn,
        precision=tp / (tp + fp) if prec_def else 0.0,
        recall=tp / (tp + fn) if rec_def else 0.0,
        accuracy=(tp + tn) / p.size,
        precision_defined=prec_def,
        recall_defined=rec_def,
    )


def pooled_logit(model: ClassifierModel, pair: DualPair, sample: Array) -> float:
    """Mean inner product between weight-net values and map values."""
    S = np.atleast_2d(as_f64(sample))
    if S.size == 0:
        raise ShapeError("empty sample")
    return _pooled(model.weightnet.apply(S), pair.map_forward(S))


def _pooled(W: Array, G: Array) -> float:
    """Mean over the sample of <W(x_k), G(x_k)>, summed in sorted order."""
    return float(sorted_mean(np.sum(W * G, axis=1)))


def score(model: ClassifierModel, pair: DualPair, sample: Array) -> float:
    """Class probability for one cloud's trained pair on a sample.

    Exactly (bitwise) invariant to permutations of the sample.
    """
    return float(expit(pooled_logit(model, pair, sample)))


def predict_resampled(model: ClassifierModel, pair: DualPair,
                      reference: ReferenceMeasure, n: int, k: int, seed: int) -> float:
    """Average the score over k fresh reference samples of size n."""
    if k < 1:
        raise ValueError("resample count must be >= 1")
    rng = Rng(seed)
    vals = [score(model, pair, reference.sample(n, seed=rng.spawn(j).seed))
            for j in range(k)]
    return float(np.mean(vals))


@dataclass
class _Snapshot:
    pairs: dict[str, DualPair]
    weightnet: WeightNet
    val_accuracy: float
    phase: int


def train_alternating(
    train: LabeledDataset,
    val: LabeledDataset,
    sched: TrainSchedule,
    solver_cfg: SolverConfig,
    clf_cfg: ClassifierConfig,
    seed: int,
    reference: ReferenceMeasure | None = None,
) -> tuple[EmbeddingSet, ClassifierModel, list[dict]]:
    """Alternating map/classifier training over a labeled cloud set.

    Validation clouds get their own pairs advanced in the solver phases
    (map fitting never sees labels), so validation accuracy is always
    measurable; only training clouds contribute to the BCE step. The
    returned embedding holds the best-validation snapshot of every pair
    plus the shared evaluation sample; history has one row per phase.
    """
    for name, ds in (("train", train), ("val", val)):
        if not ds.clouds:
            raise DataError(f"{name} set is empty")
    if len(set(train.labels.values())) < 2:
        raise DataError("training set must contain both classes")
    if train.dim != val.dim:
        raise ShapeError("train/val dimension mismatch")

    rng = Rng(seed)
    if reference is None:
        reference = ReferenceMeasure.fitted(train.clouds, seed=rng.spawn(1).seed)
    dim = train.dim
    train_ids = sorted(train.ids)
    val_ids = sorted(val.ids)
    by_id = {c.id: c.points for c in train.clouds + val.clouds}
    clouds = {cid: by_id[cid] for cid in train_ids + val_ids}
    labels_tr = np.array([train.labels[i] for i in train_ids], dtype=np.float64)

    pairs = {cid: pair_for_cloud(reference, points, solver_cfg, rng.spawn(1000 + j))
             for j, (cid, points) in enumerate(clouds.items())}
    opt_states: dict[str, OptimState] = {}

    wn = WeightNet(mlp_init((dim, *clf_cfg.hidden, dim), rng.spawn(2)), clf_cfg.hidden)
    wn_state = OptimState(lr=clf_cfg.lr)
    eval_seed = int(rng.spawn(3).integers(0, 2**62))
    X_eval = reference.sample(clf_cfg.eval_n, seed=eval_seed)
    batch_rng = rng.spawn(4)

    history: list[dict] = []
    best: _Snapshot | None = None
    epoch = 0
    phase = 0

    def val_accuracy() -> float:
        # score() on each val cloud, with the weight net evaluated once
        W = wn.apply(X_eval)
        preds = [float(expit(_pooled(W, G)))
                 for G in maps_on([pairs[i] for i in val_ids], X_eval)]
        ys = [val.labels[i] for i in val_ids]
        return evaluate(preds, ys, clf_cfg.threshold).accuracy

    while epoch < sched.total_epochs:
        # --- solver phase: advance every pair on shared reference batches
        ot_epochs = min(sched.ot_epochs_per_phase, sched.total_epochs - epoch)
        ot_losses = fit_pairs(reference, clouds, pairs, opt_states, solver_cfg,
                              batch_rng, ot_epochs * sched.steps_per_ot_epoch)
        epoch += ot_epochs

        # --- classifier phase: maps frozen, W updated by the BCE gradient
        G_tr = maps_on([pairs[i] for i in train_ids], X_eval)
        clf_loss = float("nan")
        clf_epochs = min(sched.clf_epochs_per_phase, sched.total_epochs - epoch)
        for _ in range(clf_epochs):
            Wvals, cache = mlp_forward(wn.params, X_eval)
            logits = np.einsum("nd,ind->i", Wvals, G_tr) / X_eval.shape[0]
            clf_loss, resid = bce(logits, labels_tr)
            if not np.isfinite(clf_loss):
                raise NumericError(f"non-finite classifier loss (phase {phase})")
            upstream = np.einsum("i,ind->nd", resid, G_tr) / X_eval.shape[0]
            grads, _ = mlp_backward(wn.params, cache, upstream)
            wn.params.theta -= adam_step(grads, wn_state)
            epoch += 1

        acc = val_accuracy()
        history.append({
            "phase": phase,
            "epoch": epoch,
            "ot_loss_mean": float(np.mean(ot_losses)) if ot_losses else float("nan"),
            "clf_loss": clf_loss,
            "val_accuracy": acc,
        })
        if best is None or acc > best.val_accuracy:
            best = _Snapshot({i: p.copy() for i, p in pairs.items()},
                             wn.copy(), acc, phase)
        phase += 1

    assert best is not None
    emb = EmbeddingSet.build(
        reference, train_ids + val_ids, best.pairs,
        eval_n=clf_cfg.eval_n, eval_seed=eval_seed,
        meta={"train_ids": train_ids, "val_ids": val_ids, "seed": seed,
              "best_phase": best.phase, "best_val_accuracy": best.val_accuracy},
    )
    model = ClassifierModel(best.weightnet, threshold=clf_cfg.threshold)
    return emb, model, history
