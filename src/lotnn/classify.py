"""Permutation-invariant classification on top of the transport maps.

A cloud with trained potential pair is scored by

    p = rho( (1/n) sum_k <W(x_k), grad psi(x_k)> )

with W a learned weight network, rho a sigmoid, and x_k a shared
reference-measure sample. The pooled sum is computed over sorted
addends, so reordering the sample cannot change how the sum rounds. The
score is bitwise invariant to any reordering only where every row's
summand is, though: a row of the map or of W can differ in its last bit
with the row's place in the batch, because BLAS rounds each row of an
(n, h) @ (h, d) product by its position (icnn._input_grad's
`delta @ wx[i]`, and W's last layer). On samples of a few to a hundred
points the pooled logit moves by about 1e-17 under some permutations.
A row also depends on n itself: the first 256 rows of an
(n, 64) @ (64, d) product, and of a whole map, differ from those of a
256-row product from n = 7816 at d = 2 and from n = 1564 at d = 10 on
OpenBLAS. The default eval_n of 1000 is below both; a larger eval
sample scores its points differently as it grows (ROADMAP item 17).

Training embeds first and classifies after, as LOT does (Wang et al.
2013): train_alternating fits every map in one `otsolve.fit_pairs` call,
each on batches drawn from its own pair's seed, then train_classifier
trains W by the binary cross-entropy gradient on those frozen maps.
train_classifier reads only the maps on the eval sample, so one
embedding can serve many classifier fits; its docstring says how each
epoch splits over two processes, bitwise the same at every CPU count.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from itertools import accumulate
from multiprocessing.connection import Connection
from typing import ClassVar, Sequence

import numpy as np
from scipy.special import expit

from .errors import DataError, NumericError, ShapeError
from .data import LabeledDataset
from .lot import EmbeddingSet, ReferenceMeasure, maps_on
from .nncore import (
    _mlp_forward,
    Array,
    MlpParams,
    OptimState,
    Peer,
    Rng,
    adam_step,
    as_f64,
    bce,
    check_widths,
    mlp_backward,
    mlp_forward,
    mlp_init,
    on_cpus,
    post,
    sorted_mean,
    worker_processes,
)
from .otsolve import DualPair, SolverConfig, fit_pairs, pair_for_cloud
# unused here; benchmarks/test_bench.py asserts the traced run wraps classify.solver_step
from .otsolve import solver_step  # noqa: F401


@dataclass
class WeightNet:
    """MLP from point space to point space supplying the inner-product weights."""

    params: MlpParams

    @property
    def hidden(self) -> tuple[int, ...]:
        """The hidden widths, read from the weight shapes."""
        return tuple(w.shape[0] for w in self.params.weights[:-1])


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
    """Training budget in phases of ot solver steps and clf classifier
    epochs, cut at total_epochs; one history row per phase.

    train_alternating runs every phase's solver steps first, in one fit,
    then each phase's classifier epochs as one train_classifier block.
    """

    ot_epochs_per_phase: int = 10
    clf_epochs_per_phase: int = 10
    total_epochs: int = 1000
    # not a setting: one solver step per ot epoch (benchmarks/pipeline.py reads it)
    steps_per_ot_epoch: ClassVar[int] = 1

    def __post_init__(self):
        if min(self.ot_epochs_per_phase, self.clf_epochs_per_phase,
               self.total_epochs) < 1:
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


def _pooled(W: Array, G: Array) -> float:
    """Mean over the sample of <W(x_k), G(x_k)>, summed in sorted order."""
    return float(sorted_mean(np.sum(W * G, axis=1)))


def score(model: ClassifierModel, pair: DualPair, sample: Array) -> float:
    """Class probability for one cloud's trained pair on a sample.

    Invariant to permutations of the sample up to the last bit of the
    map's and W's rows (see the module docstring); bitwise where those
    rows do not depend on their place in the batch, as with one hidden
    unit or, on OpenBLAS, a sample whose size is a multiple of 4.
    """
    S = np.atleast_2d(as_f64(sample))
    if S.size == 0:
        raise ShapeError("empty sample")
    return _score(model, pair, S)


def scores(model: ClassifierModel, pairs, sample: Array) -> list[float]:
    """score() of each pair on one sample, bitwise.

    The weight net is evaluated once, and the maps on every CPU
    (lot.maps_on).
    """
    S = np.atleast_2d(as_f64(sample))
    return _probs(model, S, maps_on(pairs, S))


def _probs(model: ClassifierModel, S: Array, maps: Array) -> list[float]:
    """scores' body, given every pair's map on S."""
    W, _ = mlp_forward(model.weightnet.params, S)
    return [float(expit(_pooled(W, G))) for G in maps]


def _score(model: ClassifierModel, pair: DualPair, S: Array) -> float:
    """score's body, for on_cpus workers: it calls no traced function."""
    W, _ = _mlp_forward(model.weightnet.params, S)
    return float(expit(_pooled(W, pair._map(S))))


def predict_resampled(model: ClassifierModel, pair: DualPair,
                      reference: ReferenceMeasure, n: int, k: int, seed: int) -> float:
    """Average the score over k fresh reference samples of size n.

    The samples are drawn here and scored on every CPU (nncore.on_cpus),
    each whole by one thread, so the mean is bitwise the serial one.
    """
    if k < 1:
        raise ValueError("resample count must be >= 1")
    rng = Rng(seed)
    samples = [reference.sample(n, seed=rng.spawn(j).seed) for j in range(k)]
    return float(np.mean(on_cpus(lambda j: _score(model, pair, samples[j]), k)))


@dataclass
class _Half:
    """One fixed half of the eval sample in the classifier epochs: its
    rows X and the train maps' rows G there, (N, len(X), d), C-ordered
    here as in the worker that may run it."""

    X: Array
    G: Array
    cache: list[Array] | None = None

    def pooled(self, params: MlpParams) -> Array:
        """sum_k <W(x_k), G_i(x_k)> over the half's rows, one per train
        cloud i; keeps W's forward cache for grads."""
        W, self.cache = mlp_forward(params, self.X)
        return np.einsum("nd,ind->i", W, self.G)

    def grads(self, params: MlpParams, resid: Array, n: int) -> Array:
        """The half's share of the loss gradient in W's parameters, given
        the loss's gradient in the logits of an n-row sample."""
        upstream = np.einsum("i,ind->nd", resid, self.G) / n
        return mlp_backward(params, self.cache, upstream)[0]


def _clf_loss_and_grads(params: MlpParams, labels: Array, n: int, mine: _Half,
                        other: _Half | Peer) -> tuple[float, Array]:
    """BCE loss of the train clouds' pooled logits on an n-row eval
    sample, and its gradient in W's parameters.

    The logits are (P1 + P2)/n and the gradient g1 + g2, each P and g one
    half's (_Half). mine is this process's half: half 1, except in a
    worker. other is half 2 run here too, or the Peer that runs the
    other half. A non-finite loss raises NumericError before either
    half's gradient, in both processes alike.
    """
    P = mine.pooled(params)
    P1, P2 = other.swap(P) if isinstance(other, Peer) else (P, other.pooled(params))
    loss, resid = bce((P1 + P2) / n, labels)
    if not np.isfinite(loss):
        raise NumericError("non-finite classifier loss")
    g = mine.grads(params, resid, n)
    g1, g2 = other.swap(g) if isinstance(other, Peer) else (g, other.grads(params, resid, n))
    g1 += g2
    return loss, g1


def _clf_epoch(params: MlpParams, state: OptimState, labels: Array, n: int,
               mine: _Half, other: _Half | Peer) -> float:
    """One Adam step of W on _clf_loss_and_grads; returns the loss."""
    loss, grads = _clf_loss_and_grads(params, labels, n, mine, other)
    params.theta -= adam_step(grads, state)
    return loss


def _clf_remote(conn: Connection, params: MlpParams, lr: float, n: int, half: _Half,
                labels: Array, epochs: int) -> None:
    """A worker process's task for half 2 of every classifier epoch of
    train_classifier, on its own copy of W and a fresh Adam state, as
    the caller's. It stops where the caller's epochs raise NumericError,
    with nothing to send."""
    state = OptimState(lr=lr)
    peer = Peer(conn, first=False)
    with contextlib.suppress(NumericError):
        for _ in range(epochs):
            _clf_epoch(params, state, labels, n, half, peer)


def train_classifier(X: Array, maps: Array, labels, val_maps: Array, val_labels,
                     cfg: ClassifierConfig, blocks: Sequence[int],
                     rng: Rng) -> tuple[ClassifierModel, list[tuple[float, float]]]:
    """Train W on frozen maps, in blocks of epochs, validating after each.

    X is the (n, d) eval sample; maps and val_maps hold the training and
    validation clouds' maps on X, (N, n, d), each set with its 0/1
    labels. W starts at mlp_init from rng. Returns the model and, per
    block, its last loss (nan if empty) and the val accuracy after it.

    An epoch is one Adam step on the BCE of half 1 plus half 2 of X, rows
    [0, h) and [h, n) with h = ceil(n/2) (_clf_loss_and_grads). With a
    worker process to hand, it is posted W, half 2 and the labels once
    (_clf_remote) and runs on its own copy of W and of W's Adam state;
    each epoch the two swap their pooled sums, then their gradients,
    through an nncore.Peer and take the same step, so W is bitwise the
    same at every CPU count. A non-finite loss raises NumericError naming
    the block as "(phase k)" once both processes have stopped, so the
    worker stays in use.
    """
    n, dim = X.shape
    labels = np.asarray(labels, dtype=np.float64)
    wn = WeightNet(mlp_init((dim, *cfg.hidden, dim), rng))
    state = OptimState(lr=cfg.lr)
    model = ClassifierModel(wn, cfg.threshold)
    h = -(-n // 2)
    half1, half2 = (_Half(X[rows], np.ascontiguousarray(maps[:, rows]))
                    for rows in (slice(0, h), slice(h, n)))

    per_block, failure = [], None
    with worker_processes(2) as pool:
        other: _Half | Peer = half2
        if pool:
            post(pool[0], (_clf_remote, (wn.params, cfg.lr, n, half2, labels, sum(blocks))))
            other = Peer(pool[0], first=True)
        for block, epochs in enumerate(blocks):
            loss = float("nan")
            try:
                for _ in range(epochs):
                    loss = _clf_epoch(wn.params, state, labels, n, half1, other)
            except NumericError as e:
                # raised once out of the pool, which would end the worker
                failure = NumericError(f"{e} (phase {block})")
                failure.__cause__ = e
                break
            per_block.append((loss, evaluate(_probs(model, X, val_maps), val_labels,
                                             cfg.threshold).accuracy))
    if failure:
        raise failure
    return model, per_block


def train_alternating(
    train: LabeledDataset,
    val: LabeledDataset,
    sched: TrainSchedule,
    solver_cfg: SolverConfig,
    clf_cfg: ClassifierConfig,
    seed: int,
    reference: ReferenceMeasure | None = None,
) -> tuple[EmbeddingSet, ClassifierModel, list[dict]]:
    """Fit every map, then the classifier, over a labeled cloud set.

    One fit_pairs call gives every train and validation cloud, which
    must be distinct, the schedule's solver steps (map fitting never
    sees W or the labels). train_classifier then trains W on each set's
    maps on the shared evaluation sample, one block of classifier epochs
    per schedule phase.

    History has one row per schedule phase: its epoch, the mean loss of
    its solver steps, and the classifier loss and validation accuracy
    after its classifier epochs. The embedding holds the final pairs and
    the shared evaluation sample, the model the final W. emb.meta's
    "best_phase" and "best_val_accuracy" hold the last phase and the
    final accuracy; they keep the names of the best-phase snapshot this
    once kept because benchmarks/pipeline.py reads them.
    """
    for name, ds in (("train", train), ("val", val)):
        if not ds.clouds:
            raise DataError(f"{name} set is empty")
    if len(set(train.labels.values())) < 2:
        raise DataError("training set must contain both classes")
    if train.dim != val.dim:
        raise ShapeError("train/val dimension mismatch")
    if shared := sorted(set(train.ids) & set(val.ids)):
        raise DataError(f"train and val share clouds: {', '.join(shared)}")

    rng = Rng(seed)
    if reference is None:
        reference = ReferenceMeasure.fitted(train.clouds, seed=rng.spawn(1).seed)
    train_ids, val_ids = sorted(train.ids), sorted(val.ids)
    by_id = {c.id: c.points for c in train.clouds + val.clouds}
    clouds = {cid: by_id[cid] for cid in train_ids + val_ids}
    pairs = {cid: pair_for_cloud(reference, points, solver_cfg, rng.spawn(1000 + j))
             for j, (cid, points) in enumerate(clouds.items())}
    eval_seed = int(rng.spawn(3).integers(0, 2**62))
    X_eval = reference.sample(clf_cfg.eval_n, seed=eval_seed)

    # each phase's solver steps, classifier epochs and epoch count at its end
    phases, epoch = [], 0
    while epoch < sched.total_epochs:
        ot_epochs = min(sched.ot_epochs_per_phase, sched.total_epochs - epoch)
        clf_epochs = min(sched.clf_epochs_per_phase, sched.total_epochs - epoch - ot_epochs)
        epoch += ot_epochs + clf_epochs
        phases.append((ot_epochs, clf_epochs, epoch))
    steps, blocks, epochs = zip(*phases)

    ot_losses = fit_pairs(reference, clouds, pairs, {}, solver_cfg, sum(steps))
    model, rows = train_classifier(
        X_eval, maps_on([pairs[i] for i in train_ids], X_eval),
        [train.labels[i] for i in train_ids],
        maps_on([pairs[i] for i in val_ids], X_eval), [val.labels[i] for i in val_ids],
        clf_cfg, blocks, rng.spawn(2))
    # fit_pairs' losses are step-major: one row of len(clouds) per step
    losses = np.reshape(ot_losses, (-1, len(clouds)))
    history = [{"phase": phase, "epoch": epoch,
                "ot_loss_mean": float(np.mean(losses[end - n_steps:end])),
                "clf_loss": clf_loss, "val_accuracy": accuracy}
               for phase, (epoch, n_steps, end, (clf_loss, accuracy))
               in enumerate(zip(epochs, steps, accumulate(steps), rows))]

    emb = EmbeddingSet.build(
        reference, train_ids + val_ids, pairs,
        eval_n=clf_cfg.eval_n, eval_seed=eval_seed,
        meta={"best_phase": history[-1]["phase"],
              "best_val_accuracy": history[-1]["val_accuracy"]},
    )
    return emb, model, history
