"""Workloads of the lotnn benchmark: inputs, one measured round, checks.

Every workload runs the whole pipeline that the `lotnn` commands run:
generate → CSV round trip → reference fit (set-up), then fit maps and
classifier (`train`), embed and score held-out clouds (`eval`), load a
bundle and compute the distance matrix (`dist`), the exact OT oracle,
and the DeepSets baseline (`baseline`). The workloads differ in sizes,
so each one puts most of its time into a different layer. All calls go
through the lotnn modules' attributes, so the traced run's wrappers see
them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import lotnn.bundle as bundle
import lotnn.classify as classify
import lotnn.data as data
import lotnn.deepsets as deepsets
import lotnn.lot as lot
import lotnn.otsolve as otsolve
from lotnn.errors import LotnnError
from lotnn.nncore import Rng

from calibrate import REFERENCE_S, kernel_seconds


def sub_seed(seed: int, key: int) -> int:
    """Independent 32-bit seed for one use of the run's seed."""
    return int(np.random.SeedSequence([seed, key]).generate_state(1)[0])


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    spec: data.SyntheticSpec
    n_points: int
    train: int              # clouds per class fitted by train_alternating
    val: int                # clouds per class validated by train_alternating
    test: int               # held-out clouds per class embedded with train_map
    extra: int              # further clouds per class, seen only by dist/baseline
    schedule: classify.TrainSchedule
    embed_iters: int        # solver.iters, the budget `lotnn eval` embeds with
    oracle_pairs: int       # exact_ot_discrete calls per kind (same/cross class)
    oracle_n: int           # leading points of each cloud given to the oracle
    ds_epochs: int
    ds_members: int
    # dist loads a set-up bundle of untrained pairs of every cloud instead
    # of the bundle of the maps this round trained
    untrained_bundle: bool = False
    resamples: int = 10

    @property
    def per_class(self) -> int:
        return self.train + self.val + self.test + self.extra


WORKLOADS = {w.name: w for w in (
    Workload(
        name="fit_d2",
        why="14 small d=2 clouds fitted on a 6-step schedule: the per-cloud "
            "solver_step loop and classifier phases of train_alternating take "
            "most of the time",
        spec=data.SyntheticSpec(dim=2, base="gaussian"),
        n_points=300, train=5, val=2, test=1, extra=0,
        schedule=classify.TrainSchedule(ot_epochs_per_phase=2,
                                        clf_epochs_per_phase=20,
                                        total_epochs=66),
        embed_iters=6, oracle_pairs=4, oracle_n=200,
        ds_epochs=10, ds_members=2,
    ),
    Workload(
        name="embed_d10",
        why="4 held-out d=10 clouds each embedded by train_map at solver.iters, "
            "as lotnn eval does, and scored with k=10 resamples: embedding takes "
            "about half the time",
        spec=data.SyntheticSpec(dim=10, base="mixture"),
        n_points=1000, train=2, val=1, test=2, extra=0,
        schedule=classify.TrainSchedule(ot_epochs_per_phase=3,
                                        clf_epochs_per_phase=20,
                                        total_epochs=46),
        embed_iters=12, oracle_pairs=6, oracle_n=300,
        ds_epochs=10, ds_members=2,
    ),
    Workload(
        name="compare_d2",
        why="one solver step per cloud: loading a bundle of 80 untrained pairs, "
            "pairwise_matrix, exact OT at n=400 and bagged DeepSets take most of "
            "the time",
        spec=data.SyntheticSpec(dim=2, base="ring"),
        n_points=1000, train=4, val=4, test=3, extra=29,
        schedule=classify.TrainSchedule(ot_epochs_per_phase=1,
                                        clf_epochs_per_phase=40,
                                        total_epochs=41),
        embed_iters=1, oracle_pairs=4, oracle_n=400,
        ds_epochs=10, ds_members=2, untrained_bundle=True,
    ),
)}


@dataclass
class Inputs:
    """What set-up hands to every round."""

    train: data.LabeledDataset
    val: data.LabeledDataset
    test: data.LabeledDataset
    heldout: data.LabeledDataset        # every cloud outside train and val
    reference: lot.ReferenceMeasure
    solver: otsolve.SolverConfig
    oracle_pairs: list[tuple[str, str]]
    clouds: dict[str, data.PointCloud]
    bundle_path: Path
    untrained: dict[str, otsolve.DualPair] = field(default_factory=dict)


def balanced_splits(ds: data.LabeledDataset, w: Workload, seed: int):
    """Equal class counts in every set.

    lotnn's split() draws two negatives per training positive, so on the
    balanced classes gen_synthetic makes it leaves held-out sets of a
    single class (tn = fp = 0) and accuracy there measures recall alone.
    """
    rng = Rng(seed)
    parts: dict[str, list[str]] = {"train": [], "val": [], "test": [], "extra": []}
    for label in (0, 1):
        ids = sorted(ds.class_ids(label))
        ids = [ids[i] for i in rng.spawn(label).permutation(len(ids))]
        start = 0
        for part in parts:
            n = getattr(w, part)
            parts[part] += ids[start:start + n]
            start += n
    return {k: ds.subset(v) for k, v in parts.items()}, parts


def _oracle_pairs(labels: dict[str, int], ids: list[str], n: int,
                  seed: int) -> list[tuple[str, str]]:
    """n same-class and n cross-class pairs drawn from ids."""
    rng = Rng(seed)
    same: list[tuple[str, str]] = []
    cross: list[tuple[str, str]] = []
    while len(same) < n or len(cross) < n:
        i, j = (ids[k] for k in rng.choice(len(ids), 2))
        kind = same if labels[i] == labels[j] else cross
        if len(kind) < n and (i, j) not in kind:
            kind.append((i, j))
    return same + cross


def _bundle(reference, ids, pairs, weightnet, eval_seed, eval_n):
    return bundle.ModelBundle(reference=reference, pair_ids=list(ids),
                              pairs=pairs, weightnet=weightnet, threshold=0.5,
                              eval_seed=eval_seed, eval_n=eval_n, split_ids={})


def setup(w: Workload, seed: int, workdir: Path) -> Inputs:
    """Generate the inputs, read them back as `lotnn train` does, fit sigma."""
    ds = data.gen_synthetic(w.spec, w.per_class, w.n_points, seed=sub_seed(seed, 1))
    csv_dir = workdir / "data"
    data.save_csv_dir(ds, csv_dir)
    # subsample_n equal to the cloud size keeps every point in file order,
    # so same-class clouds stay exact shifts of each other point by point
    ds = data.load_csv_dir(csv_dir, w.n_points, seed=sub_seed(seed, 2))
    sets, parts = balanced_splits(ds, w, sub_seed(seed, 3))
    reference = lot.ReferenceMeasure.fitted(sets["train"].clouds,
                                            seed=sub_seed(seed, 4))
    solver = otsolve.SolverConfig(iters=w.embed_iters, seed=sub_seed(seed, 5))
    clouds = {c.id: c for c in ds.clouds}
    heldout = ds.subset(parts["test"] + parts["extra"])
    bundle_path = workdir / "bundle.json"
    untrained: dict[str, otsolve.DualPair] = {}
    if w.untrained_bundle:
        dist_ids = sorted(clouds)
        for j, cid in enumerate(dist_ids):
            untrained[cid] = otsolve.pair_for_cloud(
                reference, clouds[cid].points, solver, Rng(sub_seed(seed, 10_000 + j)))
        bundle.save_bundle(_bundle(reference, dist_ids, untrained, None,
                                   sub_seed(seed, 6), 1000), bundle_path)
    else:
        dist_ids = sorted(parts["train"] + parts["val"] + parts["test"])
    return Inputs(
        train=sets["train"], val=sets["val"], test=sets["test"], heldout=heldout,
        reference=reference, solver=solver,
        oracle_pairs=_oracle_pairs(ds.labels, dist_ids, w.oracle_pairs,
                                   sub_seed(seed, 7)),
        clouds=clouds, bundle_path=bundle_path, untrained=untrained)


def ot_steps_per_phase(sched: classify.TrainSchedule) -> list[int]:
    """Solver steps per cloud in each phase, as train_alternating runs them."""
    steps, epoch = [], 0
    while epoch < sched.total_epochs:
        ot = min(sched.ot_epochs_per_phase, sched.total_epochs - epoch)
        epoch += ot
        epoch += min(sched.clf_epochs_per_phase, sched.total_epochs - epoch)
        steps.append(ot * sched.steps_per_ot_epoch)
    return steps


@dataclass
class Ops:
    """Attempted and failed operations; a check is one operation."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(name)


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a, dtype=np.float64)
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _pair_arrays(pair: otsolve.DualPair):
    for p in (pair.psi, pair.phi):
        yield from p.wx
        yield from p.wz
        yield from p.b
    f = pair.frame
    yield np.asarray(f.sigma_mean)
    yield np.asarray(f.mu_mean)
    yield np.asarray([f.scale])


def _mlp_arrays(p):
    yield from p.weights
    yield from p.biases


def _bitwise_equal(a_arrays, b_arrays) -> bool:
    a_list, b_list = list(a_arrays), list(b_arrays)
    return len(a_list) == len(b_list) and all(
        x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
        for x, y in zip(map(np.asarray, a_list), map(np.asarray, b_list)))


@dataclass
class RoundResult:
    """Stage seconds, work counts, quality figures and digests of one round."""

    times: dict[str, float] = field(default_factory=dict)
    counts: dict[str, float] = field(default_factory=dict)
    quality: dict[str, float] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)
    ops: Ops = field(default_factory=Ops)
    # stage -> how many times slower than calibrate.REFERENCE_S the machine
    # ran around it: the mean of the kernel passes just before and after
    slowdown: dict[str, float] = field(default_factory=dict)
    last_kernel_s: float | None = None


def run_round(w: Workload, inp: Inputs, seed: int) -> RoundResult:
    """One pass of the pipeline, timed by stage and checked.

    The wall time is the sum of the stage times, checks and kernel
    passes excluded.
    """
    out = RoundResult()
    try:
        _round_body(w, inp, seed, out)
    except LotnnError as e:
        out.ops.check(f"pipeline raised {type(e).__name__}: {e}", False)
    out.times["wall"] = sum(out.times.values())
    return out


def _stage(out: RoundResult, key: str, fn):
    """Run fn once between two kernel passes, record its duration and the
    slowdown around it under key, and return its result. A stage shares
    its first pass with the previous stage's last."""
    before = out.last_kernel_s if out.last_kernel_s is not None else kernel_seconds()
    t = time.perf_counter()
    result = fn()
    out.times[key] = time.perf_counter() - t
    out.last_kernel_s = kernel_seconds()
    out.slowdown[key] = (before + out.last_kernel_s) / (2 * REFERENCE_S)
    return result


def _round_body(w: Workload, inp: Inputs, seed: int, out: RoundResult) -> None:
    counts, quality, ops = out.counts, out.quality, out.ops

    # --- fit: maps and classifier, as `lotnn train`
    emb, model, history = _stage(out, "fit", lambda: classify.train_alternating(
        inp.train, inp.val, w.schedule, inp.solver, classify.ClassifierConfig(),
        seed=sub_seed(seed, 20), reference=inp.reference))
    ops.attempted += len(emb.ids)
    phase_steps = ot_steps_per_phase(w.schedule)
    counts["fit_steps"] = len(emb.ids) * sum(phase_steps)
    best = emb.meta["best_phase"]
    quality["kept_step_share"] = (sum(phase_steps[:best + 1])
                                  / sum(phase_steps[:len(history)]))
    quality["val_accuracy"] = emb.meta["best_val_accuracy"]

    # --- embed: a fresh pair per held-out cloud at solver.iters, as `lotnn eval`
    def embed():
        pairs, probs = {}, []
        for j, c in enumerate(inp.test.clouds):
            cfg_j = dataclasses.replace(inp.solver, seed=sub_seed(seed, 1000 + j))
            pairs[c.id] = otsolve.train_map(inp.reference, c, cfg_j)
            probs.append(classify.predict_resampled(
                model, pairs[c.id], inp.reference, emb.eval_n, w.resamples,
                seed=sub_seed(seed, 2000 + j)))
        return pairs, probs

    test_pairs, probs = _stage(out, "embed", embed)
    ops.attempted += len(test_pairs)
    counts["embed_clouds"] = len(test_pairs)
    quality["test_accuracy"] = classify.evaluate(
        probs, [inp.test.labels[c.id] for c in inp.test.clouds],
        model.threshold).accuracy

    # --- dist: load a bundle, build the embedding, pairwise matrix, as `lotnn dist`
    if w.untrained_bundle:
        kept = inp.untrained
    else:
        kept = {**emb.pairs, **test_pairs}
        _stage(out, "bundle_save", lambda: bundle.save_bundle(
            _bundle(inp.reference, sorted(kept), kept, model.weightnet,
                    emb.eval_seed, emb.eval_n), inp.bundle_path))
    counts["bundle_bytes"] = inp.bundle_path.stat().st_size

    def dist():
        loaded = bundle.load_bundle(inp.bundle_path)
        e = lot.EmbeddingSet.build(loaded.reference, loaded.pair_ids, loaded.pairs,
                                   eval_n=loaded.eval_n, eval_seed=loaded.eval_seed)
        return loaded, e, lot.pairwise_matrix(e)

    loaded, dist_emb, D = _stage(out, "dist", dist)
    ops.attempted += 1
    N = len(dist_emb.ids)
    counts["dist_pairs"] = N * (N - 1) / 2

    # --- oracle: exact OT on fixed same- and cross-class pairs
    def oracle():
        calls = []
        for i, j in inp.oracle_pairs:
            X = inp.clouds[i].points[:w.oracle_n]
            Y = inp.clouds[j].points[:w.oracle_n]
            calls.append((i, j, X, Y, *otsolve.exact_ot_discrete(X, Y)))
        return calls

    oracle_calls = _stage(out, "oracle", oracle)
    ops.attempted += len(oracle_calls)
    counts["oracle_calls"] = len(oracle_calls)

    # --- baseline: bagged DeepSets on the same train/val sets, as `lotnn baseline`
    def baseline():
        trained = [deepsets.ds_train(inp.train, inp.val, w.ds_epochs,
                                     deepsets.DeepSetsConfig(),
                                     seed=sub_seed(seed, 3000 + m))
                   for m in range(w.ds_members)]
        members = [m for m, _ in trained]
        return ([deepsets.ds_bagging(members, c) for c in inp.heldout.clouds],
                [row for _, hist in trained for row in hist])

    bagged, ds_hist = _stage(out, "baseline", baseline)
    ops.attempted += w.ds_members
    quality["baseline_accuracy"] = classify.evaluate(
        bagged, [inp.heldout.labels[c.id] for c in inp.heldout.clouds]).accuracy

    # --- correctness checks
    index = {cid: k for k, cid in enumerate(dist_emb.ids)}
    abs_err = w2_sum = 0.0
    for i, j, X, Y, perm, cost in oracle_calls:
        w2 = float(np.sqrt(cost))
        abs_err += abs(D[index[i], index[j]] - w2)
        w2_sum += w2
        ops.check("exact_ot_discrete returns a permutation",
                  np.array_equal(np.sort(perm), np.arange(X.shape[0])))
        along = float(np.mean(np.sum((X - Y[perm]) ** 2, axis=1)))
        ops.check("exact_ot_discrete cost equals the mean squared distance "
                  "along its permutation",
                  abs(along - cost) <= 1e-12 * max(1.0, abs(cost)))
    # a ratio of sums: per-pair ratios swing with the short same-class
    # distances, so their median jumps between the two kinds of pair
    quality["lot_w2_relerr"] = abs_err / w2_sum

    trained_pairs = {**emb.pairs, **test_pairs}
    ops.check("every trained wz is >= 0", all(
        np.all(a >= 0) for p in trained_pairs.values() for a in p.psi.wz + p.phi.wz))
    losses = [r["ot_loss_mean"] for r in history] + [r["clf_loss"] for r in history]
    losses += [x for p in test_pairs.values() for x in p.meta["loss_history"]]
    losses += [r["loss"] for r in ds_hist]
    ops.check("every loss is finite", bool(np.all(np.isfinite(losses))))

    perm_rng = Rng(sub_seed(seed, 30))
    S = emb.eval_sample
    for pair in (emb.pairs[emb.ids[0]], *test_pairs.values()):
        ops.check("score is bitwise equal on a permuted sample",
                  classify.score(model, pair, S)
                  == classify.score(model, pair, S[perm_rng.permutation(S.shape[0])]))

    ops.check("pairwise_matrix is exactly symmetric with a zero diagonal",
              np.array_equal(D, D.T) and not np.any(np.diag(D)))
    for _ in range(5):
        a, b = (int(v) for v in perm_rng.choice(N, 2))
        ref_d = lot.lot_distance_empirical(dist_emb.pairs[dist_emb.ids[a]],
                                           dist_emb.pairs[dist_emb.ids[b]],
                                           dist_emb.eval_sample)
        ops.check("pairwise_matrix matches lot_distance_empirical",
                  abs(D[a, b] - ref_d) <= 1e-12)

    ops.check("load_bundle round trip is bitwise equal",
              loaded.pair_ids == sorted(kept) and all(
                  _bitwise_equal(_pair_arrays(kept[cid]), _pair_arrays(loaded.pairs[cid]))
                  for cid in loaded.pair_ids)
              and (w.untrained_bundle or _bitwise_equal(
                  _mlp_arrays(model.weightnet.params),
                  _mlp_arrays(loaded.weightnet.params))))

    out.digests.update({
        "best_snapshot": _digest(a for cid in emb.ids for a in _pair_arrays(emb.pairs[cid])),
        "W": _digest(_mlp_arrays(model.weightnet.params)),
        "heldout_probs": _digest([np.asarray(probs)]),
        "distance_matrix": _digest([D]),
    })


def median(values) -> float:
    return float(statistics.median(values))
