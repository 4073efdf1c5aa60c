"""Command-line surface tying the pipeline together.

Subcommands: gen | train | eval | dist | bound | baseline.
Exit codes: 0 success, 2 usage error, 3 data error, 4 numeric failure.

Every emitted report (history/metrics CSVs, bundles, manifests) embeds
the resolved config hash, the seeds, and the build version, so a run is
reproducible from its artifacts alone. Reruns with the same config and
seed are byte-identical, whatever the CPU count or OPENBLAS_NUM_THREADS:
`dist`, `train`, `eval` and `baseline` share their work over all usable
CPUs with numpy's BLAS on one thread, as lotnn.nncore describes. The
worker processes that fit maps in `train` and `eval` start on first use
and end with the command.

A bundle (--bundle) is not a JSON text: it is one line of JSON metadata,
then the binary float64 parameters; lotnn.bundle describes the
layout.

`train` fits every map against the Gaussian fitted to the training
clouds (lotnn.lot.ReferenceMeasure.fitted). `eval` fits the held-out
clouds the bundle has no pair for in one call; each gets the map that
otsolve.train_map gives it alone, seeded from its id, so it scores the
same in every subset.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .errors import DataError, LotnnError, NumericError
from .classify import (
    ClassifierConfig,
    TrainSchedule,
    evaluate,
    predict_resampled,
    scores,
    train_alternating,
)
from .data import SyntheticSpec, gen_synthetic, hash_id, load_csv_dir, save_csv_dir, split
from .deepsets import DeepSetsConfig, ds_bagging, ds_forward, ds_train
from .lot import BoundParams, EmbeddingSet, ReferenceMeasure, pairwise_matrix, theorem_bound
from .bundle import ModelBundle, decode_config, load_bundle, save_bundle
from .nncore import Rng
from .otsolve import SolverConfig, fit_pairs, pair_for_cloud


@dataclass(frozen=True)
class RunConfig:
    """Every tunable in one serializable record."""

    seed: int = 0
    subsample_n: int = 1000
    synth: SyntheticSpec = field(default_factory=SyntheticSpec)
    synth_clouds_per_class: int = 30
    synth_points: int = 500
    solver: SolverConfig = field(default_factory=SolverConfig)
    schedule: TrainSchedule = field(default_factory=TrainSchedule)
    classifier: ClassifierConfig = field(default_factory=ClassifierConfig)
    deepsets: DeepSetsConfig = field(default_factory=DeepSetsConfig)
    deepsets_epochs: int = 300
    bagging: int = 10

    def __post_init__(self):
        if min(self.subsample_n, self.bagging) < 1 or self.deepsets_epochs < 0:
            raise ValueError("subsample_n and bagging must be >= 1 "
                             "and deepsets_epochs >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")

    def hash(self) -> str:
        blob = json.dumps(dataclasses.asdict(self), sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def load_config(path: str | None, seed: int | None) -> RunConfig:
    cfg = RunConfig()
    if path is not None:
        try:
            doc = json.loads(Path(path).read_text())
        except (OSError, ValueError) as e:
            raise DataError(f"cannot read config {path}: {e}") from e
        cfg = decode_config(RunConfig, doc)
    if seed is None:
        return cfg
    try:
        return dataclasses.replace(cfg, seed=seed,
                                   solver=dataclasses.replace(cfg.solver, seed=seed))
    except ValueError as e:
        raise DataError(f"bad --seed: {e}") from e


def _report_header(cfg: RunConfig) -> list[str]:
    return [
        f"# lotnn_version={__version__}",
        f"# config_hash={cfg.hash()}",
        f"# seed={cfg.seed}",
    ]


def _csv_text(header: list[str], columns: list[str], rows) -> str:
    """A report CSV: header lines, column names, rows. Every float, numpy's
    included, is written as repr(float(v)), which reads back bitwise."""
    lines = [*header, ",".join(columns)]
    for row in rows:
        lines.append(",".join(repr(float(v)) if isinstance(v, (float, np.floating))
                              else str(v) for v in row))
    return "\n".join(lines) + "\n"


def _note_single_class(subset: str, labels) -> None:
    if len(classes := set(labels)) == 1:
        print(f"note: subset {subset!r} holds only class {min(classes)}; "
              "accuracy on it is that class's recall alone", file=sys.stderr)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_gen(cfg: RunConfig, out_dir: str) -> int:
    ds = gen_synthetic(cfg.synth, cfg.synth_clouds_per_class, cfg.synth_points,
                       seed=cfg.seed)
    out = Path(out_dir)
    save_csv_dir(ds, out)
    manifest = {
        "lotnn_version": __version__,
        "config_hash": cfg.hash(),
        "seed": cfg.seed,
        "spec": dataclasses.asdict(cfg.synth),
        "n_clouds_per_class": cfg.synth_clouds_per_class,
        "n_points": cfg.synth_points,
        # each cloud is scale * base + shift for its class's base cloud
        "clouds": {c.id: {"scale": c.meta["scale"], "shift": c.meta["shift"]}
                   for c in ds.clouds},
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")
    print(f"wrote {len(ds.clouds)} clouds to {out}")
    return 0


def cmd_train(cfg: RunConfig, data_dir: str, bundle_path: str,
              history_path: str | None) -> int:
    ds = load_csv_dir(data_dir, cfg.subsample_n, seed=cfg.seed)
    train_ds, val_ds, test_ds = split(ds, seed=cfg.seed)
    _note_single_class("val", val_ds.labels.values())
    reference = ReferenceMeasure.fitted(train_ds.clouds, seed=cfg.seed)
    emb, model, history = train_alternating(
        train_ds, val_ds, cfg.schedule, cfg.solver, cfg.classifier,
        seed=cfg.seed, reference=reference)

    bundle = ModelBundle(
        reference=emb.reference,
        pair_ids=emb.ids,
        pairs=emb.pairs,
        weightnet=model.weightnet,
        threshold=model.threshold,
        eval_seed=emb.eval_seed,
        eval_n=emb.eval_n,
        split_ids={"train": sorted(train_ds.ids), "val": sorted(val_ds.ids),
                   "test": sorted(test_ds.ids)},
        config=dataclasses.asdict(cfg),
        config_hash=cfg.hash(),
        seed=cfg.seed,
        build_version=__version__,
        history_digest={"phases": len(history),
                        "val_accuracy": history[-1]["val_accuracy"]},
    )
    save_bundle(bundle, bundle_path)
    if history_path:
        cols = ["phase", "epoch", "ot_loss_mean", "clf_loss", "val_accuracy"]
        Path(history_path).write_text(_csv_text(
            _report_header(cfg), cols, [[row[c] for c in cols] for row in history]))
    print(f"trained {len(emb.ids)} maps over {len(history)} phases; "
          f"validation accuracy {history[-1]['val_accuracy']:.4f}")
    print(f"bundle written to {bundle_path}")
    return 0


_METRIC_COLUMNS = ["tag", "tp", "fp", "fn", "tn", "precision", "recall",
                   "accuracy", "precision_defined", "recall_defined"]


def _metrics_row(tag: str, m) -> list:
    return [tag, m.tp, m.fp, m.fn, m.tn, m.precision, m.recall, m.accuracy,
            int(m.precision_defined), int(m.recall_defined)]


def _metrics_line(label: str, m) -> str:
    return (f"{label} precision={m.precision:.4f} recall={m.recall:.4f} "
            f"accuracy={m.accuracy:.4f}")


def _embedding_solver(cfg: RunConfig, bundle: ModelBundle, path: str) -> SolverConfig:
    """The solver config and step count the bundle's maps were trained with.

    Clouds without a trained pair are embedded with it, whatever this
    run's --config says; bundles that store no solver config fall back
    to the run's own. Seeds are not compared, as each cloud gets its own.
    The steps are those every kept pair records; untrained pairs hold 0
    and keep solver.iters.
    """
    solver = cfg.solver
    if "solver" in bundle.config:
        try:
            solver = decode_config(SolverConfig, bundle.config["solver"], "solver")
        except DataError as e:
            raise DataError(f"bundle {path} has an unusable solver config: {e}") from e
        if dataclasses.replace(solver, seed=cfg.solver.seed) != cfg.solver:
            print(f"note: this run's solver config differs from the bundle's "
                  f"(config_hash={bundle.config_hash}); embedding with the bundle's",
                  file=sys.stderr)
    steps = {p.meta.get("iterations", 0) for p in bundle.pairs.values()}
    if len(steps) > 1:
        raise DataError(f"bundle pairs record different step counts {sorted(steps)}")
    if steps and (count := steps.pop()):
        solver = dataclasses.replace(solver, iters=count)
    return solver


def cmd_eval(cfg: RunConfig, bundle_path: str, data_dir: str, resamples: int,
             subset: str, out_path: str | None) -> int:
    if resamples < 1:
        raise DataError(f"--resamples must be >= 1, not {resamples}")
    bundle = load_bundle(bundle_path)
    embed_solver = _embedding_solver(cfg, bundle, bundle_path)
    ds = load_csv_dir(data_dir, cfg.subsample_n, seed=cfg.seed)
    if subset == "all":
        ids = sorted(ds.ids)
    else:
        have = set(ds.ids)
        ids = [i for i in bundle.split_ids.get(subset, []) if i in have]
    if not ids:
        raise DataError(f"no clouds to evaluate in subset {subset!r}")
    labels = [ds.labels[i] for i in ids]
    _note_single_class(subset, labels)
    if ds.dim != bundle.reference.dim:
        raise DataError(f"data dim {ds.dim} != bundle dim {bundle.reference.dim}")
    model = bundle.classifier()
    eval_sample = bundle.reference.sample(bundle.eval_n, seed=bundle.eval_seed)

    # seeds from the id, so a cloud scores the same in every subset
    seeds = {cid: np.random.SeedSequence([cfg.seed, hash_id(cid)]).generate_state(2).tolist()
             for cid in ids}
    # reuse the trained pair when the bundle has one, else embed fresh: the
    # new pairs are those train_map gives each cloud, fitted in one call
    fresh = {cid: ds.cloud(cid).points for cid in ids if cid not in bundle.pairs}
    by_id = dict(bundle.pairs)
    by_id.update({cid: pair_for_cloud(bundle.reference, points, embed_solver,
                                      Rng(seeds[cid][0]).spawn(0))
                  for cid, points in fresh.items()})
    fit_pairs(bundle.reference, fresh, by_id, {}, embed_solver, embed_solver.iters)
    pairs = [by_id[cid] for cid in ids]
    pk = [predict_resampled(model, pair, bundle.reference, bundle.eval_n, resamples,
                            seed=seeds[cid][1]) for cid, pair in zip(ids, pairs)]
    # the weight net on the fixed sample once, not once per cloud
    p1 = scores(model, pairs, eval_sample)
    rows = list(zip(ids, labels, p1, pk))

    m1 = evaluate(p1, labels, model.threshold)
    mk = evaluate(pk, labels, model.threshold)
    # "eval_sample" is the score on the bundle's fixed sample; k=... is the
    # mean over resamples, a distinct row even when resamples == 1
    metric_rows = [_metrics_row("eval_sample", m1),
                   _metrics_row(f"k={resamples}", mk)]
    if out_path:
        header, out = _report_header(cfg), Path(out_path)
        out.write_text(_csv_text(header, _METRIC_COLUMNS, metric_rows))
        out.with_suffix(".probs.csv").write_text(_csv_text(
            header, ["id", "label", "prob_eval_sample", f"prob_k{resamples}"], rows))
    print(f"evaluated {len(ids)} clouds (subset={subset})")
    print(_metrics_line("eval_sample", m1))
    print(_metrics_line(f"k={resamples}", mk))
    return 0


def cmd_dist(cfg: RunConfig, bundle_path: str, out_path: str | None) -> int:
    bundle = load_bundle(bundle_path)
    emb = EmbeddingSet.build(bundle.reference, bundle.pair_ids, bundle.pairs,
                             eval_n=bundle.eval_n, eval_seed=bundle.eval_seed)
    D = pairwise_matrix(emb)
    text = _csv_text(_report_header(cfg), ["id", *emb.ids],
                     ([cid, *row] for cid, row in zip(emb.ids, D)))
    if out_path:
        Path(out_path).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_bound(beta: float, eps: float, R: float, delta: float, n: int) -> int:
    try:
        params = BoundParams(beta=beta, eps=eps, R=R, n=n, delta=delta)
    except ValueError as e:
        raise DataError(f"bad bound parameters: {e}") from e
    value = theorem_bound(params)
    print(f"deviation bound: {value:.6f} "
          f"(beta={beta} eps={eps} R={R} delta={delta} n={n})")
    return 0


def cmd_baseline(cfg: RunConfig, data_dir: str, out_path: str | None) -> int:
    ds = load_csv_dir(data_dir, cfg.subsample_n, seed=cfg.seed)
    train_ds, val_ds, test_ds = split(ds, seed=cfg.seed)
    subset, eval_ds = ("test", test_ds) if test_ds.clouds else ("val", val_ds)
    labels = [eval_ds.labels[c.id] for c in eval_ds.clouds]
    _note_single_class(subset, labels)

    model, _ = ds_train(train_ds, val_ds, cfg.deepsets_epochs, cfg.deepsets,
                        seed=cfg.seed)
    single = [ds_forward(model, c) for c in eval_ds.clouds]
    m_single = evaluate(single, labels)

    members = [ds_train(train_ds, val_ds, cfg.deepsets_epochs, cfg.deepsets,
                        seed=cfg.seed + 1 + j)[0] for j in range(cfg.bagging)]
    bagged = [ds_bagging(members, c) for c in eval_ds.clouds]
    m_bag = evaluate(bagged, labels)

    rows = [_metrics_row("deepsets", m_single),
            _metrics_row(f"bagging_x{cfg.bagging}", m_bag)]
    if out_path:
        Path(out_path).write_text(_csv_text(_report_header(cfg), _METRIC_COLUMNS, rows))
    print(_metrics_line("deepsets    ", m_single))
    print(_metrics_line(f"bagging x{cfg.bagging}", m_bag))
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lotnn",
        description="Point-cloud classification via neural optimal-transport "
                    "embeddings.",
    )
    parser.add_argument("--config", help="JSON file overriding RunConfig fields")
    parser.add_argument("--seed", type=int, help="master seed override")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic two-class dataset")
    p.add_argument("--out", required=True)

    p = sub.add_parser("train", help="fit every map, then the classifier")
    p.add_argument("--data", required=True)
    p.add_argument("--bundle", required=True)
    p.add_argument("--history", help="history CSV path: one row per schedule phase")

    p = sub.add_parser("eval", help="embed held-out clouds and report metrics")
    p.add_argument("--bundle", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--resamples", type=int, default=10)
    p.add_argument("--subset", choices=["train", "val", "test", "all"],
                   default="test")
    p.add_argument("--out", help="metrics CSV path")

    p = sub.add_parser("dist", help="pairwise embedding distances as CSV")
    p.add_argument("--bundle", required=True)
    p.add_argument("--out")

    p = sub.add_parser("bound", help="print the deviation bound")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--R", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("baseline", help="DeepSets baseline plus bagging")
    p.add_argument("--data", required=True)
    p.add_argument("--out", help="metrics CSV path")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, args.seed)
        if args.command == "gen":
            return cmd_gen(cfg, args.out)
        if args.command == "train":
            return cmd_train(cfg, args.data, args.bundle, args.history)
        if args.command == "eval":
            return cmd_eval(cfg, args.bundle, args.data, args.resamples,
                            args.subset, args.out)
        if args.command == "dist":
            return cmd_dist(cfg, args.bundle, args.out)
        if args.command == "bound":
            return cmd_bound(args.beta, args.eps, args.R, args.delta, args.n)
        if args.command == "baseline":
            return cmd_baseline(cfg, args.data, args.out)
        parser.error(f"unknown command {args.command!r}")
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return 3
    except NumericError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 4
    except LotnnError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
