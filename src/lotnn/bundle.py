"""Model persistence: one JSON document, bit-exact float round trips.

Arrays are stored as little-endian float64 bytes in hex next to their
shapes, so load(save(x)) reproduces every parameter bitwise while the
header stays human-inspectable. The format version is the first field.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataError
from .classify import ClassifierModel, WeightNet
from .icnn import IcnnConfig, IcnnParams
from .lot import ReferenceMeasure
from .nncore import Array, MlpParams
from .otsolve import DualPair, Frame

FORMAT_VERSION = 1


def _enc(a: Array) -> dict:
    a = np.ascontiguousarray(a, dtype=np.float64)
    return {"shape": list(a.shape), "hex": a.astype("<f8").tobytes().hex()}


def _dec(d: dict) -> Array:
    raw = bytes.fromhex(d["hex"])
    return np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(d["shape"])


def _enc_icnn(params: IcnnParams, cfg: IcnnConfig) -> dict:
    return {
        "cfg": {"dim": cfg.dim, "hidden": list(cfg.hidden),
                "activation": cfg.activation, "sharpness": cfg.sharpness,
                "quad": cfg.quad},
        "wx": [_enc(a) for a in params.wx],
        "wz": [_enc(a) for a in params.wz],
        "b": [_enc(a) for a in params.b],
    }


def _dec_icnn(d: dict) -> tuple[IcnnParams, IcnnConfig]:
    c = d["cfg"]
    cfg = IcnnConfig(dim=c["dim"], hidden=tuple(c["hidden"]),
                     activation=c["activation"], sharpness=c["sharpness"],
                     quad=c["quad"])
    b = [_dec(a) for a in d["b"]]
    # older documents also store the head bias, which training never moves
    if len(b) == len(cfg.hidden) + 1:
        if np.any(b.pop() != 0.0):
            raise DataError("bundle stores a nonzero ICNN head bias")
    blocks = {"wx": [_dec(a) for a in d["wx"]], "wz": [_dec(a) for a in d["wz"]], "b": b}
    widths = list(cfg.hidden) + [1]
    want = {"wx": [(w, cfg.dim) for w in widths],
            "wz": [(w, v) for v, w in zip(widths, widths[1:])],
            "b": [(w,) for w in cfg.hidden]}
    for name, shapes in want.items():
        got = [a.shape for a in blocks[name]]
        if got != shapes:
            raise DataError(f"ICNN {name} shapes {got} do not match dim {cfg.dim} "
                            f"and hidden {cfg.hidden} (expected {shapes})")
    return IcnnParams(blocks["wx"], blocks["wz"], blocks["b"]), cfg


def _enc_mlp(p: MlpParams) -> dict:
    return {"weights": [_enc(a) for a in p.weights],
            "biases": [_enc(a) for a in p.biases]}


def _dec_mlp(d: dict) -> MlpParams:
    return MlpParams([_dec(a) for a in d["weights"]],
                     [_dec(a) for a in d["biases"]])


def _enc_pair(cid: str, pair: DualPair) -> dict:
    meta = {k: v for k, v in pair.meta.items() if k != "loss_history"}
    return {"id": cid, "psi": _enc_icnn(pair.psi, pair.psi_cfg),
            "phi": _enc_icnn(pair.phi, pair.phi_cfg),
            "frame": {"sigma_mean": _enc(np.asarray(pair.frame.sigma_mean)),
                      "mu_mean": _enc(np.asarray(pair.frame.mu_mean)),
                      "scale": _enc(np.asarray([pair.frame.scale]))},
            "meta": meta}


def _dec_pair(d: dict) -> tuple[str, DualPair]:
    psi, psi_cfg = _dec_icnn(d["psi"])
    phi, phi_cfg = _dec_icnn(d["phi"])
    f = d["frame"]
    frame = Frame(sigma_mean=tuple(_dec(f["sigma_mean"])),
                  mu_mean=tuple(_dec(f["mu_mean"])),
                  scale=float(_dec(f["scale"])[0]))
    return d["id"], DualPair(psi, psi_cfg, phi, phi_cfg, frame, dict(d["meta"]))


def _enc_reference(ref: ReferenceMeasure) -> dict:
    return {"kind": ref.kind, "dim": ref.dim, "mean": list(ref.mean),
            "var": list(ref.var), "halfwidth": ref.halfwidth, "seed": ref.seed}


def _dec_reference(d: dict) -> ReferenceMeasure:
    return ReferenceMeasure(kind=d["kind"], dim=d["dim"], mean=tuple(d["mean"]),
                            var=tuple(d["var"]), halfwidth=d["halfwidth"],
                            seed=d["seed"])


@dataclass
class ModelBundle:
    """Everything needed to reload a trained pipeline."""

    reference: ReferenceMeasure
    pair_ids: list[str]
    pairs: dict[str, DualPair]
    weightnet: WeightNet | None
    threshold: float
    eval_seed: int
    eval_n: int
    split_ids: dict[str, list[str]]
    config: dict = field(default_factory=dict)
    config_hash: str = ""
    seed: int = 0
    build_version: str = ""
    history_digest: dict = field(default_factory=dict)

    def classifier(self) -> ClassifierModel:
        if self.weightnet is None:
            raise DataError("bundle has no classifier weight net")
        return ClassifierModel(self.weightnet, threshold=self.threshold)


def save_bundle(bundle: ModelBundle, path) -> None:
    doc = {
        "format_version": FORMAT_VERSION,  # must stay the first field
        "build_version": bundle.build_version,
        "config_hash": bundle.config_hash,
        "seed": bundle.seed,
        "reference": _enc_reference(bundle.reference),
        "eval_sample": {"seed": bundle.eval_seed, "n": bundle.eval_n},
        "split": bundle.split_ids,
        "threshold": bundle.threshold,
        "config": bundle.config,
        "history_digest": bundle.history_digest,
        "pairs": [_enc_pair(cid, bundle.pairs[cid]) for cid in bundle.pair_ids],
        "weightnet": None if bundle.weightnet is None else {
            "hidden": list(bundle.weightnet.hidden),
            "mlp": _enc_mlp(bundle.weightnet.params),
        },
    }
    Path(path).write_text(json.dumps(doc, indent=1))


def load_bundle(path) -> ModelBundle:
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as e:
        raise DataError(f"cannot read bundle {path}: {e}") from e
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise DataError(f"unsupported bundle format version {version!r}")
    pairs = dict(_dec_pair(d) for d in doc["pairs"])
    wn = None
    if doc.get("weightnet"):
        wn = WeightNet(_dec_mlp(doc["weightnet"]["mlp"]),
                       tuple(doc["weightnet"]["hidden"]))
    return ModelBundle(
        reference=_dec_reference(doc["reference"]),
        pair_ids=[d["id"] for d in doc["pairs"]],
        pairs=pairs,
        weightnet=wn,
        threshold=doc["threshold"],
        eval_seed=doc["eval_sample"]["seed"],
        eval_n=doc["eval_sample"]["n"],
        split_ids={k: list(v) for k, v in doc["split"].items()},
        config=doc.get("config", {}),
        config_hash=doc.get("config_hash", ""),
        seed=doc.get("seed", 0),
        build_version=doc.get("build_version", ""),
        history_digest=doc.get("history_digest", {}),
    )
