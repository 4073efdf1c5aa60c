"""Model persistence: a one-line JSON header, then raw float64 parameters.

A version-2 bundle file is

    {"format_version":2, ...}<spaces>\\n<payload>

The first line is compact JSON with every piece of metadata; the
format version is its first field. Spaces pad that line, newline
included, to a multiple of 8 bytes, so the payload starts on an 8-byte
boundary. The payload is one little-endian float64 vector. The header
names each block of it as [offset, length], counted in float64s:

  - each pair's psi and phi as their FlatParams theta, next to the
    IcnnConfig that fixes the layout of its blocks;
  - each pair's frame as sigma_mean, mu_mean and scale, 2 dim + 1 values;
  - the weight net's MlpParams theta, laid out for widths
    (dim, *hidden, dim).

save_bundle writes the file whole to a temporary name in the target's
directory and renames it over the target, so a process that dies while
saving leaves any earlier bundle as it was. Nothing is fsynced: the
rename is atomic, not durable across a machine crash.

load_bundle reads the file once into one buffer and binds every
network's parameters to a view of it: they are aligned and writable,
and nothing is copied. Parameters round-trip bitwise.

Any malformed bundle raises DataError naming the file, and so do
another format version, a NaN or infinity among its parameters and
frames, a threshold outside (0, 1), an eval sample size below 1 and a
negative eval seed.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import os
import typing
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataError, LotnnError
from .classify import ClassifierModel, WeightNet
from .icnn import IcnnConfig, IcnnParams, icnn_shapes
from .lot import ReferenceMeasure
from .nncore import Array, MlpParams, mlp_shapes
from .otsolve import DualPair, Frame

FORMAT_VERSION = 2


def write_document(path, header: dict, payload: Array) -> None:
    """Write a header line and a float64 payload, replacing path at once.

    The bytes go to a temporary file next to path, which is renamed over
    path only once they are all written; on any failure it is removed
    and path keeps its old bytes.
    """
    path = Path(path)
    line = json.dumps(header, separators=(",", ":")).encode()
    line += b" " * (-(len(line) + 1) % 8) + b"\n"
    data = np.ascontiguousarray(payload, dtype="<f8")
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(line)
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_document(path) -> tuple[dict, Array]:
    """The header and the float64 payload of a bundle file.

    The payload is a view of the one buffer the file was read into.
    """
    try:
        with open(path, "rb") as f:
            buf = bytearray(os.fstat(f.fileno()).st_size)
            f.readinto(buf)
    except OSError as e:
        raise DataError(f"cannot read bundle {path}: {e}") from e
    end = buf.find(b"\n") + 1 or len(buf)
    try:
        header = json.loads(buf[:end])
    except ValueError as e:
        raise DataError(f"cannot read bundle {path}: {e}") from e
    if not isinstance(header, dict):
        raise DataError(f"bundle {path}: the header is not a JSON object")
    if end < len(buf) and (end % 8 or (len(buf) - end) % 8):
        raise DataError(f"bundle {path}: a payload of {len(buf) - end} bytes at byte "
                        f"{end} is not whole float64s on an 8-byte boundary")
    return header, np.frombuffer(buf, dtype="<f8", offset=end)


@functools.cache
def _nested_fields(cls) -> dict:
    """Each field of cls, mapped to the dataclass of its default or to None."""
    nested = {}
    for f in dataclasses.fields(cls):
        default = (f.default if f.default_factory is dataclasses.MISSING
                   else f.default_factory())
        nested[f.name] = type(default) if dataclasses.is_dataclass(default) else None
    return nested


@functools.cache
def _int_fields(cls) -> dict[str, bool]:
    """The fields of cls typed int (False) or tuple[int, ...] (True)."""
    out = {}
    for name, hint in typing.get_type_hints(cls).items():
        if hint is int:
            out[name] = False
        elif typing.get_origin(hint) is tuple and typing.get_args(hint)[:1] == (int,):
            out[name] = True
    return out


def _check_ints(cls, key: str, value, at: str) -> None:
    """Raise DataError for a non-integer where cls's field is an int.

    JSON numbers with a fraction, such as 1.5 or 2.0, load as floats.
    A bool is an int to Python but not an integer setting.
    """
    many = _int_fields(cls).get(key)
    if many is None or (many and not isinstance(value, tuple)):
        return  # not an int field, or not a list: cls's own rules apply
    for v in value if many else (value,):
        if isinstance(v, bool) or not isinstance(v, int):
            raise DataError(f"bad {cls.__name__}{at}: {key} must hold "
                            f"{'integers' if many else 'an integer'}, not {v!r}")


def decode_config(cls, d, where: str = ""):
    """The config dataclass cls built from d, its dataclasses.asdict form.

    Missing keys keep cls's defaults, a field whose default is a
    dataclass is decoded from its own dict, and lists become tuples.
    Unknown keys, a non-dict d, a non-integer for a field typed int or
    tuple[int, ...] and values cls rejects raise DataError; where names
    the nested field being decoded.
    """
    at = f" in {where!r}" if where else ""
    if not isinstance(d, dict):
        raise DataError(f"{cls.__name__}{at} must be a JSON object, "
                        f"not {type(d).__name__}")
    fields = _nested_fields(cls)
    unknown = sorted(set(d) - set(fields))
    if unknown:
        keys = f"key {unknown[0]!r}" if len(unknown) == 1 else f"keys {unknown}"
        raise DataError(f"unknown config {keys}{at}")
    kwargs = {}
    for key, value in d.items():
        if fields[key] is not None:
            value = decode_config(fields[key], value, f"{where}.{key}" if where else key)
        else:
            if isinstance(value, list):
                value = tuple(value)
            _check_ints(cls, key, value, at)
        kwargs[key] = value
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as e:
        raise DataError(f"bad {cls.__name__}{at}: {e}") from e


class _Payload:
    """Hands out the payload blocks the header names, as views."""

    def __init__(self, data: Array):
        if (bad := data[~np.isfinite(data)]).size:
            raise DataError(f"the payload holds {bad[0]}; parameters and frames "
                            "must be finite")
        self.data, self.used = data, 0

    def take(self, span, n: int, what: str) -> Array:
        off, length = span
        if length != n:
            raise DataError(f"{what} holds {length} values; its layout has {n}")
        if not 0 <= off <= self.data.size - n:
            raise DataError(f"{what} at [{off}, {off + n}) lies outside the payload "
                            f"of {self.data.size} values")
        self.used += n
        return self.data[off:off + n]

    def params(self, cls, shapes: tuple, span, what: str):
        n = sum(math.prod(shape) for group in shapes for shape in group)
        return cls.over(self.take(span, n, what), shapes)

    def finish(self) -> None:
        if self.used != self.data.size:
            raise DataError(f"the payload holds {self.data.size} values; "
                            f"the header names {self.used}")


def _dec_icnn(d: dict, payload: _Payload, what: str) -> tuple[IcnnParams, IcnnConfig]:
    cfg = decode_config(IcnnConfig, d["cfg"], what)
    return payload.params(IcnnParams, icnn_shapes(cfg), d["theta"], what), cfg


def _dec_pair(d: dict, payload: _Payload) -> DualPair:
    psi, psi_cfg = _dec_icnn(d["psi"], payload, f"pair {d['id']!r} psi")
    phi, phi_cfg = _dec_icnn(d["phi"], payload, f"pair {d['id']!r} phi")
    dim = psi_cfg.dim
    f = payload.take(d["frame"], 2 * dim + 1, f"pair {d['id']!r} frame")
    frame = Frame(sigma_mean=tuple(f[:dim].tolist()),
                  mu_mean=tuple(f[dim:2 * dim].tolist()), scale=float(f[2 * dim]))
    return DualPair(psi, psi_cfg, phi, phi_cfg, frame, dict(d["meta"]))


def _dec_weightnet(d: dict, payload: _Payload, dim: int) -> WeightNet:
    hidden = tuple(d["hidden"])
    return WeightNet(payload.params(MlpParams, mlp_shapes((dim, *hidden, dim)),
                                    d["theta"], "weight net"), hidden)


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
    blocks: list[Array] = []
    size = 0

    def put(a: Array) -> list[int]:
        nonlocal size
        blocks.append(a)
        size += a.size
        return [size - a.size, a.size]

    def enc_pair(cid: str) -> dict:
        p = bundle.pairs[cid]
        f = p.frame
        return {"id": cid,
                "psi": {"cfg": dataclasses.asdict(p.psi_cfg), "theta": put(p.psi.theta)},
                "phi": {"cfg": dataclasses.asdict(p.phi_cfg), "theta": put(p.phi.theta)},
                "frame": put(np.array([*f.sigma_mean, *f.mu_mean, f.scale],
                                      dtype=np.float64)),
                "meta": {k: v for k, v in p.meta.items() if k != "loss_history"}}

    header = {
        "format_version": FORMAT_VERSION,  # must stay the first field
        "build_version": bundle.build_version,
        "config_hash": bundle.config_hash,
        "seed": bundle.seed,
        "reference": dataclasses.asdict(bundle.reference),
        "eval_sample": {"seed": bundle.eval_seed, "n": bundle.eval_n},
        "split": bundle.split_ids,
        "threshold": bundle.threshold,
        "config": bundle.config,
        "history_digest": bundle.history_digest,
        "pairs": [enc_pair(cid) for cid in bundle.pair_ids],
        "weightnet": None if bundle.weightnet is None else {
            "hidden": list(bundle.weightnet.hidden),
            "theta": put(bundle.weightnet.params.theta),
        },
    }
    write_document(path, header, np.concatenate(blocks or [np.empty(0)]))


def _check_eval_settings(threshold, n, seed) -> None:
    """Raise DataError unless the classifier and eval sample settings hold."""
    if isinstance(threshold, bool) or not isinstance(threshold, (int, float)) \
            or not 0.0 < threshold < 1.0:
        raise DataError(f"threshold must be a number in (0, 1), not {threshold!r}")
    for key, value, low in (("n", n, 1), ("seed", seed, 0)):
        if isinstance(value, bool) or not isinstance(value, int) or value < low:
            raise DataError(f"eval_sample.{key} must be an integer >= {low}, "
                            f"not {value!r}")


def load_bundle(path) -> ModelBundle:
    doc, data = read_document(path)
    try:
        version = doc.get("format_version")
        if version != FORMAT_VERSION:
            raise DataError(f"unsupported format version {version!r}")
        payload = _Payload(data)
        reference = decode_config(ReferenceMeasure, doc["reference"])
        pairs = {}
        for d in doc["pairs"]:
            if d["id"] in pairs:
                raise DataError(f"pair id {d['id']!r} repeats")
            pairs[d["id"]] = _dec_pair(d, payload)
        wn = None
        if doc.get("weightnet"):
            wn = _dec_weightnet(doc["weightnet"], payload, reference.dim)
        payload.finish()
        threshold, sample = doc["threshold"], doc["eval_sample"]
        _check_eval_settings(threshold, sample["n"], sample["seed"])
        return ModelBundle(
            reference=reference,
            pair_ids=list(pairs),
            pairs=pairs,
            weightnet=wn,
            threshold=threshold,
            eval_seed=sample["seed"],
            eval_n=sample["n"],
            split_ids={k: list(v) for k, v in doc["split"].items()},
            config=doc.get("config", {}),
            config_hash=doc.get("config_hash", ""),
            seed=doc.get("seed", 0),
            build_version=doc.get("build_version", ""),
            history_digest=doc.get("history_digest", {}),
        )
    except LotnnError as e:
        raise DataError(f"bundle {path}: {e}") from e
    except (LookupError, TypeError, ValueError) as e:
        raise DataError(f"bundle {path} is malformed: {type(e).__name__}: {e}") from e
