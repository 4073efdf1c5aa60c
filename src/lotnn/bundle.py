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

Version-1 documents, one indented JSON text with every array stored as
its shape and the hex of its little-endian float64 bytes, still load.
Any malformed bundle raises DataError naming the file, and so does a
NaN or infinity among its parameters and frames. Settings that older
versions stored and that now have one value load at that value only.
"""

from __future__ import annotations

import dataclasses
import functools
import json
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

    The payload is a view of the one buffer the file was read into. A
    version-1 document is all header and has an empty payload.
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
    except ValueError:
        # a version-1 document spreads its JSON over many lines
        try:
            header, end = json.loads(buf), len(buf)
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


# The settings older bundles store that are gone now, by the record that
# stores them, each with the one value every run now uses; None marks the
# static quads, which went unread while adaptive_quad held.
RETIRED = {
    "icnn": {"activation": "smooth_relu", "sharpness": 1.0},
    "reference": {"halfwidth": 1.0},
    "solver": {"activation": "smooth_relu", "adaptive_quad": True,
               "beta1": 0.9, "beta2": 0.999, "eps": 1e-8, "init_scale": 0.1,
               "quad_psi": None, "quad_phi": None, "sharpness": 1.0},
}


def drop_fixed(d, record: str):
    """d without the settings RETIRED[record] lists.

    Each must hold its one remaining value, else the maps were built in
    a way this version cannot reproduce (DataError); those listed with
    None are dropped whatever they hold. A non-dict d is returned.
    """
    if not isinstance(d, dict):
        return d
    retired = RETIRED[record]
    for key, want in retired.items():
        if key in d and want is not None and d[key] != want:
            raise DataError(f"{key}={d[key]!r} is no longer supported; "
                            f"only {key}={want!r} is")
    return {k: v for k, v in d.items() if k not in retired}


def _icnn_cfg(d) -> IcnnConfig:
    return decode_config(IcnnConfig, drop_fixed(d, "icnn"))


class _Payload:
    """Hands out the payload blocks the header names, as views.

    Each layout is built once, zero-filled, and rebound with with_theta
    to the view of every network that has it.
    """

    def __init__(self, data: Array):
        if (bad := data[~np.isfinite(data)]).size:
            raise DataError(f"the payload holds {bad[0]}; parameters and frames "
                            "must be finite")
        self.data, self.used, self._layouts = data, 0, {}

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
        if (cls, shapes) not in self._layouts:
            self._layouts[cls, shapes] = cls(*([np.zeros(s) for s in g] for g in shapes))
        layout = self._layouts[cls, shapes]
        return layout.with_theta(self.take(span, layout.theta.size, what))

    def finish(self) -> None:
        if self.used != self.data.size:
            raise DataError(f"the payload holds {self.data.size} values; "
                            f"the header names {self.used}")


def _dec_icnn(d: dict, payload: _Payload, what: str) -> tuple[IcnnParams, IcnnConfig]:
    cfg = _icnn_cfg(d["cfg"])
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


# ---------------------------------------------------------------------------
# Version 1: every array as its shape and hex bytes inside one JSON text
# ---------------------------------------------------------------------------

def _dec_v1(d: dict) -> Array:
    raw = bytes.fromhex(d["hex"])
    a = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(d["shape"])
    if not np.isfinite(a).all():
        raise DataError(f"a stored {list(a.shape)} array holds non-finite values")
    return a


def _params_v1(cls, groups: list, shapes: tuple, what: str):
    for name, blocks, want in zip(cls.GROUPS, groups, shapes):
        got = [a.shape for a in blocks]
        if got != list(want):
            raise DataError(f"{what} {name} shapes {got} do not match its config "
                            f"(expected {list(want)})")
    return cls(*groups)


def _dec_icnn_v1(d: dict) -> tuple[IcnnParams, IcnnConfig]:
    cfg = _icnn_cfg(d["cfg"])
    b = [_dec_v1(a) for a in d["b"]]
    # older documents also store the head bias, which training never moves
    if len(b) == len(cfg.hidden) + 1:
        if np.any(b.pop() != 0.0):
            raise DataError("bundle stores a nonzero ICNN head bias")
    groups = [[_dec_v1(a) for a in d["wx"]], [_dec_v1(a) for a in d["wz"]], b]
    return _params_v1(IcnnParams, groups, icnn_shapes(cfg), "ICNN"), cfg


def _dec_pair_v1(d: dict) -> DualPair:
    f = d["frame"]
    frame = Frame(sigma_mean=tuple(_dec_v1(f["sigma_mean"])),
                  mu_mean=tuple(_dec_v1(f["mu_mean"])),
                  scale=float(_dec_v1(f["scale"])[0]))
    return DualPair(*_dec_icnn_v1(d["psi"]), *_dec_icnn_v1(d["phi"]), frame,
                    dict(d["meta"]))


def _dec_weightnet_v1(d: dict, dim: int) -> WeightNet:
    mlp, hidden = d["mlp"], tuple(d["hidden"])
    groups = [[_dec_v1(a) for a in mlp["weights"]], [_dec_v1(a) for a in mlp["biases"]]]
    return WeightNet(_params_v1(MlpParams, groups, mlp_shapes((dim, *hidden, dim)),
                                "weight net"), hidden)


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


def load_bundle(path) -> ModelBundle:
    doc, data = read_document(path)
    try:
        version = doc.get("format_version")
        if version not in (1, FORMAT_VERSION):
            raise DataError(f"unsupported format version {version!r}")
        payload = _Payload(data)
        reference = decode_config(ReferenceMeasure,
                                  drop_fixed(doc["reference"], "reference"))
        pairs = {d["id"]: _dec_pair_v1(d) if version == 1 else _dec_pair(d, payload)
                 for d in doc["pairs"]}
        wn = None
        if doc.get("weightnet"):
            wn = (_dec_weightnet_v1(doc["weightnet"], reference.dim) if version == 1 else
                  _dec_weightnet(doc["weightnet"], payload, reference.dim))
        payload.finish()
        return ModelBundle(
            reference=reference,
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
    except LotnnError as e:
        raise DataError(f"bundle {path}: {e}") from e
    except (LookupError, TypeError, ValueError) as e:
        raise DataError(f"bundle {path} is malformed: {type(e).__name__}: {e}") from e
