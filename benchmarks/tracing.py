"""Timing spans around the public functions of lotnn's layers.

The traced run installs a wrapper on every function in LAYERS, at its
definition and at every name another lotnn module bound to it with
`from .x import y` (such as `classify.solver_step`). Each call records a
span: name, start, end and the index of the span that was open when it
started. Nothing inside `src/lotnn` changes; untraced runs install
nothing.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import time
from dataclasses import dataclass, field

# (module, qualified name) of every traced function; a dotted name is a
# method or classmethod on a class of that module.
LAYERS = (
    ("icnn", "icnn_cache"),
    ("icnn", "icnn_input_grad"),
    ("icnn", "icnn_backward"),
    ("icnn", "icnn_inputgrad_vjp"),
    ("icnn", "project_nonneg"),
    ("nncore", "adam_step"),
    ("nncore", "mlp_forward"),
    ("nncore", "mlp_backward"),
    ("otsolve", "solver_step"),
    ("otsolve", "train_map"),
    ("otsolve", "pair_for_cloud"),
    ("otsolve", "DualPair.map_forward"),
    ("otsolve", "exact_ot_discrete"),
    ("lot", "ReferenceMeasure.sample"),
    ("lot", "EmbeddingSet.build"),
    ("lot", "pairwise_matrix"),
    ("classify", "train_alternating"),
    ("classify", "score"),
    ("classify", "predict_resampled"),
    ("deepsets", "ds_train"),
    ("deepsets", "ds_forward"),
    ("deepsets", "ds_bagging"),
    ("bundle", "save_bundle"),
    ("bundle", "load_bundle"),
    ("data", "gen_synthetic"),
    ("data", "save_csv_dir"),
    ("data", "load_csv_dir"),
)

LAYER_NAMES = tuple(f"{m}.{q}" for m, q in LAYERS)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 at the top level


@dataclass
class Tracer:
    """In-memory span recorder for one thread."""

    spans: list[Span] = field(default_factory=list)
    _open: list[int] = field(default_factory=list)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append(Span(name, 0.0, 0.0,
                                   self._open[-1] if self._open else -1))
            self._open.append(idx)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._open.pop()
                self.spans[idx].start = start
                self.spans[idx].end = end
        return traced

    def take(self) -> list[Span]:
        """Return the spans recorded so far and start a new list."""
        spans, self.spans = self.spans, []
        return spans


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for sp in spans:
        if sp.parent >= 0:
            children[sp.parent].append((sp.start, sp.end))
    return [(sp.end - sp.start) - _covered(kids)
            for sp, kids in zip(spans, children)]


def aggregate(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per name: calls, inclusive seconds and self seconds.

    Inclusive seconds count only the outermost span of a name, so a
    function that re-enters itself is not counted twice.
    """
    out: dict[str, dict[str, float]] = {}
    selfs = self_times(spans)
    for i, sp in enumerate(spans):
        row = out.setdefault(sp.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += selfs[i]
        p = sp.parent
        while p >= 0 and spans[p].name != sp.name:
            p = spans[p].parent
        if p < 0:
            row["s"] += sp.end - sp.start
    return out


def _lotnn_modules():
    import lotnn
    mods = [lotnn]
    for info in pkgutil.iter_modules(lotnn.__path__):
        mods.append(importlib.import_module(f"lotnn.{info.name}"))
    return mods


class installed:
    """Context manager that wraps every LAYERS function with tracer spans."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self) -> Tracer:
        mods = _lotnn_modules()
        for mod_name, qual in LAYERS:
            mod = importlib.import_module(f"lotnn.{mod_name}")
            name = f"{mod_name}.{qual}"
            if "." in qual:
                cls_name, attr = qual.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self.tracer.wrap(name, raw.__func__))
                else:
                    new = self.tracer.wrap(name, raw)
                self._set(cls, attr, new)
                continue
            orig = getattr(mod, qual)
            wrapped = self.tracer.wrap(name, orig)
            for m in mods:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        self._set(m, attr, wrapped)
        return self.tracer

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def __exit__(self, *exc) -> None:
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo.clear()
