"""Point-cloud data model, synthetic generators, CSV ingestion, splits.

A cloud is an ordered array of d-dimensional points treated everywhere
as an unordered empirical measure. Synthetic datasets draw each cloud
from its class's base cloud by one map x -> c x + a, the shift and
scaling family on which the embedding is provably isometric.

CSV layout (the only ingestion format): one `cloud_<id>.csv` per cloud,
comma-separated decimal floats, optional single header line `#dim=<d>`,
plus `labels.csv` with header `id,label`, binary labels and each id once.

Row rules of a cloud file, applied to each line stripped of whitespace
(lines end at `\\n`, `\\r\\n` or a bare `\\r`):
- skipped and not counted: blank lines and lines starting with `#`.
  Only the first line can declare `#dim=<d>`, and a `d` that is not an
  integer is a `DataError`;
- dropped and counted in `meta["dropped_rows"]`: a row with a field
  `float` cannot parse (an empty field included), with a non-finite
  value, or, under a `#dim=<d>` header, with other than d fields;
- without a header the modal width wins: rows of any other field count
  are dropped and counted too; among tied widths the one seen first in
  the file wins.
A file left with no row is a `DataError`.

A clean file (no row to drop, and no line to skip after the first but
empty ones) is read by `np.loadtxt`, any other file row by row; both
paths give the same points.
"""

from __future__ import annotations

import csv
import math
import warnings
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataError
from .nncore import Array, Rng, as_f64, check_finite


@dataclass
class PointCloud:
    id: str
    points: Array
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.points = np.atleast_2d(as_f64(self.points))
        if self.points.size == 0:
            raise DataError(f"cloud {self.id!r} is empty")
        check_finite(f"cloud {self.id!r}", self.points)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


@dataclass
class LabeledDataset:
    """Clouds plus binary labels aligned by cloud id."""

    clouds: list[PointCloud]
    labels: dict[str, int]

    def __post_init__(self):
        ids = [c.id for c in self.clouds]
        if len(set(ids)) != len(ids):
            raise DataError("duplicate cloud ids")
        if set(ids) != set(self.labels):
            raise DataError("clouds and labels are not aligned by id")
        if any(y not in (0, 1) for y in self.labels.values()):
            raise DataError("labels must be 0 or 1")
        dims = {c.dim for c in self.clouds}
        if len(dims) > 1:
            raise DataError(f"inconsistent cloud dims {sorted(dims)}")

    @property
    def dim(self) -> int:
        return self.clouds[0].dim

    @property
    def ids(self) -> list[str]:
        return [c.id for c in self.clouds]

    def cloud(self, cid: str) -> PointCloud:
        for c in self.clouds:
            if c.id == cid:
                return c
        raise KeyError(cid)

    def subset(self, ids) -> "LabeledDataset":
        keep = set(ids)
        return LabeledDataset([c for c in self.clouds if c.id in keep],
                              {i: y for i, y in self.labels.items() if i in keep})

    def class_ids(self, label: int) -> list[str]:
        return [c.id for c in self.clouds if self.labels[c.id] == label]


# ---------------------------------------------------------------------------
# Synthetic generator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SyntheticSpec:
    """Two-class generator: each cloud is its class's base cloud under
    x -> c x + a.

    base: "gaussian", "mixture" (two lobes) or "ring". Class centers sit
    at +-separation/2 along the first axis. shift_bound is the radius R
    limiting ||a||; scale_jitter draws c in [1-j, 1+j], and c = 1 when
    it is 0. Setting both to zero reproduces the base clouds verbatim.
    """

    dim: int = 2
    base: str = "gaussian"
    base_scale: float = 0.5
    separation: float = 4.0
    shift_bound: float = 1.0
    scale_jitter: float = 0.0

    def __post_init__(self):
        if self.dim < 1:
            raise DataError("dim must be >= 1")
        if self.base not in ("gaussian", "mixture", "ring"):
            raise DataError(f"unknown base kind {self.base!r}")
        if self.base_scale <= 0 or self.shift_bound < 0:
            raise DataError("base_scale must be > 0 and shift_bound >= 0")
        if not (0.0 <= self.scale_jitter < 1.0):
            raise DataError("scale_jitter must be in [0, 1)")


def _base_points(spec: SyntheticSpec, center: Array, n: int, rng: Rng) -> Array:
    z = rng.normal((n, spec.dim))
    if spec.base == "gaussian":
        return center + spec.base_scale * z
    if spec.base == "mixture":
        lobe = np.zeros((n, spec.dim))
        lobe[:, 0] = np.where(rng.uniform(n) < 0.5, -1.0, 1.0) * spec.base_scale
        return center + lobe + 0.5 * spec.base_scale * z
    # ring: fixed radius plus radial noise
    theta = rng.uniform(n, 0.0, 2.0 * np.pi)
    ring = np.zeros((n, spec.dim))
    ring[:, 0] = np.cos(theta)
    ring[:, 1 % spec.dim] = np.sin(theta)
    return center + spec.base_scale * (2.0 * ring + 0.2 * z)


def _random_transform(spec: SyntheticSpec, rng: Rng) -> tuple[float, Array]:
    """(c, a) of one cloud's map x -> c x + a, with ||a|| <= shift_bound."""
    if spec.shift_bound > 0:
        direction = rng.normal((spec.dim,))
        direction /= max(np.linalg.norm(direction), 1e-12)
        radius = spec.shift_bound * rng.uniform(()) ** (1.0 / spec.dim)
        a = radius * direction
    else:
        a = np.zeros(spec.dim)
    c = 1.0
    if spec.scale_jitter > 0:
        c += float(rng.uniform((), -spec.scale_jitter, spec.scale_jitter))
    return c, a


def gen_synthetic(spec: SyntheticSpec, n_clouds_per_class: int, n_points: int,
                  seed: int) -> LabeledDataset:
    """Deterministic two-class dataset of transformed base clouds.

    Each cloud's meta records its "scale" c and "shift" a, so that its
    points are exactly c * base + a for its class's base cloud.
    """
    if n_clouds_per_class < 1 or n_points < 1:
        raise DataError("counts must be >= 1")
    rng = Rng(seed)
    clouds: list[PointCloud] = []
    labels: dict[str, int] = {}
    for label in (0, 1):
        center = np.zeros(spec.dim)
        center[0] = (label - 0.5) * spec.separation
        base = _base_points(spec, center, n_points, rng.spawn(100 + label))
        trng = rng.spawn(200 + label)
        for k in range(n_clouds_per_class):
            c, a = _random_transform(spec, trng)
            cid = f"c{label}_{k:03d}"
            meta = {"label": label, "scale": c, "shift": a.tolist()}
            clouds.append(PointCloud(cid, c * base + a, meta))
            labels[cid] = label
    return LabeledDataset(clouds, labels)


# ---------------------------------------------------------------------------
# CSV ingestion / export
# ---------------------------------------------------------------------------

def _declared_dim(line: str, path: Path) -> int | None:
    """d of a `#dim=<d>` header line, or None when the line is no such header."""
    line = line.strip()
    if not line.startswith("#dim="):
        return None
    try:
        return int(line[5:])
    except ValueError:
        raise DataError(f"{path}: bad header {line!r}, expected #dim=<integer>") from None


def _parse_clean(path: Path) -> Array | None:
    """Points of a clean file by np.loadtxt, else None (for `_parse_rows`).
    comments=None, so that a `#` after the first line fails as a field."""
    with open(path) as fh, warnings.catch_warnings():
        # a header-only file is left to _parse_rows, which reports it
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        first = fh.readline()
        width = _declared_dim(first, path)
        if not first.strip().startswith("#"):
            fh.seek(0)
        try:
            pts = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
        except ValueError:
            return None
    if pts.size == 0 or width not in (None, pts.shape[1]) or not np.isfinite(pts).all():
        return None
    return pts


def _parse_rows(path: Path) -> tuple[Array, int]:
    """Parse one cloud file row by row under the rules in the module
    docstring; returns (points, dropped-row count)."""
    rows: list[list[float]] = []
    dropped = 0
    dim: int | None = None
    with open(path, newline="") as fh:
        for line_no, line in enumerate(fh):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                if line_no == 0:
                    dim = _declared_dim(line, path)
                continue
            fields = line.split(",")
            try:
                vals = [float(f) for f in fields]
            except ValueError:
                dropped += 1
                continue
            if not all(map(math.isfinite, vals)):
                dropped += 1
                continue
            if dim is not None and len(vals) != dim:
                dropped += 1
                continue
            rows.append(vals)
    if not rows:
        raise DataError(f"no usable rows in {path}")
    widths = [len(r) for r in rows]
    if len(set(widths)) > 1:
        # no declared dim: rows shorter/longer than the modal width are
        # incomplete measurements and get dropped like non-numeric ones
        modal = Counter(widths).most_common(1)[0][0]
        dropped += sum(1 for w in widths if w != modal)
        rows = [r for r in rows if len(r) == modal]
    return np.array(rows, dtype=np.float64), dropped


def _parse_cloud_csv(path: Path) -> tuple[Array, int]:
    """Parse one cloud file; returns (points, dropped-row count)."""
    pts = _parse_clean(path)
    return (pts, 0) if pts is not None else _parse_rows(path)


def load_csv_dir(path, subsample_n: int, seed: int) -> LabeledDataset:
    """Load a cloud directory, dropping bad rows and subsampling per cloud.

    Each cloud keeps exactly min(subsample_n, usable rows) points,
    chosen without replacement, deterministically for a fixed seed.
    Undersized clouds are loaded whole and flagged in metadata.
    """
    root = Path(path)
    labels_file = root / "labels.csv"
    if not labels_file.exists():
        raise DataError(f"missing labels file {labels_file}")
    labels: dict[str, int] = {}
    with open(labels_file, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or [f.strip() for f in reader.fieldnames] != ["id", "label"]:
            raise DataError("labels.csv must have header 'id,label'")
        reader.fieldnames = ["id", "label"]  # the names without their spaces
        for row in reader:
            if row["id"] in labels:
                raise DataError(f"labels.csv repeats id {row['id']!r}")
            try:
                labels[row["id"]] = int(row["label"])
            except (TypeError, ValueError):
                raise DataError(f"bad label row {row!r}")
    if any(y not in (0, 1) for y in labels.values()):
        raise DataError("labels must be 0 or 1")

    files = sorted(root.glob("cloud_*.csv"))
    if not files:
        raise DataError(f"no cloud_*.csv files in {root}")
    rng = Rng(seed)
    clouds: list[PointCloud] = []
    dim: int | None = None
    for f in files:
        cid = f.stem[len("cloud_"):]
        if cid not in labels:
            raise DataError(f"cloud {cid!r} has no label")
        pts, dropped = _parse_cloud_csv(f)
        if dim is None:
            dim = pts.shape[1]
        elif pts.shape[1] != dim:
            raise DataError(
                f"{f} has dim {pts.shape[1]}, expected {dim} (all clouds must agree)")
        meta: dict = {"source": str(f), "dropped_rows": dropped}
        if pts.shape[0] > subsample_n:
            idx = np.sort(rng.spawn(hash_id(cid)).choice(pts.shape[0], subsample_n))
            pts = pts[idx]
        elif pts.shape[0] < subsample_n:
            meta["undersized"] = True
        clouds.append(PointCloud(cid, pts, meta))
    extra = set(labels) - {c.id for c in clouds}
    if extra:
        raise DataError(f"labels for missing clouds: {sorted(extra)}")
    return LabeledDataset(clouds, labels)


def hash_id(cid: str) -> int:
    """Stable 63-bit hash of a cloud id (process-independent)."""
    h = 1469598103934665603
    for ch in cid.encode():
        h = ((h ^ ch) * 1099511628211) & ((1 << 63) - 1)
    return h


def save_csv_dir(ds: LabeledDataset, path) -> None:
    """Export in the same layout load_csv_dir reads (round-trippable)."""
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    for c in ds.clouds:
        row = ",".join(["%r"] * c.dim) + "\n"
        with open(root / f"cloud_{c.id}.csv", "w", newline="") as fh:
            fh.write(f"#dim={c.dim}\n" + (row * c.n) % tuple(c.points.ravel().tolist()))
    with open(root / "labels.csv", "w", newline="") as fh:
        fh.write("id,label\n")
        for c in ds.clouds:
            fh.write(f"{c.id},{ds.labels[c.id]}\n")


# ---------------------------------------------------------------------------
# Split rule
# ---------------------------------------------------------------------------

def split(ds: LabeledDataset, seed: int) -> tuple[LabeledDataset, LabeledDataset, LabeledDataset]:
    """Deterministic train/val/test partition; val and test hold both classes.

    Train takes floor(P/2) of the P positives. It takes exactly twice as
    many negatives (a 2:1 ratio) where that leaves at least two
    negatives out of train, one for val and one for test; otherwise it
    splits each class in proportion and takes floor(N/2) of the N
    negatives. Of each class's remaining clouds, floor(10%) but at least
    one goes to validation and the rest to test. So each class needs at
    least three clouds.
    """
    pos = sorted(ds.class_ids(1))
    neg = sorted(ds.class_ids(0))
    if min(len(pos), len(neg)) < 3:
        raise DataError(f"each class needs at least 3 clouds for train, val and test; "
                        f"got {len(pos)} positives / {len(neg)} negatives")
    n_pos_train = len(pos) // 2
    n_neg_train = 2 * n_pos_train if len(neg) - 2 * n_pos_train >= 2 else len(neg) // 2
    rng = Rng(seed)
    pos = [pos[i] for i in rng.spawn(1).permutation(len(pos))]
    neg = [neg[i] for i in rng.spawn(2).permutation(len(neg))]
    train_ids = pos[:n_pos_train] + neg[:n_neg_train]
    rem_pos, rem_neg = pos[n_pos_train:], neg[n_neg_train:]
    n_pos_val = max(1, len(rem_pos) // 10)
    n_neg_val = max(1, len(rem_neg) // 10)
    val_ids = rem_pos[:n_pos_val] + rem_neg[:n_neg_val]
    test_ids = rem_pos[n_pos_val:] + rem_neg[n_neg_val:]
    return ds.subset(train_ids), ds.subset(val_ids), ds.subset(test_ids)
