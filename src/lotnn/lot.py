"""Transport-map embedding over a shared reference measure.

A set of clouds is embedded by training one DualPair per cloud against
one fixed reference measure sigma; the pairwise distance between two
clouds is then the root-mean-square displacement between their gradient
maps evaluated on a common sigma-sample. On shift/scaling families this
reproduces the exact Wasserstein-2 distance up to training and sampling
error, and the deviation-bound calculator quantifies that error budget.

maps_on evaluates many clouds' maps on one sample with one thread per
usable CPU, so `lotnn dist` (pairwise_matrix) and `lotnn train` (the
classifier phases of train_alternating) use all the CPUs the process
may run on. The pool is nncore.on_cpus, which classify.predict_resampled
and the DeepSets baseline share; the maps themselves are fitted in
worker processes (otsolve.fit_pairs). Results do not depend on the CPU
count: each map is computed whole by one thread, bit for bit as
map_forward computes it. BLAS threads are a separate setting, made
through OPENBLAS_NUM_THREADS (or the variable of whichever BLAS numpy
loads) before numpy starts. With more than one, the pools start no
thread or process, since BLAS then takes the CPUs itself, and results
are bitwise reproducible only at the same BLAS thread count: OpenBLAS
splits a matrix product's rows over its threads, which changes the
rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.spatial.distance import pdist, squareform

from .errors import DataError, ShapeError
from .nncore import Array, as_f64, on_cpus
from .otsolve import DualPair


@dataclass(frozen=True)
class ReferenceMeasure:
    """Sampleable reference distribution sigma.

    A Gaussian with the given mean and per-coordinate variance; fitted()
    matches them to the data, and every run trains against it. kind is
    always "fitted", which bundles store. Sampling is reproducible: the
    draw is fully determined by the seed passed to sample(), defaulting
    to the measure's own base seed.
    """

    kind: str
    dim: int
    mean: tuple[float, ...]
    var: tuple[float, ...]
    seed: int = 0

    def __post_init__(self):
        if self.kind != "fitted":
            raise ValueError(f"unknown reference kind {self.kind!r}")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if len(self.mean) != self.dim or len(self.var) != self.dim:
            raise ShapeError("fitted reference needs mean/var of length dim")
        if any(v <= 0 for v in self.var):
            raise ValueError("variances must be > 0")

    @classmethod
    def fitted(cls, clouds, seed: int = 0) -> "ReferenceMeasure":
        """Gaussian matched to the pooled mean/diagonal variance of clouds."""
        pts = np.vstack([c.points for c in clouds])
        mean = pts.mean(axis=0)
        var = pts.var(axis=0)
        if np.any(var <= 0):
            raise DataError("pooled data has a zero-variance coordinate")
        return cls(kind="fitted", dim=pts.shape[1],
                   mean=tuple(float(m) for m in mean),
                   var=tuple(float(v) for v in var), seed=seed)

    def sample(self, n: int, seed: int | None = None) -> Array:
        if n < 1:
            raise ValueError("sample size must be >= 1")
        gen = np.random.Generator(np.random.PCG64(self.seed if seed is None else seed))
        z = gen.standard_normal((n, self.dim))
        return np.asarray(self.mean) + np.sqrt(np.asarray(self.var)) * z

    def mean_vector(self) -> Array:
        return np.asarray(self.mean, dtype=np.float64)

    def scale_scalar(self) -> float:
        """RMS per-coordinate spread; the solver's standardization scale."""
        return float(np.sqrt(np.mean(self.var)))

    def std_vector(self) -> Array:
        return np.sqrt(np.asarray(self.var, dtype=np.float64))


@dataclass
class EmbeddingSet:
    """Trained maps for a cloud collection plus the shared evaluation sample."""

    reference: ReferenceMeasure
    ids: list[str]
    pairs: dict[str, DualPair]
    eval_sample: Array
    eval_seed: int
    meta: dict = field(default_factory=dict)

    @classmethod
    def build(cls, reference: ReferenceMeasure, ids, pairs: dict[str, DualPair],
              eval_n: int = 1000, eval_seed: int = 0, meta: dict | None = None):
        ids = list(ids)
        if any(pairs[i].dim != reference.dim for i in ids):
            raise ShapeError("pair dims disagree with reference dim")
        sample = reference.sample(eval_n, seed=eval_seed)
        return cls(reference, ids, pairs, sample, eval_seed, meta or {})

    @property
    def eval_n(self) -> int:
        return self.eval_sample.shape[0]


def lot_distance_empirical(pair_i: DualPair, pair_j: DualPair, sample: Array) -> float:
    """RMS displacement between two gradient maps on a fixed sample.

    This is the workhorse distance: a pseudometric over pairs for any
    fixed sample (exact symmetry and zero self-distance).
    """
    S = np.atleast_2d(as_f64(sample))
    if S.size == 0:
        raise ShapeError("empty sample")
    Gi = pair_i.map_forward(S)
    Gj = pair_j.map_forward(S)
    return float(np.sqrt(np.mean(np.sum((Gi - Gj) ** 2, axis=1))))


def maps_on(pairs: Sequence[DualPair], sample: Array) -> Array:
    """Every pair's gradient map on one sample, as an (N, n, d) array.

    Row k is bitwise pairs[k].map_forward(sample) whatever the CPU
    count: nncore.on_cpus shares the pairs out over the usable CPUs, and
    each thread runs DualPair._map, which calls no traced function. If
    maps fail, the first failing pair's error is raised.
    """
    S = np.atleast_2d(as_f64(sample))
    if S.size == 0:
        raise ShapeError("empty sample")
    out = np.empty((len(pairs), *S.shape))
    on_cpus(lambda k: pairs[k]._map(S, out=out[k]), len(pairs))
    return out


def pairwise_matrix(emb: EmbeddingSet) -> Array:
    """Symmetric zero-diagonal matrix of distances on the shared sample.

    Gradient maps are evaluated once per cloud. The RMS displacement
    between two maps is the Euclidean distance between their flattened
    values over sqrt(eval_n), so the whole matrix is one pdist call.
    """
    if not emb.ids:
        raise ShapeError("empty embedding set")
    maps = maps_on([emb.pairs[i] for i in emb.ids], emb.eval_sample)
    return squareform(pdist(maps.reshape(len(emb.ids), -1))) / math.sqrt(emb.eval_n)


@dataclass(frozen=True)
class BoundParams:
    """Inputs to the high-probability deviation bound.

    beta: Lipschitz constant of the true transport map; eps: potential
    approximation level; R: norm bound on the transform family;
    n: reference-sample size; delta: failure probability.
    beta and eps are user-supplied diagnostics (eps is unobservable),
    so the bound is printed alongside measured distances, never asserted.
    """

    beta: float
    eps: float
    R: float
    n: int
    delta: float

    def __post_init__(self):
        if min(self.beta, self.eps, self.R) <= 0 or self.n <= 0:
            raise ValueError("beta, eps, R, n must be > 0")
        if not (0.0 < self.delta < 1.0):
            raise ValueError("delta must be in (0, 1)")


def theorem_bound(p: BoundParams) -> float:
    """8*beta*eps + ((4*beta*eps + R)^2 / R) * sqrt(log(2/delta) / (2n))."""
    approx = 8.0 * p.beta * p.eps
    sampling = ((4.0 * p.beta * p.eps + p.R) ** 2 / p.R) * math.sqrt(
        math.log(2.0 / p.delta) / (2.0 * p.n))
    return approx + sampling
