"""Dense numeric building blocks.

Everything downstream (ICNN potentials, weight networks, the DeepSets
baseline) is built from the pieces here: a seeded RNG wrapper, one
vector per network's parameters, an Adam update of such a vector in
place, order-independent pooling, a binary cross-entropy loss, small
tanh MLPs with hand-written backward passes, and the central-difference
oracle used to cross-check every analytic gradient.
All arrays are float64; 32-bit cannot hold the gradient-check tolerances.
"""

from __future__ import annotations

import ctypes
import math
import os
import platform
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.special import expit

from .errors import NumericError, ShapeError

Array = np.ndarray


def as_f64(x) -> Array:
    return np.asarray(x, dtype=np.float64)


def set_heap_thresholds() -> bool:
    """Keep freed memory on glibc's heap for the next batch pass to reuse.

    One map evaluation at d=10 on 1000 points holds about 6.5 MB of
    temporaries. glibc's default thresholds move with the largest block
    freed so far, so whether free() hands those pages back to the kernel,
    for the next pass to fault in again, depends on where earlier
    allocations landed: pairwise_matrix over 10 such maps took 1.6-2x as
    long in some processes (about 17,000 minor faults) as in others.
    Returns False, setting nothing, off glibc or when the environment
    sets glibc's malloc tunables.
    """
    if platform.libc_ver()[0] != "glibc" or any(
            k in os.environ for k in ("MALLOC_TRIM_THRESHOLD_", "MALLOC_MMAP_THRESHOLD_",
                                      "GLIBC_TUNABLES")):
        return False
    mallopt = ctypes.CDLL(None).mallopt
    # M_MMAP_THRESHOLD (-3) to 16 MiB, M_TRIM_THRESHOLD (-1) to 64 MiB;
    # setting either stops glibc from moving both
    return bool(mallopt(-3, 16 << 20) and mallopt(-1, 64 << 20))


def check_finite(name: str, *arrays: Array) -> None:
    """Raise NumericError if any entry of any array is NaN/Inf."""
    for a in arrays:
        if not np.all(np.isfinite(a)):
            raise NumericError(f"non-finite values in {name}")


class Rng:
    """Seeded PCG64 stream; same seed gives the same stream on every run.

    A stream is single-owner: never share one instance across workers.
    Use spawn() to derive independent child streams deterministically.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def normal(self, shape, scale: float = 1.0) -> Array:
        return scale * self._gen.standard_normal(shape)

    def uniform(self, shape, low: float = 0.0, high: float = 1.0) -> Array:
        return self._gen.uniform(low, high, shape)

    def integers(self, low: int, high: int, size=None):
        return self._gen.integers(low, high, size=size)

    def permutation(self, n: int) -> Array:
        return self._gen.permutation(n)

    def choice(self, n: int, size: int, replace: bool = False) -> Array:
        return self._gen.choice(n, size=size, replace=replace)

    def spawn(self, key: int) -> "Rng":
        """Deterministic child stream; distinct keys give distinct streams."""
        child = np.random.SeedSequence([self.seed, int(key)]).generate_state(1)[0]
        return Rng(int(child))


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

# Kingma and Ba's (2014) standard values; the paper names no optimizer
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class OptimState:
    """Adam accumulators over one parameter vector, and its step size.

    adam_step creates m and v, then updates them in place.
    """

    lr: float = 1e-3
    step: int = 0
    m: Array | None = None
    v: Array | None = None

    def __post_init__(self):
        if self.lr <= 0:
            raise ValueError("step size must be > 0")


def adam_step(grads: Array, state: OptimState) -> Array:
    """One bias-corrected Adam step; advances state in place.

    Updates state.m, state.v and state.step in place and returns the
    step, which the caller subtracts from its parameter vector in place.
    Raises on non-finite gradients or a shape other than the state's,
    before anything changes.
    """
    if state.m is not None and grads.shape != state.m.shape:
        raise ShapeError(f"grad shape {grads.shape} != state shape {state.m.shape}")
    if not np.all(np.isfinite(grads)):
        raise NumericError("non-finite gradient")
    if state.m is None:
        state.m, state.v = np.zeros_like(grads), np.zeros_like(grads)
    state.step += 1
    # m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g^2 and
    # lr m_hat / (sqrt(v_hat) + eps) with the operations of those
    # expressions in their order, so the result is bitwise theirs
    tmp = np.multiply(1.0 - ADAM_BETA1, grads)
    state.m *= ADAM_BETA1
    state.m += tmp
    np.multiply(grads, grads, out=tmp)
    tmp *= 1.0 - ADAM_BETA2
    state.v *= ADAM_BETA2
    state.v += tmp
    np.divide(state.v, 1.0 - ADAM_BETA2**state.step, out=tmp)
    np.sqrt(tmp, out=tmp)
    tmp += ADAM_EPS
    step = np.divide(state.m, 1.0 - ADAM_BETA1**state.step)
    step *= state.lr
    step /= tmp
    return step


# ---------------------------------------------------------------------------
# Pooling and loss shared by the classifier and the DeepSets baseline
# ---------------------------------------------------------------------------

def sorted_mean(values: Array) -> Array:
    """Mean over axis 0, each column summed in sorted order.

    Summing sorted addends makes the result bitwise independent of the
    row order, not just equal up to rounding.
    """
    return np.sort(values, axis=0).sum(axis=0) / values.shape[0]


def bce(logits: Array, y: Array) -> tuple[float, Array]:
    """Mean binary cross-entropy from logits and its gradient in the logits."""
    loss = float(np.mean(np.maximum(logits, 0.0) - logits * y
                         + np.log1p(np.exp(-np.abs(logits)))))
    return loss, (expit(logits) - y) / y.size


# ---------------------------------------------------------------------------
# Finite differences (test oracle -- keep independent of the analytic paths)
# ---------------------------------------------------------------------------

def finite_diff_grad(f: Callable[[Array], float], x: Array, h: float = 1e-5) -> Array:
    """Central-difference gradient of a scalar function at x."""
    if h <= 0:
        raise ValueError("h must be > 0")
    x = as_f64(x)
    g = np.zeros_like(x)
    flat = x.ravel()
    gf = g.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise NumericError("non-finite function value in finite_diff_grad")
        gf[i] = (fp - fm) / (2.0 * h)
    return g


# ---------------------------------------------------------------------------
# Parameter layout: one float64 vector per network
# ---------------------------------------------------------------------------

class FlatParams:
    """Parameter blocks held as reshaped views into one float64 vector.

    A subclass names its groups of blocks in GROUPS, the constructor's
    arguments. Each group is a list of views, laid out group after group
    in `theta`, so it fills one contiguous span(). Adam, copies and
    gradient sums work on `theta`; writing through a view changes it.
    """

    GROUPS: tuple[str, ...] = ()

    def __init__(self, *groups: Sequence[Array]):
        arrays = [[as_f64(a) for a in g] for g in groups]
        self._bind(np.concatenate([a.ravel() for g in arrays for a in g]),
                   tuple(tuple(a.shape for a in g) for g in arrays))

    def _bind(self, theta: Array, shapes: tuple) -> None:
        self.theta, self._shapes, self._spans = theta, shapes, {}
        off = 0
        for name, group in zip(self.GROUPS, shapes):
            start, views = off, []
            for shape in group:
                views.append(theta[off:off + math.prod(shape)].reshape(shape))
                off += math.prod(shape)
            setattr(self, name, views)
            self._spans[name] = slice(start, off)
        if off != theta.size:
            raise ShapeError(f"parameter vector has {theta.size} entries, layout {off}")

    def with_theta(self, theta: Array):
        """The same layout over another vector, sharing its memory."""
        new = object.__new__(type(self))
        new._bind(theta, self._shapes)
        return new

    def span(self, group: str) -> slice:
        """The slice of theta that holds one group of blocks."""
        return self._spans[group]

    def copy(self):
        return self.with_theta(self.theta.copy())


# ---------------------------------------------------------------------------
# Plain MLP (tanh hidden layers, linear head)
# ---------------------------------------------------------------------------

class MlpParams(FlatParams):
    """Weights/biases of a fully-connected net; weights[k] is (out, in)."""

    GROUPS = ("weights", "biases")

    @property
    def in_dim(self) -> int:
        return self.weights[0].shape[1]

    @property
    def out_dim(self) -> int:
        return self.weights[-1].shape[0]


def mlp_shapes(widths: Sequence[int]) -> tuple:
    """Block shapes of the weights and biases groups of an MLP."""
    return (tuple((w, v) for v, w in zip(widths, widths[1:])),
            tuple((w,) for w in widths[1:]))


def check_widths(widths: Sequence[int]) -> None:
    """Raise ValueError unless widths (in, h1, ..., out) are all >= 1."""
    if len(widths) < 2 or any(w < 1 for w in widths):
        raise ValueError(f"invalid widths {tuple(widths)}")


def mlp_init(widths: Sequence[int], rng: Rng, scale: float = 1.0) -> MlpParams:
    """Initialize an MLP for the layer widths (in, h1, ..., out)."""
    check_widths(widths)
    w_shapes, b_shapes = mlp_shapes(widths)
    return MlpParams([rng.normal(s, scale=scale / np.sqrt(s[1])) for s in w_shapes],
                     [np.zeros(s) for s in b_shapes])


def mlp_forward(p: MlpParams, x: Array) -> tuple[Array, list[Array]]:
    """Batched forward pass; returns (output (n,out), per-layer inputs cache)."""
    x = np.atleast_2d(as_f64(x))
    if x.shape[1] != p.in_dim:
        raise ShapeError(f"MLP expects dim {p.in_dim}, got {x.shape[1]}")
    cache = [x]
    h = x
    last = len(p.weights) - 1
    for k, (W, b) in enumerate(zip(p.weights, p.biases)):
        h = h @ W.T
        h += b
        if k < last:
            np.tanh(h, out=h)
        cache.append(h)
    return h, cache


def mlp_apply(p: MlpParams, x: Array) -> Array:
    out, _ = mlp_forward(p, x)
    return out


def mlp_backward(p: MlpParams, cache: list[Array],
                 upstream: Array) -> tuple[Array, Array]:
    """Reverse pass for sum_b <upstream_b, out_b>.

    upstream is (n, out_dim). Returns the parameter gradient as a vector
    in p's layout and the gradient with respect to the input batch
    (n, in_dim).
    """
    g = p.with_theta(np.empty_like(p.theta))
    delta = np.atleast_2d(as_f64(upstream))
    last = len(p.weights) - 1
    for k in range(last, -1, -1):
        # cache[k] is the input to layer k; cache[k+1] its (activated) output
        if k < last:  # delta * tanh' = delta * (1 - out^2), in place
            t = np.square(cache[k + 1])
            np.subtract(1.0, t, out=t)
            t *= delta
            delta = t
        g.weights[k][...] = delta.T @ cache[k]
        g.biases[k][...] = delta.sum(axis=0)
        delta = delta @ p.weights[k]
    return g.theta, delta
