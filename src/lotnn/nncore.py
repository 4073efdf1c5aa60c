"""Dense numeric building blocks.

Everything downstream (ICNN potentials, weight networks, the DeepSets
baseline) is built from the pieces here: a seeded RNG wrapper, an Adam
update, order-independent pooling, a binary cross-entropy loss, small
tanh MLPs with hand-written backward passes, and the central-difference
oracle used to cross-check every analytic gradient.
All arrays are float64; 32-bit cannot hold the gradient-check tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.special import expit

from .errors import NumericError, ShapeError

Array = np.ndarray


def as_f64(x) -> Array:
    return np.asarray(x, dtype=np.float64)


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

@dataclass
class OptimState:
    """Per-parameter Adam accumulators plus hyperparameters.

    The paper behind this artifact names no optimizer; the de-facto
    standard defaults (1e-3, 0.9/0.999, 1e-8) are used and echoed into
    run reports.
    """

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict[str, Array] = field(default_factory=dict)
    v: dict[str, Array] = field(default_factory=dict)


def adam_step(
    params: dict[str, Array],
    grads: dict[str, Array],
    state: OptimState,
) -> tuple[dict[str, Array], OptimState]:
    """One bias-corrected Adam update; functional, deterministic.

    Returns fresh parameter arrays and a fresh state; inputs are not
    mutated. Raises on non-finite gradients or shape mismatch.
    """
    if state.lr <= 0:
        raise ValueError("step size must be > 0")
    t = state.step + 1
    new_m: dict[str, Array] = {}
    new_v: dict[str, Array] = {}
    new_p: dict[str, Array] = {}
    bc1 = 1.0 - state.beta1**t
    bc2 = 1.0 - state.beta2**t
    for k, p in params.items():
        g = grads[k]
        if g.shape != p.shape:
            raise ShapeError(f"grad shape {g.shape} != param shape {p.shape} for {k}")
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient for parameter {k}")
        m = state.m.get(k, np.zeros_like(p))
        v = state.v.get(k, np.zeros_like(p))
        m = state.beta1 * m + (1.0 - state.beta1) * g
        v = state.beta2 * v + (1.0 - state.beta2) * (g * g)
        m_hat = m / bc1
        v_hat = v / bc2
        new_p[k] = p - state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
        new_m[k] = m
        new_v[k] = v
    new_state = OptimState(
        lr=state.lr, beta1=state.beta1, beta2=state.beta2, eps=state.eps,
        step=t, m=new_m, v=new_v,
    )
    return new_p, new_state


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
# Plain MLP (tanh hidden layers, linear head)
# ---------------------------------------------------------------------------

@dataclass
class MlpParams:
    """Weights/biases of a fully-connected net; weights[k] is (out, in)."""

    weights: list[Array]
    biases: list[Array]

    @property
    def in_dim(self) -> int:
        return self.weights[0].shape[1]

    @property
    def out_dim(self) -> int:
        return self.weights[-1].shape[0]

    def to_flat(self, prefix: str = "") -> dict[str, Array]:
        out: dict[str, Array] = {}
        for k, (W, b) in enumerate(zip(self.weights, self.biases)):
            out[f"{prefix}w{k}"] = W
            out[f"{prefix}b{k}"] = b
        return out

    def from_flat(self, flat: dict[str, Array], prefix: str = "") -> "MlpParams":
        ws = [flat[f"{prefix}w{k}"] for k in range(len(self.weights))]
        bs = [flat[f"{prefix}b{k}"] for k in range(len(self.biases))]
        return MlpParams(ws, bs)

    def copy(self) -> "MlpParams":
        return MlpParams([W.copy() for W in self.weights],
                         [b.copy() for b in self.biases])


def mlp_init(widths: Sequence[int], rng: Rng, scale: float = 1.0) -> MlpParams:
    """Initialize an MLP for the layer widths (in, h1, ..., out)."""
    if len(widths) < 2 or any(w < 1 for w in widths):
        raise ValueError(f"invalid widths {widths}")
    ws, bs = [], []
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        ws.append(rng.normal((fan_out, fan_in), scale=scale / np.sqrt(fan_in)))
        bs.append(np.zeros(fan_out))
    return MlpParams(ws, bs)


def mlp_forward(p: MlpParams, x: Array) -> tuple[Array, list[Array]]:
    """Batched forward pass; returns (output (n,out), per-layer inputs cache)."""
    x = np.atleast_2d(as_f64(x))
    if x.shape[1] != p.in_dim:
        raise ShapeError(f"MLP expects dim {p.in_dim}, got {x.shape[1]}")
    cache = [x]
    h = x
    last = len(p.weights) - 1
    for k, (W, b) in enumerate(zip(p.weights, p.biases)):
        h = h @ W.T + b
        if k < last:
            h = np.tanh(h)
        cache.append(h)
    return h, cache


def mlp_apply(p: MlpParams, x: Array) -> Array:
    out, _ = mlp_forward(p, x)
    return out


def mlp_backward(
    p: MlpParams, cache: list[Array], upstream: Array, prefix: str = ""
) -> tuple[dict[str, Array], Array]:
    """Reverse pass for sum_b <upstream_b, out_b>.

    upstream is (n, out_dim). Returns param grads keyed like to_flat()
    and the gradient with respect to the input batch (n, in_dim).
    """
    grads: dict[str, Array] = {}
    delta = np.atleast_2d(as_f64(upstream))
    last = len(p.weights) - 1
    for k in range(last, -1, -1):
        # cache[k] is the input to layer k; cache[k+1] its (activated) output
        if k < last:
            delta = delta * (1.0 - cache[k + 1] ** 2)  # tanh'
        grads[f"{prefix}w{k}"] = delta.T @ cache[k]
        grads[f"{prefix}b{k}"] = delta.sum(axis=0)
        delta = delta @ p.weights[k]
    return grads, delta
