"""Input-convex potential networks.

The potential is

    a_0 = Wx[0] x + b[0]
    a_i = Wx[i] x + Wz[i-1] s(a_{i-1}) + b[i],   i = 1..L-1
    h(x) = Wx[L] x + Wz[L-1] s(a_{L-1}) + b[L] + (q/2) ||x||^2

with every Wz entrywise nonnegative and s convex and non-decreasing, so
x -> h(x) is convex; with q > 0 it is q-strongly convex. The gradient
map x -> grad h(x) is the transport-map approximation used everywhere
else in the package.

Besides the forward pass this module provides three hand-written
differentiation passes, all specialized to this fixed architecture:

  icnn_input_grad     grad_x h(x)                   (reverse)
  icnn_backward       d/d(params, x) of u * h(x)    (reverse)
  icnn_inputgrad_vjp  d/d(params, x) of sum_b <v_b, grad_x h(x_b)>
                                                    (forward-over-reverse)

The last one is what makes training objectives that contain grad h
differentiable; it carries second derivatives of the activation.
Every pass is checked against central finite differences in the tests.

The passes share one activation cache per (params, input) batch; the
solver evaluates several quantities at the same points each step, so
callers on the hot path build the cache once via icnn_cache(). For the
smooth activation the cache computes one exp per layer, e = exp(-|k a|),
and builds the softplus s, its slope s' and its curvature s'' from it
(see IcnnCache).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .nncore import Array, Rng, as_f64, check_finite


@dataclass(frozen=True)
class IcnnConfig:
    """Architecture of one scalar potential.

    quad is the coefficient q of the (q/2)||x||^2 output skip; q > 0
    makes the potential q-strongly convex and bounds the gradient-map
    Jacobian below by q. It is a fixed config value, not trained.
    Default q = 1/(2*beta_hat) with beta_hat = 1.
    """

    dim: int
    hidden: tuple[int, ...] = (64, 64, 64)
    activation: str = "smooth_relu"  # or "relu"
    sharpness: float = 1.0
    quad: float = 0.5

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if len(self.hidden) < 1 or any(h < 1 for h in self.hidden):
            raise ValueError("hidden widths must all be >= 1")
        if self.activation not in ("smooth_relu", "relu"):
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.sharpness <= 0:
            raise ValueError("sharpness must be > 0")
        if self.quad < 0:
            raise ValueError("quad must be >= 0")


@dataclass
class IcnnParams:
    """Layer parameters; wz holds the nonnegativity-constrained matrices.

    wx[i] is (h_i, d) for i < L and (1, d) for the scalar head;
    wz[i-1] is (h_i, h_{i-1}) feeding layer i, wz[L-1] is (1, h_{L-1}).
    """

    wx: list[Array]
    wz: list[Array]
    b: list[Array]

    def to_flat(self, prefix: str = "") -> dict[str, Array]:
        out: dict[str, Array] = {}
        for k, a in enumerate(self.wx):
            out[f"{prefix}wx{k}"] = a
        for k, a in enumerate(self.wz):
            out[f"{prefix}wz{k}"] = a
        for k, a in enumerate(self.b):
            out[f"{prefix}b{k}"] = a
        return out

    def from_flat(self, flat: dict[str, Array], prefix: str = "") -> "IcnnParams":
        return IcnnParams(
            wx=[flat[f"{prefix}wx{k}"] for k in range(len(self.wx))],
            wz=[flat[f"{prefix}wz{k}"] for k in range(len(self.wz))],
            b=[flat[f"{prefix}b{k}"] for k in range(len(self.b))],
        )

    def copy(self) -> "IcnnParams":
        return IcnnParams([a.copy() for a in self.wx],
                          [a.copy() for a in self.wz],
                          [a.copy() for a in self.b])


def init_icnn(cfg: IcnnConfig, rng: Rng, scale: float = 0.1) -> IcnnParams:
    """Small centered init, 1/sqrt(fan-in) scaled; wz entries nonnegative.

    With small weights the gradient map starts near x -> q x.
    """
    widths = list(cfg.hidden) + [1]
    wx, wz, b = [], [], []
    for i, w in enumerate(widths):
        wx.append(rng.normal((w, cfg.dim), scale=scale / np.sqrt(cfg.dim)))
        if i > 0:
            fan = widths[i - 1]
            wz.append(np.abs(rng.normal((w, fan), scale=scale / np.sqrt(fan))))
        b.append(np.zeros(w))
    return IcnnParams(wx, wz, b)


def project_nonneg(params: IcnnParams) -> IcnnParams:
    """Clamp every pass-through weight at zero; other params untouched.

    Idempotent; this is what keeps the potential convex after each
    optimizer step.
    """
    return IcnnParams(params.wx, [np.maximum(a, 0.0) for a in params.wz], params.b)


class IcnnCache:
    """Forward pass plus the activation s and its derivatives per layer.

    z[i] = s(a_i), sd[i] = s'(a_i) and sdd[i] = s''(a_i) for the hidden
    pre-activations a_i of the input batch. For the smooth activation
    s(a) = log(1 + exp(k a)) / k each layer computes e = exp(-|k a|)
    once and builds all three from it:

        s   = (max(k a, 0) + log1p(e)) / k
        s'  = 1/(1 + e) where k a >= 0, else e/(1 + e)
        s'' = k e / (1 + e)^2

    None of these overflows for any finite a, and s'' keeps full
    relative precision where s' is close to 1 (k s' (1 - s') does not).
    s'' is formed on first use from the kept e and 1/(1 + e), since the
    forward value and the input gradient never read it.

    Valid only for the exact (params, cfg, input batch) it was built
    from; the training loop rebuilds it after every parameter update.
    """

    __slots__ = ("x", "out", "z", "sd", "_cfg", "_er", "_sdd")

    def __init__(self, params: IcnnParams, cfg: IcnnConfig, x2: Array):
        L = len(cfg.hidden)
        self._cfg = cfg
        self.x = x2
        self.z: list[Array] = []
        self.sd: list[Array] = []
        self._er: list[tuple[Array, Array]] = []
        self._sdd: list[Array] | None = None
        a = x2 @ params.wx[0].T + params.b[0]
        for i in range(1, L + 1):  # layer L is the scalar head
            self._activate(a)
            a = x2 @ params.wx[i].T + self.z[-1] @ params.wz[i - 1].T + params.b[i]
        self.out = a[:, 0] + 0.5 * cfg.quad * np.sum(x2 * x2, axis=1)

    def _activate(self, a: Array) -> None:
        if self._cfg.activation == "relu":
            self.z.append(np.maximum(a, 0.0))
            self.sd.append((a > 0.0).astype(np.float64))
            return
        k = self._cfg.sharpness
        t = k * a
        e = np.exp(-np.abs(t))
        r = 1.0 / (1.0 + e)
        self.z.append((np.maximum(t, 0.0) + np.log1p(e)) / k)
        self.sd.append(np.where(t >= 0.0, r, e * r))
        self._er.append((e, r))

    @property
    def sdd(self) -> list[Array]:
        """Second derivative s''(a_i) per layer; zero a.e. for relu."""
        if self._sdd is None:
            if self._cfg.activation == "relu":
                self._sdd = [np.zeros_like(s) for s in self.sd]
            else:
                k = self._cfg.sharpness
                self._sdd = [k * e * r * r for e, r in self._er]
        return self._sdd


def _check_input(cfg: IcnnConfig, x: Array) -> Array:
    x2 = np.atleast_2d(as_f64(x))
    if x2.shape[1] != cfg.dim:
        raise ShapeError(f"ICNN expects dim {cfg.dim}, got {x2.shape[1]}")
    return x2


def icnn_cache(params: IcnnParams, cfg: IcnnConfig, x: Array) -> IcnnCache:
    return IcnnCache(params, cfg, _check_input(cfg, x))


def icnn_forward(params: IcnnParams, cfg: IcnnConfig, x: Array):
    """Potential value h(x); scalar for a single vector, (n,) for a batch."""
    single = np.asarray(x).ndim == 1
    out = icnn_cache(params, cfg, x).out
    check_finite("icnn_forward output", out)
    return float(out[0]) if single else out


def _input_grad(params: IcnnParams, cfg: IcnnConfig, c: IcnnCache) -> Array:
    L = len(cfg.hidden)
    g = cfg.quad * c.x + params.wx[L]  # head row broadcasts over the batch
    delta = c.sd[L - 1] * params.wz[L - 1]
    g = g + delta @ params.wx[L - 1]
    for i in range(L - 2, -1, -1):
        delta = c.sd[i] * (delta @ params.wz[i])
        g = g + delta @ params.wx[i]
    return g


def icnn_input_grad(params: IcnnParams, cfg: IcnnConfig, x: Array,
                    cache: IcnnCache | None = None) -> Array:
    """Gradient map grad_x h(x); the transport-map approximation.

    With relu activation this is a subgradient at kinks.
    """
    single = np.asarray(x).ndim == 1
    c = cache if cache is not None else icnn_cache(params, cfg, x)
    g = _input_grad(params, cfg, c)
    check_finite("icnn_input_grad output", g)
    return g[0] if single else g


def icnn_backward(
    params: IcnnParams,
    cfg: IcnnConfig,
    x: Array,
    upstream,
    prefix: str = "",
    cache: IcnnCache | None = None,
) -> tuple[dict[str, Array], Array]:
    """Reverse pass for sum_b upstream_b * h(x_b).

    upstream is a scalar or (n,). Returns parameter grads keyed like
    to_flat() and the input gradient (n, d).
    """
    c = cache if cache is not None else icnn_cache(params, cfg, x)
    x2 = c.x
    n = x2.shape[0]
    u = np.broadcast_to(np.asarray(upstream, dtype=np.float64).reshape(-1), (n,))
    L = len(cfg.hidden)
    grads: dict[str, Array] = {}
    uc = u[:, None]

    grads[f"{prefix}wx{L}"] = uc.T @ x2
    grads[f"{prefix}wz{L - 1}"] = uc.T @ c.z[L - 1]
    grads[f"{prefix}b{L}"] = np.array([u.sum()])
    xg = uc * (cfg.quad * x2 + params.wx[L])

    delta = (uc * params.wz[L - 1]) * c.sd[L - 1]
    for i in range(L - 1, -1, -1):
        grads[f"{prefix}wx{i}"] = delta.T @ x2
        grads[f"{prefix}b{i}"] = delta.sum(axis=0)
        if i > 0:
            grads[f"{prefix}wz{i - 1}"] = delta.T @ c.z[i - 1]
        xg = xg + delta @ params.wx[i]
        if i > 0:
            delta = (delta @ params.wz[i - 1]) * c.sd[i - 1]
    return grads, xg


def icnn_inputgrad_vjp(
    params: IcnnParams,
    cfg: IcnnConfig,
    x: Array,
    v: Array,
    prefix: str = "",
    cache: IcnnCache | None = None,
) -> tuple[dict[str, Array], Array]:
    """Gradients of S = sum_b <v_b, grad_x h(x_b)> w.r.t. params and x.

    v is held constant. S equals the directional derivative D_v h, so it
    is computed forward-mode and then differentiated in reverse through
    that computation; the activation's second derivative appears where
    the value path feeds s'(a_i).

    The x-gradient output is the Hessian-vector product
    grad^2 h(x_b) v_b per sample. Exact for smooth activations; with
    relu the curvature terms vanish (s'' = 0 a.e.).
    """
    c = cache if cache is not None else icnn_cache(params, cfg, x)
    x2 = c.x
    v2 = np.atleast_2d(as_f64(v))
    if v2.shape != x2.shape:
        raise ShapeError(f"v shape {v2.shape} != x shape {x2.shape}")
    L = len(cfg.hidden)
    n = x2.shape[0]

    # forward (tangent) sweep: adot_i = d a_i / d direction v
    adot: list[Array] = [v2 @ params.wx[0].T]
    zdot: list[Array] = []
    for i in range(1, L):
        zdot.append(c.sd[i - 1] * adot[i - 1])
        adot.append(v2 @ params.wx[i].T + zdot[i - 1] @ params.wz[i - 1].T)
    zdot.append(c.sd[L - 1] * adot[L - 1])

    grads: dict[str, Array] = {
        f"{prefix}wx{L}": np.sum(v2, axis=0, keepdims=True),
        f"{prefix}wz{L - 1}": np.sum(zdot[L - 1], axis=0, keepdims=True),
        f"{prefix}b{L}": np.zeros(1),
    }
    xg = cfg.quad * v2

    # reverse sweep over the tangent graph; A = dS/da, Adot = dS/dadot
    A_next: Array | None = None  # dS/da_{i+1}, set once i < L-1
    gamma = np.broadcast_to(params.wz[L - 1], (n, cfg.hidden[L - 1]))
    for i in range(L - 1, -1, -1):
        Adot = gamma * c.sd[i]
        A = gamma * adot[i] * c.sdd[i]
        if A_next is not None:
            A = A + (A_next @ params.wz[i]) * c.sd[i]
        grads[f"{prefix}wx{i}"] = A.T @ x2 + Adot.T @ v2
        grads[f"{prefix}b{i}"] = A.sum(axis=0)
        if i > 0:
            grads[f"{prefix}wz{i - 1}"] = A.T @ c.z[i - 1] + Adot.T @ zdot[i - 1]
            gamma = Adot @ params.wz[i - 1]
        xg = xg + A @ params.wx[i]
        A_next = A
    return grads, xg
