"""Input-convex potential networks.

The potential is

    a_0 = Wx[0] x + b[0]
    a_i = Wx[i] x + Wz[i-1] s(a_{i-1}) + b[i],   i = 1..L-1
    h(x) = Wx[L] x + Wz[L-1] s(a_{L-1}) + (q/2) ||x||^2

with every Wz entrywise nonnegative and s convex and non-decreasing, so
x -> h(x) is convex; with q > 0 it is q-strongly convex. The gradient
map x -> grad h(x) is the transport-map approximation used everywhere
else in the package, so the head carries no bias: a constant offset of
h never changes grad h.

Besides the forward pass this module provides three hand-written
differentiation passes, all specialized to this fixed architecture:

  icnn_input_grad     grad_x h(x)                   (reverse)
  icnn_backward       d/d(params, x) of u * h(x)    (reverse)
  icnn_inputgrad_vjp  d/d(params, x) of sum_b <v_b, grad_x h(x_b)>,
                      plus optionally sum_b u_b h(x_b)
                                                    (forward-over-reverse)

The last one is what makes training objectives that contain grad h
differentiable; it carries second derivatives of the activation.
Every pass is checked against central finite differences in the tests.

The passes share one activation cache per (params, input) batch; the
solver evaluates several quantities at the same points each step, so
callers on the hot path build the cache once via icnn_cache(). Its two
flags say what it builds beyond s' of every layer: value adds the last
layer's softplus and h(x), which icnn_forward, icnn_backward and the
upstream term of icnn_inputgrad_vjp read; curvature adds s'', which
icnn_inputgrad_vjp reads. icnn_input_grad needs neither. The cache
builds s, s' and s'' of a layer from e = exp(-|a|) (see IcnnCache).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .nncore import Array, FlatParams, Rng, as_f64, check_finite


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
    quad: float = 0.5

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if len(self.hidden) < 1 or any(h < 1 for h in self.hidden):
            raise ValueError("hidden widths must all be >= 1")
        if self.quad < 0:
            raise ValueError("quad must be >= 0")


class IcnnParams(FlatParams):
    """Layer parameters in one vector; wz are the nonnegative matrices.

    wx[i] is (h_i, d) for i < L and (1, d) for the scalar head;
    wz[i-1] is (h_i, h_{i-1}) feeding layer i, wz[L-1] is (1, h_{L-1});
    b[i] is (h_i,) for the L hidden layers. The blocks are laid out
    wx, then wz, then b, so span("wz") is one contiguous slice.
    """

    GROUPS = ("wx", "wz", "b")


def icnn_shapes(cfg: IcnnConfig) -> tuple:
    """Block shapes of the wx, wz and b groups of an ICNN."""
    widths = list(cfg.hidden) + [1]
    return (tuple((w, cfg.dim) for w in widths),
            tuple((w, v) for v, w in zip(widths, widths[1:])),
            tuple((w,) for w in cfg.hidden))


def init_icnn(cfg: IcnnConfig, rng: Rng, scale: float = 0.1) -> IcnnParams:
    """Small centered init, 1/sqrt(fan-in) scaled; wz entries nonnegative.

    With small weights the gradient map starts near x -> q x.
    """
    wx_shapes, wz_shapes, b_shapes = icnn_shapes(cfg)
    wx, wz = [], []
    for i, shape in enumerate(wx_shapes):
        wx.append(rng.normal(shape, scale=scale / np.sqrt(cfg.dim)))
        if i > 0:
            w, fan = wz_shapes[i - 1]
            wz.append(np.abs(rng.normal((w, fan), scale=scale / np.sqrt(fan))))
    return IcnnParams(wx, wz, [np.zeros(s) for s in b_shapes])


def project_nonneg(params: IcnnParams) -> IcnnParams:
    """Clamp the pass-through weights at zero in place; returns params.

    Other parameters are untouched. Idempotent; this is what keeps the
    potential convex after each optimizer step.
    """
    wz = params.theta[params.span("wz")]
    np.maximum(wz, 0.0, out=wz)
    return params


class IcnnCache:
    """Forward pass plus the activation s and its derivatives per layer.

    z[i] = s(a_i), sd[i] = s'(a_i) and sdd[i] = s''(a_i) for the hidden
    pre-activations a_i of the input batch. Each pass reads only part of
    this, so two flags choose what is built:

      value      z of the last hidden layer and out = h(x), read by
                 icnn_forward, icnn_backward and the upstream term of
                 icnn_inputgrad_vjp; without it z holds L-1 layers and
                 out is None
      curvature  sdd, read by icnn_inputgrad_vjp; without it sdd is None

    sd and the other layers' z are always built; icnn_input_grad reads
    sd alone, so a map evaluation sets neither flag. A pass handed a
    cache without what it reads raises ValueError.

    The activation is the softplus s(a) = log(1 + exp(a)); convexity
    comes from the nonnegative wz, not from s. Each layer computes
    e = exp(-|a|) and r = 1/(1 + e) once and builds from them

        s   = max(a, 0) + log1p(e)
        s'  = exp(min(a, 0)) * r
        s'' = e r^2

    None of these overflows for any finite a, and s'' keeps full
    relative precision where s' is close to 1 (s' (1 - s') does not).
    s' is e r for a < 0 and exactly r otherwise, with no select.

    Valid only for the exact (params, cfg, input batch) it was built
    from; the training loop rebuilds it after every parameter update.
    """

    __slots__ = ("x", "out", "z", "sd", "sdd")

    def __init__(self, params: IcnnParams, cfg: IcnnConfig, x2: Array,
                 value: bool = True, curvature: bool = True):
        L = len(cfg.hidden)
        self.x = x2
        self.out: Array | None = None
        self.z: list[Array] = []
        self.sd: list[Array] = []
        self.sdd: list[Array] | None = [] if curvature else None
        a = x2 @ params.wx[0].T
        a += params.b[0]
        for i in range(1, L):
            self._activate(a, True)
            a = x2 @ params.wx[i].T
            a += self.z[-1] @ params.wz[i - 1].T
            a += params.b[i]
        self._activate(a, value)
        if value:
            a = x2 @ params.wx[L].T + self.z[-1] @ params.wz[L - 1].T  # scalar head
            self.out = a[:, 0] + 0.5 * cfg.quad * np.sum(x2 * x2, axis=1)

    def _activate(self, a: Array, keep_z: bool) -> None:
        """Append s'(a), s(a) if keep_z and s''(a) if curvature; overwrites a."""
        e = np.abs(a)
        np.negative(e, out=e)
        np.exp(e, out=e)
        r = e + 1.0
        np.divide(1.0, r, out=r)
        sd = np.minimum(a, 0.0)
        np.exp(sd, out=sd)
        sd *= r
        self.sd.append(sd)
        if self.sdd is not None:
            sdd = e * r
            sdd *= r
            self.sdd.append(sdd)
        if keep_z:
            z = np.maximum(a, 0.0, out=a)
            z += np.log1p(e, out=e)
            self.z.append(z)


def _check_input(cfg: IcnnConfig, x: Array) -> Array:
    x2 = np.atleast_2d(as_f64(x))
    if x2.shape[1] != cfg.dim:
        raise ShapeError(f"ICNN expects dim {cfg.dim}, got {x2.shape[1]}")
    return x2


def icnn_cache(params: IcnnParams, cfg: IcnnConfig, x: Array,
               value: bool = True, curvature: bool = True) -> IcnnCache:
    """Activation cache of a batch; see IcnnCache for what each flag builds."""
    return IcnnCache(params, cfg, _check_input(cfg, x), value, curvature)


def icnn_forward(params: IcnnParams, cfg: IcnnConfig, x: Array):
    """Potential value h(x); scalar for a single vector, (n,) for a batch."""
    single = np.asarray(x).ndim == 1
    out = icnn_cache(params, cfg, x, curvature=False).out
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
    check_finite("icnn_input_grad output", g)
    return g


def _grad_map(params: IcnnParams, cfg: IcnnConfig, x: Array) -> Array:
    """grad_x h on a batch, from a cache of s' alone.

    The body of icnn_input_grad without a cache and of
    DualPair.map_forward. It calls no public function of the package, so
    lot.maps_on's worker threads run it: benchmarks/tracing.py wraps
    the public ones and records spans for one thread only.
    """
    return _input_grad(params, cfg, IcnnCache(params, cfg, _check_input(cfg, x),
                                              value=False, curvature=False))


def icnn_input_grad(params: IcnnParams, cfg: IcnnConfig, x: Array,
                    cache: IcnnCache | None = None) -> Array:
    """Gradient map grad_x h(x); the transport-map approximation."""
    single = np.asarray(x).ndim == 1
    g = (_grad_map(params, cfg, x) if cache is None
         else _input_grad(params, cfg, cache))
    return g[0] if single else g


def _upstream_column(upstream, n: int) -> Array:
    """A scalar or (n,) upstream weight as an (n, 1) column."""
    u = np.asarray(upstream, dtype=np.float64).reshape(-1)
    return np.broadcast_to(u, (n,))[:, None]


def icnn_backward(
    params: IcnnParams,
    cfg: IcnnConfig,
    x: Array,
    upstream,
    cache: IcnnCache | None = None,
) -> tuple[Array, Array]:
    """Reverse pass for sum_b upstream_b * h(x_b).

    upstream is a scalar or (n,). Returns the parameter gradient as a
    vector in params' layout and the input gradient (n, d). A given
    cache must be built with value=True.
    """
    c = cache if cache is not None else icnn_cache(params, cfg, x, curvature=False)
    if c.out is None:
        raise ValueError("icnn_backward needs a cache built with value=True")
    x2 = c.x
    L = len(cfg.hidden)
    g = params.with_theta(np.empty_like(params.theta))
    uc = _upstream_column(upstream, x2.shape[0])

    g.wx[L][...] = uc.T @ x2
    g.wz[L - 1][...] = uc.T @ c.z[L - 1]
    xg = uc * (cfg.quad * x2 + params.wx[L])

    delta = (uc * params.wz[L - 1]) * c.sd[L - 1]
    for i in range(L - 1, -1, -1):
        g.wx[i][...] = delta.T @ x2
        g.b[i][...] = delta.sum(axis=0)
        if i > 0:
            g.wz[i - 1][...] = delta.T @ c.z[i - 1]
        xg = xg + delta @ params.wx[i]
        if i > 0:
            delta = (delta @ params.wz[i - 1]) * c.sd[i - 1]
    return g.theta, xg


def icnn_inputgrad_vjp(
    params: IcnnParams,
    cfg: IcnnConfig,
    x: Array,
    v: Array,
    cache: IcnnCache | None = None,
    upstream=None,
) -> tuple[Array, Array]:
    """Gradients of S = sum_b <v_b, grad_x h(x_b)> w.r.t. params and x.

    v is held constant. S equals the directional derivative D_v h, so it
    is computed forward-mode and then differentiated in reverse through
    that computation; the activation's second derivative appears where
    the value path feeds s'(a_i). The parameter gradient is a vector in
    params' layout.

    The x-gradient output is the Hessian-vector product
    grad^2 h(x_b) v_b per sample.

    With upstream u (a scalar or (n,)) the pass differentiates
    S + sum_b u_b h(x_b) instead, adding icnn_backward's result in the
    same reverse sweep. A given cache must be built with curvature=True,
    and with value=True when upstream is given.
    """
    c = cache if cache is not None else icnn_cache(params, cfg, x,
                                                   value=upstream is not None)
    if c.sdd is None:
        raise ValueError("icnn_inputgrad_vjp needs a cache built with curvature=True")
    if upstream is not None and c.out is None:
        raise ValueError("icnn_inputgrad_vjp with upstream needs a cache built "
                         "with value=True")
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

    g = params.with_theta(np.empty_like(params.theta))
    g.wx[L][...] = np.sum(v2, axis=0, keepdims=True)
    g.wz[L - 1][...] = np.sum(zdot[L - 1], axis=0, keepdims=True)
    xg = cfg.quad * v2
    uc = None
    if upstream is not None:  # the head terms of icnn_backward
        uc = _upstream_column(upstream, n)
        g.wx[L] += uc.T @ x2
        g.wz[L - 1] += uc.T @ c.z[L - 1]
        xg += uc * (cfg.quad * x2 + params.wx[L])

    # reverse sweep over the tangent graph; A = dS/da, Adot = dS/dadot
    A_next: Array | None = None  # dS/da_{i+1}, set once i < L-1
    gamma = np.broadcast_to(params.wz[L - 1], (n, cfg.hidden[L - 1]))
    for i in range(L - 1, -1, -1):
        Adot = gamma * c.sd[i]
        A = gamma * adot[i] * c.sdd[i]
        if A_next is not None:
            A += (A_next @ params.wz[i]) * c.sd[i]
        elif uc is not None:
            A += uc * Adot  # d(sum u h)/da_{L-1} = u wz[L-1] s'(a_{L-1})
        g.wx[i][...] = A.T @ x2 + Adot.T @ v2
        g.b[i][...] = A.sum(axis=0)
        if i > 0:
            g.wz[i - 1][...] = A.T @ c.z[i - 1] + Adot.T @ zdot[i - 1]
            gamma = Adot @ params.wz[i - 1]
        xg = xg + A @ params.wx[i]
        A_next = A
    return g.theta, xg
