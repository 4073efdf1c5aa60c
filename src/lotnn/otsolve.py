"""Wasserstein-2 machinery.

Two convex potentials are trained per target cloud: psi, whose gradient
pushes the reference measure onto the target, and phi, approximating the
conjugate (inverse direction). Training minimizes jointly

    E_mu[phi(y)] + E_sigma[<x, grad psi(x)> - phi(grad psi(x))]
        + lambda_cyc * E_sigma || grad phi(grad psi(x)) - x ||^2

i.e. the dual objective with exact conjugacy replaced by a
cycle-consistency penalty, which avoids adversarial min-max training.

The networks are trained in standardized coordinates: both measures are
centered on their means and divided by one shared scalar scale. A single
scalar (unlike per-coordinate whitening) keeps the composite map an
exact gradient of a convex potential,

    psi(x) = s^2 * psi_net((x - m_sigma)/s) + <m_mu, x>,
    grad psi(x) = s * grad psi_net((x - m_sigma)/s) + m_mu,

so the bulk displacement between the measures is carried by the frame
instead of being ground out of the optimizer, and the joint objective
stays away from its runaway regime (maps far from the data let phi
profit by growing a wall at the stray image points).

The module also carries the exact oracles everything is validated
against: assignment-based discrete OT on equal-size clouds and the
closed-form Gaussian (diagonal covariance) distance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from multiprocessing.connection import Connection
from typing import TYPE_CHECKING

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

from .errors import NumericError, ShapeError
from .icnn import (
    IcnnConfig,
    IcnnParams,
    _grad_map,
    icnn_backward,
    icnn_cache,
    icnn_forward,
    icnn_input_grad,
    icnn_inputgrad_vjp,
    init_icnn,
    project_nonneg,
)
from .nncore import (
    Array,
    OptimState,
    Peer,
    Rng,
    adam_step,
    as_f64,
    check_finite,
    post,
    take,
    worker_processes,
)

if TYPE_CHECKING:  # pragma: no cover
    from .lot import ReferenceMeasure


@dataclass(frozen=True)
class Frame:
    """Affine standardization shared by a potential pair.

    Network inputs are (x - sigma_mean)/scale on the reference side and
    (y - mu_mean)/scale on the target side; one scalar scale for both
    sides keeps gradient maps gradients of convex functions.
    """

    sigma_mean: tuple[float, ...]
    mu_mean: tuple[float, ...]
    scale: float = 1.0

    @classmethod
    def identity(cls, dim: int) -> "Frame":
        return cls(sigma_mean=(0.0,) * dim, mu_mean=(0.0,) * dim, scale=1.0)

    def __post_init__(self):
        if self.scale <= 0:
            raise ValueError("frame scale must be > 0")
        if len(self.sigma_mean) != len(self.mu_mean):
            raise ShapeError("frame mean dims differ")


@dataclass
class DualPair:
    """A trained (psi, phi) potential pair for one target measure.

    grad psi maps reference samples onto the target; grad phi is the
    learned inverse. Both parameter sets satisfy the nonnegativity
    projection at all times. The public potentials and maps compose the
    stored networks with the standardization frame.
    """

    psi: IcnnParams
    psi_cfg: IcnnConfig
    phi: IcnnParams
    phi_cfg: IcnnConfig
    frame: Frame
    meta: dict = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return self.psi_cfg.dim

    def _sigma_side(self, x: Array) -> Array:
        return self._standardize(x, self.frame.sigma_mean)

    def _mu_side(self, y: Array) -> Array:
        return self._standardize(y, self.frame.mu_mean)

    def _standardize(self, x: Array, mean: tuple[float, ...]) -> Array:
        x2 = np.atleast_2d(as_f64(x))
        if x2.shape[1] != len(mean):  # broadcasting would hide it
            raise ShapeError(f"batch width {x2.shape[1]} != pair dim {len(mean)}")
        return (x2 - np.asarray(mean)) / self.frame.scale

    def potential_phi(self, y: Array) -> Array:
        s = self.frame.scale
        y2 = np.atleast_2d(as_f64(y))
        return (s * s * icnn_forward(self.phi, self.phi_cfg, self._mu_side(y))
                + y2 @ np.asarray(self.frame.sigma_mean))

    def map_forward(self, x: Array) -> Array:
        """Transport-map values grad psi(x)."""
        g = self._map(x)
        return g[0] if np.asarray(x).ndim == 1 else g

    def _map(self, x: Array, out: Array | None = None) -> Array:
        """grad psi(x) of a batch, written into out when one is given.

        The body of map_forward, which nncore.on_cpus's worker threads run;
        like icnn._grad_map it calls no public function of the package.
        """
        g = _grad_map(self.psi, self.psi_cfg, self._sigma_side(x))
        out = np.multiply(self.frame.scale, g, out=g if out is None else out)
        out += np.asarray(self.frame.mu_mean)
        return out


@dataclass(frozen=True)
class SolverConfig:
    """Hyperparameters of the non-minimax dual solver.

    The underlying publication states none of these, and every run
    report echoes them; Adam's decay rates and the init scale are fixed.
    """

    batch_size: int = 256
    iters: int = 5000
    lr: float = 1e-3
    lambda_cyc: float = 1.0
    hidden: tuple[int, ...] = (64, 64, 64)
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 2:
            raise ValueError("batch size must be >= 2")
        # iters == 0 is a legal no-op budget (returns the initialized pair)
        if self.iters < 0:
            raise ValueError("iteration budget must be >= 0")
        if self.lambda_cyc < 0:
            raise ValueError("lambda_cyc must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        # the network and step-size rules of the objects built from these
        IcnnConfig(dim=1, hidden=self.hidden)
        OptimState(lr=self.lr)


# (psi, phi) quadratic skips where the data gives no spread to adapt them
# to. The forward map often contracts strongly (wide fitted reference onto
# a narrow cloud), so psi gets a small q; the inverse map then expands, so
# phi affords a large q, whose strong convexity is also what keeps the
# jointly-minimized objective from running away (the conjugate side is
# exactly where the quadratic term is added in the duality argument).
STATIC_QUADS = (0.05, 0.5)


def _batch_pair(sigma_batch: Array, mu_batch: Array) -> tuple[Array, Array]:
    X = np.atleast_2d(as_f64(sigma_batch))
    Y = np.atleast_2d(as_f64(mu_batch))
    if X.size == 0 or Y.size == 0:
        raise ShapeError("empty batch")
    return X, Y


def dual_objective_V(pair: DualPair, sigma_batch: Array, mu_batch: Array) -> float:
    """Empirical dual objective -E_mu[phi] - E_sigma[<x, grad psi> - phi(grad psi)]."""
    X, Y = _batch_pair(sigma_batch, mu_batch)
    G = pair.map_forward(X)
    phi_y = pair.potential_phi(Y)
    phi_g = pair.potential_phi(G)
    corr = np.sum(X * G, axis=1)
    return float(-np.mean(phi_y) - np.mean(corr - phi_g))


def estimate_w2_dual(pair: DualPair, sigma_batch: Array, mu_batch: Array) -> float:
    """Dual-based W2 estimate from finite batches.

    At optimal potentials V + C equals half the squared distance, so the
    estimate is sqrt(2 * (V + C)) with C the empirical second-moment
    constant, clamped at zero: finite batches and imperfect potentials
    can push the argument slightly negative.
    """
    X, Y = _batch_pair(sigma_batch, mu_batch)
    V = dual_objective_V(pair, X, Y)
    C = 0.5 * float(np.mean(np.sum(X * X, axis=1))) + \
        0.5 * float(np.mean(np.sum(Y * Y, axis=1)))
    val = 2.0 * (V + C)
    if not np.isfinite(val):
        raise NumericError("non-finite dual estimate")
    return float(np.sqrt(max(0.0, val)))


# a loss and its psi and phi gradients
LossGrads = tuple[float, Array, Array]

# A fit counts as running away once the RMS displacement of its map on a
# step's batch exceeds RUNAWAY_SLACK times that batch's product-coupling
# bound (runaway_bound). _run_chunk checks every RUNAWAY_EVERY steps of a
# pair and at the last step of a fit_pairs call.
RUNAWAY_SLACK = 3.0
RUNAWAY_EVERY = 100


def runaway_bound(X: Array, Y: Array) -> float:
    """sqrt(E||x||^2 + E||y||^2 - 2 m_x.m_y) over batches X and Y: the
    cost of their product coupling, which no optimal coupling exceeds.
    Summed as ||m_x - m_y||^2 plus both batches' variances, which is
    equal and does not cancel."""
    mx, my = X.mean(axis=0), Y.mean(axis=0)
    return float(np.sqrt(np.sum((mx - my) ** 2) + np.sum(X.var(axis=0))
                         + np.sum(Y.var(axis=0))))


def solver_loss_and_grads(pair: DualPair, Xs: Array, Ys: Array, lambda_cyc: float,
                          peer: Peer | None = None, bound: float | None = None) -> LossGrads:
    """Loss and exact gradients of the cycle-regularized dual objective.

    Xs/Ys are batches already in the pair's standardized coordinates.
    Returns the loss and the psi and phi gradients, each a vector in its
    network's layout. The psi-gradient flows through grad psi (and, in
    the cycle term, through the Hessian of phi), which is where the
    second-order pass earns its keep.

    The potentials' heads have no bias because the loss could not move
    one: it sees psi only through grad psi, and a constant in phi cancels
    between +E_Y[phi] and -E_X[phi(grad psi)].

    Loss and gradients are the sum of two fixed halves of the batch:
    half 1 holds rows [0, h) of Xs and [0, k) of Ys, half 2 the rest,
    with h = ceil(n/2) and k = ceil(m/2) for n rows of Xs and m of Ys.
    Each half weights its rows by the whole batch's 1/n, 1/m and
    2 lambda/n (_half_loss_and_grads), and half 2 is added to half 1.
    The halves are the same wherever they run, so the result is bitwise
    the same at every CPU count. With peer, this process computes its
    own half (half 1 if peer.first) and the process at the peer's end
    the other (_swap_halves); both return the same sum.

    With bound, raises NumericError when the map's RMS displacement
    sqrt(E||T(x) - x||^2) on the batch, summed from the halves likewise,
    exceeds RUNAWAY_SLACK * bound; both processes of a peer raise it.
    """
    n, m = Xs.shape[0], Ys.shape[0]
    h, k = -(-n // 2), -(-m // 2)
    halves = [(Xs[:h], Ys[:k]), (Xs[h:], Ys[k:])]
    if peer is None:
        one, two = (_half_loss_and_grads(pair, X, Y, lambda_cyc, n, m) for X, Y in halves)
    else:
        one, two = _swap_halves(peer, pair, *halves[0 if peer.first else 1], lambda_cyc, n, m)
    loss, g_psi, g_phi, cost = one
    if bound is not None and (rms := float(np.sqrt(cost + two[3]))) > RUNAWAY_SLACK * bound:
        raise NumericError(f"runaway map: RMS displacement {rms:.4g} > {RUNAWAY_SLACK:g} x "
                           f"product-coupling bound {bound:.4g}")
    g_psi += two[1]
    g_phi += two[2]
    return loss + two[0], g_psi, g_phi


def _swap_halves(peer: Peer, pair: DualPair, Xs: Array, Ys: Array, lambda_cyc: float,
                 n: int, m: int) -> tuple[HalfResult, HalfResult]:
    """Half 1's and half 2's results, of which this process computes its
    own (_half_loss_and_grads) and swaps the vector
    [failed, loss, cost, g_psi, g_phi] with the peer. If either half raised
    NumericError, both send their error (or None) and both raise half
    1's, else half 2's: the error the serial sum meets first, at the
    same step in both processes, with nothing left unread."""
    size = pair.psi.theta.size
    vec = np.zeros(3 + size + pair.phi.theta.size)
    error = None
    try:
        vec[1], vec[3:3 + size], vec[3 + size:], vec[2] = _half_loss_and_grads(
            pair, Xs, Ys, lambda_cyc, n, m)
    except NumericError as e:
        error, vec[0] = e, 1.0
    halves = peer.swap(vec)
    if halves[0][0] or halves[1][0]:
        post(peer.conn, error)  # a few bytes each way: no order needed
        errors = (error, take(peer.conn)) if peer.first else (take(peer.conn), error)
        raise errors[0] or errors[1]
    return tuple((float(v[1]), v[3:3 + size], v[3 + size:], float(v[2])) for v in halves)


# a half's loss and gradients, and its share of E||T(x) - x||^2
HalfResult = tuple[float, Array, Array, float]


def _half_loss_and_grads(pair: DualPair, Xs: Array, Ys: Array, lambda_cyc: float,
                         n: int, m: int) -> HalfResult:
    """One half's share of solver_loss_and_grads, of a batch of n rows of
    Xs and m of Ys, and of the map's mean squared displacement. It calls
    only the ICNN passes, which need nothing but the pair and the rows,
    so a worker process runs it too."""
    # each cache builds only what its passes read: psi at X feeds the
    # input grad and the VJP, phi at Y the value and backward pass, and
    # phi at G all of them
    c_psi_x = icnn_cache(pair.psi, pair.psi_cfg, Xs, value=False)
    G = icnn_input_grad(pair.psi, pair.psi_cfg, Xs, cache=c_psi_x)  # grad psi(x)
    c_phi_g = icnn_cache(pair.phi, pair.phi_cfg, G)
    c_phi_y = icnn_cache(pair.phi, pair.phi_cfg, Ys, curvature=False)
    H = icnn_input_grad(pair.phi, pair.phi_cfg, G, cache=c_phi_g)   # grad phi(G)
    corr = np.sum(Xs * G, axis=1)
    cyc = np.sum((H - Xs) ** 2, axis=1)
    loss = float(np.sum(c_phi_y.out) / m + np.sum(corr - c_phi_g.out) / n
                 + lambda_cyc * (np.sum(cyc) / n))

    # phi parameter grads: the direct term at Ys, then in one sweep at G
    # the direct term -(1/n) sum phi(G) and the cycle term
    # sum <w, grad phi(G)>, w = (2 lambda/n)(H - X)
    g_phi_y, _ = icnn_backward(pair.phi, pair.phi_cfg, Ys,
                               np.full(Ys.shape[0], 1.0 / m), cache=c_phi_y)
    w = (2.0 * lambda_cyc / n) * (H - Xs)
    g_phi_g, u_grad = icnn_inputgrad_vjp(pair.phi, pair.phi_cfg, G, w, cache=c_phi_g,
                                         upstream=np.full(Xs.shape[0], -1.0 / n))

    # psi parameter grads, all through G: v collects every dLoss/dG term
    v = Xs / n + u_grad
    g_psi, _ = icnn_inputgrad_vjp(pair.psi, pair.psi_cfg, Xs, v, cache=c_psi_x)
    g_phi_y += g_phi_g

    # T(x) - x = s (G - Xs + (m_mu - m_sigma)/s) in the original coordinates
    s = pair.frame.scale
    D = G - Xs
    D += (np.asarray(pair.frame.mu_mean) - np.asarray(pair.frame.sigma_mean)) / s
    return loss, g_psi, g_phi_y, s * s * float(np.vdot(D, D)) / n


def make_frame(sigma: "ReferenceMeasure", points: Array) -> Frame:
    return Frame(sigma_mean=tuple(float(v) for v in sigma.mean_vector()),
                 mu_mean=tuple(float(v) for v in points.mean(axis=0)),
                 scale=float(sigma.scale_scalar()))


def adaptive_quads(sigma: "ReferenceMeasure", points: Array) -> tuple[float, float]:
    """Per-cloud quadratic skips from the spread ratios.

    Each q must stay below the smallest Jacobian eigenvalue of the map
    its network represents; the min per-coordinate std ratio with a 0.8
    safety factor is a cheap proxy. phi's q is floored because its
    strong convexity is what stabilizes training.
    """
    s_sigma = sigma.std_vector()
    s_mu = points.std(axis=0)
    if np.any(s_mu <= 0):  # degenerate spread (one-point clouds)
        return STATIC_QUADS
    fwd = float(np.min(s_mu / s_sigma))
    inv = float(np.min(s_sigma / s_mu))
    q_psi = float(np.clip(0.8 * fwd, 1e-3, 5.0))
    q_phi = float(np.clip(0.8 * inv, 0.05, 5.0))
    return q_psi, q_phi


def init_dual_pair(dim: int, cfg: SolverConfig, rng: Rng,
                   frame: Frame | None = None,
                   quads: tuple[float, float] = STATIC_QUADS) -> DualPair:
    q_psi, q_phi = quads
    psi_cfg = IcnnConfig(dim=dim, hidden=cfg.hidden, quad=q_psi)
    phi_cfg = IcnnConfig(dim=dim, hidden=cfg.hidden, quad=q_phi)
    psi = project_nonneg(init_icnn(psi_cfg, rng.spawn(1)))
    phi = project_nonneg(init_icnn(phi_cfg, rng.spawn(2)))
    return DualPair(psi, psi_cfg, phi, phi_cfg,
                    frame if frame is not None else Frame.identity(dim),
                    meta={"iterations": 0, "seed": rng.seed})


def pair_for_cloud(sigma: "ReferenceMeasure", points: Array,
                   cfg: SolverConfig, rng: Rng) -> DualPair:
    """Initialized pair with the cloud's frame and adaptive quads."""
    return init_dual_pair(sigma.dim, cfg, rng, frame=make_frame(sigma, points),
                          quads=adaptive_quads(sigma, points))


def solver_step(pair: DualPair, X: Array, Y: Array, lambda_cyc: float,
                state: OptimState, peer: Peer | None = None,
                bound: float | None = None) -> float:
    """One joint Adam update of both potentials in place, then projection.

    X and Y are original-coordinates batches; standardization happens
    here using the pair's frame. Adam sees psi's and phi's parameter
    vectors as one, psi first; a non-finite gradient, or with bound a
    runaway map, raises before either network changes. With peer, the
    process at its end computes the other half of the batch; see
    solver_loss_and_grads. Returns the loss.
    """
    Xs = pair._sigma_side(X)
    Ys = pair._mu_side(Y)
    loss, g_psi, g_phi = solver_loss_and_grads(pair, Xs, Ys, lambda_cyc, peer, bound)
    step = adam_step(np.concatenate([g_psi, g_phi]), state)
    pair.psi.theta -= step[:g_psi.size]
    pair.phi.theta -= step[g_psi.size:]
    project_nonneg(pair.psi)
    project_nonneg(pair.phi)
    return loss


def fit_pairs(sigma: "ReferenceMeasure", clouds: dict[str, Array],
              pairs: dict[str, DualPair], states: dict[str, OptimState],
              cfg: SolverConfig, steps: int) -> list[float]:
    """Advance each cloud's pair by `steps` solver steps, in place.

    A pair's step t draws its reference batch and its cloud's rows from
    its meta["seed"] and t alone (_batch), so a fit depends neither on
    the other clouds of the call nor on how calls split the steps. A
    missing Adam state is created from cfg, and missing Adam
    accumulators as the zeros adam_step starts from (_run_chunk).
    Each step updates the pair's networks and Adam state in place and
    adds one to the pair's meta["iterations"]. Returns the losses,
    step-major, each step's in the clouds' dict order.

    The clouds are shared out, in contiguous chunks, over the caller and
    the worker processes of nncore.worker_processes, one per further
    usable CPU; whichever process runs a step draws its batch. While no
    worker is ready the steps run here one at a time, and workers are
    asked for again before each, so one that is still starting up when a
    long call begins joins it later; then the remaining steps run in one
    block. A worker is posted its chunk's own (cid, pair, state, points)
    tuples (_fit_remote), and its reply is written back into the
    caller's arrays (_recv_chunk), so every output is bitwise the serial
    one at any CPU count. The caller keeps the largest chunk and, once
    it is done, waits for each worker's reply in turn. Of the failures, the one the
    serial loop would meet first (lowest step, then cloud order) is
    raised; clouds of other chunks may have gone further than the serial
    loop would have taken them.

    One cloud (train_map) counts as two items: every step's loss and
    gradients are the sum of two fixed halves of its batch, at every CPU
    count (solver_loss_and_grads). With a worker, both processes run the
    block on their own copies of the pair and its Adam state, each
    drawing every batch and computing its half, and swap their halves
    through a Peer each step; the worker sends no reply.
    """
    if steps < 1 or not clouds:
        return []
    work = [(cid, pairs[cid], states.setdefault(cid, OptimState(lr=cfg.lr)), as_f64(points))
            for cid, points in clouds.items()]
    losses = np.empty((len(work), steps))
    failures: list[tuple[int, int, Exception]] = []
    start = 0
    while start < steps and not failures:
        # asked for again each block, so workers still starting up join a later one
        with worker_processes(2 if len(work) == 1 else len(work)) as pool:
            block = steps - start if pool else 1
            out = losses[:, start:start + block]
            # a lone cloud's worker runs half 2 of each step, half 1 runs here
            peer = Peer(pool[0], first=True) if len(work) == 1 and pool else None
            if peer:
                post(peer.conn, (_fit_remote, (sigma, cfg, work, block, True)))
            conns = [] if peer else pool
            # the caller's chunk first, and the largest
            cut = [-(-k * len(work) // (len(conns) + 1)) for k in range(len(conns) + 2)]
            for conn, lo, hi in zip(conns, cut[1:], cut[2:]):
                post(conn, (_fit_remote, (sigma, cfg, work[lo:hi], block, False)))
            if failure := _run_chunk(work[:cut[1]], sigma, cfg, out, peer,
                                     final=start + block == steps):
                failures.append(failure)
            for conn, lo, hi in zip(conns, cut[1:], cut[2:]):
                if failure := _recv_chunk(conn, work[lo:hi], out[lo:hi]):
                    failures.append((failure[0], lo + failure[1], failure[2]))
            start += block
    if failures:
        raise min(failures, key=lambda f: f[:2])[2]
    return losses.T.ravel().tolist()


def _batch(sigma: "ReferenceMeasure", seed: int, step: int, points: Array,
           batch_size: int) -> tuple[Array, Array]:
    """Step `step`'s reference batch and cloud rows for a pair seeded
    `seed`, drawn from SeedSequence([seed, step]) and nothing else."""
    x_seed, row_seed = np.random.SeedSequence([seed, step]).generate_state(2)
    rows = Rng(int(row_seed)).integers(0, points.shape[0], size=batch_size)
    return sigma.sample(batch_size, seed=int(x_seed)), points[rows]


def _run_chunk(work: list, sigma: "ReferenceMeasure", cfg: SolverConfig, losses: Array,
               peer: Peer | None = None,
               final: bool = True) -> tuple[int, int, Exception] | None:
    """fit_pairs's steps for one chunk of (cid, pair, state, points).

    Runs losses.shape[1] steps and writes losses[j, s] for cloud j of the
    chunk. Stops at the first failure and returns it as (step, cloud,
    error), both counted from 0 in this chunk and block of steps. With
    peer, the process at its end runs the other half of each step of
    this one-cloud chunk (solver_step).

    A pair's step t checks for a runaway map (solver_loss_and_grads)
    when t + 1 is a multiple of RUNAWAY_EVERY, and so does the last step
    of a final block, the call's last. The check reads the map the step
    evaluates, before its update, on the step's own batch, so it costs
    no pass and moves no draw, and every process that runs the step
    checks alike. A worker's block is always final: fit_pairs sends one
    only for all the steps left.
    """
    for _, pair, state, _ in work:
        if state.m is None:  # adam_step's zeros, also where the first step fails
            n = pair.psi.theta.size + pair.phi.theta.size
            state.m, state.v = np.zeros(n), np.zeros(n)
    last = losses.shape[1] - 1 if final else -1
    for s in range(losses.shape[1]):
        for j, (cid, pair, state, points) in enumerate(work):
            step = pair.meta.get("iterations", 0)
            X, Y = _batch(sigma, pair.meta["seed"], step, points, cfg.batch_size)
            kw = {"peer": peer} if peer else {}
            if s == last or (step + 1) % RUNAWAY_EVERY == 0:
                kw["bound"] = runaway_bound(X, Y)
            try:
                loss = solver_step(pair, X, Y, cfg.lambda_cyc, state, **kw)
            except NumericError as e:
                err = NumericError(f"{e} (cloud {cid}, step {step})")
                err.__cause__ = e
                return s, j, err
            if not np.isfinite(loss):
                return s, j, NumericError(f"non-finite loss (cloud {cid}, step {step})")
            pair.meta["iterations"] = step + 1
            losses[j, s] = loss
    return None


def _fit_remote(conn: Connection, sigma: "ReferenceMeasure", cfg: SolverConfig,
                work: list, steps: int, half: bool) -> None:
    """A worker process's task: `steps` steps of one chunk of fit_pairs,
    whose outputs it posts back (_recv_chunk), or with half, half 2 of
    each step of a lone cloud, swapping halves and posting nothing."""
    losses = np.empty((len(work), steps))
    failure = _run_chunk(work, sigma, cfg, losses, Peer(conn, first=False) if half else None)
    if not half:
        post(conn, (losses, [(p.psi.theta, p.phi.theta, p.meta["iterations"], s)
                             for _, p, s, _ in work], failure))


def _recv_chunk(conn: Connection, work: list,
                losses: Array) -> tuple[int, int, Exception] | None:
    """A worker's reply to _fit_remote, written into the chunk's own
    arrays; a state that had no Adam accumulators takes the worker's."""
    got, done, failure = take(conn)
    losses[...] = got
    for (_, p, s, _), (psi, phi, iterations, state) in zip(work, done):
        p.psi.theta[...], p.phi.theta[...] = psi, phi
        p.meta["iterations"] = iterations
        if s.m is None:  # the worker started them (_run_chunk)
            s.m, s.v = state.m, state.v
        else:
            s.m[...], s.v[...] = state.m, state.v
        s.step = state.step
    return failure


def train_map(sigma: "ReferenceMeasure", mu, cfg: SolverConfig) -> DualPair:
    """Train a DualPair pushing the reference measure onto one cloud.

    fit_pairs runs cfg.iters steps on pair_for_cloud's pair with
    Rng(cfg.seed).spawn(0), whose seed meta["seed"] records and every
    batch comes from. So the map is bitwise the same at every CPU count,
    and the same as that pair fitted beside other clouds. A zero budget
    returns the initialized pair untouched. Loss history is stored in
    the pair metadata.
    """
    points = mu.points if hasattr(mu, "points") else np.atleast_2d(as_f64(mu))
    if points.size == 0:
        raise ShapeError("empty target cloud")
    if points.shape[1] != sigma.dim:
        raise ShapeError(f"cloud dim {points.shape[1]} != reference dim {sigma.dim}")
    cid = getattr(mu, "id", "target")
    pair = pair_for_cloud(sigma, points, cfg, Rng(cfg.seed).spawn(0))
    losses = fit_pairs(sigma, {cid: points}, {cid: pair}, {}, cfg, cfg.iters)
    pair.meta.update({"final_loss": losses[-1] if losses else None,
                      "loss_history": losses})
    return pair


# ---------------------------------------------------------------------------
# Exact oracles
# ---------------------------------------------------------------------------

def exact_ot_discrete(X: Array, Y: Array) -> tuple[Array, float]:
    """Minimum-cost perfect matching between equal-size uniform clouds.

    Returns (pi, cost) where pi[k] matches X[k] with Y[pi[k]] and
    cost = (1/n) sum ||x_k - y_{pi(k)}||^2. The W2 distance is
    sqrt(cost), a true metric on equal-size clouds.

    Centering each cloud on its own mean, then subtracting each row's and
    each column's minimum, shifts every permutation's total by the same
    constant, so the optimal assignment is unchanged; the solver just no
    longer builds that separable part up one augmentation at a time. The
    cost is summed in the original coordinates.
    """
    Xp = np.atleast_2d(as_f64(X))
    Yp = np.atleast_2d(as_f64(Y))
    if Xp.size == 0 or Yp.size == 0:
        raise ShapeError("empty cloud")
    if Xp.shape != Yp.shape:
        raise ShapeError(f"clouds must match in size and dim: {Xp.shape} vs {Yp.shape}")
    check_finite("exact_ot_discrete input", Xp, Yp)
    # finite clouds can still overflow a mean, a squared distance or the
    # cost; each such overflow ends up non-finite and is raised below
    with np.errstate(over="ignore"):
        C = cdist(Xp - Xp.mean(axis=0), Yp - Yp.mean(axis=0), "sqeuclidean")
        if not np.isfinite(C.max()):
            raise NumericError("exact_ot_discrete: squared distances overflow")
        C -= C.min(axis=1, keepdims=True)
        C -= C.min(axis=0)
        rows, cols = linear_sum_assignment(C)
        perm = np.empty(Xp.shape[0], dtype=np.int64)
        perm[rows] = cols
        cost = float(np.mean(np.sum((Xp - Yp[perm]) ** 2, axis=1)))
    if not np.isfinite(cost):
        raise NumericError("exact_ot_discrete: non-finite cost")
    return perm, cost


@dataclass(frozen=True)
class GaussianSpec:
    """Diagonal-covariance Gaussian used as a closed-form oracle."""

    mean: tuple[float, ...]
    var: tuple[float, ...]

    def __post_init__(self):
        if len(self.mean) != len(self.var):
            raise ShapeError("mean and var dims differ")
        if any(v <= 0 for v in self.var):
            raise ValueError("variances must be > 0")

    @property
    def dim(self) -> int:
        return len(self.mean)


def gaussian_w2(a: GaussianSpec, b: GaussianSpec) -> float:
    """Closed-form W2 between diagonal Gaussians."""
    if a.dim != b.dim:
        raise ShapeError("dimension mismatch")
    ma, mb = np.asarray(a.mean), np.asarray(b.mean)
    sa, sb = np.sqrt(np.asarray(a.var)), np.sqrt(np.asarray(b.var))
    return float(np.sqrt(np.sum((ma - mb) ** 2) + np.sum((sa - sb) ** 2)))
