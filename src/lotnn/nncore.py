"""Dense numeric building blocks.

Everything downstream (ICNN potentials, weight networks, the DeepSets
baseline) is built from the pieces here: a seeded RNG wrapper, one
vector per network's parameters, an Adam update of such a vector in
place, order-independent pooling, a binary cross-entropy loss, small
tanh MLPs with hand-written backward passes, the central-difference
oracle used to cross-check every analytic gradient, and the two ways
the package shares work out over CPUs.

Importing lotnn runs numpy's BLAS on one thread, whatever
OPENBLAS_NUM_THREADS says: OpenBLAS splits a matrix product's rows over
its threads, which changes the rounding, so a second BLAS thread would
change the results bitwise. lotnn's own pools use the CPUs instead, one
worker per usable CPU with the caller included, and none for one item
(_helpers):
- on_cpus, a thread pool for map evaluations (1000-row kernels release
  the GIL long enough to overlap), with start_on_cpus to let the caller
  work while the helper threads run; `lotnn dist` and `train` evaluate
  maps on it, `eval` scores clouds on it, and `baseline` runs DeepSets'
  validation and bagging on it;
- worker_processes, persistent worker processes for solver steps
  (256-row steps hold the GIL for most of their time), whose caller
  waits for every worker. A worker runs either a chunk of the items,
  and replies once the block of steps is done, or a half: it and the
  caller run the same loop on their own copies, each one fixed half of
  every step, and swap their halves through a Peer each step. `train`
  and `eval` fit their maps in chunks (otsolve.fit_pairs), a lone
  cloud's in halves, and `train` runs its classifier epochs in halves
  (classify.train_alternating).
Tasks, replies and errors travel as the objects themselves (post and
take), so no other module knows the message format; only a Peer's
swap, on the per-step path, sends a bare array with no pickle.
Each item runs whole on one thread or process, so no result depends on
the CPU count; a lone cloud's step and a classifier epoch are split
into two fixed halves at every CPU count. The pin reaches only the
OpenBLAS that numpy's wheel bundles; a numpy built on another BLAS
keeps that BLAS's own setting.
All arrays are float64; 32-bit cannot hold the gradient-check tolerances.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import multiprocessing
import os
import pickle
import platform
import signal
import threading
from dataclasses import dataclass
from multiprocessing.connection import Connection
from pathlib import Path
from typing import Callable, Iterator, Sequence, TypeVar

import numpy as np
from scipy.special import expit

from .errors import NumericError, ShapeError

Array = np.ndarray
T = TypeVar("T")


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


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@functools.cache
def _openblas(name: str):
    """openblas_<name> of the OpenBLAS that numpy loaded, or None."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*.so*")):
        lib = ctypes.CDLL(str(path))
        for sym in (f"scipy_openblas_{name}64_", f"openblas_{name}64_", f"openblas_{name}"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                return fn
    return None


def _set_blas_threads(n: int) -> None:
    """Set the threads of numpy's BLAS, where _openblas can reach it."""
    fn = _openblas("set_num_threads")
    if fn is not None:
        fn.argtypes, fn.restype = [ctypes.c_int], None
        fn(n)


_set_blas_threads(1)  # see the module docstring


def _helpers(n: int) -> int:
    """Workers to start beside the caller for n items of work: one per
    usable CPU, the caller's included, and none for one item."""
    return max(min(_usable_cpus(), n) - 1, 0)


def on_cpus(fn: Callable[[int], T], n: int) -> list[T]:
    """[fn(0), ..., fn(n - 1)], shared out over one thread per usable CPU.

    The calling thread is one of them; _helpers says how many more
    start, none with one CPU or one item. Each fn(k) runs whole on one
    thread, so the results are bitwise the serial ones whatever the CPU
    count: splitting one item's rows over threads would change how BLAS
    rounds the products of the smaller blocks. numpy releases the GIL
    inside its kernels, which is where the threads overlap. fn must call
    none of the functions benchmarks/tracing.py wraps, as its tracer
    records one thread only: a traced run bills the workers' time to the
    caller. If calls fail, the lowest index's error is raised once every
    thread has finished.
    """
    return start_on_cpus(fn, n)()


def start_on_cpus(fn: Callable[[int], T], n: int) -> Callable[[], list[T]]:
    """Start on_cpus(fn, n) on its helper threads and return its finish().

    The caller may do other work before it calls finish(), which runs
    the items no helper has taken on the calling thread, joins the
    helpers and returns on_cpus's result or raises its error. Where no
    helper starts, every item runs in finish(). The caller must call
    finish(), also when its own work in between raises, so that no
    helper outlives it.
    """
    results: list = [None] * n
    errors: dict[int, Exception] = {}
    todo = iter(range(n))
    lock = threading.Lock()

    def work() -> None:
        while True:
            with lock:
                k = next(todo, None)
            if k is None:
                return
            try:
                results[k] = fn(k)
            except Exception as e:  # raised in the calling thread by finish()
                errors[k] = e

    threads = [threading.Thread(target=work) for _ in range(_helpers(n))]
    for t in threads:
        t.start()

    def finish() -> list[T]:
        try:
            work()
        finally:
            for t in threads:
                t.join()
        if errors:
            raise errors[min(errors)]
        return results

    return finish


class _Worker:
    """One worker process and the parent's end of the pipe to it."""

    def __init__(self):
        ctx = multiprocessing.get_context("spawn")
        self.conn, child = ctx.Pipe()
        self.proc = ctx.Process(target=_serve, args=(child,), name="lotnn-worker",
                                daemon=True)
        self.proc.start()
        child.close()  # so the worker alone holds that end, and sees EOF on ours
        self.ready = False

    def poll(self) -> bool:
        """True once the worker has sent word that it has started up.
        Raises EOFError or OSError once it has died, also while idle."""
        if not self.ready and self.conn.poll():
            self.conn.recv()
            self.ready = True
        if self.ready and not self.proc.is_alive():
            raise EOFError("the worker process has ended")
        return self.ready

    def close(self, wait: float = 5.0) -> None:
        self.conn.close()  # an idle worker leaves at EOF
        self.proc.join(wait)
        if self.proc.is_alive():
            self.proc.terminate()
            self.proc.join(5.0)


def _serve(conn: Connection) -> None:
    """A worker process: run task(conn, *args) for each (task, args)
    posted to it. A task gets its input as objects, all read before it runs.

    It leaves when the parent closes its end of the pipe or exits, also
    when the parent is killed: the parent's end is held by no one else.
    A parent that closes its end with a message of ours unread (the
    start-up report, the reply to a task whose caller raised) resets the
    connection.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent handles Ctrl-C
    try:
        conn.send(None)  # started up
        while True:
            task, args = take(conn)
            task(conn, *args)
    except (EOFError, BrokenPipeError, ConnectionResetError):
        pass


class _Workers:
    """The worker processes of this process, started on first use and reused.

    Once one has died, or been ended mid-task, none is started again and
    the callers run serially: a worker that cannot start up (say, the
    main script re-run by spawn fails) would otherwise be started anew
    on every call.
    """

    def __init__(self):
        self.pid = os.getpid()
        self.lock = threading.Lock()
        self.workers: list[_Worker] = []
        self.broken = False

    def ready(self, k: int) -> list[Connection]:
        if self.pid != os.getpid():  # a forked child: the workers are its parent's
            self.pid, self.workers, self.broken = os.getpid(), [], False
        if self.broken:
            return []
        self.trim(_usable_cpus() - 1)
        while len(self.workers) < k:
            self.workers.append(_Worker())
        conns = []
        for w in self.workers[:k]:
            try:
                if w.poll():
                    conns.append(w.conn)
            except (EOFError, OSError):  # it died, starting up or while idle
                self.drop([w.conn])
        return conns

    def trim(self, keep: int) -> None:
        """End the workers beyond the first `keep`."""
        while len(self.workers) > max(keep, 0):
            self.workers.pop().close()

    def drop(self, conns: list[Connection]) -> None:
        self.broken = self.broken or bool(conns)
        for w in [w for w in self.workers if w.conn in conns]:
            self.workers.remove(w)
            w.close(wait=0.0)


_WORKERS = _Workers()


@contextlib.contextmanager
def worker_processes(n: int) -> Iterator[list[Connection]]:
    """Pipes to the worker processes that may take part of n items' work.

    Workers follow on_cpus's rule (_helpers), so with one CPU or one
    item the list is empty. They are spawned, never forked, on the first
    call that wants them; importing lotnn to run _serve pins their BLAS
    to one thread too. Only workers that have finished starting up
    (0.75-1 s, mostly imports) are handed out, so the calls until then
    get fewer or none; so does a second thread while another holds them.
    The body posts each worker a task (see _serve) and takes all it
    sends back. A task is a chunk or a half (module docstring): a
    chunk's worker posts one reply; a half's worker swaps with the
    caller through a Peer every step and replies nothing. A worker on a
    busy CPU holds the caller up for as long as it is late, and a hung
    worker hangs it: fit_pairs waits on every chunk and every step of a
    lone cloud, train_alternating on every classifier epoch. If the body
    raises, its workers are ended, since their pipes may hold half a
    message; one that died mid-task raises RuntimeError. Workers run
    untraced: benchmarks/tracing.py sees only the caller's share.
    """
    if not _WORKERS.lock.acquire(blocking=False):
        yield []
        return
    try:
        conns = _WORKERS.ready(_helpers(n))
        try:
            yield conns
        except (EOFError, BrokenPipeError, ConnectionResetError) as e:
            _WORKERS.drop(conns)
            raise RuntimeError("a worker process ended before its task did") from e
        except BaseException:
            _WORKERS.drop(conns)
            raise
    finally:
        _WORKERS.lock.release()


def send_arrays(conn: Connection, *arrays: Array) -> None:
    """Send each C-contiguous array's bytes as one message."""
    for a in arrays:
        conn.send_bytes(a)


def recv_arrays(conn: Connection, *arrays: Array) -> None:
    """Receive one message into each C-contiguous array, in place."""
    for a in arrays:
        if conn.recv_bytes_into(memoryview(a).cast("B")) != a.nbytes:
            raise ShapeError(f"message does not fill an array of {a.nbytes} bytes")


def post(conn: Connection, obj) -> None:
    """Send obj to take() at the pipe's other end: its protocol-5 pickle
    and each out-of-band buffer's size and writeability in one message,
    then each buffer (a contiguous numpy array's bytes) by send_arrays."""
    buffers: list[pickle.PickleBuffer] = []
    data = pickle.dumps(obj, protocol=5, buffer_callback=buffers.append)
    raw = [b.raw() for b in buffers]
    conn.send((data, [(m.nbytes, m.readonly) for m in raw]))
    send_arrays(conn, *raw)


def take(conn: Connection):
    """The next object post() sent, each buffer received into a new
    np.uint8 array by recv_arrays: every array comes back bitwise equal,
    with its shape, dtype and writeability."""
    data, sizes = conn.recv()
    buffers = [np.empty(n, np.uint8) for n, _ in sizes]
    recv_arrays(conn, *buffers)
    return pickle.loads(data, buffers=[memoryview(b).toreadonly() if readonly else b
                                       for b, (_, readonly) in zip(buffers, sizes)])


class Peer:
    """One end of the pipe between two processes that each run one fixed
    half of the same steps on their own copies (a half task, see the
    module docstring)."""

    def __init__(self, conn: Connection, first: bool):
        self.conn = conn
        self.first = first  # this process runs half 1

    def swap(self, mine: Array) -> tuple[Array, Array]:
        """Half 1's and half 2's array: mine and the other process's, of
        the same shape. Half 1's process sends first and half 2's
        receives first, so neither waits on a full pipe."""
        theirs = np.empty_like(mine)
        if self.first:
            send_arrays(self.conn, mine)
            recv_arrays(self.conn, theirs)
            return mine, theirs
        recv_arrays(self.conn, theirs)
        send_arrays(self.conn, mine)
        return theirs, mine


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
    row order, not just equal up to rounding. Each column is sorted as
    a contiguous row of a transposed copy, which is faster than sorting
    down strided columns, and summed from a C-ordered array as
    np.sort(values, axis=0).sum(axis=0) sums a C-ordered input, so the
    result is bitwise that one's; an F-ordered input gets the bytes of
    its C-ordered copy.
    """
    cols = np.array(values.T, order="C")  # a copy, also of a 1-D input, whose .T is itself
    cols.sort(axis=-1)
    return np.ascontiguousarray(cols.T).sum(axis=0) / values.shape[0]


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

    @classmethod
    def over(cls, theta: Array, shapes: tuple):
        """The network with block shapes `shapes` (one tuple per group) viewing theta."""
        new = object.__new__(cls)
        new._bind(theta, shapes)
        return new

    def with_theta(self, theta: Array):
        """The same layout over another vector, sharing its memory."""
        return self.over(theta, self._shapes)

    def __reduce__(self):
        # pickle and copy.deepcopy copy theta alone, then bind the views to it
        return self.over, (self.theta, self._shapes)

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
    return _mlp_forward(p, x)


def _mlp_forward(p: MlpParams, x: Array) -> tuple[Array, list[Array]]:
    """The body of mlp_forward, which on_cpus workers call instead."""
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
