import os
import platform
import resource
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from lotnn import nncore
from lotnn.errors import NumericError, ShapeError
from lotnn.nncore import (
    OptimState,
    Rng,
    adam_step,
    bce,
    finite_diff_grad,
    mlp_apply,
    mlp_backward,
    mlp_forward,
    mlp_init,
    on_cpus,
    set_heap_thresholds,
    sorted_mean,
    start_on_cpus,
)
from conftest import USABLE_CPUS, blocks, relerr, start_workers


def _adam(params, grads, state):
    """Apply one Adam step to params in place, as the callers do."""
    params -= adam_step(grads, state)
    return params


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        params = np.array([1.0, -2.0])
        state = OptimState(lr=0.1)
        step = adam_step(np.zeros(2), state)
        assert np.array_equal(params - step, params)
        assert state.step == 1

    def test_first_step_hand_value(self):
        # scalar param 0, grad 1: bias-corrected update is -lr within eps
        step = adam_step(np.array([1.0]), OptimState(lr=0.1))
        assert abs(step[0] - 0.1) < 1e-8

    def test_repeated_grads_move_opposite_sign(self):
        params = np.array([0.0])
        state = OptimState(lr=0.01)
        prev = 0.0
        for _ in range(20):
            _adam(params, np.array([2.5]), state)
            assert params[0] < prev
            prev = params[0]

    def test_nonfinite_gradient_raises(self, rng):
        state = OptimState()
        adam_step(rng.normal(3), state)
        m0, v0 = state.m.copy(), state.v.copy()
        for bad in (np.nan, np.inf):
            with pytest.raises(NumericError):
                adam_step(np.array([0.5, bad, 1.0]), state)
        # raised before anything changed
        assert state.step == 1
        assert state.m.tobytes() == m0.tobytes() and state.v.tobytes() == v0.tobytes()
        fresh = OptimState()
        with pytest.raises(NumericError):
            adam_step(np.array([np.nan]), fresh)
        assert fresh.step == 0 and fresh.m is None and fresh.v is None

    def test_shape_mismatch_raises(self):
        state = OptimState()
        adam_step(np.ones(2), state)
        m0 = state.m.copy()
        with pytest.raises(ShapeError):
            adam_step(np.zeros(3), state)
        assert state.step == 1 and state.m.tobytes() == m0.tobytes()

    def test_step_counter_increases(self):
        state = OptimState()
        for t in range(1, 5):
            adam_step(np.ones(1), state)
            assert state.step == t

    def test_whole_vector_equals_blockwise_updates(self, rng):
        # Adam is elementwise, so one update of the concatenated vector is
        # bitwise the update of each block on its own
        parts = [rng.normal(n) for n in (3, 7, 1)]
        grads = [rng.normal(n) for n in (3, 7, 1)]
        whole, s_whole = np.concatenate(parts), OptimState(lr=0.05)
        states = [OptimState(lr=0.05) for _ in parts]
        for _ in range(3):
            _adam(whole, np.concatenate(grads), s_whole)
            for k in range(3):
                _adam(parts[k], grads[k], states[k])
        assert whole.tobytes() == np.concatenate(parts).tobytes()
        assert s_whole.v.tobytes() == np.concatenate([s.v for s in states]).tobytes()

    def test_equals_the_plain_expressions_bitwise(self, rng):
        # the update written with one temporary per operation, same order,
        # at the standard constants of Kingma and Ba
        b1, b2, eps = 0.9, 0.999, 1e-8

        def plain(p, g, m, v, t, s):
            m = b1 * m + (1.0 - b1) * g
            v = b2 * v + (1.0 - b2) * (g * g)
            m_hat = m / (1.0 - b1**t)
            v_hat = v / (1.0 - b2**t)
            return p - s.lr * m_hat / (np.sqrt(v_hat) + eps), m, v

        params, state = rng.normal(50), OptimState(lr=0.01)
        m, v = np.zeros(50), np.zeros(50)
        for t in range(1, 7):
            grads = rng.normal(50) * 10.0 ** rng.integers(-12, 3, size=50)
            grads[:3] = 0.0
            want, m, v = plain(params, grads, m, v, t, state)
            _adam(params, grads, state)
            assert params.tobytes() == want.tobytes()
            assert state.m.tobytes() == m.tobytes() and state.v.tobytes() == v.tobytes()

    def test_inputs_not_mutated(self, rng):
        # the gradient is read only; the state's m and v keep their buffers
        grads = rng.normal(4)
        g0 = grads.copy()
        state = OptimState()
        adam_step(grads, state)
        m, v = state.m, state.v
        step = adam_step(grads, state)
        assert grads.tobytes() == g0.tobytes()
        assert state.m is m and state.v is v
        assert not np.shares_memory(step, m) and not np.shares_memory(step, v)


class TestFiniteDiff:
    def test_quadratic(self):
        g = finite_diff_grad(lambda x: float(x @ x), np.array([1.0, 2.0]))
        assert relerr(g, [2.0, 4.0]) < 1e-8

    def test_constant(self):
        g = finite_diff_grad(lambda x: 7.5, np.array([0.3, -0.4, 1.0]))
        assert np.max(np.abs(g)) < 1e-9

    def test_product_rule(self):
        g = finite_diff_grad(lambda x: float(x[0] * x[1]), np.array([3.0, 5.0]))
        assert relerr(g, [5.0, 3.0]) < 1e-8

    def test_bad_step_raises(self):
        with pytest.raises(ValueError):
            finite_diff_grad(lambda x: 0.0, np.zeros(1), h=0.0)

    def test_nonfinite_raises(self):
        with pytest.raises(NumericError):
            finite_diff_grad(lambda x: float("inf"), np.zeros(1))


class TestRng:
    def test_same_seed_same_stream(self):
        a = Rng(123).normal((4, 3))
        b = Rng(123).normal((4, 3))
        assert np.array_equal(a, b)

    def test_spawn_streams_differ_and_replay(self):
        r = Rng(5)
        c1, c2 = r.spawn(1), r.spawn(2)
        assert not np.array_equal(c1.normal(8), c2.normal(8))
        assert np.array_equal(Rng(5).spawn(1).normal(8), Rng(5).spawn(1).normal(8))


class TestMlp:
    def test_forward_shapes(self, rng):
        p = mlp_init((3, 5, 2), rng)
        out = mlp_apply(p, rng.normal((7, 3)))
        assert out.shape == (7, 2)

    def test_dim_mismatch(self, rng):
        p = mlp_init((3, 5, 2), rng)
        with pytest.raises(ShapeError):
            mlp_apply(p, np.ones((4, 4)))

    def test_backward_matches_finite_differences(self, rng):
        from lotnn.nncore import finite_diff_grad
        for trial in range(10):
            widths = (int(rng.integers(1, 4)), int(rng.integers(2, 5)),
                      int(rng.integers(1, 4)))
            p = mlp_init(widths, rng.spawn(trial), scale=0.9)
            X = rng.normal((3, widths[0]))
            U = rng.normal((3, widths[-1]))
            out, cache = mlp_forward(p, X)
            grads, xg = mlp_backward(p, cache, U)
            fd = finite_diff_grad(
                lambda th: float(np.sum(U * mlp_apply(p.with_theta(th), X))),
                p.theta.copy(), 1e-6)
            for (key, g), (_, f) in zip(blocks(p, grads), blocks(p, fd)):
                assert relerr(g, f) < 1e-6, key
            for b in range(3):
                fd = finite_diff_grad(
                    lambda xx, b=b: float(np.sum(
                        U * mlp_apply(p, np.vstack([X[:b], xx[None], X[b + 1:]])))),
                    X[b].copy(), 1e-6)
                assert relerr(xg[b], fd) < 1e-6

    def test_forward_and_backward_equal_the_plain_expressions_bitwise(self, rng):
        # the reference: each layer as one plain expression
        def plain_forward(p, x):
            cache = [x]
            for k, (W, b) in enumerate(zip(p.weights, p.biases)):
                h = cache[-1] @ W.T + b
                cache.append(np.tanh(h) if k < len(p.weights) - 1 else h)
            return cache

        def plain_backward(p, cache, delta):
            grads = []
            for k in range(len(p.weights) - 1, -1, -1):
                if k < len(p.weights) - 1:
                    delta = delta * (1.0 - cache[k + 1] ** 2)
                grads.append((delta.T @ cache[k], delta.sum(axis=0)))
                delta = delta @ p.weights[k]
            return grads[::-1], delta

        for widths, n in (((2, 64, 64, 32), 1000), ((10, 7, 10), 33), ((3, 1), 5)):
            p = mlp_init(widths, rng, scale=1.5)
            x, u = rng.normal((n, widths[0])), rng.normal((n, widths[-1]))
            out, cache = mlp_forward(p, x)
            want = plain_forward(p, x)
            assert [c.tobytes() for c in cache] == [c.tobytes() for c in want]
            assert out.tobytes() == want[-1].tobytes()
            grads, xg = mlp_backward(p, cache, u)
            want_g, want_xg = plain_backward(p, want, u)
            g = p.with_theta(grads)
            for k, (gw, gb) in enumerate(want_g):
                assert g.weights[k].tobytes() == gw.tobytes()
                assert g.biases[k].tobytes() == gb.tobytes()
            assert xg.tobytes() == want_xg.tobytes()


class TestMlpLayout:
    def test_blocks_are_views_into_theta(self, rng):
        p = mlp_init((3, 5, 2), rng)
        assert p.theta.size == 3 * 5 + 5 * 2 + 5 + 2
        p.weights[1][0, 0] = 4.5
        p.biases[0][...] = -1.0
        assert p.theta[p.span("weights")][15] == 4.5
        assert np.all(p.theta[p.span("biases")][:5] == -1.0)

    def test_copy_shares_no_memory(self, rng):
        p = mlp_init((3, 5, 2), rng)
        dup = p.copy()
        assert not np.shares_memory(p.theta, dup.theta)
        assert all(not np.shares_memory(a, b) for a, b in zip(p.weights, dup.weights))
        dup.biases[1][...] = 3.0
        assert np.all(p.biases[1] == 0.0)

    @pytest.mark.parametrize("dup", ["pickle", "deepcopy"])
    @pytest.mark.parametrize("kind", ["icnn", "mlp"])
    def test_copies_keep_their_views_on_their_own_theta(self, rng, kind, dup):
        # an Adam step writes theta; the forward pass reads the blocks
        import copy
        import pickle

        from lotnn.icnn import IcnnConfig, init_icnn

        p = (init_icnn(IcnnConfig(dim=3, hidden=(4, 5)), rng) if kind == "icnn"
             else mlp_init((3, 5, 2), rng))
        before = p.theta.copy()
        q = (pickle.loads(pickle.dumps(p)) if dup == "pickle" else copy.deepcopy(p))
        assert type(q) is type(p) and q.theta.tobytes() == before.tobytes()
        q.theta[:] = 0.0
        for group in p.GROUPS:
            for a, b in zip(getattr(p, group), getattr(q, group)):
                assert a.shape == b.shape and np.all(b == 0.0)
                assert np.shares_memory(b, q.theta) and not np.shares_memory(a, b)
        assert p.theta.tobytes() == before.tobytes()

    def test_init_values_fixed_for_a_seed(self):
        # sha256 of the values this init drew before the network was laid
        # out in one vector, in the order weights, biases
        import hashlib

        p = mlp_init((3, 5, 2), Rng(7), scale=0.8)
        assert (hashlib.sha256(p.theta.tobytes()).hexdigest()
                == "bc3bb8cc9e482c48639390de9df77e32724aee2e6c4899640059f5917cf517a3")


class TestSortedMean:
    def test_1d_bitwise_permutation_invariant(self, rng):
        # magnitudes spread over 12 decades, so a plain sum depends on order
        v = rng.normal(500) * 10.0 ** rng.uniform(500, -6.0, 6.0)
        want = sorted_mean(v)
        assert want == float(np.sort(v).sum() / v.size)  # the classifier's pooling
        for k in range(5):
            assert sorted_mean(v[rng.spawn(k).permutation(v.size)]) == want

    def test_2d_bitwise_permutation_invariant(self, rng):
        F = rng.normal((300, 4)) * 10.0 ** rng.uniform((300, 4), -6.0, 6.0)
        want = sorted_mean(F)
        assert np.array_equal(want, np.sort(F, axis=0).sum(axis=0) / F.shape[0])
        for k in range(5):
            assert np.array_equal(sorted_mean(F[rng.spawn(k).permutation(300)]), want)

    @pytest.mark.parametrize("shape", [(500,), (500, 1), (500, 32), (1,), (1, 32)])
    def test_equals_the_column_sort_bitwise_and_leaves_the_input(self, rng, shape):
        # signed zeros and 12 decades of magnitude; an F-ordered copy gives
        # the C-ordered input's bytes, where a sum down F-ordered columns
        # would add them pairwise
        v = rng.normal(shape) * 10.0 ** rng.uniform(shape, -6.0, 6.0)
        v.ravel()[::7] = 0.0
        v.ravel()[3::7] = -0.0
        want = np.sort(v, axis=0).sum(axis=0) / v.shape[0]
        for x in (v, np.asfortranarray(v)):
            before = x.copy()
            got = sorted_mean(x)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
            assert x.tobytes() == before.tobytes()


class TestBce:
    def test_hand_value(self):
        loss, grad = bce(np.zeros(2), np.array([1.0, 0.0]))
        assert abs(loss - np.log(2.0)) < 1e-15
        assert np.array_equal(grad, [-0.25, 0.25])

    def test_gradient_matches_finite_differences(self, rng):
        for trial in range(6):
            n = int(rng.integers(1, 8))
            logits = rng.normal(n, scale=4.0)
            y = rng.integers(0, 2, size=n).astype(np.float64)
            _, grad = bce(logits, y)
            fd = finite_diff_grad(lambda z: bce(z, y)[0], logits.copy(), 1e-6)
            assert relerr(grad, fd) < 1e-6


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc heap only")
class TestHeapThresholds:
    def test_second_pass_reuses_the_heap(self):
        # 16 x 2 MB of temporaries, as a large batch pass holds; importing
        # lotnn set the thresholds, so the second pass faults no pages in
        def batch_pass():
            arrays = [np.ones((2 << 20) // 8) for _ in range(16)]
            return sum(float(a[-1]) for a in arrays)

        batch_pass()
        before = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt
        batch_pass()
        assert resource.getrusage(resource.RUSAGE_THREAD).ru_minflt - before < 100

    def test_environment_settings_win(self, monkeypatch):
        assert set_heap_thresholds()
        monkeypatch.setenv("MALLOC_TRIM_THRESHOLD_", "131072")
        assert not set_heap_thresholds()


# reads numpy's BLAS thread count after importing lotnn
_BLAS_PIN = """
import ctypes
from lotnn import nncore
get = nncore._openblas("get_num_threads")
get.argtypes, get.restype = [], ctypes.c_int
nncore._usable_cpus = lambda: 2
print(get(), nncore._helpers(2))
"""


@pytest.mark.skipif(nncore._openblas("get_num_threads") is None,
                    reason="numpy's BLAS is not the OpenBLAS of its wheel")
def test_import_runs_blas_on_one_thread_whatever_the_environment():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path), OPENBLAS_NUM_THREADS="2")
    out = subprocess.run([sys.executable, "-c", _BLAS_PIN], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["1", "1"]  # one BLAS thread, and a helper beside the caller


class TestOnCpus:
    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_results_come_in_index_order(self, monkeypatch, cpus):
        monkeypatch.setattr(nncore, "_usable_cpus", lambda: cpus)
        assert on_cpus(lambda k: k * k, 7) == [k * k for k in range(7)]
        assert on_cpus(lambda k: k, 0) == []
        # the caller's own work between start and finish leaves the
        # helpers every item, or none where no helper started
        finish = start_on_cpus(lambda k: k * k, 7)
        time.sleep(0.02)
        assert finish() == [k * k for k in range(7)]

    def test_one_cpu_starts_no_thread(self, monkeypatch):
        monkeypatch.setattr(nncore, "_usable_cpus", lambda: 1)
        monkeypatch.setattr(nncore.threading, "Thread", None)
        assert on_cpus(lambda k: -k, 3) == [0, -1, -2]

    @pytest.mark.parametrize("cpus", [1])
    def test_multithreaded_blas_starts_no_thread(self, monkeypatch, cpus):
        # a caller that turns numpy's BLAS up after import changes nothing
        # in the pool: one usable CPU still means no thread and no helper
        monkeypatch.setattr(nncore, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(nncore.threading, "Thread", None)
        nncore._set_blas_threads(2)
        try:
            assert on_cpus(lambda k: -k, 3) == [0, -1, -2]
            assert nncore._helpers(3) == 0
        finally:
            nncore._set_blas_threads(1)

    @pytest.mark.parametrize("cpus, items", [(1, 3), (3, 1)])
    def test_start_starts_no_thread_at_one_cpu_or_one_item(self, monkeypatch, cpus, items):
        monkeypatch.setattr(nncore, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(nncore.threading, "Thread", None)
        ran = []
        finish = start_on_cpus(lambda k: ran.append(k) or -k, items)
        assert ran == []  # everything waits for finish() on the calling thread
        assert finish() == [-k for k in range(items)]

    def test_helpers_count_the_caller(self, monkeypatch):
        monkeypatch.setattr(nncore, "_usable_cpus", lambda: 3)
        assert [nncore._helpers(n) for n in (0, 1, 2, 3, 9)] == [0, 0, 1, 2, 2]

    def test_every_item_is_taken_exactly_once_under_stress(self, monkeypatch):
        # more threads than cores and a tiny switch interval, so an item
        # taken twice or never would show
        taken = []

        def item(k):
            taken.append(k)
            return k

        monkeypatch.setattr(nncore, "_usable_cpus", lambda: 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                taken.clear()
                assert on_cpus(item, 50) == list(range(50))
                assert sorted(taken) == list(range(50))
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("cpus", [1, 3])
    def test_lowest_failing_index_wins(self, monkeypatch, cpus):
        # item 3 fails last in time, yet its error is the one raised, and
        # the items after a failure still run; also when the caller is busy
        # between start and finish, so that at 3 CPUs the helpers meet both
        # failures
        done = []

        def item(k):
            if k == 3:
                time.sleep(0.01)
            if k in (3, 5):
                raise NumericError(f"item {k}")
            done.append(k)

        monkeypatch.setattr(nncore, "_usable_cpus", lambda: cpus)
        with pytest.raises(NumericError, match="item 3"):
            on_cpus(item, 8)
        assert sorted(done) == [0, 1, 2, 4, 6, 7]
        done.clear()
        finish = start_on_cpus(item, 8)
        time.sleep(0.05)
        with pytest.raises(NumericError, match="item 3"):
            finish()
        assert sorted(done) == [0, 1, 2, 4, 6, 7]


# starts one worker, prints its pid, then exits or waits to be killed
_WORKER_PARENT = """
import sys, time
from lotnn import nncore
nncore._usable_cpus = lambda: 2
deadline = time.monotonic() + 60
while time.monotonic() < deadline:
    with nncore.worker_processes(2) as conns:
        if conns:
            break
    time.sleep(0.01)
print(nncore._WORKERS.workers[0].proc.pid, flush=True)
if sys.argv[1] == "exit":
    sys.exit(0)
time.sleep(120)
"""


def _gone(pid: int) -> bool:
    """No such process, or a zombie nobody has reaped yet."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


class TestWorkerProcesses:
    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
    @pytest.mark.parametrize("end", ["exit", "SIGTERM", "SIGKILL"])
    def test_worker_leaves_with_its_parent(self, end):
        # after SIGKILL nothing runs in the parent: the worker must see
        # EOF on its pipe
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        parent = subprocess.Popen([sys.executable, "-c", _WORKER_PARENT, end],
                                  stdout=subprocess.PIPE, env=env, text=True)
        try:
            pid = int(parent.stdout.readline())
            if end != "exit":
                parent.send_signal(getattr(signal, end))
            parent.wait(timeout=60)
            deadline = time.monotonic() + 10
            while not _gone(pid):
                assert time.monotonic() < deadline, f"worker {pid} outlived its parent"
                time.sleep(0.05)
        finally:
            parent.kill()
            parent.wait()
            parent.stdout.close()

    def test_raised_cpu_count_leaves_no_extra_workers(self, monkeypatch):
        start_workers(monkeypatch, 3)
        started = list(nncore._WORKERS.workers)
        assert len(started) == 2
        monkeypatch.undo()
        with nncore.worker_processes(2):
            pass
        keep = USABLE_CPUS - 1
        assert nncore._WORKERS.workers == started[:keep]
        assert not any(w.proc.is_alive() for w in started[keep:])

    def test_arrays_travel_in_place(self):
        import multiprocessing

        a, b = multiprocessing.Pipe()
        try:
            sent = [np.arange(6.0).reshape(2, 3), np.arange(4, dtype=np.int64)]
            got = [np.empty((2, 3)), np.empty(4, dtype=np.int64)]
            nncore.send_arrays(a, *sent)
            nncore.recv_arrays(b, *got)
            assert all(np.array_equal(x, y) for x, y in zip(sent, got))
            nncore.send_arrays(a, np.ones(3))
            with pytest.raises(ShapeError):
                nncore.recv_arrays(b, np.empty(4))
        finally:
            a.close()
            b.close()
