import numpy as np
import pytest

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
    sorted_mean,
)
from conftest import relerr


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        params = {"w": np.array([1.0, -2.0])}
        grads = {"w": np.zeros(2)}
        state = OptimState(lr=0.1)
        new_p, new_s = adam_step(params, grads, state)
        assert np.array_equal(new_p["w"], params["w"])
        assert new_s.step == 1

    def test_first_step_hand_value(self):
        # scalar param 0, grad 1: bias-corrected update is -lr within eps
        params = {"w": np.array([0.0])}
        grads = {"w": np.array([1.0])}
        new_p, _ = adam_step(params, grads, OptimState(lr=0.1))
        assert abs(new_p["w"][0] + 0.1) < 1e-8

    def test_repeated_grads_move_opposite_sign(self):
        params = {"w": np.array([0.0])}
        state = OptimState(lr=0.01)
        prev = 0.0
        for _ in range(20):
            params, state = adam_step(params, {"w": np.array([2.5])}, state)
            assert params["w"][0] < prev
            prev = params["w"][0]

    def test_nonfinite_gradient_raises(self):
        with pytest.raises(NumericError):
            adam_step({"w": np.zeros(1)}, {"w": np.array([np.nan])}, OptimState())

    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            adam_step({"w": np.zeros(2)}, {"w": np.zeros(3)}, OptimState())

    def test_step_counter_increases(self):
        params = {"w": np.zeros(1)}
        state = OptimState()
        for t in range(1, 5):
            params, state = adam_step(params, {"w": np.ones(1)}, state)
            assert state.step == t


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
            flat = p.to_flat()
            for key, arr in flat.items():
                def f(w, key=key):
                    saved = flat[key].copy()
                    flat[key][...] = w
                    val = float(np.sum(U * mlp_apply(p, X)))
                    flat[key][...] = saved
                    return val
                fd = finite_diff_grad(f, arr.copy(), 1e-6)
                assert relerr(grads[key], fd) < 1e-6
            for b in range(3):
                fd = finite_diff_grad(
                    lambda xx, b=b: float(np.sum(
                        U * mlp_apply(p, np.vstack([X[:b], xx[None], X[b + 1:]])))),
                    X[b].copy(), 1e-6)
                assert relerr(xg[b], fd) < 1e-6


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
