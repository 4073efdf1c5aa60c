import warnings

import numpy as np
import pytest
from scipy.special import expit

from lotnn.errors import ShapeError
from lotnn.icnn import (
    IcnnConfig,
    IcnnParams,
    icnn_backward,
    icnn_cache,
    icnn_forward,
    icnn_input_grad,
    icnn_inputgrad_vjp,
    init_icnn,
    project_nonneg,
)
from lotnn.nncore import Rng, finite_diff_grad
from conftest import quad_potential, relerr


def random_icnn(rng, dim=None, smooth=True):
    dim = dim or int(rng.integers(1, 4))
    L = int(rng.integers(1, 4))
    hidden = tuple(int(rng.integers(2, 6)) for _ in range(L))
    cfg = IcnnConfig(dim=dim, hidden=hidden,
                     activation="smooth_relu" if smooth else "relu",
                     sharpness=float(rng.uniform((), 0.5, 2.0)),
                     quad=float(rng.uniform((), 0.0, 1.5)))
    params = project_nonneg(init_icnn(cfg, rng.spawn(rng.integers(0, 10_000)),
                                      scale=0.8))
    return params, cfg


class TestForward:
    def test_relu_identity_layer_with_summing_head(self):
        cfg = IcnnConfig(dim=2, hidden=(2,), activation="relu", quad=0.0)
        params = IcnnParams(wx=[np.eye(2), np.zeros((1, 2))],
                            wz=[np.array([[1.0, 1.0]])],
                            b=[np.zeros(2), np.zeros(1)])
        assert icnn_forward(params, cfg, np.array([1.0, -2.0])) == 1.0

    def test_all_zero_weights_constant_in_x(self, rng):
        cfg = IcnnConfig(dim=3, hidden=(4, 4), quad=0.0)
        params = IcnnParams(
            wx=[np.zeros((4, 3)), np.zeros((4, 3)), np.zeros((1, 3))],
            wz=[np.zeros((4, 4)), np.zeros((1, 4))],
            b=[np.zeros(4), np.zeros(4), np.array([2.25])])
        vals = [icnn_forward(params, cfg, rng.normal(3)) for _ in range(5)]
        assert all(v == vals[0] for v in vals)

    def test_quadratic_skip_only(self):
        params, cfg = quad_potential(2, quad=1.0)
        assert icnn_forward(params, cfg, np.array([3.0, 4.0])) == 12.5

    def test_dim_mismatch(self, rng):
        params, cfg = random_icnn(rng, dim=2)
        with pytest.raises(ShapeError):
            icnn_forward(params, cfg, np.ones(3))


class TestActivationCache:
    # both signs of every scale: exp(-|k a|) is 1, near 1, moderate, near
    # the double underflow, and 0
    GRID = np.array([0.0, 1e-8, -1e-8, 1.0, -1.0, 36.0, -36.0,
                     700.0, -700.0, 1e5, -1e5])

    @pytest.mark.parametrize("k", [0.5, 1.0, 2.0])
    def test_fused_kernel_matches_reference_expressions(self, k):
        # one hidden unit with a_0 = x, so the cache holds s, s', s'' at GRID
        cfg = IcnnConfig(dim=1, hidden=(1,), sharpness=k, quad=0.0)
        params = IcnnParams(wx=[np.ones((1, 1)), np.zeros((1, 1))],
                            wz=[np.ones((1, 1))], b=[np.zeros(1), np.zeros(1)])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            c = icnn_cache(params, cfg, self.GRID[:, None])
            z, sd, sdd = c.z[0][:, 0], c.sd[0][:, 0], c.sdd[0][:, 0]
        t = k * self.GRID

        def close(got, want, rtol):
            return np.all(np.abs(got - want) <= rtol * np.abs(want) + 1e-300)

        assert close(z, np.logaddexp(0.0, t) / k, 1e-15)
        assert close(sd, expit(t), 1e-15)
        assert close(sdd, k * expit(t) * expit(-t), 1e-14)
        assert np.all(np.isfinite(z) & np.isfinite(sd) & np.isfinite(sdd))
        assert np.all((sd >= 0.0) & (sd <= 1.0) & (sdd >= 0.0))


class TestInputGrad:
    def test_identity_map(self, rng):
        params, cfg = quad_potential(4, quad=1.0)
        x = rng.normal(4)
        assert np.array_equal(icnn_input_grad(params, cfg, x), x)

    def test_scaling_map(self, rng):
        params, cfg = quad_potential(3, quad=2.5)
        x = rng.normal(3)
        assert relerr(icnn_input_grad(params, cfg, x), 2.5 * x) < 1e-15

    def test_matches_finite_differences(self, rng):
        for _ in range(12):
            params, cfg = random_icnn(rng)
            x = rng.normal(cfg.dim)
            g = icnn_input_grad(params, cfg, x)
            fd = finite_diff_grad(lambda xx: icnn_forward(params, cfg, xx),
                                  x.copy(), 1e-6)
            assert relerr(g, fd) < 1e-4


class TestProjection:
    def test_clamps_negative(self):
        params, cfg = quad_potential(2)
        params.wz[0][0, 0] = -0.5
        assert project_nonneg(params).wz[0][0, 0] == 0.0

    def test_keeps_feasible(self):
        params, cfg = quad_potential(2)
        params.wz[0][0, 0] = 0.3
        assert project_nonneg(params).wz[0][0, 0] == 0.3

    def test_elementwise(self):
        params, cfg = quad_potential(2)
        params.wz[0] = np.array([[-1.0, 2.0], [0.0, -3.0]])
        out = project_nonneg(params).wz[0]
        assert np.array_equal(out, [[0.0, 2.0], [0.0, 0.0]])

    def test_idempotent(self, rng):
        params, cfg = random_icnn(rng)
        once = project_nonneg(params)
        twice = project_nonneg(once)
        assert all(np.array_equal(a, b) for a, b in zip(once.wz, twice.wz))

    def test_other_params_untouched(self, rng):
        params, cfg = random_icnn(rng)
        out = project_nonneg(params)
        assert all(a is b for a, b in zip(params.wx, out.wx))
        assert all(a is b for a, b in zip(params.b, out.b))


class TestBackward:
    def test_zero_upstream_zero_grads(self, rng):
        params, cfg = random_icnn(rng)
        X = rng.normal((3, cfg.dim))
        grads, xg = icnn_backward(params, cfg, X, 0.0)
        assert all(np.all(g == 0) for g in grads.values())
        assert np.all(xg == 0)

    def test_input_grad_scales_with_upstream(self, rng):
        params, cfg = random_icnn(rng)
        x = rng.normal((1, cfg.dim))
        _, xg = icnn_backward(params, cfg, x, 3.5)
        g = icnn_input_grad(params, cfg, x)
        assert relerr(xg, 3.5 * g) < 1e-12

    def test_param_grads_match_finite_differences(self, rng):
        for _ in range(8):
            params, cfg = random_icnn(rng)
            X = rng.normal((2, cfg.dim))
            U = rng.normal(2)
            grads, _ = icnn_backward(params, cfg, X, U)
            flat = params.to_flat()
            for key, arr in flat.items():
                def f(w, key=key):
                    saved = flat[key].copy()
                    flat[key][...] = w
                    val = float(np.sum(U * icnn_forward(params, cfg, X)))
                    flat[key][...] = saved
                    return val
                fd = finite_diff_grad(f, arr.copy(), 1e-6)
                assert relerr(grads[key], fd) < 1e-4


class TestInputGradVjp:
    def test_matches_finite_differences(self, rng):
        for _ in range(8):
            params, cfg = random_icnn(rng)
            X = rng.normal((2, cfg.dim))
            V = rng.normal((2, cfg.dim))

            def S(pp, Xmat):
                return float(np.sum(V * icnn_input_grad(pp, cfg, Xmat)))

            grads, xg = icnn_inputgrad_vjp(params, cfg, X, V)
            flat = params.to_flat()
            for key, arr in flat.items():
                def f(w, key=key):
                    saved = flat[key].copy()
                    flat[key][...] = w
                    val = S(params, X)
                    flat[key][...] = saved
                    return val
                fd = finite_diff_grad(f, arr.copy(), 1e-6)
                assert relerr(grads[key], fd) < 1e-4
            for b in range(2):
                fd = finite_diff_grad(
                    lambda xx, b=b: S(params, np.vstack([X[:b], xx[None], X[b + 1:]])),
                    X[b].copy(), 1e-6)
                assert relerr(xg[b], fd) < 1e-4

    def test_hessian_vector_product_symmetry(self, rng):
        # grad^2 h is symmetric: <u, H v> == <v, H u>
        params, cfg = random_icnn(rng)
        x = rng.normal((1, cfg.dim))
        u = rng.normal((1, cfg.dim))
        v = rng.normal((1, cfg.dim))
        _, Hv = icnn_inputgrad_vjp(params, cfg, x, v)
        _, Hu = icnn_inputgrad_vjp(params, cfg, x, u)
        assert abs(float(np.sum(u * Hv)) - float(np.sum(v * Hu))) < 1e-10


class TestConvexity:
    def test_jensen_inequality(self, rng):
        checks = 0
        while checks < 1000:
            params, cfg = random_icnn(rng)
            X = rng.normal((25, cfg.dim), scale=2.0)
            Y = rng.normal((25, cfg.dim), scale=2.0)
            lam = rng.uniform((25, 1))
            mid = icnn_forward(params, cfg, lam * X + (1 - lam) * Y)
            bound = (lam[:, 0] * icnn_forward(params, cfg, X)
                     + (1 - lam[:, 0]) * icnn_forward(params, cfg, Y))
            assert np.all(mid <= bound + 1e-9)
            checks += 25

    def test_gradient_monotonicity(self, rng):
        checks = 0
        while checks < 1000:
            params, cfg = random_icnn(rng)
            X = rng.normal((25, cfg.dim), scale=2.0)
            Y = rng.normal((25, cfg.dim), scale=2.0)
            gap = np.sum((icnn_input_grad(params, cfg, X)
                          - icnn_input_grad(params, cfg, Y)) * (X - Y), axis=1)
            assert np.all(gap >= -1e-9)
            checks += 25

    def test_strong_convexity_with_quad(self, rng):
        for _ in range(20):
            params, cfg = random_icnn(rng)
            if cfg.quad == 0.0:
                continue
            X = rng.normal((20, cfg.dim), scale=2.0)
            Y = rng.normal((20, cfg.dim), scale=2.0)
            gap = np.sum((icnn_input_grad(params, cfg, X)
                          - icnn_input_grad(params, cfg, Y)) * (X - Y), axis=1)
            assert np.all(gap >= cfg.quad * np.sum((X - Y) ** 2, axis=1) - 1e-9)

    def test_relu_variant_also_convex(self, rng):
        params, cfg = random_icnn(rng, smooth=False)
        X = rng.normal((200, cfg.dim), scale=2.0)
        Y = rng.normal((200, cfg.dim), scale=2.0)
        lam = rng.uniform((200, 1))
        mid = icnn_forward(params, cfg, lam * X + (1 - lam) * Y)
        bound = (lam[:, 0] * icnn_forward(params, cfg, X)
                 + (1 - lam[:, 0]) * icnn_forward(params, cfg, Y))
        assert np.all(mid <= bound + 1e-9)
