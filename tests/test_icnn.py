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
from conftest import blocks, quad_potential, relerr


def random_icnn(rng, dim=None):
    dim = dim or int(rng.integers(1, 4))
    L = int(rng.integers(1, 4))
    hidden = tuple(int(rng.integers(2, 6)) for _ in range(L))
    cfg = IcnnConfig(dim=dim, hidden=hidden, quad=float(rng.uniform((), 0.0, 1.5)))
    params = project_nonneg(init_icnn(cfg, rng.spawn(rng.integers(0, 10_000)),
                                      scale=0.8))
    return params, cfg


class TestForward:
    def test_identity_layer_with_summing_head(self):
        cfg = IcnnConfig(dim=2, hidden=(2,), quad=0.0)
        params = IcnnParams([np.eye(2), np.zeros((1, 2))],  # wx, wz, b
                            [np.array([[1.0, 1.0]])],
                            [np.zeros(2)])
        want = np.log1p(np.exp(1.0)) + np.log1p(np.exp(-2.0))
        assert relerr(icnn_forward(params, cfg, np.array([1.0, -2.0])), want) < 1e-15

    def test_all_zero_weights_constant_in_x(self, rng):
        cfg = IcnnConfig(dim=3, hidden=(4, 4), quad=0.0)
        params = IcnnParams(
            [np.zeros((4, 3)), np.zeros((4, 3)), np.zeros((1, 3))],  # wx
            [np.zeros((4, 4)), np.full((1, 4), 0.5)],                # wz
            [np.zeros(4), np.full(4, 2.25)])                         # b
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
    # both signs of every scale: exp(-|a|) is 1, near 1, moderate, near
    # the double underflow, and 0
    GRID = np.array([0.0, -0.0, 1e-8, -1e-8, 1.0, -1.0, 36.0, -36.0,
                     700.0, -700.0, 1e5, -1e5])

    def test_fused_kernel_matches_reference_expressions(self):
        # one hidden unit with a_0 = x, so the cache holds s, s', s'' at GRID
        cfg = IcnnConfig(dim=1, hidden=(1,), quad=0.0)
        params = IcnnParams([np.ones((1, 1)), np.zeros((1, 1))],  # wx, wz, b
                            [np.ones((1, 1))], [np.zeros(1)])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            c = icnn_cache(params, cfg, self.GRID[:, None])
            z, sd, sdd = c.z[0][:, 0], c.sd[0][:, 0], c.sdd[0][:, 0]
        t = self.GRID

        def close(got, want, rtol):
            return np.all(np.abs(got - want) <= rtol * np.abs(want) + 1e-300)

        assert close(z, np.logaddexp(0.0, t), 1e-15)
        assert close(sd, expit(t), 1e-15)
        assert close(sdd, expit(t) * expit(-t), 1e-14)
        assert np.all(np.isfinite(z) & np.isfinite(sd) & np.isfinite(sdd))
        assert np.all((sd >= 0.0) & (sd <= 1.0) & (sdd >= 0.0))
        # s' has no select, yet equals the two-branch expression bitwise
        e = np.exp(-np.abs(t))
        r = 1.0 / (1.0 + e)
        assert sd.tobytes() == np.where(t >= 0.0, r, e * r).tobytes()

    @pytest.mark.parametrize("value,curvature", [(False, False), (True, False),
                                                 (False, True)])
    def test_lean_cache_equals_full_cache(self, rng, value, curvature):
        params, cfg = random_icnn(rng)
        X = rng.normal((7, cfg.dim), scale=2.0)
        full = icnn_cache(params, cfg, X)
        lean = icnn_cache(params, cfg, X, value=value, curvature=curvature)
        L = len(cfg.hidden)
        assert len(full.z) == L and len(lean.z) == (L if value else L - 1)
        for got, want in zip(lean.z, full.z):
            assert got.tobytes() == want.tobytes()
        assert [a.tobytes() for a in lean.sd] == [a.tobytes() for a in full.sd]
        if curvature:
            assert [a.tobytes() for a in lean.sdd] == [a.tobytes() for a in full.sdd]
        else:
            assert lean.sdd is None
        if value:
            assert lean.out.tobytes() == full.out.tobytes()
        else:
            assert lean.out is None

    def test_pass_without_what_it_reads_raises(self, rng):
        params, cfg = random_icnn(rng)
        X = rng.normal((3, cfg.dim))
        no_curv = icnn_cache(params, cfg, X, curvature=False)
        no_value = icnn_cache(params, cfg, X, value=False)
        with pytest.raises(ValueError, match="curvature=True"):
            icnn_inputgrad_vjp(params, cfg, X, X, cache=no_curv)
        with pytest.raises(ValueError, match="value=True"):
            icnn_inputgrad_vjp(params, cfg, X, X, cache=no_value, upstream=1.0)
        with pytest.raises(ValueError, match="value=True"):
            icnn_backward(params, cfg, X, 1.0, cache=no_value)
        lean = icnn_cache(params, cfg, X, value=False, curvature=False)
        assert (icnn_input_grad(params, cfg, X, cache=lean).tobytes()
                == icnn_input_grad(params, cfg, X).tobytes())


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
        cfg = IcnnConfig(dim=2, hidden=(2, 2))
        params = init_icnn(cfg, Rng(0))
        params.wz[0][...] = [[-1.0, 2.0], [0.0, -3.0]]
        out = project_nonneg(params).wz[0]
        assert np.array_equal(out, [[0.0, 2.0], [0.0, 0.0]])

    def test_idempotent(self, rng):
        params, cfg = random_icnn(rng)
        params.theta[...] = rng.normal(params.theta.size)  # negatives everywhere
        once = project_nonneg(params)
        before = once.theta.copy()
        assert project_nonneg(once).theta.tobytes() == before.tobytes()

    def test_other_params_untouched(self, rng):
        params, cfg = random_icnn(rng)
        params.theta[...] = rng.normal(params.theta.size)  # negatives everywhere
        before = params.theta.copy()
        theta = params.theta
        out = project_nonneg(params)
        assert out is params and out.theta is theta  # clamped in place
        wz = params.span("wz")
        assert np.array_equal(out.theta[wz], np.maximum(before[wz], 0.0))
        keep = np.ones(before.size, dtype=bool)
        keep[wz] = False
        assert out.theta[keep].tobytes() == before[keep].tobytes()
        assert all(np.all(a >= 0.0) for a in out.wz)


class TestLayout:
    def test_blocks_are_views_into_theta(self, rng):
        params, cfg = random_icnn(rng)
        L = len(cfg.hidden)
        assert (len(params.wx), len(params.wz), len(params.b)) == (L + 1, L, L)
        for name, block in blocks(params):
            old = params.theta.copy()
            block.flat[-1] += 1.0
            changed = np.flatnonzero(params.theta != old)
            assert changed.size == 1, name
            block.flat[-1] -= 1.0

    def test_wz_blocks_fill_one_slice(self, rng):
        params, cfg = random_icnn(rng)
        wz = params.theta[params.span("wz")]
        assert np.array_equal(wz, np.concatenate([a.ravel() for a in params.wz]))

    def test_copy_shares_no_memory(self, rng):
        params, cfg = random_icnn(rng)
        dup = params.copy()
        assert dup.theta.tobytes() == params.theta.tobytes()
        for (name, a), (_, b) in zip(blocks(params), blocks(dup)):
            assert not np.shares_memory(a, b), name
        dup.wx[0][...] = 7.0
        assert not np.any(params.wx[0] == 7.0)

    def test_init_values_fixed_for_a_seed(self):
        # sha256 of the parameter values this init drew before the network
        # was laid out in one vector, in the order wx, wz, b (hidden only)
        import hashlib

        params = init_icnn(IcnnConfig(dim=3, hidden=(4, 5)), Rng(7), scale=0.3)
        assert params.theta.size == 3 * 4 + 3 * 5 + 3 + 5 * 4 + 5 + 4 + 5
        assert (hashlib.sha256(params.theta.tobytes()).hexdigest()
                == "26a734de99977185319847c4868d5618ffa563cac06d308064e21d89686a73f9")


class TestBackward:
    def test_zero_upstream_zero_grads(self, rng):
        params, cfg = random_icnn(rng)
        X = rng.normal((3, cfg.dim))
        grads, xg = icnn_backward(params, cfg, X, 0.0)
        assert grads.shape == params.theta.shape and np.all(grads == 0)
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
            fd = finite_diff_grad(
                lambda th: float(np.sum(U * icnn_forward(params.with_theta(th), cfg, X))),
                params.theta.copy(), 1e-6)
            for (key, g), (_, f) in zip(blocks(params, grads), blocks(params, fd)):
                assert relerr(g, f) < 1e-4, key


class TestInputGradVjp:
    @staticmethod
    def check_against_finite_differences(rng, upstream=False):
        """Parameter and x gradients of S = sum <v, grad h> (+ sum u h)."""
        for _ in range(8):
            params, cfg = random_icnn(rng)
            X = rng.normal((2, cfg.dim))
            V = rng.normal((2, cfg.dim))
            U = rng.normal(2) if upstream else None

            def S(pp, Xmat):
                s = float(np.sum(V * icnn_input_grad(pp, cfg, Xmat)))
                return s if U is None else s + float(np.sum(U * icnn_forward(pp, cfg, Xmat)))

            grads, xg = icnn_inputgrad_vjp(params, cfg, X, V, upstream=U)
            fd = finite_diff_grad(lambda th: S(params.with_theta(th), X),
                                  params.theta.copy(), 1e-6)
            for (key, g), (_, f) in zip(blocks(params, grads), blocks(params, fd)):
                assert relerr(g, f) < 1e-4, key
            for b in range(2):
                fd = finite_diff_grad(
                    lambda xx, b=b: S(params, np.vstack([X[:b], xx[None], X[b + 1:]])),
                    X[b].copy(), 1e-6)
                assert relerr(xg[b], fd) < 1e-4

    def test_matches_finite_differences(self, rng):
        self.check_against_finite_differences(rng)

    def test_upstream_matches_finite_differences(self, rng):
        self.check_against_finite_differences(rng, upstream=True)

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

