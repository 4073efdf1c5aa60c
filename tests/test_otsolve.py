import itertools

import numpy as np
import pytest

from lotnn.errors import NumericError, ShapeError
from lotnn.lot import ReferenceMeasure
from lotnn.nncore import Rng, finite_diff_grad
from lotnn.otsolve import (
    GaussianSpec,
    SolverConfig,
    dual_objective_V,
    estimate_w2_dual,
    exact_ot_discrete,
    exact_w2_discrete,
    fit_pairs,
    gaussian_w2,
    init_dual_pair,
    pair_for_cloud,
    solver_loss_and_grads,
    train_map,
)
from conftest import quad_pair, relerr, shift_pair


class TestDualObjective:
    def test_identity_psi_zero_phi(self, rng):
        pair = quad_pair(2, q_psi=1.0, q_phi=0.0)
        X = rng.normal((40, 2))
        Y = rng.normal((40, 2))
        want = -float(np.mean(np.sum(X * X, axis=1)))
        assert relerr(dual_objective_V(pair, X, Y), want) < 1e-12

    def test_constant_phi_cancels(self, rng):
        pair = quad_pair(2, q_psi=1.0, q_phi=0.0, phi_bias=4.2)
        X = rng.normal((25, 2))
        Y = rng.normal((25, 2))
        want = -float(np.mean(np.sum(X * X, axis=1)))
        assert relerr(dual_objective_V(pair, X, Y), want) < 1e-12

    def test_single_point_hand_value(self):
        pair = quad_pair(2, q_psi=1.0, q_phi=0.0)
        x0 = np.array([[1.5, -2.0]])
        y0 = np.array([[0.3, 0.4]])
        assert relerr(dual_objective_V(pair, x0, y0), -float(x0[0] @ x0[0])) < 1e-12

    def test_empty_batch_rejected(self):
        pair = quad_pair(2)
        with pytest.raises(ShapeError):
            dual_objective_V(pair, np.empty((0, 2)), np.ones((3, 2)))

    def test_dim_mismatch_rejected(self):
        pair = quad_pair(2)
        with pytest.raises(ShapeError):
            dual_objective_V(pair, np.ones((3, 3)), np.ones((3, 3)))


class TestW2Estimate:
    def test_self_transport_is_zero(self, rng):
        # psi the exact identity map, phi its conjugate, sigma == mu
        pair = quad_pair(3, q_psi=1.0, q_phi=1.0)
        X = rng.normal((60, 3))
        assert estimate_w2_dual(pair, X, X) < 1e-6

    def test_one_point_shift_recovers_distance(self):
        x0 = np.array([[0.7, -1.1]])
        y0 = np.array([[2.2, 0.4]])
        pair = shift_pair(2, (y0 - x0)[0])
        want = float(np.linalg.norm(y0 - x0))
        assert relerr(estimate_w2_dual(pair, x0, y0), want) < 1e-9

    def test_population_shift_recovers_distance(self, rng):
        a = np.array([2.0, -1.0])
        pair = shift_pair(2, a)
        X = rng.normal((500, 2))
        got = estimate_w2_dual(pair, X, X + a)
        assert relerr(got, float(np.linalg.norm(a))) < 1e-9

    def test_untrained_pair_is_finite_nonnegative(self, rng):
        cfg = SolverConfig(batch_size=16, iters=0, hidden=(6, 6), seed=3)
        pair = init_dual_pair(2, cfg, Rng(9))
        val = estimate_w2_dual(pair, rng.normal((30, 2)), rng.normal((30, 2)))
        assert np.isfinite(val) and val >= 0.0


class TestSolverLossGradients:
    def test_matches_finite_differences(self, rng):
        for trial in range(6):
            cfg = SolverConfig(batch_size=8, iters=1,
                               hidden=tuple(int(rng.integers(2, 5))
                                            for _ in range(int(rng.integers(1, 3)))),
                               quad_psi=float(rng.uniform((), 0.1, 1.0)),
                               quad_phi=float(rng.uniform((), 0.1, 1.0)),
                               lambda_cyc=float(rng.uniform((), 0.0, 2.0)),
                               seed=trial)
            pair = init_dual_pair(2, cfg, Rng(100 + trial))
            X = rng.normal((4, 2))
            Y = rng.normal((4, 2))
            loss, grads = solver_loss_and_grads(pair, X, Y, cfg.lambda_cyc)
            case = f"trial {trial}, hidden {cfg.hidden}"
            # the output biases get exactly zero gradient: phi's cancels
            # between E_Y[phi] and -E_X[phi(grad psi)], psi's never reaches
            # the loss, which sees psi only through grad psi
            for name, params in (("psi", pair.psi), ("phi", pair.phi)):
                out_bias = f"{name}.b{len(params.wz)}"
                assert np.all(grads[out_bias] == 0.0), \
                    f"{case}, {out_bias}: {grads[out_bias]} != 0"
            flat = pair.psi.to_flat("psi.") | pair.phi.to_flat("phi.")
            # h = 1e-4: the loss is O(1) while some bias gradients are
            # ~1e-6, so smaller steps drown the difference in roundoff
            h = 1e-4
            # atol: one ulp of the loss (at most eps * max(1, |loss|)) over 2h,
            # the roundoff floor of a central difference, with a margin of 200
            atol = 100 * np.finfo(np.float64).eps * max(1.0, abs(loss)) / h
            for key, arr in flat.items():
                def f(w, key=key):
                    saved = flat[key].copy()
                    flat[key][...] = w
                    val, _ = solver_loss_and_grads(pair, X, Y, cfg.lambda_cyc)
                    flat[key][...] = saved
                    return val
                fd = finite_diff_grad(f, arr.copy(), h)
                err = float(np.max(np.abs(grads[key] - fd)))
                bound = 1e-4 * max(float(np.max(np.abs(grads[key]))),
                                   float(np.max(np.abs(fd)))) + atol
                assert err <= bound, \
                    f"{case}, {key}: max|g - fd| = {err:.3g} > bound {bound:.3g}"


class TestTrainMap:
    def test_zero_budget_returns_initialized_pair(self):
        sigma = ReferenceMeasure.standard(2, seed=0)
        cfg = SolverConfig(batch_size=8, iters=0, hidden=(4,), seed=5)
        cloud = sigma.sample(30, seed=1)
        pair = train_map(sigma, cloud, cfg)
        from lotnn.otsolve import make_frame
        fresh = init_dual_pair(2, cfg, Rng(cfg.seed).spawn(0),
                               frame=make_frame(sigma, cloud))
        for a, b in zip(pair.psi.wx, fresh.psi.wx):
            assert np.array_equal(a, b)
        assert pair.meta["iterations"] == 0

    def test_learns_shift_map(self):
        sigma = ReferenceMeasure.standard(2, seed=21)
        shift = np.array([2.0, 0.0])
        cloud = sigma.sample(800, seed=22) + shift
        cfg = SolverConfig(batch_size=128, iters=500, lr=3e-3, hidden=(16,), seed=7)
        pair = train_map(sigma, cloud, cfg)
        X = sigma.sample(2000, seed=23)
        err = float(np.mean(np.linalg.norm(pair.map_forward(X) - (X + shift), axis=1)))
        assert err <= 0.15 * float(np.linalg.norm(shift))

    def test_deterministic_replay(self):
        sigma = ReferenceMeasure.standard(2, seed=31)
        cloud = sigma.sample(200, seed=32) + np.array([1.0, 1.0])
        cfg = SolverConfig(batch_size=32, iters=40, hidden=(5,), seed=11)
        p1 = train_map(sigma, cloud, cfg)
        p2 = train_map(sigma, cloud, cfg)
        for a, b in zip(p1.psi.to_flat().values(), p2.psi.to_flat().values()):
            assert np.array_equal(a, b)
        assert p1.meta["loss_history"] == p2.meta["loss_history"]

    def test_empty_cloud_rejected(self):
        sigma = ReferenceMeasure.standard(2, seed=0)
        with pytest.raises(ShapeError):
            train_map(sigma, np.empty((0, 2)), SolverConfig(batch_size=8, iters=1))


class TestFitPairs:
    @staticmethod
    def _setup(n_clouds=2):
        sigma = ReferenceMeasure.standard(2, seed=41)
        cfg = SolverConfig(batch_size=16, hidden=(5,), seed=3)
        clouds = {f"c{i}": sigma.sample(40, seed=42 + i) + np.array([i, -i])
                  for i in range(n_clouds)}
        pairs = {cid: pair_for_cloud(sigma, pts, cfg, Rng(50 + i))
                 for i, (cid, pts) in enumerate(clouds.items())}
        return sigma, cfg, clouds, pairs

    def test_split_budget_equals_one_call(self):
        # pairs, Adam states and the batch stream all carry over between
        # calls, so 3 + 2 steps are bitwise the same as 5
        sigma, cfg, clouds, pairs = self._setup()
        states = {}
        rng = Rng(60)
        losses = fit_pairs(sigma, clouds, pairs, states, cfg, rng, 3)
        losses += fit_pairs(sigma, clouds, pairs, states, cfg, rng, 2)
        _, _, _, whole = self._setup()
        want = fit_pairs(sigma, clouds, whole, {}, cfg, Rng(60), 5)
        assert losses == want and len(losses) == 5 * len(clouds)
        assert set(states) == set(clouds)
        for cid in clouds:
            assert pairs[cid].meta["iterations"] == whole[cid].meta["iterations"] == 5
            for k, v in whole[cid].psi.to_flat().items():
                assert np.array_equal(pairs[cid].psi.to_flat()[k], v)

    def test_train_map_is_one_cloud_fit(self):
        sigma, _, clouds, _ = self._setup(1)
        cfg = SolverConfig(batch_size=16, hidden=(5,), iters=4, seed=3)
        got = train_map(sigma, clouds["c0"], cfg)
        pairs = {"c0": pair_for_cloud(sigma, clouds["c0"], cfg, Rng(cfg.seed).spawn(0))}
        losses = fit_pairs(sigma, clouds, pairs, {}, cfg, Rng(cfg.seed).spawn(3), 4)
        assert got.meta["loss_history"] == losses
        assert got.meta["iterations"] == 4
        for k, v in pairs["c0"].phi.to_flat().items():
            assert np.array_equal(got.phi.to_flat()[k], v)

    def test_clouds_share_each_steps_reference_batch(self, monkeypatch):
        import lotnn.otsolve as otsolve_mod

        sigma, cfg, clouds, pairs = self._setup(3)
        seen = []
        monkeypatch.setattr(otsolve_mod, "solver_step",
                            lambda pair, X, Y, lam, state:
                            seen.append((X, Y)) or (pair, state, 0.0))
        fit_pairs(sigma, clouds, pairs, {}, cfg, Rng(0), 2)
        assert len(seen) == 6
        for step in (0, 1):
            X0 = seen[3 * step][0]
            for j, points in enumerate(clouds.values()):
                X, Y = seen[3 * step + j]
                assert np.array_equal(X, X0) and Y.shape == (cfg.batch_size, 2)
                assert all(any(np.array_equal(y, p) for p in points) for y in Y)
        assert not np.array_equal(seen[0][0], seen[3][0])

    def test_nonfinite_loss_names_cloud_and_step(self, monkeypatch):
        import lotnn.otsolve as otsolve_mod

        sigma, cfg, clouds, pairs = self._setup()
        calls = []

        def fake_step(pair, X, Y, lam, state):
            calls.append(1)
            return pair, state, float("nan") if len(calls) == 4 else 0.0

        monkeypatch.setattr(otsolve_mod, "solver_step", fake_step)
        with pytest.raises(NumericError, match=r"non-finite loss \(cloud c1, step 1\)"):
            fit_pairs(sigma, clouds, pairs, {}, cfg, Rng(0), 3)
        assert pairs["c0"].meta["iterations"] == 2
        assert pairs["c1"].meta["iterations"] == 1

    def test_step_error_names_cloud_and_step(self, monkeypatch):
        import lotnn.otsolve as otsolve_mod

        def fail(pair, X, Y, lam, state):
            raise NumericError("injected")

        sigma, cfg, clouds, pairs = self._setup()
        monkeypatch.setattr(otsolve_mod, "solver_step", fail)
        with pytest.raises(NumericError, match=r"^injected \(cloud c0, step 0\)$"):
            fit_pairs(sigma, clouds, pairs, {}, cfg, Rng(0), 1)


def brute_force_cost(X, Y):
    n = X.shape[0]
    best = np.inf
    for perm in itertools.permutations(range(n)):
        cost = float(np.mean(np.sum((X - Y[list(perm)]) ** 2, axis=1)))
        best = min(best, cost)
    return best


class TestExactOt:
    def test_identical_clouds_zero_cost(self, rng):
        X = rng.normal((8, 3))
        perm = rng.permutation(8)
        _, cost = exact_ot_discrete(X, X[perm])
        assert cost < 1e-12

    def test_monotone_matching_on_line(self):
        X = np.array([[0.0], [2.0]])
        Y = np.array([[1.0], [3.0]])
        assert abs(exact_w2_discrete(X, Y) - 1.0) < 1e-12

    def test_single_pair(self):
        assert exact_w2_discrete(np.array([[0.0, 0.0]]),
                                 np.array([[3.0, 4.0]])) == 5.0

    def test_matches_brute_force(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 7))
            d = int(rng.integers(1, 4))
            X = rng.normal((n, d))
            Y = rng.normal((n, d))
            _, cost = exact_ot_discrete(X, Y)
            assert abs(cost - brute_force_cost(X, Y)) < 1e-9

    def test_shift_invariance(self, rng):
        for _ in range(25):
            X = rng.normal((6, 2))
            Y = rng.normal((6, 2))
            a = rng.normal(2)
            _, c0 = exact_ot_discrete(X, Y)
            _, c1 = exact_ot_discrete(X + a, Y + a)
            assert abs(c0 - c1) < 1e-9

    def test_symmetry_and_triangle(self, rng):
        for _ in range(40):
            X = rng.normal((5, 2))
            Y = rng.normal((5, 2))
            Z = rng.normal((5, 2))
            dxy = exact_w2_discrete(X, Y)
            dyx = exact_w2_discrete(Y, X)
            assert abs(dxy - dyx) < 1e-9
            assert dxy <= exact_w2_discrete(X, Z) + exact_w2_discrete(Z, Y) + 1e-9

    def test_size_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            exact_ot_discrete(np.ones((3, 2)), np.ones((4, 2)))

    def test_matching_is_permutation(self, rng):
        X = rng.normal((6, 2))
        Y = rng.normal((6, 2))
        perm, _ = exact_ot_discrete(X, Y)
        assert sorted(perm) == list(range(6))


class TestGaussianOracle:
    def test_identical_zero(self):
        g = GaussianSpec((1.0, 2.0), (0.5, 0.7))
        assert gaussian_w2(g, g) == 0.0

    def test_hand_value(self):
        a = GaussianSpec((0.0, 0.0), (1.0, 1.0))
        b = GaussianSpec((3.0, 0.0), (4.0, 4.0))
        assert relerr(gaussian_w2(a, b), np.sqrt(11.0)) < 1e-12

    def test_pure_shift(self):
        a = GaussianSpec((0.0, 0.0, 0.0), (2.0, 3.0, 4.0))
        b = GaussianSpec((1.0, -2.0, 2.0), (2.0, 3.0, 4.0))
        assert relerr(gaussian_w2(a, b), 3.0) < 1e-12

    def test_invalid_variance_rejected(self):
        with pytest.raises(ValueError):
            GaussianSpec((0.0,), (0.0,))

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            gaussian_w2(GaussianSpec((0.0,), (1.0,)),
                        GaussianSpec((0.0, 0.0), (1.0, 1.0)))
