import contextlib
import dataclasses
import functools
import itertools
import os
import pickle
import signal
import tracemalloc

import numpy as np
import pytest

from lotnn import nncore
from lotnn import otsolve as otsolve_mod
from lotnn.errors import NumericError, ShapeError
from lotnn.icnn import icnn_forward, icnn_input_grad, init_icnn, project_nonneg
from lotnn.nncore import Rng, finite_diff_grad
from lotnn.otsolve import (
    DualPair,
    Frame,
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
from conftest import (blocks, exit_inner_task, late_inner_task, nan_batch, quad_pair,
                      relerr, shift_pair, start_workers, unit_reference,
                      wrapped_inner_task)


class TestDualObjective:
    def test_identity_psi_zero_phi(self, rng):
        pair = quad_pair(2, q_psi=1.0, q_phi=0.0)
        X = rng.normal((40, 2))
        Y = rng.normal((40, 2))
        want = -float(np.mean(np.sum(X * X, axis=1)))
        assert relerr(dual_objective_V(pair, X, Y), want) < 1e-12

    def test_constant_phi_cancels(self, rng):
        pair = quad_pair(2, q_psi=1.0, q_phi=0.0)
        # phi's hidden unit sees only its bias, so it adds softplus(4.2)
        pair.phi.b[0][...] = 4.2
        pair.phi.wz[0][...] = 1.0
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


class TestMapForward:
    def test_equals_the_plain_expressions_bitwise(self, rng):
        # the forward and reverse expressions of the gradient map without
        # buffer reuse, skipped layers or the select-free s'
        cfg = SolverConfig(hidden=(5, 4, 3))
        frame = Frame(sigma_mean=(0.5, -1.0, 2.0), mu_mean=(3.0, 0.0, -0.25),
                      scale=1.7)
        pair = init_dual_pair(3, cfg, rng, frame=frame, quads=(0.3, 0.7))
        p, L = pair.psi, len(cfg.hidden)
        # weights drawn at 10x the default scale, so pre-activations reach
        # both tails of s'
        p.theta[...] = project_nonneg(init_icnn(pair.psi_cfg, rng, scale=1.0)).theta
        X = rng.normal((50, 3), scale=3.0)
        x = (X - np.asarray(frame.sigma_mean)) / frame.scale
        sd = []
        for i in range(L):
            a = x @ p.wx[0].T + p.b[0] if i == 0 else \
                x @ p.wx[i].T + z @ p.wz[i - 1].T + p.b[i]
            e = np.exp(-np.abs(a))
            r = 1.0 / (1.0 + e)
            z = np.maximum(a, 0.0) + np.log1p(e)
            sd.append(np.where(a >= 0.0, r, e * r))
        g = pair.psi_cfg.quad * x + p.wx[L]
        delta = sd[L - 1] * p.wz[L - 1]
        g = g + delta @ p.wx[L - 1]
        for i in range(L - 2, -1, -1):
            delta = sd[i] * (delta @ p.wz[i])
            g = g + delta @ p.wx[i]
        want = frame.scale * g + np.asarray(frame.mu_mean)
        assert pair.map_forward(X).tobytes() == want.tobytes()

    def test_wrong_width_batch_rejected(self):
        # (n, 1) - mean would broadcast to (n, 2) and yield a map value
        pair = shift_pair(2, [1.0, 2.0])
        for call, x in ((pair.map_forward, np.ones((3, 1))),
                        (pair.map_forward, np.ones(1)),
                        (pair.potential_phi, np.ones((2, 1)))):
            with pytest.raises(ShapeError, match=r"batch width 1 != pair dim 2"):
                call(x)


def check_against_finite_differences(pair, X, Y, lambda_cyc, case):
    """solver_loss_and_grads's gradients of both networks against central
    differences of its loss, block by block."""
    loss, g_psi, g_phi = solver_loss_and_grads(pair, X, Y, lambda_cyc)
    # h = 1e-4: the loss is O(1) while some bias gradients are
    # ~1e-6, so smaller steps drown the difference in roundoff
    h = 1e-4
    # atol: one ulp of the loss (at most eps * max(1, |loss|)) over 2h,
    # the roundoff floor of a central difference, with a margin of 200
    atol = 100 * np.finfo(np.float64).eps * max(1.0, abs(loss)) / h

    def loss_of(_):
        return solver_loss_and_grads(pair, X, Y, lambda_cyc)[0]

    for name, params, grad in (("psi", pair.psi, g_psi), ("phi", pair.phi, g_phi)):
        # finite_diff_grad perturbs params.theta in place, one entry
        # at a time, and restores each entry; the pair sees it
        fd = finite_diff_grad(loss_of, params.theta, h)
        for (key, g), (_, f) in zip(blocks(params, grad, f"{name}."),
                                    blocks(params, fd)):
            err = float(np.max(np.abs(g - f)))
            bound = 1e-4 * max(float(np.max(np.abs(g))),
                               float(np.max(np.abs(f)))) + atol
            assert err <= bound, \
                f"{case}, {key}: max|g - fd| = {err:.3g} > bound {bound:.3g}"
            # the check has the power to see a 1% error in the block
            bad = 1.01 * g
            err = float(np.max(np.abs(bad - f)))
            bound = 1e-4 * max(float(np.max(np.abs(bad))),
                               float(np.max(np.abs(f)))) + atol
            assert err > bound, f"{case}, {key}: a 1% error passes"


class TestSolverLossGradients:
    def test_matches_finite_differences(self, rng):
        for trial in range(6):
            hidden = tuple(int(rng.integers(2, 5)) for _ in range(int(rng.integers(1, 3))))
            quads = tuple(float(rng.uniform((), 0.1, 1.0)) for _ in range(2))
            cfg = SolverConfig(batch_size=8, iters=1, hidden=hidden,
                               lambda_cyc=float(rng.uniform((), 0.0, 2.0)), seed=trial)
            pair = init_dual_pair(2, cfg, Rng(100 + trial), quads=quads)
            X = rng.normal((4, 2))
            Y = rng.normal((4, 2))
            check_against_finite_differences(pair, X, Y, cfg.lambda_cyc,
                                             f"trial {trial}, hidden {cfg.hidden}")

    def test_two_uneven_halves_match_finite_differences(self, rng):
        # X's halves hold 3 and 2 rows, Y's 4 and 3
        cfg = SolverConfig(hidden=(4, 3), lambda_cyc=0.7)
        pair = init_dual_pair(2, cfg, Rng(7), quads=(0.4, 0.6))
        X, Y = rng.normal((5, 2)), rng.normal((7, 2))
        check_against_finite_differences(pair, X, Y, cfg.lambda_cyc, "5 + 7 rows")

    def test_is_half_1_plus_half_2(self, rng):
        # the halves as _half_loss_and_grads weights them, half 1 first
        cfg = SolverConfig(hidden=(4, 3), lambda_cyc=0.7)
        pair = init_dual_pair(3, cfg, Rng(8), quads=(0.4, 0.6))
        X, Y = rng.normal((9, 3)), rng.normal((6, 3))
        one = otsolve_mod._half_loss_and_grads(pair, X[:5], Y[:3], 0.7, 9, 6)
        two = otsolve_mod._half_loss_and_grads(pair, X[5:], Y[3:], 0.7, 9, 6)
        loss, g_psi, g_phi = solver_loss_and_grads(pair, X, Y, 0.7)
        assert loss == one[0] + two[0]
        assert g_psi.tobytes() == (one[1] + two[1]).tobytes()
        assert g_phi.tobytes() == (one[2] + two[2]).tobytes()
        # and within rounding of the loss as one mean over each batch (the
        # pair's frame is the identity)
        G = pair.map_forward(X)
        H = icnn_input_grad(pair.phi, pair.phi_cfg, G)
        whole = (np.mean(icnn_forward(pair.phi, pair.phi_cfg, Y))
                 + np.mean(np.sum(X * G, axis=1) - icnn_forward(pair.phi, pair.phi_cfg, G))
                 + 0.7 * np.mean(np.sum((H - X) ** 2, axis=1)))
        assert relerr(loss, whole) < 1e-14


class TestTrainMap:
    def test_zero_budget_returns_initialized_pair(self):
        sigma = unit_reference(2, seed=0)
        cfg = SolverConfig(batch_size=8, iters=0, hidden=(4,), seed=5)
        cloud = sigma.sample(30, seed=1)
        pair = train_map(sigma, cloud, cfg)
        from lotnn.otsolve import make_frame
        fresh = init_dual_pair(2, cfg, Rng(cfg.seed).spawn(0),
                               frame=make_frame(sigma, cloud))
        assert np.array_equal(pair.psi.theta, fresh.psi.theta)
        assert pair.meta["iterations"] == 0

    def test_learns_shift_map(self):
        sigma = unit_reference(2, seed=21)
        shift = np.array([2.0, 0.0])
        cloud = sigma.sample(800, seed=22) + shift
        cfg = SolverConfig(batch_size=128, iters=500, lr=3e-3, hidden=(16,), seed=7)
        pair = train_map(sigma, cloud, cfg)
        X = sigma.sample(2000, seed=23)
        err = float(np.mean(np.linalg.norm(pair.map_forward(X) - (X + shift), axis=1)))
        assert err <= 0.15 * float(np.linalg.norm(shift))

    def test_deterministic_replay(self):
        sigma = unit_reference(2, seed=31)
        cloud = sigma.sample(200, seed=32) + np.array([1.0, 1.0])
        cfg = SolverConfig(batch_size=32, iters=40, hidden=(5,), seed=11)
        p1 = train_map(sigma, cloud, cfg)
        p2 = train_map(sigma, cloud, cfg)
        assert p1.psi.theta.tobytes() == p2.psi.theta.tobytes()
        assert p1.meta["loss_history"] == p2.meta["loss_history"]

    def test_empty_cloud_rejected(self):
        sigma = unit_reference(2, seed=0)
        with pytest.raises(ShapeError):
            train_map(sigma, np.empty((0, 2)), SolverConfig(batch_size=8, iters=1))


class TestFitPairs:
    @staticmethod
    def _setup(n_clouds=2):
        sigma = unit_reference(2, seed=41)
        cfg = SolverConfig(batch_size=16, hidden=(5,), seed=3)
        clouds = {f"c{i}": sigma.sample(40, seed=42 + i) + np.array([i, -i])
                  for i in range(n_clouds)}
        pairs = {cid: pair_for_cloud(sigma, pts, cfg, Rng(50 + i))
                 for i, (cid, pts) in enumerate(clouds.items())}
        return sigma, cfg, clouds, pairs

    def test_split_budget_equals_one_call(self):
        # pairs and Adam states carry over between calls, and a step's
        # batches depend on its pair's seed and step count alone, so 3 + 2
        # steps are bitwise the same as 5
        sigma, cfg, clouds, pairs = self._setup()
        states = {}
        losses = fit_pairs(sigma, clouds, pairs, states, cfg, 3)
        losses += fit_pairs(sigma, clouds, pairs, states, cfg, 2)
        _, _, _, whole = self._setup()
        want = fit_pairs(sigma, clouds, whole, {}, cfg, 5)
        assert losses == want and len(losses) == 5 * len(clouds)
        assert set(states) == set(clouds)
        for cid in clouds:
            assert pairs[cid].meta["iterations"] == whole[cid].meta["iterations"] == 5
            assert pairs[cid].psi.theta.tobytes() == whole[cid].psi.theta.tobytes()

    def test_train_map_is_one_cloud_fit(self):
        sigma, _, clouds, _ = self._setup(1)
        cfg = SolverConfig(batch_size=16, hidden=(5,), iters=4, seed=3)
        got = train_map(sigma, clouds["c0"], cfg)
        pairs = {"c0": pair_for_cloud(sigma, clouds["c0"], cfg, Rng(cfg.seed).spawn(0))}
        losses = fit_pairs(sigma, clouds, pairs, {}, cfg, 4)
        assert got.meta["loss_history"] == losses
        assert got.meta["iterations"] == 4
        # the seed recorded is the one the batches came from
        assert got.meta["seed"] == pairs["c0"].meta["seed"] == Rng(cfg.seed).spawn(0).seed
        assert got.phi.theta.tobytes() == pairs["c0"].phi.theta.tobytes()

    @pytest.mark.usefixtures("one_cpu")
    def test_a_steps_draws_depend_only_on_its_pairs_seed_and_step(self, monkeypatch):
        sigma, cfg, clouds, pairs = self._setup(3)
        # c2 gets c0's seed; the clouds are of one size, so the same draws
        # pick the same reference batch and the same row numbers
        pairs["c2"].meta["seed"] = pairs["c0"].meta["seed"]
        seen = []
        monkeypatch.setattr(otsolve_mod, "solver_step",
                            lambda pair, X, Y, lam, state: seen.append((X, Y)) or 0.0)
        fit_pairs(sigma, clouds, pairs, {}, cfg, 2)
        assert len(seen) == 6
        draws = {(cid, t): seen[3 * t + j] for t in (0, 1) for j, cid in enumerate(clouds)}

        def rows(cid, Y):
            return [int(np.flatnonzero((clouds[cid] == y).all(axis=1))[0]) for y in Y]

        for t in (0, 1):
            (X0, Y0), (X1, _), (X2, Y2) = (draws[cid, t] for cid in clouds)
            assert X0.shape == (cfg.batch_size, 2) and Y0.shape == (cfg.batch_size, 2)
            assert np.array_equal(X0, X2) and rows("c0", Y0) == rows("c2", Y2)
            assert not np.array_equal(X0, X1)
        assert not np.array_equal(draws["c0", 0][0], draws["c0", 1][0])
        # c1's step 1 once more, alone in a call of its own: the same draws
        seen.clear()
        pairs["c1"].meta["iterations"] = 1
        fit_pairs(sigma, {"c1": clouds["c1"]}, pairs, {}, cfg, 1)
        assert len(seen) == 1
        assert all(np.array_equal(a, b) for a, b in zip(seen[0], draws["c1", 1]))

    @pytest.mark.usefixtures("one_cpu")
    def test_nonfinite_loss_names_cloud_and_step(self, monkeypatch):
        import lotnn.otsolve as otsolve_mod

        sigma, cfg, clouds, pairs = self._setup()
        calls = []

        def fake_step(pair, X, Y, lam, state):
            calls.append(1)
            return float("nan") if len(calls) == 4 else 0.0

        monkeypatch.setattr(otsolve_mod, "solver_step", fake_step)
        with pytest.raises(NumericError, match=r"non-finite loss \(cloud c1, step 1\)"):
            fit_pairs(sigma, clouds, pairs, {}, cfg, 3)
        assert pairs["c0"].meta["iterations"] == 2
        assert pairs["c1"].meta["iterations"] == 1

    @pytest.mark.usefixtures("one_cpu")
    def test_step_error_names_cloud_and_step(self, monkeypatch):
        import lotnn.otsolve as otsolve_mod

        def fail(pair, X, Y, lam, state):
            raise NumericError("injected")

        sigma, cfg, clouds, pairs = self._setup()
        monkeypatch.setattr(otsolve_mod, "solver_step", fail)
        with pytest.raises(NumericError, match=r"^injected \(cloud c0, step 0\)$"):
            fit_pairs(sigma, clouds, pairs, {}, cfg, 1)


    @pytest.mark.parametrize("dim", [2, 10])
    def test_equals_the_functional_step_bitwise(self, dim):
        # the step as it reads without in-place updates: concatenate both
        # networks, textbook Adam, split, clamp wz in copies
        sigma = unit_reference(dim, seed=41)
        cfg = SolverConfig(batch_size=16, hidden=(6, 5), seed=3, lr=0.01)
        clouds = {f"c{i}": 1.5 * sigma.sample(40, seed=42 + i) + i for i in range(2)}

        def fresh_pairs():
            return {cid: pair_for_cloud(sigma, pts, cfg, Rng(50 + i))
                    for i, (cid, pts) in enumerate(clouds.items())}

        init = fresh_pairs()
        ref = {cid: (p.psi.theta.copy(), p.phi.theta.copy(), 0.0, 0.0)
               for cid, p in init.items()}
        b1, b2, eps = 0.9, 0.999, 1e-8
        want = []
        for t in range(1, 6):
            for cid, pts in clouds.items():
                # step t's batches, from the pair's seed and its t - 1 steps so far
                x_seed, row_seed = np.random.SeedSequence(
                    [init[cid].meta["seed"], t - 1]).generate_state(2)
                X = sigma.sample(cfg.batch_size, seed=int(x_seed))
                Y = pts[Rng(int(row_seed)).integers(0, pts.shape[0], size=cfg.batch_size)]
                psi_th, phi_th, m, v = ref[cid]
                p = init[cid]
                pair = DualPair(p.psi.with_theta(psi_th), p.psi_cfg,
                                p.phi.with_theta(phi_th), p.phi_cfg, p.frame)
                Xs = (X - np.asarray(p.frame.sigma_mean)) / p.frame.scale
                Ys = (Y - np.asarray(p.frame.mu_mean)) / p.frame.scale
                loss, g_psi, g_phi = solver_loss_and_grads(pair, Xs, Ys, cfg.lambda_cyc)
                g = np.concatenate([g_psi, g_phi])
                m = b1 * m + (1.0 - b1) * g
                v = b2 * v + (1.0 - b2) * (g * g)
                m_hat = m / (1.0 - b1**t)
                v_hat = v / (1.0 - b2**t)
                theta = np.concatenate([psi_th, phi_th]) \
                    - cfg.lr * m_hat / (np.sqrt(v_hat) + eps)
                psi_th, phi_th = theta[:psi_th.size].copy(), theta[psi_th.size:].copy()
                for th, layout in ((psi_th, p.psi), (phi_th, p.phi)):
                    wz = layout.span("wz")
                    th[wz] = np.maximum(th[wz], 0.0)
                ref[cid] = (psi_th, phi_th, m, v)
                want.append(loss)

        pairs, states = fresh_pairs(), {}
        assert fit_pairs(sigma, clouds, pairs, states, cfg, 5) == want
        for cid, (psi_th, phi_th, m, v) in ref.items():
            assert pairs[cid].psi.theta.tobytes() == psi_th.tobytes()
            assert pairs[cid].phi.theta.tobytes() == phi_th.tobytes()
            assert states[cid].m.tobytes() == m.tobytes()
            assert states[cid].v.tobytes() == v.tobytes()

    def test_keeps_each_pair_and_its_buffers(self, monkeypatch):
        # at every CPU count: a worker's reply goes into the caller's
        # arrays, Adam's m and v included once the caller has them
        for cpus in (1, 2, 3):
            start_workers(monkeypatch, cpus)
            sigma, cfg, clouds, pairs = self._setup()
            before = dict(pairs)
            nets = {cid: (p.psi, p.phi, p.psi.theta, p.phi.theta) for cid, p in pairs.items()}
            bytes0 = {cid: p.psi.theta.tobytes() for cid, p in pairs.items()}
            states = {}
            fit_pairs(sigma, clouds, pairs, states, cfg, 2)
            adam = {cid: (s, s.m, s.v) for cid, s in states.items()}
            fit_pairs(sigma, clouds, pairs, states, cfg, 3)
            for cid, pair in pairs.items():
                psi, phi, psi_th, phi_th = nets[cid]
                assert pair is before[cid] and pair.psi is psi and pair.phi is phi, cpus
                assert np.shares_memory(pair.psi.theta, psi_th), cpus
                assert np.shares_memory(pair.phi.theta, phi_th), cpus
                assert pair.psi.theta.tobytes() != bytes0[cid], cpus  # the steps did happen
                s, m, v = adam[cid]
                assert states[cid] is s and s.m is m and s.v is v and s.step == 5, cpus

    @pytest.mark.usefixtures("one_cpu")
    def test_nonfinite_gradient_changes_nothing(self, monkeypatch):
        import lotnn.otsolve as otsolve_mod

        sigma, cfg, clouds, pairs = self._setup()
        states = {}
        fit_pairs(sigma, clouds, pairs, states, cfg, 2)
        real = otsolve_mod.solver_loss_and_grads

        def poisoned(*args):
            loss, g_psi, g_phi = real(*args)
            g_phi[-1] = np.nan
            return loss, g_psi, g_phi

        def snapshot(cid):
            s = states[cid]
            return (pairs[cid].psi.theta.tobytes(), pairs[cid].phi.theta.tobytes(),
                    s.m.tobytes(), s.v.tobytes(), s.step, pairs[cid].meta["iterations"])

        before = {cid: snapshot(cid) for cid in clouds}
        monkeypatch.setattr(otsolve_mod, "solver_loss_and_grads", poisoned)
        with pytest.raises(NumericError, match=r"non-finite gradient \(cloud c0, step 2\)"):
            fit_pairs(sigma, clouds, pairs, states, cfg, 1)
        assert {cid: snapshot(cid) for cid in clouds} == before


class TestFitPairsOnWorkers:
    @staticmethod
    def _run(monkeypatch, n_clouds=5, batch_seed=None, **solver):
        """Two fit_pairs calls; the outputs, and the solver steps run in this
        process. With batch_seed, pair i draws its batches from seed
        batch_seed + i."""
        here = []
        step = otsolve_mod.solver_step
        monkeypatch.setattr(otsolve_mod, "solver_step",
                            lambda *args: here.append(1) or step(*args))
        sigma, cfg, clouds, pairs = TestFitPairs._setup(n_clouds)
        if batch_seed is not None:
            for i, pair in enumerate(pairs.values()):
                pair.meta["seed"] = batch_seed + i
        cfg = dataclasses.replace(cfg, **solver)
        states = {}
        losses = [fit_pairs(sigma, clouds, pairs, states, cfg, k) for k in (2, 3)]
        monkeypatch.setattr(otsolve_mod, "solver_step", step)
        nets = {cid: (p.meta, p.psi.theta.tobytes(), p.phi.theta.tobytes(),
                      states[cid].m.tobytes(), states[cid].v.tobytes(), states[cid].step)
                for cid, p in pairs.items()}
        return (losses, nets), len(here)

    @pytest.mark.parametrize("batch_seed", [1 << 24, 1])
    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_equals_the_serial_fit_bitwise(self, monkeypatch, cpus, batch_seed):
        monkeypatch.setattr(nncore, "_usable_cpus", lambda: 1)
        want, _ = self._run(monkeypatch, batch_seed=batch_seed)
        start_workers(monkeypatch, cpus)
        got, here = self._run(monkeypatch, batch_seed=batch_seed)
        assert got == want
        # the caller ran its own chunk, the first and largest of `cpus`
        # chunks of the 5 clouds, for all 5 steps, and nothing else
        assert here == 5 * -(-5 // cpus)

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_clouds_fitted_together_equal_each_fitted_alone(self, monkeypatch, cpus):
        # losses, both networks, Adam's m, v and step, and meta of each pair
        def fit(ids):
            sigma, cfg, clouds, pairs = TestFitPairs._setup(3)
            states = {}
            losses = fit_pairs(sigma, {cid: clouds[cid] for cid in ids}, pairs, states, cfg, 4)
            return {cid: (losses[j::len(ids)], pairs[cid].meta,
                          pairs[cid].psi.theta.tobytes(), pairs[cid].phi.theta.tobytes(),
                          states[cid].m.tobytes(), states[cid].v.tobytes(), states[cid].step)
                    for j, cid in enumerate(ids)}

        start_workers(monkeypatch, cpus)
        alone = {cid: fit([cid])[cid] for cid in ("c0", "c1", "c2")}
        recv, replies = otsolve_mod._recv_chunk, []
        monkeypatch.setattr(otsolve_mod, "_recv_chunk", lambda *a: replies.append(1) or recv(*a))
        assert fit(["c0", "c1", "c2"]) == alone
        assert len(replies) == cpus - 1  # each worker ran its chunk's 4 steps

    def test_late_worker_is_waited_for(self, monkeypatch):
        def run():
            sigma, cfg, clouds, pairs = TestFitPairs._setup(5)
            states = {}
            losses = fit_pairs(sigma, clouds, pairs, states, cfg, 4)
            return losses, [(p.psi.theta.tobytes(), p.phi.theta.tobytes(), p.meta,
                             states[c].m.tobytes(), states[c].step) for c, p in pairs.items()]

        here = []
        step = otsolve_mod.solver_step
        monkeypatch.setattr(nncore, "_usable_cpus", lambda: 1)
        want = run()
        start_workers(monkeypatch, 2)
        monkeypatch.setattr(otsolve_mod, "solver_step",
                            lambda *args: here.append(1) or step(*args))
        # the worker reads its two clouds, then starts them 1 s late: the
        # caller runs only its own three, all 4 steps, and waits
        monkeypatch.setattr(otsolve_mod, "_fit_remote", functools.partial(
            late_inner_task, 1.0, "lotnn.otsolve", "_run_chunk", "_fit_remote"))
        assert run() == want
        assert len(here) == 4 * 3

    def test_a_worker_still_starting_up_joins_a_later_block(self, monkeypatch):
        monkeypatch.setattr(nncore, "_usable_cpus", lambda: 1)
        want, _ = self._run(monkeypatch)
        start_workers(monkeypatch, 2)
        pools = []
        real = otsolve_mod.worker_processes

        @contextlib.contextmanager
        def none_at_first(n):
            # the first request finds the worker not yet started up
            with real(n) as pool:
                pools.append(len(pool) if pools else 0)
                yield pool if len(pools) > 1 else []

        monkeypatch.setattr(otsolve_mod, "worker_processes", none_at_first)
        got, here = self._run(monkeypatch)
        assert got == want
        # the 2-step call runs its first step here, then asks again and
        # shares its second; the 3-step call shares all of its steps
        assert pools == [0, 1, 1]
        assert here == 5 + 3 + 3 * 3

    def test_a_worker_that_dies_mid_task_raises(self, monkeypatch):
        monkeypatch.setattr(nncore._WORKERS, "broken", False)  # restored after the test
        monkeypatch.setattr(nncore, "_usable_cpus", lambda: 1)
        want, _ = self._run(monkeypatch)
        start_workers(monkeypatch, 2)
        # the worker reads its chunk, then its process ends
        monkeypatch.setattr(otsolve_mod, "_fit_remote", functools.partial(
            exit_inner_task, "lotnn.otsolve", "_run_chunk", "_fit_remote"))
        sigma, cfg, clouds, pairs = TestFitPairs._setup(5)
        with pytest.raises(RuntimeError, match="a worker process ended before its task did"):
            fit_pairs(sigma, clouds, pairs, {}, cfg, 2)
        assert nncore._WORKERS.broken and not nncore._WORKERS.workers
        # no worker is started again: the next calls run serially
        got, here = self._run(monkeypatch)
        assert got == want and here == 5 * 5

    def test_worker_side_failure_raises_the_serial_error(self, monkeypatch):
        def failure(bad):
            sigma, cfg, clouds, pairs = TestFitPairs._setup(4)
            for cid in bad:
                pairs[cid].psi.theta[0] = np.nan
            with pytest.raises(NumericError) as e:
                fit_pairs(sigma, clouds, pairs, {}, cfg, 3)
            return str(e.value)

        monkeypatch.setattr(nncore, "_usable_cpus", lambda: 1)
        want = [failure(bad) for bad in (["c3"], ["c1", "c3"])]
        assert "(cloud c3, step 0)" in want[0] and "(cloud c1, step 0)" in want[1]
        start_workers(monkeypatch, 2)  # c2 and c3 go to the worker
        assert [failure(bad) for bad in (["c3"], ["c1", "c3"])] == want
        assert not nncore._WORKERS.broken

    @pytest.mark.parametrize("n_clouds", [4, 1])
    def test_a_fresh_chunk_sends_no_moments(self, monkeypatch, n_clouds):
        # Adam's m and v go to a worker only once a step has made them
        def buffers(obj):
            """The arrays that nncore.post sends beside obj's pickle."""
            out = []
            pickle.dumps(obj, protocol=5, buffer_callback=out.append)
            return len(out)

        start_workers(monkeypatch, 2)
        sent, post = [], otsolve_mod.post
        monkeypatch.setattr(otsolve_mod, "post", lambda conn, obj: sent.append(
            (buffers(obj), [buffers(item) for item in obj[1][2]])) or post(conn, obj))
        sigma, cfg, clouds, pairs = TestFitPairs._setup(n_clouds)
        states = {}
        fit_pairs(sigma, clouds, pairs, states, cfg, 2)
        # one task: the worker's 2 of 4 clouds, or the lone cloud for its
        # halves, with the points, psi and phi of each and nothing else
        worker_clouds = 2 if n_clouds == 4 else 1
        assert sent == [(3 * worker_clouds, [3] * worker_clouds)]
        sent.clear()
        fit_pairs(sigma, clouds, pairs, states, cfg, 2)
        assert sent == [(5 * worker_clouds, [5] * worker_clouds)]

    def test_a_worker_that_died_while_idle_leaves_the_call_serial(self, monkeypatch):
        def fit(between=lambda: None):
            sigma, cfg, clouds, pairs = TestFitPairs._setup(4)
            states = {}
            losses = [fit_pairs(sigma, clouds, pairs, states, cfg, 2)]
            between()
            losses.append(fit_pairs(sigma, clouds, pairs, states, cfg, 2))
            return losses, {cid: (p.meta, p.psi.theta.tobytes(), p.phi.theta.tobytes(),
                                  states[cid].m.tobytes(), states[cid].step)
                            for cid, p in pairs.items()}

        def kill():
            os.kill(worker.pid, signal.SIGKILL)
            worker.join(10)
            assert not worker.is_alive()

        monkeypatch.setattr(nncore._WORKERS, "broken", False)  # restored after the test
        monkeypatch.setattr(nncore, "_usable_cpus", lambda: 1)
        want = fit()
        start_workers(monkeypatch, 2)
        worker = nncore._WORKERS.workers[0].proc
        # the first call shares its clouds with the worker; the second,
        # finding it dead, runs them all here
        assert fit(kill) == want
        assert nncore._WORKERS.broken and not nncore._WORKERS.workers

    @pytest.mark.parametrize("n_clouds", [3, 1])
    def test_starts_no_worker(self, monkeypatch, n_clouds):
        monkeypatch.setattr(nncore, "_usable_cpus", lambda: 1)
        monkeypatch.setattr(nncore, "_Worker", None)  # starting one would raise
        _, here = self._run(monkeypatch, n_clouds)
        assert here == 5 * n_clouds


class TestOneCloudOnTwoProcesses:
    """A one-cloud fit runs half 2 of each step on a worker, which runs
    the same steps on its own copy and swaps its half with the caller's
    through an nncore.Peer."""

    @staticmethod
    def _swaps(monkeypatch):
        """The caller's swaps with the worker, as a growing list."""
        swaps, swap = [], nncore.Peer.swap
        monkeypatch.setattr(nncore.Peer, "swap",
                            lambda self, mine: swaps.append(1) or swap(self, mine))
        return swaps

    @staticmethod
    def _raised_in(error):
        """The function whose frame raised error: where a half failed, or
        _swap_halves for an error received from the other process."""
        tb = error.__traceback__
        while tb.tb_next:
            tb = tb.tb_next
        return tb.tb_frame.f_code.co_name

    @pytest.mark.parametrize("batch_size", [16, 2, 7])
    @pytest.mark.parametrize("cpus", [2, 3])
    def test_equals_the_serial_fit_bitwise(self, monkeypatch, cpus, batch_size):
        # losses, both networks, Adam's m, v and step, meta["iterations"]
        monkeypatch.setattr(nncore, "_usable_cpus", lambda: 1)
        want, _ = TestFitPairsOnWorkers._run(monkeypatch, 1, batch_size=batch_size)
        start_workers(monkeypatch, cpus)
        swaps = self._swaps(monkeypatch)
        got, here = TestFitPairsOnWorkers._run(monkeypatch, 1, batch_size=batch_size)
        assert got == want
        # every step ran here, and swapped its half with the one worker
        assert here == len(swaps) == 5

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_train_map_equals_the_serial_fit_bitwise(self, monkeypatch, cpus):
        sigma = unit_reference(3, seed=31)
        cloud = 1.5 * sigma.sample(300, seed=32) + 1.0
        cfg = SolverConfig(batch_size=33, iters=6, hidden=(6, 5), seed=11)

        def fit():
            p = train_map(sigma, cloud, cfg)
            return (p.meta, p.psi.theta.tobytes(), p.phi.theta.tobytes())

        monkeypatch.setattr(nncore, "_usable_cpus", lambda: 1)
        want = fit()
        start_workers(monkeypatch, cpus)
        swaps = self._swaps(monkeypatch)
        assert fit() == want and len(swaps) == cfg.iters
        assert want[0]["iterations"] == cfg.iters

    def test_late_worker_half_is_waited_for_every_step(self, monkeypatch):
        monkeypatch.setattr(nncore, "_usable_cpus", lambda: 1)
        want, _ = TestFitPairsOnWorkers._run(monkeypatch, 1)
        start_workers(monkeypatch, 2)
        swaps = self._swaps(monkeypatch)
        # the worker computes each step's half 2 50 ms late: every step
        # still takes its second half from the worker
        monkeypatch.setattr(otsolve_mod, "_fit_remote", functools.partial(
            late_inner_task, 0.05, "lotnn.otsolve", "_half_loss_and_grads", "_fit_remote"))
        assert TestFitPairsOnWorkers._run(monkeypatch, 1)[0] == want
        assert len(swaps) == 5 and not nncore._WORKERS.broken

    def test_an_error_mid_step_ends_the_worker(self, monkeypatch):
        # it waits on a swap no one will make, so the pool ends it
        monkeypatch.setattr(nncore._WORKERS, "broken", False)  # restored after the test
        start_workers(monkeypatch, 2)
        half, calls = otsolve_mod._half_loss_and_grads, []

        def fail_later(*args):
            calls.append(1)
            if len(calls) == 2:
                raise ValueError("injected")
            return half(*args)

        monkeypatch.setattr(otsolve_mod, "_half_loss_and_grads", fail_later)
        with pytest.raises(ValueError, match="injected"):
            TestFitPairsOnWorkers._run(monkeypatch, 1)
        assert nncore._WORKERS.broken and not nncore._WORKERS.workers

    def test_worker_side_failure_raises_the_serial_error(self, monkeypatch):
        # a NaN in the last row of step 1's reference batch: only half 2 of
        # that batch raises, on the worker, which sends its error here
        error = self._step_1_failure(monkeypatch, rows=[-1])
        assert self._raised_in(error.__cause__) == "_swap_halves"

    def test_caller_side_failure_still_reads_the_worker_reply(self, monkeypatch):
        # in the first row only half 1 raises, here; step 1's half 2 still
        # comes back from the worker, and then this error goes to it
        error = self._step_1_failure(monkeypatch, rows=[0])
        assert self._raised_in(error.__cause__) == "check_finite"

    def test_both_halves_failing_raise_half_1s_error(self, monkeypatch):
        # both send their errors, and both processes raise half 1's
        error = self._step_1_failure(monkeypatch, rows=[0, -1])
        assert self._raised_in(error.__cause__) == "check_finite"

    @classmethod
    def _step_1_failure(cls, monkeypatch, rows):
        """The serial error of NaNs in `rows` of step 1's reference batch,
        checked at 2 CPUs, where the worker draws its own batches through
        the same patch; then a clean fit_pairs call, which must still get
        the worker and the serial bits. Returns the error raised there,
        having swapped both steps' halves first."""
        errors = []

        def failure():
            sigma, cfg, clouds, pairs = TestFitPairs._setup(1)
            states = {}
            with pytest.raises(NumericError) as e:
                fit_pairs(sigma, clouds, pairs, states, cfg, 3)
            errors.append(e.value)
            s = states["c0"]
            return str(e.value), (pairs["c0"].meta["iterations"], s.step,
                                  pairs["c0"].psi.theta.tobytes(), s.m.tobytes())

        monkeypatch.setattr(nncore, "_usable_cpus", lambda: 1)
        clean, _ = TestFitPairsOnWorkers._run(monkeypatch, 1)
        draw, remote = otsolve_mod._batch, otsolve_mod._fit_remote
        poisoned = functools.partial(nan_batch, 1, rows)
        monkeypatch.setattr(otsolve_mod, "_batch", poisoned(draw))
        want = failure()
        assert want[0] == "non-finite values in icnn_input_grad output (cloud c0, step 1)"
        assert want[1][:2] == (1, 1)
        start_workers(monkeypatch, 2)
        monkeypatch.setattr(otsolve_mod, "_fit_remote", functools.partial(
            wrapped_inner_task, poisoned, "lotnn.otsolve", "_batch", "_fit_remote"))
        swaps = cls._swaps(monkeypatch)
        assert failure() == want and len(swaps) == 2
        assert not nncore._WORKERS.broken
        monkeypatch.setattr(otsolve_mod, "_batch", draw)
        monkeypatch.setattr(otsolve_mod, "_fit_remote", remote)
        swaps.clear()
        # the worker stopped at the same step and its pipe holds nothing unread
        assert TestFitPairsOnWorkers._run(monkeypatch, 1)[0] == clean
        assert len(swaps) == 5
        return errors[-1]


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_point_rejected(self, rng, bad):
        X = rng.normal((5, 2))
        X[3, 1] = bad
        with pytest.raises(NumericError):
            exact_ot_discrete(X, rng.normal((5, 2)))
        with pytest.raises(NumericError):
            exact_ot_discrete(rng.normal((5, 2)), X)

    def test_overflowing_cost_rejected(self, rng):
        # centered, this cloud is all zeros: only the cost sum overflows
        with pytest.raises(NumericError):
            exact_ot_discrete(np.full((5, 2), 1e200), rng.normal((5, 2)))

    def test_overflowing_squared_distance_rejected(self, rng):
        X = rng.normal((5, 2))
        X[0, 0] = 1e200
        with pytest.raises(NumericError):
            exact_ot_discrete(X, rng.normal((5, 2)))

    def test_inputs_not_mutated(self, rng):
        X = rng.normal((30, 3)) + 5.0
        Y = rng.normal((30, 3))
        X0, Y0 = X.copy(), Y.copy()
        exact_ot_discrete(X, Y)
        assert np.array_equal(X, X0) and np.array_equal(Y, Y0)

    def test_peak_memory_is_one_cost_matrix(self, rng):
        n, d = 1000, 10
        X = rng.normal((n, d))
        Y = rng.normal((n, d)) + 1.0
        tracemalloc.start()
        try:
            exact_ot_discrete(X, Y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # an n x n x d float64 temporary alone would be 80 MB
        assert peak < 1.5 * n * n * 8


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
