import dataclasses
import functools

import numpy as np
import pytest
from scipy.special import expit

import lotnn.classify as classify_mod
import lotnn.otsolve as otsolve_mod
from lotnn import nncore
from lotnn.errors import DataError, NumericError, ShapeError
from lotnn.classify import (
    ClassifierConfig,
    ClassifierModel,
    Metrics,
    TrainSchedule,
    WeightNet,
    _clf_loss_and_grads,
    _Half,
    _pooled,
    evaluate,
    predict_resampled,
    score,
    train_alternating,
)
from lotnn.data import LabeledDataset, PointCloud, SyntheticSpec, gen_synthetic
from lotnn.icnn import project_nonneg
from lotnn.nncore import (MlpParams, Rng, bce, finite_diff_grad, mlp_backward, mlp_forward,
                          mlp_init)
from lotnn.lot import ReferenceMeasure
from lotnn.otsolve import (Frame, SolverConfig, fit_pairs, init_dual_pair, pair_for_cloud,
                           train_map)
from conftest import (blocks, exit_inner_task, load_tracing, quad_pair, relerr,
                      start_workers, unit_reference)


def zero_weightnet(dim, bias=None):
    p = MlpParams([np.zeros((4, dim)), np.zeros((dim, 4))],
                  [np.zeros(4), np.zeros(dim) if bias is None
                   else np.asarray(bias, dtype=np.float64)])
    return WeightNet(p)


def random_weightnet(dim, rng, hidden=(6,)):
    return WeightNet(mlp_init((dim, *hidden, dim), rng, scale=0.8))


QUICK_SOLVER = SolverConfig(batch_size=64, iters=1, lr=3e-3, hidden=(8,), seed=0)
QUICK_CLF = ClassifierConfig(hidden=(8,), lr=2e-2, eval_n=128)


def two_class_sets(rng, n_train=(4, 8), n_val=(2, 2), n_points=120, separation=6.0):
    spec = SyntheticSpec(separation=separation, base_scale=0.5, shift_bound=0.4)
    ds = gen_synthetic(spec, n_clouds_per_class=max(n_train) + max(n_val),
                       n_points=n_points, seed=rng.integers(0, 10**6))
    pos = ds.class_ids(1)
    neg = ds.class_ids(0)
    train_ids = pos[:n_train[0]] + neg[:n_train[1]]
    val_ids = pos[n_train[0]:n_train[0] + n_val[0]] + \
        neg[n_train[1]:n_train[1] + n_val[1]]
    return ds.subset(train_ids), ds.subset(val_ids)


class TestScore:
    def test_zero_weightnet_gives_half(self, rng):
        model = ClassifierModel(zero_weightnet(2))
        pair = quad_pair(2, q_psi=1.3, psi_tilt=(0.2, -0.4))
        assert score(model, pair, rng.normal((30, 2))) == 0.5

    def test_constant_weight_and_map(self, rng):
        c = 1.7
        model = ClassifierModel(zero_weightnet(2, bias=(1.0, 0.0)))
        pair = quad_pair(2, q_psi=0.0, psi_tilt=(c, 0.0))  # map == (c, 0)
        got = score(model, pair, rng.normal((25, 2)))
        assert relerr(got, float(expit(c))) < 1e-12

    def test_bitwise_permutation_invariance(self, rng):
        model = ClassifierModel(random_weightnet(3, rng))
        pair = quad_pair(3, q_psi=0.8, psi_tilt=(0.1, 0.2, -0.3))
        sample = rng.normal((64, 3))
        base = score(model, pair, sample)
        for _ in range(20):
            assert score(model, pair, sample[rng.permutation(64)]) == base

    def test_empty_sample_rejected(self):
        model = ClassifierModel(zero_weightnet(2))
        with pytest.raises(ShapeError):
            score(model, quad_pair(2), np.empty((0, 2)))

    def test_weightnet_hidden_is_read_from_its_weights(self, rng):
        assert random_weightnet(3, rng, hidden=(7, 5)).hidden == (7, 5)
        assert zero_weightnet(2).hidden == (4,)

    def test_score_records_one_span_and_its_bodies_none(self, rng):
        # score is one span, and the bodies that on_cpus workers run
        # call no traced function, as nncore.on_cpus requires
        from lotnn import classify, deepsets

        tracing = load_tracing()
        model = ClassifierModel(random_weightnet(2, rng))
        pair = quad_pair(2, q_psi=1.3, psi_tilt=(0.2, -0.4))
        ds_model = deepsets.init_deepsets(
            2, deepsets.DeepSetsConfig(phi_hidden=(5,), pooled_dim=4, rho_hidden=(3,)),
            rng.spawn(1))
        S = rng.normal((16, 2))
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            classify.score(model, pair, S)
            assert [sp.name for sp in tracer.take()] == ["classify.score"]
            classify._score(model, pair, S)
            deepsets._prob(ds_model, S)
            pair._map(S)
            nncore._mlp_forward(model.weightnet.params, S)
            assert tracer.take() == []


def full_size_case(dim, seed=2, noise=0.3):
    """A (64, 64, 64) ICNN pair whose psi is perturbed and projected, a
    (64, 64) weight net and a generator for the sample.

    The defaults give scores of 0.0017 (d = 2) and 0.074 (d = 10), where
    a score's last bit is finer than near 1/2: an unsorted pooled mean
    changes them under some of 300 permutations of 1000 points.
    """
    rng = Rng(seed)
    pair = init_dual_pair(dim, SolverConfig(), rng.spawn(0))
    pair.psi.theta += noise * rng.spawn(1).normal(pair.psi.theta.shape)
    project_nonneg(pair.psi)
    model = ClassifierModel(WeightNet(mlp_init((dim, 64, 64, dim), rng.spawn(2))))
    return model, pair, rng.spawn(3)


@pytest.mark.parametrize("dim,n", [
    (2, 1000),
    (10, 1000),
    # ROADMAP item 17: a row of an (n, 64) @ (64, d) product depends on
    # its place when n is not a multiple of 4, which moves this score
    pytest.param(2, 13, marks=pytest.mark.xfail(
        strict=True, reason="rows depend on their place (ROADMAP item 17)")),
])
def test_full_size_score_is_bitwise_permutation_invariant(dim, n):
    model, pair, rng = full_size_case(dim)
    sample = rng.normal((n, dim))
    base = score(model, pair, sample)
    changed = [k for k in range(300)
               if score(model, pair, sample[rng.permutation(n)]) != base]
    assert changed == []


class TestEvaluate:
    def test_hand_counts(self):
        preds = [0.9] * 2 + [0.8] + [0.1] + [0.2] * 26
        labels = [1, 1, 0, 1] + [0] * 26
        m = evaluate(preds, labels)
        assert (m.tp, m.fp, m.fn, m.tn) == (2, 1, 1, 26)
        assert abs(m.precision - 2 / 3) < 1e-12
        assert abs(m.recall - 2 / 3) < 1e-12
        assert abs(m.accuracy - 28 / 30) < 1e-12
        assert m.n == 30

    def test_all_correct(self):
        m = evaluate([0.9, 0.1, 0.95], [1, 0, 1])
        assert m.precision == m.recall == m.accuracy == 1.0

    def test_no_predicted_positives_sentinel(self):
        m = evaluate([0.1, 0.2], [1, 0])
        assert m.precision == 0.0 and not m.precision_defined

    def test_counts_total(self, rng):
        preds = rng.uniform(50)
        labels = (rng.uniform(50) > 0.5).astype(int)
        assert evaluate(preds, labels).n == 50

    def test_length_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            evaluate([0.5], [1, 0])


class TestBceGradientThroughPooling:
    def test_matches_finite_differences(self, rng):
        # d/d(weight net) of BCE(sigmoid(pooled inner product), y)
        for trial in range(6):
            dim = int(rng.integers(1, 4))
            wn = random_weightnet(dim, rng.spawn(trial))
            pair = quad_pair(dim, q_psi=float(rng.uniform((), 0.3, 1.5)),
                             psi_tilt=rng.normal(dim))
            sample = rng.normal((12, dim))
            y = float(rng.integers(0, 2))
            model = ClassifierModel(wn)
            G = pair.map_forward(sample)

            def bce_of(model):
                s = _pooled(mlp_forward(model.weightnet.params, sample)[0], G)
                return float(max(s, 0.0) - s * y + np.log1p(np.exp(-abs(s))))

            Wvals, cache = mlp_forward(wn.params, sample)
            resid = float(expit(_pooled(Wvals, G)) - y)
            grads, _ = mlp_backward(wn.params, cache,
                                    resid * G / sample.shape[0])
            # perturbs wn.params.theta in place; the model sees it
            fd = finite_diff_grad(lambda _: bce_of(model), wn.params.theta, 1e-5)
            for (key, g), (_, f) in zip(blocks(wn.params, grads),
                                        blocks(wn.params, fd)):
                assert relerr(g, f) < 1e-4, key

    def test_two_uneven_halves_match_finite_differences(self, rng):
        # train_alternating's epochs: the loss and gradient of every
        # cloud's logit, as half 1 (7 rows) plus half 2 (6 rows)
        n, h = 13, 7
        for trial in range(4):
            dim = int(rng.integers(1, 4))
            wn = random_weightnet(dim, rng.spawn(trial))
            X = rng.normal((n, dim))
            G = np.stack([quad_pair(dim, q_psi=float(rng.uniform((), 0.3, 1.5)),
                                    psi_tilt=rng.normal(dim)).map_forward(X)
                          for _ in range(3)])
            y = np.array([0.0, 1.0, 1.0])

            def loss_of(_):
                return bce(np.einsum("nd,ind->i", mlp_forward(wn.params, X)[0], G) / n, y)[0]

            halves = [_Half(X[rows], np.ascontiguousarray(G[:, rows]))
                      for rows in (slice(0, h), slice(h, n))]
            loss, grads = _clf_loss_and_grads(wn.params, y, n, *halves)
            assert loss == pytest.approx(loss_of(None), rel=1e-12)
            # perturbs wn.params.theta in place; loss_of sees it
            fd = finite_diff_grad(loss_of, wn.params.theta, 1e-5)
            for (key, g), (_, f) in zip(blocks(wn.params, grads),
                                        blocks(wn.params, fd)):
                assert relerr(g, f) < 1e-4, key


class TestEmbedTestCloud:
    def test_self_transport_near_identity(self):
        ref = unit_reference(2, seed=5)
        cloud = PointCloud("t", ref.sample(600, seed=6))
        cfg = SolverConfig(batch_size=128, iters=400, lr=3e-3, hidden=(12,), seed=1)
        pair = train_map(ref, cloud, cfg)
        X = ref.sample(1500, seed=7)
        disp = float(np.mean(np.linalg.norm(pair.map_forward(X) - X, axis=1)))
        assert disp <= 0.1 * float(np.mean(np.linalg.norm(X, axis=1)))


class TestPredictResampled:
    def test_k1_equals_score_on_that_sample(self):
        ref = unit_reference(2, seed=8)
        model = ClassifierModel(zero_weightnet(2, bias=(0.5, 0.5)))
        pair = quad_pair(2, q_psi=1.0)
        seed = 77
        got = predict_resampled(model, pair, ref, n=40, k=1, seed=seed)
        sample = ref.sample(40, seed=Rng(seed).spawn(0).seed)
        assert got == score(model, pair, sample)

    def test_constant_model_constant_for_any_k(self):
        ref = unit_reference(2, seed=8)
        model = ClassifierModel(zero_weightnet(2, bias=(1.0, 0.0)))
        pair = quad_pair(2, q_psi=0.0, psi_tilt=(0.9, 0.0))  # constant map
        vals = [predict_resampled(model, pair, ref, 30, k, seed=5)
                for k in (1, 3, 10)]
        # zero variance across resamples (averaging k copies may shift an ulp)
        assert max(vals) - min(vals) <= 1e-15

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_pooled_mean_equals_the_serial_scores_bitwise(self, rng, monkeypatch, cpus):
        monkeypatch.setattr(nncore, "_usable_cpus", lambda: cpus)
        ref = unit_reference(3, seed=8)
        model = ClassifierModel(random_weightnet(3, rng.spawn(1), hidden=(64, 64)))
        frame = Frame(sigma_mean=(0.1, -0.2, 0.3), mu_mean=(1.0, 0.5, -1.0), scale=1.3)
        pair = init_dual_pair(3, SolverConfig(), Rng(2), frame=frame)
        draws = Rng(11)
        want = float(np.mean([score(model, pair, ref.sample(500, seed=draws.spawn(j).seed))
                              for j in range(7)]))
        assert predict_resampled(model, pair, ref, 500, 7, seed=11) == want

    def test_invalid_k_rejected(self):
        ref = unit_reference(2, seed=8)
        with pytest.raises(ValueError):
            predict_resampled(ClassifierModel(zero_weightnet(2)),
                              quad_pair(2), ref, 10, 0, seed=1)


class TestTrainAlternating:
    def test_minimal_schedule_one_phase_pair(self, rng):
        train, val = two_class_sets(rng)
        sched = TrainSchedule(ot_epochs_per_phase=1, clf_epochs_per_phase=1,
                              total_epochs=2)
        emb, model, history = train_alternating(
            train, val, sched, QUICK_SOLVER, QUICK_CLF, seed=3)
        assert len(history) == 1
        assert set(emb.ids) == set(train.ids) | set(val.ids)

    def test_separated_classes_reach_high_val_accuracy(self, rng):
        train, val = two_class_sets(rng)
        sched = TrainSchedule(ot_epochs_per_phase=5, clf_epochs_per_phase=5,
                              total_epochs=120)
        emb, model, history = train_alternating(
            train, val, sched, QUICK_SOLVER, QUICK_CLF, seed=4)
        assert emb.meta["best_val_accuracy"] >= 0.95

    @pytest.mark.usefixtures("one_cpu")
    def test_classifier_phase_never_touches_pairs(self, rng, monkeypatch):
        # with the solver stubbed out, any pair change must come from the
        # classifier phase; there must be none
        import lotnn.otsolve as otsolve_mod

        monkeypatch.setattr(otsolve_mod, "solver_step",
                            lambda pair, X, Y, lam, state: 0.0)
        train, val = two_class_sets(rng)
        sched = TrainSchedule(ot_epochs_per_phase=2, clf_epochs_per_phase=4,
                              total_epochs=12)
        emb, _, _ = train_alternating(train, val, sched, QUICK_SOLVER,
                                      QUICK_CLF, seed=5)
        from lotnn.otsolve import init_dual_pair
        rng2 = Rng(5)
        rng2.spawn(1)  # reference seed draw happens first
        ids = sorted(train.ids) + sorted(val.ids)
        for j, cid in enumerate(ids):
            fresh = init_dual_pair(train.dim, QUICK_SOLVER, Rng(5).spawn(1000 + j))
            assert np.array_equal(emb.pairs[cid].psi.theta, fresh.psi.theta)

    # phases of 3, 3 and (cut by the 12-epoch budget) 2 solver steps, the
    # last with no classifier epochs left
    PHASES = TrainSchedule(ot_epochs_per_phase=3, clf_epochs_per_phase=2, total_epochs=12)

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_pairs_are_one_fit_of_every_phases_steps(self, rng, monkeypatch, cpus):
        start_workers(monkeypatch, cpus)
        train, val = two_class_sets(rng)
        emb, _, history = train_alternating(train, val, self.PHASES, QUICK_SOLVER,
                                            QUICK_CLF, seed=7)
        assert [row["epoch"] for row in history] == [5, 10, 12]

        monkeypatch.setattr(nncore, "_usable_cpus", lambda: 1)
        reference = ReferenceMeasure.fitted(train.clouds, seed=Rng(7).spawn(1).seed)
        by_id = {c.id: c.points for c in train.clouds + val.clouds}
        clouds = {cid: by_id[cid] for cid in sorted(train.ids) + sorted(val.ids)}
        pairs = {cid: pair_for_cloud(reference, points, QUICK_SOLVER, Rng(7).spawn(1000 + j))
                 for j, (cid, points) in enumerate(clouds.items())}
        fit_pairs(reference, clouds, pairs, {}, QUICK_SOLVER, 8)
        assert emb.ids == list(clouds)
        for cid, want in pairs.items():
            assert emb.pairs[cid].meta["iterations"] == want.meta["iterations"] == 8
            for net in ("psi", "phi"):
                assert (getattr(emb.pairs[cid], net).theta.tobytes()
                        == getattr(want, net).theta.tobytes())

    @pytest.mark.parametrize("accuracies", [(1.0, 0.5, 0.5), (0.5, 1.0, 1.0)])
    def test_validation_accuracy_changes_no_map_and_no_weight(
            self, rng, monkeypatch, accuracies):
        # validation accuracy is only reported: scripting it leaves the
        # pairs, W and the solver losses bitwise those of a plain run
        import lotnn.classify as classify_mod

        train, val = two_class_sets(rng)
        emb1, model1, history1 = train_alternating(train, val, self.PHASES, QUICK_SOLVER,
                                                   QUICK_CLF, seed=7)
        scripted = iter(accuracies)
        monkeypatch.setattr(
            classify_mod, "evaluate",
            lambda preds, labels, threshold: Metrics(0, 0, 0, 0, 0.0, 0.0,
                                                     next(scripted)))
        emb2, model2, history2 = train_alternating(train, val, self.PHASES, QUICK_SOLVER,
                                                   QUICK_CLF, seed=7)
        assert [row["val_accuracy"] for row in history2] == list(accuracies)
        assert (emb2.meta["best_phase"], emb2.meta["best_val_accuracy"]) == (2, accuracies[2])
        assert ([row["ot_loss_mean"] for row in history2]
                == [row["ot_loss_mean"] for row in history1])
        for cid in emb1.ids:
            for net in ("psi", "phi"):
                assert (getattr(emb2.pairs[cid], net).theta.tobytes()
                        == getattr(emb1.pairs[cid], net).theta.tobytes())
        assert (model2.weightnet.params.theta.tobytes()
                == model1.weightnet.params.theta.tobytes())

    def test_a_multi_phase_schedule_fits_the_maps_once(self, rng, monkeypatch):
        import lotnn.classify as classify_mod

        steps = []

        def counted(*args):
            steps.append(args[-1])
            return fit_pairs(*args)

        monkeypatch.setattr(classify_mod, "fit_pairs", counted)
        train, val = two_class_sets(rng)
        _, _, history = train_alternating(train, val, self.PHASES, QUICK_SOLVER,
                                          QUICK_CLF, seed=7)
        assert len(history) == 3 and steps == [8]

    def test_a_multi_phase_schedule_maps_each_set_once(self, rng, monkeypatch):
        # the maps do not change after the fit: one maps_on call for the
        # training clouds, one for the validation clouds, whatever the phases
        import lotnn.classify as classify_mod

        sizes = []
        real = classify_mod.maps_on
        monkeypatch.setattr(classify_mod, "maps_on",
                            lambda pairs, sample: sizes.append(len(pairs)) or real(pairs, sample))
        train, val = two_class_sets(rng)
        _, _, history = train_alternating(train, val, self.PHASES, QUICK_SOLVER,
                                          QUICK_CLF, seed=7)
        assert len(history) == 3 and sizes == [len(train.ids), len(val.ids)]

    def test_public_layers_run_on_the_calling_thread(self, rng, monkeypatch):
        # nncore.on_cpus shares work out over threads; every function a
        # traced benchmark run wraps must still run only where it is called
        import functools
        import threading
        import time

        from lotnn import classify, deepsets, lot, otsolve

        tracing = load_tracing()
        calls: dict[str, set] = {}

        def record(name, fn, pause=0.0):
            @functools.wraps(fn)
            def wrapped(*args, **kwargs):
                calls.setdefault(name, set()).add(threading.get_ident())
                time.sleep(pause)  # lets every worker thread take some items
                return fn(*args, **kwargs)
            return wrapped

        # the pooled bodies, which workers run, are recorded but not traced
        monkeypatch.setattr(otsolve.DualPair, "_map",
                            record("_map", otsolve.DualPair._map, pause=0.002))
        for mod in (classify, deepsets):
            monkeypatch.setattr(mod, "_mlp_forward",
                                record("_mlp_forward", nncore._mlp_forward, pause=0.002))
        monkeypatch.setattr(nncore, "_usable_cpus", lambda: 3)
        tracer = tracing.Tracer()
        tracer.wrap = record

        train, val = two_class_sets(rng)
        sched = TrainSchedule(ot_epochs_per_phase=1, clf_epochs_per_phase=1,
                              total_epochs=4)
        ds_cfg = deepsets.DeepSetsConfig(phi_hidden=(5,), pooled_dim=4, rho_hidden=(3,),
                                         batch_points=10)
        with tracing.installed(tracer):
            emb, model, _ = classify.train_alternating(train, val, sched, QUICK_SOLVER,
                                                       QUICK_CLF, seed=3)
            lot.pairwise_matrix(emb)
            pair = emb.pairs[emb.ids[0]]
            classify.score(model, pair, emb.eval_sample)
            lot.lot_distance_empirical(pair, emb.pairs[emb.ids[1]], emb.eval_sample)
            classify.predict_resampled(model, pair, emb.reference, 64, 6, seed=1)
            members = [deepsets.ds_train(train, val, 2, ds_cfg, seed=s)[0]
                       for s in (1, 2, 3)]
            deepsets.ds_forward(members[0], val.clouds[0])
            deepsets.ds_bagging(members, val.clouds[0])
        me = threading.get_ident()
        assert len(calls.pop("_map")) > 1 and len(calls.pop("_mlp_forward")) > 1
        assert {"classify.train_alternating", "lot.pairwise_matrix", "classify.score",
                "classify.predict_resampled", "deepsets.ds_train", "deepsets.ds_forward",
                "deepsets.ds_bagging", "lot.ReferenceMeasure.sample",
                "otsolve.DualPair.map_forward", "nncore.mlp_forward",
                "icnn.icnn_input_grad"} <= set(calls) <= set(tracing.LAYER_NAMES)
        assert all(idents == {me} for idents in calls.values())

    def test_single_class_training_rejected(self, rng):
        train, val = two_class_sets(rng)
        pos_only = train.subset(train.class_ids(1))
        with pytest.raises(DataError):
            train_alternating(pos_only, val, TrainSchedule(1, 1, 2),
                              QUICK_SOLVER, QUICK_CLF, seed=0)

    def test_label_swap_flips_assignments(self, rng):
        train, val = two_class_sets(rng)
        sched = TrainSchedule(ot_epochs_per_phase=5, clf_epochs_per_phase=5,
                              total_epochs=100)
        flipped_train = LabeledDataset(train.clouds,
                                       {k: 1 - v for k, v in train.labels.items()})
        flipped_val = LabeledDataset(val.clouds,
                                     {k: 1 - v for k, v in val.labels.items()})
        emb1, m1, _ = train_alternating(train, val, sched,
                                        QUICK_SOLVER, QUICK_CLF, seed=6)
        emb2, m2, _ = train_alternating(flipped_train, flipped_val, sched,
                                        QUICK_SOLVER, QUICK_CLF, seed=6)
        for cid in val.ids:
            p1 = score(m1, emb1.pairs[cid], emb1.eval_sample)
            p2 = score(m2, emb2.pairs[cid], emb2.eval_sample)
            assert (p1 > 0.5) == (p2 <= 0.5)


class TestClassifierOnTwoProcesses:
    """train_alternating runs half 2 of each classifier epoch on a worker."""

    # an odd eval sample: halves of 65 and 64 rows
    CLF = dataclasses.replace(QUICK_CLF, eval_n=129)

    def _run(self, clf=CLF):
        train, val = two_class_sets(Rng(5))
        emb, model, history = train_alternating(train, val, TestTrainAlternating.PHASES,
                                                QUICK_SOLVER, clf, seed=7)
        return (model.weightnet.params.theta.tobytes(), repr(history),
                [(cid, p.meta, p.psi.theta.tobytes(), p.phi.theta.tobytes())
                 for cid, p in emb.pairs.items()])

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_is_bitwise_the_same_at_every_cpu_count(self, monkeypatch, cpus):
        # W, the history and the pairs
        monkeypatch.setattr(nncore, "_usable_cpus", lambda: 1)
        want = self._run()
        start_workers(monkeypatch, cpus)
        assert self._run() == want

    def test_the_worker_takes_half_2(self, monkeypatch):
        monkeypatch.setattr(nncore, "_usable_cpus", lambda: 1)
        want = self._run()
        start_workers(monkeypatch, 2)
        sent, post = [], classify_mod.post
        monkeypatch.setattr(classify_mod, "post",
                            lambda conn, obj: sent.append(obj) or post(conn, obj))
        assert self._run() == want
        # one task for the whole call: half 2's 64 of the 129 rows of the
        # 12 train clouds' maps, for the schedule's 2 + 2 + 0 epochs
        train, _ = two_class_sets(Rng(5))
        d = train.dim
        [(task, (params, lr, n, half, labels, epochs))] = sent
        assert task is classify_mod._clf_remote
        assert (lr, n, epochs) == (self.CLF.lr, 129, 4)
        assert half.X.shape == (64, d) and half.G.shape == (12, 64, d)
        assert labels.shape == (12,)
        assert params.weights[0].shape == (self.CLF.hidden[0], d)

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_a_nonfinite_loss_names_the_phase_and_leaves_no_reply_unread(
            self, monkeypatch, cpus):
        start_workers(monkeypatch, cpus)
        # steps of 1e307 overflow W, and so the logits of epoch 2, in phase 0
        clf = dataclasses.replace(self.CLF, lr=1e307)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                NumericError, match=r"^non-finite classifier loss \(phase 0\)$"):
            self._run(clf)
        assert not nncore._WORKERS.broken
        # the next fit_pairs call still gets its worker, and its reply
        recv, replies = otsolve_mod._recv_chunk, []
        monkeypatch.setattr(otsolve_mod, "_recv_chunk",
                            lambda *a: replies.append(1) or recv(*a))
        sigma = unit_reference(2, seed=1)
        clouds = {f"c{i}": sigma.sample(40, seed=10 + i) + i for i in range(2)}
        pairs = {cid: pair_for_cloud(sigma, points, QUICK_SOLVER, Rng(i))
                 for i, (cid, points) in enumerate(clouds.items())}
        fit_pairs(sigma, clouds, pairs, {}, QUICK_SOLVER, 2)
        assert len(replies) == cpus - 1

    def test_a_worker_that_dies_mid_classifier_raises(self, monkeypatch):
        monkeypatch.setattr(nncore._WORKERS, "broken", False)  # restored after the test
        start_workers(monkeypatch, 2)
        # the worker reads half 2, then its process ends
        monkeypatch.setattr(classify_mod, "_clf_remote", functools.partial(
            exit_inner_task, "lotnn.classify", "_clf_epoch", "_clf_remote"))
        with pytest.raises(RuntimeError, match="a worker process ended before its task did"):
            self._run()
        assert nncore._WORKERS.broken and not nncore._WORKERS.workers
