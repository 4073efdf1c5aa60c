import math

import numpy as np
import pytest

from lotnn import nncore
from lotnn.errors import DataError, NumericError, ShapeError
from lotnn.data import PointCloud
from lotnn.lot import (
    BoundParams,
    EmbeddingSet,
    ReferenceMeasure,
    lot_distance_empirical,
    maps_on,
    pairwise_matrix,
    theorem_bound,
)
from lotnn.nncore import Rng
from lotnn.otsolve import Frame, SolverConfig, init_dual_pair
from conftest import quad_pair, relerr, unit_reference


class TestReferenceMeasure:
    def test_sampling_is_reproducible(self):
        ref = unit_reference(3, seed=4)
        assert np.array_equal(ref.sample(10), ref.sample(10))
        assert np.array_equal(ref.sample(10, seed=9), ref.sample(10, seed=9))
        assert not np.array_equal(ref.sample(10, seed=9), ref.sample(10, seed=10))

    def test_fitted_matches_pooled_moments(self, rng):
        pts = rng.normal((4000, 2), scale=2.0) + np.array([1.0, -3.0])
        clouds = [PointCloud("a", pts[:2000]), PointCloud("b", pts[2000:])]
        ref = ReferenceMeasure.fitted(clouds, seed=0)
        assert relerr(ref.mean, pts.mean(axis=0)) < 1e-12
        assert relerr(ref.var, pts.var(axis=0)) < 1e-12
        sample = ref.sample(20000, seed=1)
        assert np.max(np.abs(sample.mean(axis=0) - pts.mean(axis=0))) < 0.1

    def test_fitted_rejects_degenerate_coordinate(self):
        clouds = [PointCloud("a", np.array([[1.0, 0.0], [2.0, 0.0]]))]
        with pytest.raises(DataError):
            ReferenceMeasure.fitted(clouds)

    def test_invalid_kind_rejected(self):
        with pytest.raises(ValueError):
            ReferenceMeasure(kind="cauchy", dim=2, mean=(0.0, 0.0), var=(1.0, 1.0))

    @pytest.mark.parametrize("dim", [1, 2, 3, 10])
    def test_unit_reference_is_the_standard_normal_bitwise(self, dim):
        ref = unit_reference(dim, seed=4)
        for seed in range(8):
            want = np.random.Generator(np.random.PCG64(seed)).standard_normal((25, dim))
            assert ref.sample(25, seed=seed).tobytes() == want.tobytes()
        want = np.random.Generator(np.random.PCG64(4)).standard_normal((25, dim))
        assert ref.sample(25).tobytes() == want.tobytes()
        assert ref.mean_vector().tobytes() == np.zeros(dim).tobytes()
        assert ref.std_vector().tobytes() == np.ones(dim).tobytes()
        assert ref.scale_scalar() == 1.0


class TestLotDistance:
    def test_identical_pairs_zero(self, rng):
        pair = quad_pair(2, q_psi=1.0)
        sample = rng.normal((50, 2))
        assert lot_distance_empirical(pair, pair, sample) == 0.0

    def test_constant_displacement(self, rng):
        # maps x and x + (1, 0): distance 1 for any sample
        p1 = quad_pair(2, q_psi=1.0)
        p2 = quad_pair(2, q_psi=1.0, psi_tilt=(1.0, 0.0))
        for _ in range(3):
            sample = rng.normal((30, 2), scale=3.0)
            assert relerr(lot_distance_empirical(p1, p2, sample), 1.0) < 1e-12

    def test_hand_value_scaling_maps(self):
        # maps x and 2x on {(1,0), (0,1)}: sqrt((1+1)/2) = 1
        p1 = quad_pair(2, q_psi=1.0)
        p2 = quad_pair(2, q_psi=2.0)
        sample = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert relerr(lot_distance_empirical(p1, p2, sample), 1.0) < 1e-12

    def test_empty_sample_rejected(self):
        pair = quad_pair(2)
        with pytest.raises(ShapeError):
            lot_distance_empirical(pair, pair, np.empty((0, 2)))

    def test_pseudometric_on_random_pairs(self, rng):
        pairs = [quad_pair(2, q_psi=float(rng.uniform((), 0.2, 2.0)),
                           psi_tilt=rng.normal(2)) for _ in range(6)]
        sample = rng.normal((40, 2))
        for a in pairs:
            for b in pairs:
                dab = lot_distance_empirical(a, b, sample)
                assert dab == lot_distance_empirical(b, a, sample)  # symmetry
                for c in pairs:
                    assert dab <= (lot_distance_empirical(a, c, sample)
                                   + lot_distance_empirical(c, b, sample) + 1e-9)

    def test_resampled_identical_pairs_zero(self):
        ref = unit_reference(2, seed=1)
        pair = quad_pair(2, q_psi=1.5, psi_tilt=(0.3, -0.2))
        for seed in (0, 1, 2):
            assert lot_distance_empirical(pair, pair, ref.sample(50, seed=seed)) == 0.0

    def test_resampled_single_point(self):
        ref = unit_reference(2, seed=1)
        p1 = quad_pair(2, q_psi=1.0)
        p2 = quad_pair(2, q_psi=1.0, psi_tilt=(3.0, 4.0))
        assert relerr(lot_distance_empirical(p1, p2, ref.sample(1, seed=5)), 5.0) < 1e-12


class TestPairwiseMatrix:
    def _embedding(self, pairs_dict, n=20):
        ref = unit_reference(2, seed=0)
        return EmbeddingSet.build(ref, list(pairs_dict), pairs_dict,
                                  eval_n=n, eval_seed=3)

    def test_single_cloud(self):
        emb = self._embedding({"a": quad_pair(2)})
        assert np.array_equal(pairwise_matrix(emb), [[0.0]])

    def test_two_identical(self):
        emb = self._embedding({"a": quad_pair(2, q_psi=1.0, psi_tilt=(0.5, 0.5)),
                               "b": quad_pair(2, q_psi=1.0, psi_tilt=(0.5, 0.5))})
        assert np.array_equal(pairwise_matrix(emb), np.zeros((2, 2)))

    def test_line_metric_of_shifts(self):
        emb = self._embedding({
            "a": quad_pair(2, q_psi=1.0),
            "b": quad_pair(2, q_psi=1.0, psi_tilt=(1.0, 0.0)),
            "c": quad_pair(2, q_psi=1.0, psi_tilt=(3.0, 0.0)),
        })
        D = pairwise_matrix(emb)
        want = np.array([[0.0, 1.0, 3.0], [1.0, 0.0, 2.0], [3.0, 2.0, 0.0]])
        assert relerr(D, want) < 1e-12

    def test_symmetry_nonnegativity(self, rng):
        emb = self._embedding({f"p{i}": quad_pair(2, q_psi=float(rng.uniform((), 0.5, 2.0)),
                                                  psi_tilt=rng.normal(2))
                               for i in range(5)})
        D = pairwise_matrix(emb)
        assert np.array_equal(D, D.T)
        assert np.all(D >= 0) and np.all(np.diag(D) == 0)

    def test_matches_pairwise_distance_on_nonlinear_maps(self, rng):
        # ICNN maps with random frames: summation order matters here,
        # unlike for the linear quad_pair maps above
        cfg = SolverConfig(hidden=(8, 8))
        pairs = {}
        for i in range(6):
            frame = Frame(sigma_mean=tuple(rng.normal(2)), mu_mean=tuple(rng.normal(2)),
                          scale=float(rng.uniform((), 0.5, 2.0)))
            pairs[f"p{i}"] = init_dual_pair(2, cfg, Rng(100 + i), frame=frame)
        emb = self._embedding(pairs, n=200)
        D = pairwise_matrix(emb)
        assert np.array_equal(D, D.T) and np.all(np.diag(D) == 0)
        for i, a in enumerate(emb.ids):
            for j, b in enumerate(emb.ids):
                want = lot_distance_empirical(pairs[a], pairs[b], emb.eval_sample)
                assert abs(D[i, j] - want) <= 1e-12 * want


def icnn_pairs(rng, count, dim=2):
    """Untrained ICNN pairs at the default widths with random frames."""
    cfg = SolverConfig()
    pairs = []
    for i in range(count):
        frame = Frame(sigma_mean=tuple(rng.normal(dim)), mu_mean=tuple(rng.normal(dim)),
                      scale=float(rng.uniform((), 0.5, 2.0)))
        pairs.append(init_dual_pair(dim, cfg, Rng(100 + i), frame=frame))
    return pairs


class TestMapsOn:
    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("count", [1, 2, 7])
    def test_equals_a_serial_stack_bitwise(self, rng, monkeypatch, cpus, count):
        # 1000 rows split three ways would change the 64 -> d products' bits
        monkeypatch.setattr(nncore, "_usable_cpus", lambda: cpus)
        for dim in (2, 10):
            pairs = icnn_pairs(rng, count, dim)
            S = rng.normal((1000, dim))
            want = np.stack([p.map_forward(S) for p in pairs])
            assert maps_on(pairs, S).tobytes() == want.tobytes()

    @pytest.mark.parametrize("cpus", [1, 3])
    def test_nan_parameters_raise_the_serial_error(self, rng, monkeypatch, cpus):
        monkeypatch.setattr(nncore, "_usable_cpus", lambda: cpus)
        pairs = icnn_pairs(rng, 4)
        pairs[2].psi.theta[0] = np.nan
        S = rng.normal((100, 2))
        with pytest.raises(NumericError) as serial:
            np.stack([p.map_forward(S) for p in pairs])
        with pytest.raises(NumericError) as pooled:
            maps_on(pairs, S)
        assert str(pooled.value) == str(serial.value)

    def test_dimension_mismatch_rejected(self, rng):
        with pytest.raises(ShapeError):
            maps_on(icnn_pairs(rng, 2), rng.normal((5, 3)))


class TestTheoremBound:
    def test_hand_value(self):
        p = BoundParams(beta=1.0, eps=0.1, R=1.0, n=1000, delta=0.05)
        want = 0.8 + 1.96 * math.sqrt(math.log(40.0) / 2000.0)
        assert abs(theorem_bound(p) - want) < 1e-12
        assert abs(theorem_bound(p) - 0.8842) < 1e-3

    def test_doubling_n_scales_second_term(self):
        p1 = BoundParams(beta=2.0, eps=0.3, R=1.5, n=500, delta=0.1)
        p2 = BoundParams(beta=2.0, eps=0.3, R=1.5, n=1000, delta=0.1)
        first = 8.0 * 2.0 * 0.3
        assert relerr(theorem_bound(p1) - first,
                      math.sqrt(2.0) * (theorem_bound(p2) - first)) < 1e-12

    def test_vanishes_in_the_limit(self):
        vals = [theorem_bound(BoundParams(beta=1.0, eps=eps, R=1.0,
                                          n=n, delta=0.05))
                for eps, n in [(1e-2, 10**4), (1e-4, 10**6), (1e-6, 10**8)]]
        assert vals[0] > vals[1] > vals[2]
        assert vals[2] < 1e-3

    def test_monotone_in_beta_eps_n(self):
        base = dict(beta=1.0, eps=0.2, R=2.0, n=1000, delta=0.05)
        for beta in (0.5, 1.0, 2.0, 4.0):
            for eps in (0.05, 0.1, 0.4):
                for n in (100, 1000, 10000):
                    b = theorem_bound(BoundParams(beta=beta, eps=eps,
                                                  R=2.0, n=n, delta=0.05))
                    assert b > theorem_bound(BoundParams(beta=beta * 0.9, eps=eps,
                                                         R=2.0, n=n, delta=0.05))
                    assert b > theorem_bound(BoundParams(beta=beta, eps=eps * 0.9,
                                                         R=2.0, n=n, delta=0.05))
                    assert b < theorem_bound(BoundParams(beta=beta, eps=eps,
                                                         R=2.0, n=n // 2,
                                                         delta=0.05))

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            BoundParams(beta=0.0, eps=0.1, R=1.0, n=10, delta=0.05)
        with pytest.raises(ValueError):
            BoundParams(beta=1.0, eps=0.1, R=1.0, n=10, delta=1.5)
