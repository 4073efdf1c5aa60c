import numpy as np

from lotnn.deepsets import DeepSetsConfig, ds_bagging, ds_forward, init_deepsets


def test_ds_forward_bitwise_permutation_invariant(rng):
    cfg = DeepSetsConfig(phi_hidden=(8,), pooled_dim=6, rho_hidden=(4,))
    model = init_deepsets(3, cfg, rng.spawn(0))
    pts = rng.normal((400, 3), scale=3.0)
    want = ds_forward(model, pts)
    for k in range(5):
        assert ds_forward(model, pts[rng.spawn(k + 1).permutation(400)]) == want


def test_ds_bagging_averages_members(rng):
    cfg = DeepSetsConfig(phi_hidden=(4,), pooled_dim=3, rho_hidden=(4,))
    models = [init_deepsets(2, cfg, rng.spawn(k)) for k in range(3)]
    pts = rng.normal((50, 2))
    assert ds_bagging(models, pts) == float(np.mean([ds_forward(m, pts) for m in models]))

