"""Property tests on random hand-wired potential pairs.

The LOT distance matrix is a pseudometric (exactly symmetric, zero
diagonal, triangle inequality up to rounding), and a classifier score is
bitwise invariant to the order of its evaluation sample.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from lotnn.classify import ClassifierModel, WeightNet, score
from lotnn.lot import EmbeddingSet, ReferenceMeasure, pairwise_matrix
from lotnn.nncore import Rng, mlp_init
from conftest import quad_pair, shift_pair

# derandomized so that every run of the suite checks the same examples
PROPERTY = settings(max_examples=25, deadline=None, database=None,
                    derandomize=True)
SEEDS = st.integers(0, 2**31 - 1)


@st.composite
def affine_pairs(draw, dim):
    """A shift pair or a quadratic pair with a random slope and tilt."""
    coords = st.lists(st.floats(-3.0, 3.0), min_size=dim, max_size=dim)
    if draw(st.booleans()):
        return shift_pair(dim, draw(coords))
    return quad_pair(dim, q_psi=draw(st.floats(0.1, 3.0)), psi_tilt=draw(coords))


@st.composite
def embeddings(draw):
    dim = draw(st.integers(1, 3))
    pairs = draw(st.lists(affine_pairs(dim), min_size=2, max_size=6))
    ids = [f"p{i}" for i in range(len(pairs))]
    seed = draw(SEEDS)
    return EmbeddingSet.build(ReferenceMeasure.standard(dim, seed=seed), ids,
                              dict(zip(ids, pairs)), eval_n=64, eval_seed=seed)


@PROPERTY
@given(embeddings())
def test_pairwise_matrix_is_a_pseudometric(emb):
    D = pairwise_matrix(emb)
    assert np.array_equal(D, D.T) and np.all(np.diag(D) == 0)
    # [i, j, k]: D[i, k] against D[i, j] + D[j, k]
    via = D[:, :, None] + D[None, :, :]
    assert np.all(D[:, None, :] <= via * (1 + 1e-12))


@st.composite
def scoring_cases(draw):
    dim = draw(st.integers(1, 3))
    n = draw(st.integers(2, 200))
    rng = Rng(draw(SEEDS))
    model = ClassifierModel(WeightNet(mlp_init((dim, 6, dim), rng.spawn(0), scale=0.8),
                                      (6,)))
    sample = rng.spawn(1).normal((n, dim))
    perm = np.array(draw(st.permutations(range(n))))
    return model, draw(affine_pairs(dim)), sample, perm


@PROPERTY
@given(scoring_cases())
def test_score_is_bitwise_permutation_invariant(case):
    model, pair, sample, perm = case
    assert score(model, pair, sample[perm]) == score(model, pair, sample)
