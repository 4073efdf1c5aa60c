"""Property tests on random hand-wired potential pairs and cloud files.

The LOT distance matrix is a pseudometric (exactly symmetric, zero
diagonal, triangle inequality up to rounding), a classifier score is
bitwise invariant to the order of its evaluation sample, a cloud file
parses as the per-row rules parse it, clean or not, and the exact OT
oracle finds the optimum of a plain assignment on raw squared distances
and obeys the translation law of W2.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

from lotnn import data
from lotnn.classify import ClassifierModel, WeightNet, score
from lotnn.errors import DataError
from lotnn.lot import EmbeddingSet, pairwise_matrix
from lotnn.nncore import Rng, mlp_init
from lotnn.otsolve import exact_ot_discrete
from conftest import quad_pair, shift_pair, unit_reference

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
    return EmbeddingSet.build(unit_reference(dim, seed=seed), ids,
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
    model = ClassifierModel(WeightNet(mlp_init((dim, 6, dim), rng.spawn(0), scale=0.8)))
    sample = rng.spawn(1).normal((n, dim))
    perm = np.array(draw(st.permutations(range(n))))
    return model, draw(affine_pairs(dim)), sample, perm


@PROPERTY
@given(scoring_cases())
def test_score_is_bitwise_permutation_invariant(case):
    model, pair, sample, perm = case
    assert score(model, pair, sample[perm]) == score(model, pair, sample)


FINITE = st.floats(allow_nan=False, allow_infinity=False)
FIELDS = st.one_of(FINITE.map(repr), st.floats(-1e6, 1e6).map(lambda v: f" {v:.3g} "),
                   st.integers(-99, 99).map(str))
BAD_FIELDS = st.sampled_from(["", " ", "x", "1.0.0", "nan", "inf", "-inf", "1e999"])


@st.composite
def cloud_files(draw):
    """(file text, clean): rows of one width, then, unless clean, blank
    and `#` lines, bad fields and ragged rows; any header and line end."""
    width = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(FIELDS, min_size=width, max_size=width),
                         min_size=1, max_size=12))
    mutations = draw(st.lists(st.sampled_from(["blank", "comment", "field", "ragged"]),
                              max_size=4))
    for kind in mutations:
        i = draw(st.integers(0, len(rows) - 1))
        if kind == "blank":
            rows.insert(i, [draw(st.sampled_from(["", "  "]))])
        elif kind == "comment":
            rows.insert(i, ["# note"])
        elif kind == "field":
            rows[i][draw(st.integers(0, len(rows[i]) - 1))] = draw(BAD_FIELDS)
        elif draw(st.booleans()) and len(rows[i]) > 1:
            rows[i] = rows[i][:-1]
        else:
            rows[i] = rows[i] + [draw(FIELDS)]
    header = draw(st.sampled_from(
        [None, "# cloud", f"#dim={width}", f"#dim={width + 1}", "#dim=abc"]))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    lines = ([header] if header else []) + [",".join(r) for r in rows]
    text = end.join(lines) + (end if draw(st.booleans()) else "")
    clean = not mutations and header in (None, "# cloud", f"#dim={width}")
    return text, clean


def _outcome(parse, path):
    try:
        pts, dropped = parse(path)
    except DataError as e:
        return str(e)
    return pts.dtype, pts.shape, pts.tobytes(), dropped


@pytest.fixture(scope="module")
def cloud_path(tmp_path_factory):
    return tmp_path_factory.mktemp("csv") / "cloud_a.csv"


@settings(PROPERTY, max_examples=150)
@given(cloud_files())
def test_cloud_files_parse_as_the_per_row_rules_parse_them(cloud_path, case):
    text, clean = case
    cloud_path.write_bytes(text.encode())
    assert (_outcome(data._parse_cloud_csv, cloud_path)
            == _outcome(data._parse_rows, cloud_path))
    if clean:
        assert data._parse_clean(cloud_path) is not None


def _plain_assignment_cost(X, Y):
    """The oracle on raw squared distances, without centering or reductions."""
    _, cols = linear_sum_assignment(cdist(X, Y, "sqeuclidean"))
    return float(np.mean(np.sum((X - Y[cols]) ** 2, axis=1)))


def _second_moment(*clouds):
    return sum(float(np.mean(np.sum(c * c, axis=1))) for c in clouds)


@st.composite
def cloud_pairs(draw):
    """Two equal-size clouds and an offset for each, up to 1e3 per
    coordinate; half of the pairs repeat a few points many times."""
    n = draw(st.integers(1, 40))
    dim = draw(st.integers(1, 5))
    offsets = st.lists(st.floats(-1e3, 1e3), min_size=dim, max_size=dim)
    gen = np.random.default_rng(draw(SEEDS))
    X = gen.standard_normal((n, dim))
    Y = gen.standard_normal((n, dim)) * draw(st.floats(0.1, 3.0))
    if draw(st.booleans()):
        few = max(1, n // 4)
        X = X[gen.integers(0, few, n)]
        Y = np.concatenate([X[:few], Y])[gen.integers(0, 2 * few, n)]
    return X, Y, np.array(draw(offsets)), np.array(draw(offsets))


@settings(PROPERTY, max_examples=100)
@given(cloud_pairs())
def test_exact_ot_is_the_plain_optimum_and_obeys_the_translation_law(case):
    X, Y, a, b = case
    n = X.shape[0]
    Xa, Yb = X + a, Y + b
    perm, cost = exact_ot_discrete(Xa, Yb)
    assert np.array_equal(np.sort(perm), np.arange(n))
    along = float(np.mean(np.sum((Xa - Yb[perm]) ** 2, axis=1)))
    assert abs(along - cost) <= 1e-12 * max(1.0, cost)
    # the second moments bound the cost and the rounding of every
    # squared distance, so they set the scale of both comparisons
    scale = _second_moment(X, Y, Xa, Yb)
    assert abs(cost - _plain_assignment_cost(Xa, Yb)) <= 1e-12 * scale
    _, base = exact_ot_discrete(X, Y)
    shift = a - b
    law = base + shift @ shift + 2 * shift @ (X.mean(axis=0) - Y.mean(axis=0))
    assert abs(cost - law) <= 1e-12 * scale
