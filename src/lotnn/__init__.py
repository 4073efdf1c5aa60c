"""Point-cloud classification via neural optimal-transport embeddings.

Train one convex-potential pair per cloud against a shared reference
measure, embed clouds by their gradient maps, compare them with
root-mean-square map displacements, and classify with a learned
weighted inner product that is exactly permutation invariant.
"""

__version__ = "0.1.0"

from .errors import DataError, LotnnError, NumericError, ShapeError
from .nncore import (
    OptimState,
    Rng,
    adam_step,
    finite_diff_grad,
    set_heap_thresholds,
)

set_heap_thresholds()
from .icnn import (
    IcnnConfig,
    IcnnParams,
    icnn_backward,
    icnn_forward,
    icnn_input_grad,
    icnn_inputgrad_vjp,
    init_icnn,
    project_nonneg,
)
from .otsolve import (
    DualPair,
    GaussianSpec,
    SolverConfig,
    dual_objective_V,
    estimate_w2_dual,
    exact_ot_discrete,
    exact_w2_discrete,
    gaussian_w2,
    train_map,
)
from .lot import (
    BoundParams,
    EmbeddingSet,
    ReferenceMeasure,
    lot_distance_empirical,
    pairwise_matrix,
    theorem_bound,
)
from .data import (
    LabeledDataset,
    PointCloud,
    SyntheticSpec,
    gen_synthetic,
    load_csv_dir,
    save_csv_dir,
    split,
)
from .classify import (
    ClassifierConfig,
    ClassifierModel,
    Metrics,
    TrainSchedule,
    WeightNet,
    evaluate,
    predict_resampled,
    score,
    train_alternating,
)
from .deepsets import (
    DeepSetsConfig,
    DeepSetsModel,
    ds_bagging,
    ds_forward,
    ds_train,
    init_deepsets,
)
from .bundle import ModelBundle, load_bundle, save_bundle

__all__ = [
    "LotnnError", "ShapeError", "NumericError", "DataError",
    "Rng", "OptimState", "adam_step", "finite_diff_grad",
    "IcnnConfig", "IcnnParams", "init_icnn", "project_nonneg",
    "icnn_forward", "icnn_input_grad", "icnn_backward", "icnn_inputgrad_vjp",
    "DualPair", "SolverConfig", "GaussianSpec",
    "dual_objective_V", "estimate_w2_dual", "train_map",
    "exact_ot_discrete", "exact_w2_discrete", "gaussian_w2",
    "ReferenceMeasure", "EmbeddingSet", "BoundParams",
    "lot_distance_empirical", "pairwise_matrix", "theorem_bound",
    "PointCloud", "LabeledDataset", "SyntheticSpec",
    "gen_synthetic", "load_csv_dir", "save_csv_dir", "split",
    "WeightNet", "ClassifierModel", "TrainSchedule", "ClassifierConfig",
    "Metrics", "score", "train_alternating", "predict_resampled", "evaluate",
    "DeepSetsConfig", "DeepSetsModel", "init_deepsets",
    "ds_forward", "ds_train", "ds_bagging",
    "ModelBundle", "save_bundle", "load_bundle",
]
