"""Point-cloud classification via neural optimal-transport embeddings.

Train one convex-potential pair per cloud against a shared reference
measure, embed clouds by their gradient maps, compare them with
root-mean-square map displacements, and classify with a learned
weighted inner product that is exactly permutation invariant.

Import the module that holds a name, as in `from lotnn import otsolve`:
- errors: LotnnError, ShapeError, NumericError, DataError;
- nncore: Rng, OptimState, adam_step, MLPs, finite_diff_grad, CPU pools;
- icnn: IcnnConfig, IcnnParams, init_icnn and the ICNN passes;
- otsolve: DualPair, SolverConfig, the solver (train_map), exact oracles;
- lot: ReferenceMeasure, EmbeddingSet, LOT distances, theorem_bound;
- data: PointCloud, LabeledDataset, gen_synthetic, CSV I/O, split;
- classify: weight-net training (train_alternating, train_classifier), score;
- deepsets: the DeepSets baseline (ds_train, ds_bagging);
- bundle: ModelBundle, save_bundle, load_bundle;
- cli: the `lotnn` command.
Importing lotnn loads every module but cli, pins numpy's BLAS to one
thread (nncore) and sets glibc's heap thresholds.
"""

__version__ = "0.1.0"

from . import errors, nncore, icnn, otsolve, lot, data, classify, deepsets, bundle

nncore.set_heap_thresholds()
