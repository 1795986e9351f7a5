"""Graph-based semi-supervised distance metric learning.

Propagates pairwise affinities from a few labeled examples to unlabeled
data over a kNN graph, mines triplets from sorted neighborhoods, and
learns an orthonormal linear metric with an angular triplet loss on the
Stiefel manifold.  Ships two classical pairwise baselines and a
clustering/retrieval evaluation stack.
"""

from .data import (Dataset, load_csv, make_blobs, parse_idx, sample_partition,
                   split_validation, strip_labels, write_csv)
from .errors import (ConfigError, ConvergenceError, DataFormatError,
                     NumericalError, SsdmlError)
from .evaluation import EvalReport, evaluate_embeddings, kmeans, nmi, recall_at_k
from .graph import NeighborGraph, build_knn, laplacian, neighbor_matrix, seed_affinity
from .manifold import optimize_L, retract_qr, tangent_project
from .metric import angular_loss, angular_margin, embed, mahalanobis_sq
from .mining import batch_triplets, mine_triplets, sorted_neighborhood
from .propagation import (EdgeAffinity, propagate, propagate_dense,
                          propagate_direct, propagate_iterative, symmetrize)
from .trainer import (Model, TrainConfig, evaluate_checkpoint, load_model,
                      save_model, train)

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "ConvergenceError", "DataFormatError", "Dataset",
    "EdgeAffinity", "EvalReport", "Model", "NeighborGraph", "NumericalError",
    "SsdmlError", "TrainConfig", "angular_loss", "angular_margin",
    "batch_triplets", "build_knn", "embed", "evaluate_checkpoint",
    "evaluate_embeddings", "kmeans", "laplacian", "load_csv", "load_model",
    "mahalanobis_sq", "make_blobs", "mine_triplets", "neighbor_matrix", "nmi",
    "optimize_L", "parse_idx", "propagate", "propagate_dense",
    "propagate_direct", "propagate_iterative", "recall_at_k", "retract_qr",
    "sample_partition", "save_model", "seed_affinity", "sorted_neighborhood",
    "split_validation", "strip_labels", "symmetrize", "tangent_project",
    "train", "write_csv",
]
