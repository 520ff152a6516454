"""Identification back ends: nearest neighbor, MLP, PNN, and incremental RBF.

Each back end scores a (k, d) probe block into a (k, S) score matrix in
which higher is better; ``faceid.fusion`` turns one or more such matrices
into decisions.
"""

from .common import Features, STD_FLOOR, make_targets
from .nearest import MAD, MSE, METRICS, nn_scores
from .mlp import (
    DivergenceError,
    MLPConfig,
    MLPModel,
    mlp_scores,
    mlp_train,
    msereg_gradient,
    msereg_loss,
    pack_params,
    unpack_params,
    write_training_log,
)
from .pnn import PNNModel, pnn_classify, pnn_train, radbas_bias
from .rbf import MAX_CENTERS, RBFModel, collapse_counts, rbf_scores, rbf_train
from .store import save_model

__all__ = [
    "Features", "STD_FLOOR", "make_targets",
    "MAD", "MSE", "METRICS", "nn_scores",
    "DivergenceError", "MLPConfig", "MLPModel",
    "mlp_scores", "mlp_train",
    "msereg_gradient", "msereg_loss", "pack_params", "unpack_params",
    "write_training_log",
    "PNNModel", "pnn_classify", "pnn_train", "radbas_bias",
    "MAX_CENTERS", "RBFModel", "collapse_counts", "rbf_scores", "rbf_train",
    "save_model",
]
