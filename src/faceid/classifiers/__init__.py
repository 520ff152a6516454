"""Identification back ends: nearest neighbor, MLP, PNN, and incremental RBF.

Each back end scores a (k, d) probe block into a (k, S) score matrix in
which higher is better; ``faceid.fusion`` turns one or more such matrices
into decisions. The package reads and writes no file: ``faceid.evaluation``
saves the trained models.
"""

from .common import EvalConfig, Features, STD_FLOOR, make_targets
from .nearest import MAD, MSE, METRICS, nn_scores
from .mlp import (
    DivergenceError,
    MLPModel,
    mlp_scores,
    mlp_train,
    msereg_gradient,
    msereg_loss,
    pack_params,
    unpack_params,
)
from .pnn import PNNModel, pnn_classify, pnn_train, radbas_bias
from .rbf import RBFModel, rbf_scores, rbf_train

__all__ = [
    "EvalConfig", "Features", "STD_FLOOR", "make_targets",
    "MAD", "MSE", "METRICS", "nn_scores",
    "DivergenceError", "MLPModel",
    "mlp_scores", "mlp_train",
    "msereg_gradient", "msereg_loss", "pack_params", "unpack_params",
    "PNNModel", "pnn_classify", "pnn_train", "radbas_bias",
    "RBFModel", "rbf_scores", "rbf_train",
]
