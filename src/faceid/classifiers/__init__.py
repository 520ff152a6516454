"""Identification back ends: nearest neighbor, MLP, PNN, and incremental RBF.

Each back end scores a (k, d) probe block into a (k, S) score matrix plus
its polarity; ``faceid.fusion`` turns one or more such matrices into
decisions.
"""

from .common import (
    Gallery,
    HIGHER,
    LOWER,
    STD_FLOOR,
    make_targets,
)
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
from .rbf import RBFModel, probes_at_bias, rbf_scores, rbf_train
from .store import save_model

__all__ = [
    "Gallery", "HIGHER", "LOWER", "STD_FLOOR", "make_targets",
    "MAD", "MSE", "METRICS", "nn_scores",
    "DivergenceError", "MLPConfig", "MLPModel",
    "mlp_scores", "mlp_train",
    "msereg_gradient", "msereg_loss", "pack_params", "unpack_params",
    "write_training_log",
    "PNNModel", "pnn_classify", "pnn_train", "radbas_bias",
    "RBFModel", "probes_at_bias", "rbf_scores", "rbf_train",
    "save_model",
]
