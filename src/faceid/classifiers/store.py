"""Model persistence: one npz per trained classifier."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .mlp import GRAD_TOL, MLPModel
from .pnn import PNNModel
from .rbf import RBFModel

FORMAT_VERSION = 1

KIND_MLP = "mlp"
KIND_PNN = "pnn"
KIND_RBF = "rbf"


def save_model(model: MLPModel | PNNModel | RBFModel, path: str | Path) -> None:
    if not isinstance(model, (MLPModel, PNNModel, RBFModel)):
        raise TypeError(f"unsupported model type {type(model).__name__}")
    common = dict(format_version=FORMAT_VERSION,
                  subject_ids=model.subject_ids,
                  norm_mean=model.norm_mean, norm_std=model.norm_std)
    if isinstance(model, MLPModel):
        np.savez(path, kind=KIND_MLP, **common,
                 w1=model.w1, b1=model.b1, w2=model.w2, b2=model.b2,
                 curve=model.curve,
                 config=np.array([model.config.hidden, model.config.epochs,
                                  model.config.gamma, model.config.seed,
                                  GRAD_TOL]))
    elif isinstance(model, PNNModel):
        np.savez(path, kind=KIND_PNN, **common,
                 centers=model.centers, labels=model.labels,
                 spread=model.spread)
    elif isinstance(model, RBFModel):
        np.savez(path, kind=KIND_RBF, **common,
                 centers=model.centers, spread=model.spread,
                 weights=model.weights, biases=model.biases,
                 center_indices=model.center_indices,
                 residuals=model.residuals)

