"""Probabilistic neural network: one radial basis neuron per training vector.

Activation for center w_i at probe x is radbas(||w_i - x|| * b) with
radbas(z) = exp(-z^2) and b = sqrt(-ln 0.5)/spread, so a center responds
with 0.5 exactly at distance = spread. Class scores are the per-subject
activation sums rescaled to probabilities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import distance as _sdist

from .common import Gallery, HIGHER, finite_scores, per_subject, probe_block


def radbas_bias(spread: float) -> float:
    if spread <= 0:
        raise ValueError("spread must be positive")
    return float(np.sqrt(-np.log(0.5)) / spread)


@dataclass(eq=False)
class PNNModel:
    centers: np.ndarray       # (n, d) z-scored gallery vectors
    labels: np.ndarray        # (n,)
    spread: float
    subject_ids: np.ndarray   # (S,) ascending
    norm_mean: np.ndarray
    norm_std: np.ndarray

    def __post_init__(self):
        if self.spread <= 0:
            raise ValueError("spread must be positive")
        if self.centers.shape[0] != self.labels.shape[0]:
            raise ValueError("one label per center required")

    @property
    def dim(self) -> int:
        return self.centers.shape[1]


def pnn_train(gallery: Gallery, spread: float) -> PNNModel:
    """No fitting beyond storing every normalized gallery vector as a center."""
    if spread <= 0:
        raise ValueError("spread must be positive")
    return PNNModel(centers=gallery.normalized_matrix(),
                    labels=gallery.labels.copy(), spread=float(spread),
                    subject_ids=gallery.subject_ids.copy(),
                    norm_mean=gallery.mean.copy(), norm_std=gallery.std.copy())


def pnn_classify(model: PNNModel, probes: np.ndarray) -> tuple[np.ndarray, str]:
    """(k, S) class probabilities, each row summing to 1.

    A probe whose activations all underflow to zero degrades to a nearest
    neighbor decision on the unsquashed distances, reported as a one-hot row.
    """
    z = (probe_block(probes, model.dim) - model.norm_mean) / model.norm_std
    dists = np.sqrt(_sdist.cdist(z, model.centers, metric="sqeuclidean"))
    acts = np.exp(-(dists * radbas_bias(model.spread)) ** 2)
    class_sums = per_subject(acts, model.labels, model.subject_ids, np.sum)
    total = class_sums.sum(axis=1, keepdims=True)
    underflow = total[:, 0] == 0.0
    probs = class_sums / np.where(underflow[:, None], 1.0, total)
    if underflow.any():
        nearest = per_subject(dists[underflow], model.labels, model.subject_ids, np.min)
        probs[underflow] = np.eye(model.subject_ids.size)[np.argmin(nearest, axis=1)]
    return finite_scores(probs, HIGHER)
