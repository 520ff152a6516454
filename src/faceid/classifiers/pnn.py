"""Probabilistic neural network: one radial basis neuron per training vector.

Activation for center w_i at probe x is radbas(||w_i - x|| * b) with
radbas(z) = exp(-z^2) and b = sqrt(-ln 0.5)/spread, so a center responds
with 0.5 exactly at distance = spread. Class scores are the per-subject
activation sums rescaled to probabilities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .common import Features, check_spread, finite_scores, per_subject, z_distances, zscore


def radbas_bias(spread: float) -> float:
    return float(np.sqrt(-np.log(0.5)) / check_spread(spread))


def radbas(dists: np.ndarray, spread: float) -> np.ndarray:
    """Elementwise radbas(dist * b) of a distance matrix."""
    return np.exp(-(dists * radbas_bias(spread)) ** 2)


@dataclass(eq=False)
class PNNModel:
    centers: np.ndarray       # (n, d) z-scored gallery vectors
    labels: np.ndarray        # (n,)
    spread: float
    subject_ids: np.ndarray   # (S,) ascending
    norm_mean: np.ndarray
    norm_std: np.ndarray

    def __post_init__(self):
        radbas_bias(self.spread)  # refuses a spread that is not positive and finite
        if self.centers.shape[0] != self.labels.shape[0]:
            raise ValueError("one label per center required")


def pnn_train(gallery: Features, spread: float) -> PNNModel:
    """No fitting beyond storing every normalized gallery vector as a center."""
    return PNNModel(centers=gallery.normalized_matrix(),
                    labels=gallery.labels.copy(), spread=float(spread),
                    subject_ids=gallery.subject_ids.copy(),
                    norm_mean=gallery.mean.copy(), norm_std=gallery.std.copy())


def pnn_classify(model: PNNModel, probes: np.ndarray) -> tuple[np.ndarray, int]:
    """(k, S) class probabilities, each row summing to 1, and how many probes
    took the fallback.

    A probe whose activations all underflow to zero degrades to a nearest
    neighbor decision on the unsquashed distances, reported as a one-hot row.
    """
    dists = z_distances(zscore(probes, model), model.centers)
    class_sums = per_subject(radbas(dists, model.spread), model.labels, model.subject_ids, np.sum)
    total = class_sums.sum(axis=1, keepdims=True)
    underflow = total[:, 0] == 0.0
    probs = class_sums / np.where(underflow[:, None], 1.0, total)
    if underflow.any():
        nearest = per_subject(dists[underflow], model.labels, model.subject_ids, np.min)
        probs[underflow] = np.eye(model.subject_ids.size)[np.argmin(nearest, axis=1)]
    return finite_scores(probs), int(np.count_nonzero(underflow))
