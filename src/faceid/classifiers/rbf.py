"""Incrementally designed radial basis network with a linear output layer.

Centers are grown greedily: simulate the current network on the gallery,
promote the worst-fit vector (largest summed squared output error) to a new
center, then re-solve the linear layer exactly against the +/-1 targets.
The pre-growth network is the bias-only least-squares fit, so the first
pick is already error-driven.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .common import Gallery, HIGHER, finite_scores, make_targets, probe_block
from .pnn import radbas_bias


@dataclass(eq=False)
class RBFModel:
    centers: np.ndarray        # (k, d) z-scored gallery vectors
    spread: float
    weights: np.ndarray        # (S, k) linear layer
    biases: np.ndarray         # (S,)
    subject_ids: np.ndarray    # (S,) ascending
    norm_mean: np.ndarray
    norm_std: np.ndarray
    center_indices: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))
    residuals: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self):
        if self.spread <= 0:
            raise ValueError("spread must be positive")
        if self.weights.shape != (self.biases.size, self.centers.shape[0]):
            raise ValueError("linear layer shape mismatch")

    @property
    def dim(self) -> int:
        return self.centers.shape[1]

    @property
    def n_centers(self) -> int:
        return self.centers.shape[0]


def _activations(x: np.ndarray, centers: np.ndarray, spread: float) -> np.ndarray:
    """(n, k) radbas responses of every center to every row of x."""
    if centers.shape[0] == 0:
        return np.zeros((x.shape[0], 0))
    diff = x[:, None, :] - centers[None, :, :]
    dists = np.sqrt((diff ** 2).sum(axis=2))
    return np.exp(-(dists * radbas_bias(spread)) ** 2)


def _solve_linear(acts: np.ndarray, targets: np.ndarray):
    """Least-squares (minimum-norm on singular systems) fit of [acts | 1]."""
    design = np.hstack([acts, np.ones((acts.shape[0], 1))])
    coef, _, _, _ = np.linalg.lstsq(design, targets, rcond=None)
    weights = coef[:-1].T        # (S, k)
    biases = coef[-1]            # (S,)
    return weights, biases


def rbf_train(gallery: Gallery, spread: float, max_centers: int = 100) -> RBFModel:
    if spread <= 0:
        raise ValueError("spread must be positive")
    if not 1 <= max_centers <= gallery.size:
        raise ValueError(f"max_centers must lie in [1, {gallery.size}]")
    x = gallery.normalized_matrix()
    targets = make_targets(gallery)
    all_acts = _activations(x, x, spread)   # column j = center candidate j
    chosen: list[int] = []
    remaining = np.ones(gallery.size, dtype=bool)
    weights, biases = _solve_linear(all_acts[:, []], targets)
    residuals = []
    for _ in range(max_centers):
        outputs = all_acts[:, chosen] @ weights.T + biases
        row_err = ((outputs - targets) ** 2).sum(axis=1)
        # never re-promote a vector that is already a center
        candidate_err = np.where(remaining, row_err, -np.inf)
        pick = int(np.argmax(candidate_err))
        chosen.append(pick)
        remaining[pick] = False
        acts = all_acts[:, chosen]
        weights, biases = _solve_linear(acts, targets)
        fit = acts @ weights.T + biases
        residuals.append(float(((fit - targets) ** 2).sum()))
    return RBFModel(centers=x[chosen].copy(), spread=float(spread),
                    weights=weights, biases=biases,
                    subject_ids=gallery.subject_ids.copy(),
                    norm_mean=gallery.mean.copy(), norm_std=gallery.std.copy(),
                    center_indices=np.array(chosen, dtype=np.int64),
                    residuals=np.array(residuals))


def rbf_scores(model: RBFModel, probes: np.ndarray) -> tuple[np.ndarray, str]:
    """(k, S) linear-layer outputs; the probes are z-scored here."""
    z = (probe_block(probes, model.dim) - model.norm_mean) / model.norm_std
    # blocks of n_centers probes keep the (rows, centers, d) temporary within
    # the (n, n, d) one rbf_train builds
    step = model.n_centers
    acts = np.vstack([_activations(z[i:i + step], model.centers, model.spread)
                      for i in range(0, z.shape[0], step)])
    # one mat-vec per probe keeps the bits of a row-by-row `weights @ a`
    outputs = np.matmul(model.weights, acts[..., None])[..., 0] + model.biases
    return finite_scores(outputs, HIGHER)
