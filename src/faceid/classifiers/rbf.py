"""Incrementally designed radial basis network with a linear output layer.

Centers are grown greedily: simulate the current network on the gallery and
promote the worst-fit vector (largest summed squared output error against
the +/-1 targets) to a new center. The pre-growth network is the bias-only
least-squares fit, so the first pick is already error-driven. Errors within
``TIE_RTOL`` (relative) of the largest count as tied, and the lowest gallery
index among them is promoted, so rounding never decides a pick.

Each step's network is the least-squares fit on the centers so far, grown by
orthogonalisation (Chen, Cowan & Grant 1991, "Orthogonal least squares
learning algorithm for radial basis function networks", IEEE TNN 2(2)): the
new center's activation column is orthogonalised against an orthonormal
basis of the fit's span, and its share of the targets is added to the
running gallery outputs, so a pick costs O(n S) instead of a refit. A column
that the span already holds adds nothing. One least-squares solve on the
chosen columns after the last pick gives the weights and biases (minimum-norm
on a rank-deficient design). The per-step residuals come from the running
outputs and match refits to about 1e-14, relative, not bit for bit; the last
one is the final fit's. Activations are ``radbas`` of ``z_distances``, the
z-space kernel PNN shares: the gallery's cached matrix in training, the
probes' distances to the centers in scoring.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .common import EvalConfig, Features, finite_scores, make_targets, z_distances, zscore
from .pnn import radbas, radbas_bias

# candidates whose error lies within this fraction of the largest error are
# tied, and the lowest index among them is picked
TIE_RTOL = 1e-9


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
    # training diagnostic, set by rbf_train and not saved with the model
    tied_picks: int | None = None

    def __post_init__(self):
        radbas_bias(self.spread)  # refuses a spread that is not positive and finite
        if self.weights.shape != (self.biases.size, self.centers.shape[0]):
            raise ValueError("linear layer shape mismatch")

    @property
    def n_centers(self) -> int:
        return self.centers.shape[0]


def _solve_linear(acts: np.ndarray, targets: np.ndarray):
    """Least-squares (minimum-norm on singular systems) fit of [acts | 1]."""
    design = np.hstack([acts, np.ones((acts.shape[0], 1))])
    coef, _, _, _ = np.linalg.lstsq(design, targets, rcond=None)
    weights = coef[:-1].T        # (S, k)
    biases = coef[-1]            # (S,)
    return weights, biases


def _pick(row_err: np.ndarray, remaining: np.ndarray) -> tuple[int, bool]:
    """Lowest remaining index whose error is within TIE_RTOL of the largest,
    and whether another remaining candidate was tied with it."""
    # never re-promote a vector that is already a center
    candidate_err = np.where(remaining, row_err, -np.inf)
    top = candidate_err.max()
    tied = candidate_err >= top - TIE_RTOL * top
    return int(np.argmax(tied)), bool(np.count_nonzero(tied) > 1)


def rbf_train(gallery: Features, spread: float,
              max_centers: int = EvalConfig.max_centers) -> RBFModel:
    # column j = center candidate j; radbas refuses a spread that is not positive and finite
    all_acts = radbas(gallery.normalized_distances, spread)
    if not 1 <= max_centers <= len(gallery):
        raise ValueError(f"max_centers must lie in [1, {len(gallery)}]")
    x = gallery.normalized_matrix()
    targets = make_targets(gallery)
    n = len(gallery)
    # a remainder below lstsq's default rcond cut-off, relative to the column,
    # is rounding: that column adds nothing to the span
    dependent = np.finfo(float).eps * (n + 1)
    # orthonormal basis of the fit's span, bias column first; the fit's
    # outputs are the targets' projection onto it
    basis = np.empty((n, max_centers + 1))
    basis[:, 0] = 1.0 / np.sqrt(n)
    rank = 1
    # the pre-growth network: the bias-only least-squares fit
    _, biases = _solve_linear(all_acts[:, []], targets)
    outputs = np.tile(biases, (n, 1))
    row_err = ((outputs - targets) ** 2).sum(axis=1)
    chosen: list[int] = []
    remaining = np.ones(n, dtype=bool)
    residuals = []
    tied_picks = 0
    for _ in range(max_centers):
        pick, tied = _pick(row_err, remaining)
        chosen.append(pick)
        remaining[pick] = False
        tied_picks += tied
        column = all_acts[:, pick]
        # two classical Gram-Schmidt passes: the second removes what rounding
        # left of the basis directions after the first
        span = basis[:, :rank]
        rest = column - span @ (span.T @ column)
        rest -= span @ (span.T @ rest)
        norm = np.linalg.norm(rest)
        if norm > dependent * np.linalg.norm(column):
            q = rest / norm
            basis[:, rank] = q
            rank += 1
            # the new direction's share of the targets joins the fit
            outputs += np.outer(q, q @ targets)
            row_err = ((outputs - targets) ** 2).sum(axis=1)
        residuals.append(float(row_err.sum()))
    acts = all_acts[:, chosen]
    weights, biases = _solve_linear(acts, targets)
    fit = acts @ weights.T + biases
    residuals[-1] = float(((fit - targets) ** 2).sum())
    return RBFModel(centers=x[chosen].copy(), spread=float(spread),
                    weights=weights, biases=biases,
                    subject_ids=gallery.subject_ids.copy(),
                    norm_mean=gallery.mean.copy(), norm_std=gallery.std.copy(),
                    center_indices=np.array(chosen, dtype=np.int64),
                    residuals=np.array(residuals), tied_picks=tied_picks)


def rbf_scores(model: RBFModel, probes: np.ndarray) -> np.ndarray:
    """(k, S) linear-layer outputs; the probes are z-scored here."""
    acts = radbas(z_distances(zscore(probes, model), model.centers), model.spread)
    # one mat-vec per probe keeps the bits of a row-by-row `weights @ a`
    outputs = np.matmul(model.weights, acts[..., None])[..., 0] + model.biases
    return finite_scores(outputs)

