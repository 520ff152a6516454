"""Shared classifier types: the training gallery and the score-matrix contract.

Every classifier scores a whole probe block ``P[k, d]`` at once and returns a
``(k, S)`` score matrix plus its polarity (``HIGHER`` or ``LOWER`` is better).
Column j belongs to ``subject_ids[j]``, which are ascending, so the first
best column of a row is the lowest subject id among tied subjects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..transforms import FeatureVector

HIGHER = "higher"
LOWER = "lower"

STD_FLOOR = 1e-8


def as_vector(x: FeatureVector | np.ndarray) -> np.ndarray:
    if isinstance(x, FeatureVector):
        return x.coeffs
    return np.asarray(x, dtype=np.float64).ravel()


@dataclass(eq=False)
class Gallery:
    """Stacked labeled training vectors plus per-dimension normalization stats.

    Nearest-neighbor classification uses the raw rows; the network classifiers
    consume the z-scored view (std floored at ``STD_FLOOR``).
    """

    matrix: np.ndarray        # (n, d) raw feature rows
    labels: np.ndarray        # (n,) subject ids
    mean: np.ndarray = field(init=False)
    std: np.ndarray = field(init=False)
    subject_ids: np.ndarray = field(init=False)

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.matrix.ndim != 2 or self.matrix.shape[0] == 0:
            raise ValueError("gallery matrix must be a nonempty (n, d) array")
        if self.labels.shape != (self.matrix.shape[0],):
            raise ValueError("labels must align with gallery rows")
        self.mean = self.matrix.mean(axis=0)
        self.std = np.maximum(self.matrix.std(axis=0), STD_FLOOR)
        self.subject_ids = np.unique(self.labels)

    @classmethod
    def from_features(cls, features: Sequence[FeatureVector]) -> "Gallery":
        if not features:
            raise ValueError("gallery requires at least one feature vector")
        dims = {fv.dim for fv in features}
        if len(dims) != 1:
            raise ValueError(f"feature vectors have mixed dims: {sorted(dims)}")
        if any(fv.label is None for fv in features):
            raise ValueError("gallery feature vectors must carry subject labels")
        return cls(
            matrix=np.stack([fv.coeffs for fv in features]),
            labels=np.array([fv.label for fv in features]),
        )

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    def normalized_matrix(self) -> np.ndarray:
        return (self.matrix - self.mean) / self.std

    def normalize(self, x: FeatureVector | np.ndarray) -> np.ndarray:
        vec = as_vector(x)
        if vec.size != self.dim:
            raise ValueError(f"probe dim {vec.size} != gallery dim {self.dim}")
        return (vec - self.mean) / self.std


def make_targets(gallery: Gallery) -> np.ndarray:
    """(n, S) matrix, +1 on the row's own subject column, -1 elsewhere."""
    t = -np.ones((gallery.size, gallery.subject_ids.size))
    col = {int(sid): j for j, sid in enumerate(gallery.subject_ids)}
    for i, label in enumerate(gallery.labels):
        t[i, col[int(label)]] = 1.0
    return t


def probe_block(probes: np.ndarray, dim: int) -> np.ndarray:
    """The (k, d) float64 probe matrix every scorer takes; d must equal ``dim``."""
    block = np.asarray(probes, dtype=np.float64)
    if block.ndim != 2 or block.shape[0] == 0:
        raise ValueError(f"probes must form a nonempty (k, d) matrix, got shape {block.shape}")
    if block.shape[1] != dim:
        raise ValueError(f"probe dim {block.shape[1]} != gallery dim {dim}")
    return block


def finite_scores(scores: np.ndarray, polarity: str) -> tuple[np.ndarray, str]:
    """A scorer's (k, S) result, refused if any score is NaN or infinite."""
    if not np.all(np.isfinite(scores)):
        raise ValueError("scores must all be finite")
    return scores, polarity


def per_subject(values: np.ndarray, labels: np.ndarray, subject_ids: np.ndarray,
                reduce) -> np.ndarray:
    """(k, n) values, one column per gallery row, reduced to (k, S) by subject."""
    return np.stack([reduce(values[:, labels == sid], axis=1)
                     for sid in subject_ids], axis=1)
