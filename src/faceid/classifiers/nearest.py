"""Nearest-neighbor identification with sum-of-absolute or sum-of-squared error."""

from __future__ import annotations

import numpy as np
from scipy.spatial import distance as _sdist

from ..transforms import FeatureVector
from .common import Gallery, LOWER, as_vector, finite_scores, per_subject, probe_block

MAD = "mad"
MSE = "mse"

METRICS = (MAD, MSE)


def mad(x: FeatureVector | np.ndarray, y: FeatureVector | np.ndarray) -> float:
    """Sum of absolute coordinate differences."""
    a, b = as_vector(x), as_vector(y)
    if a.size != b.size:
        raise ValueError(f"dim mismatch: {a.size} vs {b.size}")
    return float(np.abs(a - b).sum())


def mse_dist(x: FeatureVector | np.ndarray, y: FeatureVector | np.ndarray) -> float:
    """Sum of squared coordinate differences (no averaging)."""
    a, b = as_vector(x), as_vector(y)
    if a.size != b.size:
        raise ValueError(f"dim mismatch: {a.size} vs {b.size}")
    d = a - b
    return float(d @ d)


def nn_scores(probes: np.ndarray, gallery: Gallery,
              metric: str = MAD) -> tuple[np.ndarray, str]:
    """(k, S) per-subject minimum distances over raw (unnormalized) rows."""
    probes = probe_block(probes, gallery.dim)
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}")
    dists = _sdist.cdist(probes, gallery.matrix,
                         metric="cityblock" if metric == MAD else "sqeuclidean")
    return finite_scores(per_subject(dists, gallery.labels, gallery.subject_ids,
                                     np.min), LOWER)
