"""Nearest-neighbor identification with sum-of-absolute or sum-of-squared error."""

from __future__ import annotations

import numpy as np
from scipy.spatial import distance as _sdist

from .common import Gallery, LOWER, finite_scores, per_subject, probe_block

MAD = "mad"
MSE = "mse"

METRICS = (MAD, MSE)


def nn_scores(probes: np.ndarray, gallery: Gallery, metric: str = MAD,
              running: np.ndarray | None = None) -> tuple[np.ndarray, str]:
    """(k, S) per-subject minimum distances over raw (unnormalized) rows.

    Both metrics sum over coordinates, so the distances over a feature set
    are the sum of the distances over any partition of it into column bands.
    Given ``running``, the (k, n) distances over the bands scored so far,
    this block is one more band: its distances are added to ``running`` in
    place and the scores come from the sum. A band with no columns adds
    nothing.
    """
    probes = probe_block(probes, gallery.dim)
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}")
    name = "cityblock" if metric == MAD else "sqeuclidean"
    if running is None:
        dists = _sdist.cdist(probes, gallery.matrix, metric=name)
    else:
        if running.shape != (probes.shape[0], gallery.size):
            raise ValueError(f"running distances {running.shape} do not match "
                             f"{probes.shape[0]} probes x {gallery.size} gallery rows")
        if gallery.dim:
            running += _sdist.cdist(probes, gallery.matrix, metric=name)
        dists = running
    return finite_scores(per_subject(dists, gallery.labels, gallery.subject_ids,
                                     np.min), LOWER)
