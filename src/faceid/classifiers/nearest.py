"""Nearest-neighbor identification with sum-of-absolute or sum-of-squared error."""

from __future__ import annotations

import numpy as np

from .common import Features, cdist, finite_scores, per_subject, probe_block

MAD = "mad"
MSE = "mse"

METRICS = (MAD, MSE)


def nn_scores(probes: np.ndarray, gallery: Features, metric: str = MAD,
              running: np.ndarray | None = None) -> np.ndarray:
    """(k, S) negated per-subject minimum distances over raw (unnormalized)
    rows, so that the nearest subject scores highest.

    Both metrics sum over coordinates, so the distances over a feature set
    are the sum of the distances over any partition of it into column bands.
    Given ``running``, the (k, n) distances over the bands scored so far,
    this block is one more band: its distances are added to ``running`` in
    place and the scores come from the sum.
    """
    probes = probe_block(probes, gallery.dim)
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}")
    name = "cityblock" if metric == MAD else "sqeuclidean"
    dists = cdist(probes, gallery.matrix, name)
    if running is not None:
        if running.shape != dists.shape:
            raise ValueError(f"running distances {running.shape} do not match "
                             f"{probes.shape[0]} probes x {len(gallery)} gallery rows")
        running += dists
        dists = running
    # negated after the minimum, so ``running`` keeps the distances themselves
    return finite_scores(-per_subject(dists, gallery.labels, gallery.subject_ids,
                                      np.min))
