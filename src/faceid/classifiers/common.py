"""Shared classifier types: the labelled feature matrix and the score-matrix
contract.

Extraction produces one :class:`Features` matrix per split half, and the
classifiers train on the gallery's. Every classifier scores a whole bare
probe block ``P[k, d]`` at once, so no scorer sees the probes' labels, and
returns a ``(k, S)`` score matrix in which a higher score is always better:
nearest neighbor reports negated distances. Column j belongs to
``subject_ids[j]``, which are ascending, so the first best column of a row is
the lowest subject id among tied subjects. Every z-space distance, of either
kernel classifier or the gallery's cache, comes from :func:`z_distances`,
and every distance, nearest neighbor's too, from :func:`cdist`, on scipy's
compiled distance kernel. :class:`EvalConfig` is the one record of the
classifier knobs and their defaults.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .._kernels import kernel
from ..fusion import MINMAX, MODES

STD_FLOOR = 1e-8


def check_spread(spread: float) -> float:
    """The one rule of a PNN/RBF spread, a run's or a sweep point's: finite, > 0."""
    if not 0.0 < spread < np.inf:
        raise ValueError(f"spread must be finite and > 0, got {spread}")
    return spread


@dataclass(frozen=True)
class EvalConfig:
    """The classifier knobs, with the protocol's defaults: the MLP's seed,
    SCG epoch budget, hidden neurons and MSEREG ratio, the PNN/RBF spread,
    the RBF center budget and the fusion normalization."""
    seed: int = 0
    epochs: int = 15000
    hidden: int = 40
    gamma: float = 0.9
    spread: float = 0.9
    max_centers: int = 100
    fusion_mode: str = MINMAX

    def __post_init__(self):
        for name, low in (("seed", 0), ("hidden", 1), ("epochs", 1), ("max_centers", 1)):
            value = getattr(self, name)
            if not (isinstance(value, (int, np.integer)) and value >= low):
                raise ValueError(f"{name} must be >= {low} and an integer, got {value!r}")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must lie in [0, 1]")
        check_spread(self.spread)
        if self.fusion_mode not in MODES:
            raise ValueError(f"fusion_mode must be one of {MODES}, got {self.fusion_mode!r}")


@dataclass(frozen=True, eq=False)
class Features:
    """One split half's features: row i of ``matrix`` belongs to image
    ``(labels[i], sample_ids[i])``; ``source`` names the transform.

    A gallery's features are what the classifiers train on. Nearest-neighbor
    classification uses the raw rows; the network classifiers consume the
    z-scored view (std floored at ``STD_FLOOR``). The statistics and the
    z-space distances are computed on first use and kept.
    """

    matrix: np.ndarray      # (n, d) float64, C-ordered
    labels: np.ndarray      # (n,) subject ids
    sample_ids: np.ndarray  # (n,)
    source: str

    def __post_init__(self):
        # a column slice is copied to C order, so every classifier reads its
        # rows as it read the stacked per-image vectors
        matrix = np.ascontiguousarray(self.matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.size == 0:
            raise ValueError(f"features must form a nonempty (n, d) matrix, "
                             f"got shape {matrix.shape}")
        object.__setattr__(self, "matrix", matrix)
        for name in ("labels", "sample_ids"):
            ids = np.asarray(getattr(self, name), dtype=np.int64)
            if ids.shape != (len(matrix),):
                raise ValueError(f"{name} {ids.shape} do not align with "
                                 f"{len(matrix)} feature rows")
            object.__setattr__(self, name, ids)

    def __len__(self) -> int:
        return self.matrix.shape[0]

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    @cached_property
    def subject_ids(self) -> np.ndarray:
        return np.unique(self.labels)

    @cached_property
    def mean(self) -> np.ndarray:
        return self.matrix.mean(axis=0)

    @cached_property
    def std(self) -> np.ndarray:
        return np.maximum(self.matrix.std(axis=0), STD_FLOOR)

    def normalized_matrix(self) -> np.ndarray:
        return (self.matrix - self.mean) / self.std

    @cached_property
    def normalized_distances(self) -> np.ndarray:
        """(n, n) read-only :func:`z_distances` between the z-scored rows,
        kept so that every spread of a sweep reuses them."""
        z = self.normalized_matrix()
        dists = z_distances(z, z)
        dists.flags.writeable = False
        return dists


def cdist(x: np.ndarray, y: np.ndarray, metric: str) -> np.ndarray:
    """scipy's ``cdist(x, y, metric)`` for ``cityblock`` or ``sqeuclidean``,
    bit for bit: the compiled kernel that call runs, on its own, loaded on the
    first call. Rows of a different width are a ``ValueError``."""
    if metric not in ("cityblock", "sqeuclidean"):
        raise ValueError(f"cdist has no metric {metric!r}")
    return getattr(kernel("scipy.spatial._distance_pybind"), f"cdist_{metric}")(x, y)


def z_distances(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(n, k) Euclidean distances between the rows of x and of y; each pair is
    summed on its own, so a row's distances have the same bits in any batch."""
    return np.sqrt(cdist(x, y, "sqeuclidean"))


def make_targets(gallery: Features) -> np.ndarray:
    """(n, S) matrix, +1 on the row's own subject column, -1 elsewhere."""
    return np.where(gallery.labels[:, None] == gallery.subject_ids, 1.0, -1.0)


def probe_block(probes: np.ndarray, dim: int) -> np.ndarray:
    """The (k, d) float64 probe matrix every scorer takes; d must equal ``dim``."""
    block = np.asarray(probes, dtype=np.float64)
    if block.ndim != 2 or block.shape[0] == 0:
        raise ValueError(f"probes must form a nonempty (k, d) matrix, got shape {block.shape}")
    if block.shape[1] != dim:
        raise ValueError(f"probe dim {block.shape[1]} != gallery dim {dim}")
    return block


def zscore(probes: np.ndarray, model) -> np.ndarray:
    """The probe block z-scored with a network model's gallery statistics;
    its width must be theirs."""
    return (probe_block(probes, model.norm_mean.size) - model.norm_mean) / model.norm_std


def finite_scores(scores: np.ndarray) -> np.ndarray:
    """A scorer's (k, S) result, refused if any score is NaN or infinite."""
    if not np.all(np.isfinite(scores)):
        raise ValueError("scores must all be finite")
    return scores


def per_subject(values: np.ndarray, labels: np.ndarray, subject_ids: np.ndarray,
                reduce) -> np.ndarray:
    """(k, n) values, one column per gallery row, reduced to (k, S) by subject."""
    return np.stack([reduce(values[:, labels == sid], axis=1)
                     for sid in subject_ids], axis=1)
