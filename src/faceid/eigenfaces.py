"""Eigenface baseline: mean face, small-matrix eigenvector trick, KLT projection.

``project`` maps a whole image set onto the basis as one ``(n, m')`` weight
matrix, the feature matrix of the KLT (eigenfaces) experiments.

The covariance of the vectorized gallery is never formed at full size.
Diagonalizing the M x M Gram matrix of the mean-removed images yields the same
nonzero spectrum, and its eigenvectors lift to image-space eigenfaces as
linear combinations of the training residuals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dataset import Image

# eigenvalues at or below max_eigenvalue * RANK_RTOL count as rank deficiency
RANK_RTOL = 1e-10


class RankError(ValueError):
    """Requested more eigenfaces than the gallery's rank supports."""

    def __init__(self, requested: int, attainable: int):
        self.requested = requested
        self.attainable = attainable
        super().__init__(
            f"requested {requested} eigenfaces but the gallery supports only "
            f"{attainable} (rank after mean removal)"
        )


@dataclass(frozen=True, eq=False)
class EigenBasis:
    """Mean face plus unit-norm eigenfaces in descending-eigenvalue order."""

    mean_face: np.ndarray   # (P,)
    eigenfaces: np.ndarray  # (m', P), rows are unit L2
    eigenvalues: np.ndarray  # (m',) descending, > 0
    rows: int
    cols: int

    @property
    def n_components(self) -> int:
        return self.eigenfaces.shape[0]


def train_eigenbasis(gallery: list[Image], m_prime: int) -> EigenBasis:
    """Fit the mean face and the ``m_prime`` leading eigenfaces of a gallery.

    Zero-eigenvalue directions (the rank lost to mean removal, or worse for
    degenerate galleries) are excluded before counting ``m_prime``; asking for
    more raises :class:`RankError` carrying the attainable count.
    """
    if not gallery:
        raise ValueError("gallery must be nonempty")
    shapes = {im.shape for im in gallery}
    if len(shapes) != 1:
        raise ValueError(f"gallery images must share dimensions, got {sorted(shapes)}")
    m = len(gallery)
    if not 1 <= m_prime <= m:
        raise ValueError(f"m_prime must be in 1..{m}, got {m_prime}")
    rows, cols = shapes.pop()

    phi = np.stack([im.pixels.ravel() for im in gallery])  # (M, P)
    mean_face = phi.mean(axis=0)
    phi -= mean_face  # centred in place: one (M, P) matrix, not two

    # Gram matrix (A^T A)/M shares C's nonzero eigenvalues at a fraction of the size
    gram = (phi @ phi.T) / m
    eigenvalues, eigenvectors = np.linalg.eigh(gram)
    order = np.argsort(-eigenvalues, kind="stable")  # descending, ties by index
    eigenvalues = eigenvalues[order]
    eigenvectors = eigenvectors[:, order]

    cutoff = max(eigenvalues[0], 0.0) * RANK_RTOL
    attainable = int(np.sum(eigenvalues > cutoff))
    if m_prime > attainable:
        raise RankError(requested=m_prime, attainable=attainable)

    faces = eigenvectors[:, :m_prime].T @ phi  # u_l = sum_k v_lk Phi_k
    del phi  # free it before the norm's (m', P) temporary exists
    faces /= np.linalg.norm(faces, axis=1, keepdims=True)
    # deterministic sign: largest-magnitude component made positive
    flip = faces[np.arange(m_prime), np.argmax(np.abs(faces), axis=1)] < 0
    faces[flip] *= -1.0

    return EigenBasis(
        mean_face=mean_face,
        eigenfaces=faces,
        eigenvalues=eigenvalues[:m_prime].copy(),
        rows=rows,
        cols=cols,
    )


def attainable_rank(gallery: list[Image]) -> int:
    """Number of eigenfaces the gallery can actually supply."""
    if not gallery:
        raise ValueError("gallery must be nonempty")
    phi = np.stack([im.pixels.ravel() for im in gallery])
    phi -= phi.mean(axis=0)
    eigenvalues = np.linalg.eigvalsh((phi @ phi.T) / len(gallery))
    top = max(eigenvalues.max(), 0.0)
    return int(np.sum(eigenvalues > top * RANK_RTOL))


def project(images: Sequence[Image | np.ndarray], basis: EigenBasis) -> np.ndarray:
    """(n, m') weights of the mean-removed images on the basis directions.

    One ``(n, P) @ (P, m')`` product for the whole set, so the eigenfaces are
    streamed once rather than once per image. Pass one split half at a time:
    the set is stacked as an (n, P) matrix.
    """
    shape = (basis.rows, basis.cols)
    x = np.empty((len(images), basis.mean_face.size))
    for i, image in enumerate(images):
        pixels = image.pixels if isinstance(image, Image) else np.asarray(image, dtype=np.float64)
        if pixels.shape != shape:
            raise ValueError(f"image dims {pixels.shape} do not match basis {shape}")
        x[i] = pixels.ravel() - basis.mean_face
    return x @ basis.eigenfaces.T

