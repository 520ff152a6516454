"""Eigenface baseline: mean face, small-matrix eigenvector trick, KLT projection.

Both functions take image stacks (a corpus's stored levels, or a split half's
view of them, with each image's maxval; or float pixels, which need none).
``project`` maps a whole stack onto the basis as one ``(n, m')`` weight
matrix, the feature matrix of the KLT (eigenfaces) experiments. Each
function's one float copy of its stack is the division by the maxvals, so
no stage holds a float copy of the whole corpus.

The covariance of the vectorized gallery is never formed at full size.
Diagonalizing the M x M Gram matrix of the mean-removed images yields the same
nonzero spectrum, and its eigenvectors lift to image-space eigenfaces as
linear combinations of the training residuals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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

    mean_face: np.ndarray   # (R, C)
    eigenfaces: np.ndarray  # (m', P), rows are unit L2, P = R * C
    eigenvalues: np.ndarray  # (m',) descending, > 0

    @property
    def n_components(self) -> int:
        return self.eigenfaces.shape[0]


def _scaled(images: np.ndarray, maxval: np.ndarray | None) -> np.ndarray:
    """A new C-ordered float64 array of the images, each divided by its
    entry of ``maxval`` (shaped as the images' leading axes; 1 if None)."""
    divisors = 1.0 if maxval is None else np.asarray(maxval, np.float64)[..., None, None]
    out = np.empty(images.shape)
    np.divide(images, divisors, out=out)
    return out


def train_eigenbasis(gallery: np.ndarray, m_prime: int, clamp: bool = False,
                     maxval: np.ndarray | None = None) -> EigenBasis:
    """Fit the mean face and the ``m_prime`` leading eigenfaces of a gallery
    stack, each image divided by its ``maxval``.

    Zero-eigenvalue directions (the rank lost to mean removal, or worse for
    degenerate galleries) are excluded before counting ``m_prime``; asking for
    more raises :class:`RankError` carrying the attainable count, or with
    ``clamp`` fits only that many.
    """
    if gallery.ndim < 3 or gallery.size == 0:
        raise ValueError(f"gallery must be a nonempty image stack, got shape {gallery.shape}")
    if m_prime < 1:
        raise ValueError(f"m_prime must be >= 1, got {m_prime}")
    rows, cols = gallery.shape[-2:]

    # one contiguous (M, P) copy, the scaled gallery, centred in place: the
    # caller's stack is untouched
    phi = _scaled(gallery, maxval).reshape(-1, rows * cols)
    m = len(phi)
    mean_face = phi.mean(axis=0)
    phi -= mean_face

    # Gram matrix (A^T A)/M shares C's nonzero eigenvalues at a fraction of the size
    gram = (phi @ phi.T) / m
    eigenvalues, eigenvectors = np.linalg.eigh(gram)
    order = np.argsort(-eigenvalues, kind="stable")  # descending, ties by index
    eigenvalues = eigenvalues[order]
    eigenvectors = eigenvectors[:, order]

    cutoff = max(eigenvalues[0], 0.0) * RANK_RTOL
    attainable = int(np.sum(eigenvalues > cutoff))
    if m_prime > attainable:
        if not clamp:
            raise RankError(requested=m_prime, attainable=attainable)
        m_prime = attainable

    faces = eigenvectors[:, :m_prime].T @ phi  # u_l = sum_k v_lk Phi_k
    del phi  # free it before the norm's (m', P) temporary exists
    faces /= np.linalg.norm(faces, axis=1, keepdims=True)
    # deterministic sign: largest-magnitude component made positive
    flip = faces[np.arange(m_prime), np.argmax(np.abs(faces), axis=1)] < 0
    faces[flip] *= -1.0

    return EigenBasis(
        mean_face=mean_face.reshape(rows, cols),
        eigenfaces=faces,
        eigenvalues=eigenvalues[:m_prime].copy(),
    )


def project(images: np.ndarray, basis: EigenBasis,
            maxval: np.ndarray | None = None) -> np.ndarray:
    """(n, m') weights of the mean-removed images, each divided by its
    ``maxval``, on the basis directions.

    The stack is scaled into one new (n, P) matrix, however its images are
    laid out, centred in place and multiplied once by the eigenfaces, which
    are streamed once rather than once per image. Pass one split half at a
    time.
    """
    if images.shape[-2:] != basis.mean_face.shape:
        raise ValueError(f"image dims {images.shape[-2:]} do not match basis "
                         f"{basis.mean_face.shape}")
    x = _scaled(images, maxval)
    x -= basis.mean_face
    return x.reshape(-1, basis.mean_face.size) @ basis.eigenfaces.T
