"""Eigenface baseline: mean face, small-matrix eigenvector trick, KLT projection.

Both functions take image stacks (a corpus's stored levels, or a split half's
view of them, with each image's maxval; or float pixels, which need none).
``project`` maps a whole stack onto the basis as one ``(n, m')`` weight
matrix, the feature matrix of the KLT (eigenfaces) experiments.

The KLT stage holds one pixel-wide float matrix at a time. The fit divides
the gallery by its maxvals into one ``(M, P)`` buffer, centres it there,
writes the eigenfaces over its leading rows a block of pixel columns at a
time, and shrinks the buffer to those rows. The projection divides, centres
and multiplies a block of images at a time. Blocks are ``BLOCK`` images or
``COLUMNS`` pixels, multiples of the 12- and 16-wide register strips of the
BLAS kernels, and the last block of each kind takes the remainder with it, so
that no block is a lone image or a thin strip that BLAS computes another way.
At one BLAS thread every eigenface and weight of an ORL-shaped gallery keeps
the bits of the one whole-matrix product; a basis of a few components on small
images can differ from it in the last bits (at most 1.3e-15 of the largest
weight where measured).

The covariance of the vectorized gallery is never formed at full size.
Diagonalizing the M x M Gram matrix of the mean-removed images yields the same
nonzero spectrum, and its eigenvectors lift to image-space eigenfaces as
linear combinations of the training residuals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# eigenvalues at or below max_eigenvalue * RANK_RTOL count as rank deficiency
RANK_RTOL = 1e-10

BLOCK = 48      # images per projection block, eigenfaces per normalisation block
COLUMNS = 768   # pixel columns per block of the eigenface lift (16 * BLOCK)


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


def _divisors(maxval: np.ndarray | None, lead: tuple) -> np.ndarray:
    """Each image's float64 divisor, shaped as the stack's leading axes
    (1 for every image if ``maxval`` is None)."""
    return np.broadcast_to(1.0 if maxval is None else np.asarray(maxval, np.float64), lead)


def _blocks(n: int, size: int) -> list[slice]:
    """Consecutive slices of ``size`` indices covering ``range(n)``, the last
    one taking the remainder with it: only a lone block is shorter than
    ``size``."""
    starts = range(0, max(n - size, 0) + 1, size)
    return [slice(start, stop) for start, stop in zip(starts, [*starts[1:], n])]


def _lift(phi: np.ndarray, vectors: np.ndarray) -> None:
    """Write the eigenfaces ``u_l = sum_k v_lk Phi_k`` over the leading rows
    of ``phi``, one block of pixel columns at a time: an output column reads
    only its own column of ``phi``, so the columns still to come are intact."""
    blocks = _blocks(phi.shape[1], COLUMNS)
    lifted = np.empty((vectors.shape[1], blocks[-1].stop - blocks[-1].start))
    for columns in blocks:
        out = lifted[:, :columns.stop - columns.start]
        np.matmul(vectors.T, phi[:, columns], out=out)
        phi[:len(out), columns] = out


def train_eigenbasis(gallery: np.ndarray, m_prime: int, clamp: bool = False,
                     maxval: np.ndarray | None = None) -> EigenBasis:
    """Fit the mean face and the ``m_prime`` leading eigenfaces of a gallery
    stack, each image divided by its ``maxval``.

    Zero-eigenvalue directions (the rank lost to mean removal, or worse for
    degenerate galleries) are excluded before counting ``m_prime``; asking for
    more raises :class:`RankError` carrying the attainable count, or with
    ``clamp`` fits only that many, unless that is none.
    """
    if gallery.ndim < 3 or gallery.size == 0:
        raise ValueError(f"gallery must be a nonempty image stack, got shape {gallery.shape}")
    if m_prime < 1:
        raise ValueError(f"m_prime must be >= 1, got {m_prime}")
    lead, (rows, cols) = gallery.shape[:-2], gallery.shape[-2:]
    pixels = rows * cols

    # Phi: the scaled gallery in an (M, P) buffer of its own, centred in
    # place; the caller's stack is untouched
    phi = np.empty((math.prod(lead), pixels))
    np.divide(gallery, _divisors(maxval, lead)[..., None, None],
              out=phi.reshape(gallery.shape))
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
        if not clamp or attainable == 0:
            raise RankError(requested=m_prime, attainable=attainable)
        m_prime = attainable

    _lift(phi, eigenvectors[:, :m_prime])
    # refcheck off: phi is the fit's own buffer and no view of it outlives
    # _lift; under a profiler the call holds one more reference to phi,
    # which the check would refuse
    phi.resize((m_prime, pixels), refcheck=False)
    for block in _blocks(m_prime, BLOCK):
        faces = phi[block]
        faces /= np.linalg.norm(faces, axis=1, keepdims=True)
        # deterministic sign: largest-magnitude component made positive
        flip = faces[np.arange(len(faces)), np.argmax(np.abs(faces), axis=1)] < 0
        faces[flip] *= -1.0

    return EigenBasis(
        mean_face=mean_face.reshape(rows, cols),
        eigenfaces=phi,
        eigenvalues=eigenvalues[:m_prime].copy(),
    )


def project(images: np.ndarray, basis: EigenBasis,
            maxval: np.ndarray | None = None) -> np.ndarray:
    """(n, m') weights of the mean-removed images, each divided by its
    ``maxval``, on the basis directions.

    A block of images at a time, in C order of the stack's leading axes
    (however its images are laid out), is divided into one reused float
    matrix of at most ``2 * BLOCK - 1`` rows, centred in place and multiplied
    by the eigenfaces into its rows of the weights; no float copy of the
    whole stack is made. Pass one split half at a time.
    """
    if images.shape[-2:] != basis.mean_face.shape:
        raise ValueError(f"image dims {images.shape[-2:]} do not match basis "
                         f"{basis.mean_face.shape}")
    lead = images.shape[:-2]
    divisors = _divisors(maxval, lead)
    blocks = _blocks(math.prod(lead), BLOCK)
    weights = np.empty((blocks[-1].stop, basis.n_components))
    buffer = np.empty((blocks[-1].stop - blocks[-1].start, *basis.mean_face.shape))
    indices = np.ndindex(*lead)
    for block in blocks:
        x = buffer[:block.stop - block.start]
        # zip stops at x's end, before it takes a further index
        for image, index in zip(x, indices):
            np.divide(images[index], divisors[index], out=image)
            image -= basis.mean_face
        np.matmul(x.reshape(len(x), basis.mean_face.size), basis.eigenfaces.T,
                  out=weights[block])
    return weights
