"""Transform-domain front-end: 2D DCT/DFT, homomorphic log-DFT and zonal masks.

The DCT is the orthonormal type-II transform (Parseval holds exactly); the DFT
uses the plain negative-exponent definition, so F(0, 0) equals the pixel sum.
``transform_corpus`` turns an ``(n, R, C)`` stack of stored levels (each
image divided by its maxval as it is transformed) into one coefficient
stack, and ``mask_features`` gathers a mask's coefficients from it as an
``(n, d)`` matrix, whose rows ``faceid.evaluation`` labels as
:class:`~faceid.classifiers.common.Features`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._kernels import kernel

DCT = "dct"
DFT = "dft"
LOGDFT = "logdft"
KLT = "klt"

RECTANGULAR = "rectangular"
SECTORIAL = "sectorial"


class ZoneError(ValueError):
    """A zonal mask that exceeds the coefficient matrix or keeps none of it."""


@dataclass(frozen=True)
class ZonalMask:
    """0/1 zone selector centered at the frequency origin (upper-left corner).

    Rectangular keeps the N' x N' low-frequency block; sectorial keeps grid
    points strictly inside a quarter circle of the given radius.
    """

    shape: str
    size: float

    def __post_init__(self):
        if self.shape == RECTANGULAR:
            if not (np.isfinite(self.size) and float(self.size).is_integer()
                    and self.size >= 1):
                raise ValueError(f"rectangular side must be an integer >= 1, got {self.size}")
        elif self.shape == SECTORIAL:
            if not 0 < self.size < np.inf:
                raise ValueError(f"sectorial radius must be finite and > 0, got {self.size}")
        else:
            raise ValueError(f"unknown mask shape {self.shape!r}")

    @classmethod
    def rectangular(cls, side: int) -> "ZonalMask":
        return cls(shape=RECTANGULAR, size=side)

    @classmethod
    def sectorial(cls, radius: float) -> "ZonalMask":
        return cls(shape=SECTORIAL, size=radius)

    def keep(self, rows: int, cols: int, r_low: float = 0.0) -> np.ndarray:
        """Boolean keep array for a rows x cols coefficient matrix.

        ``r_low`` > 0 additionally drops positions closer than that radius to
        the frequency origin (band-pass illumination removal; DC kept by
        default); it must be finite and >= 0. A mask that keeps nothing is
        refused.
        """
        if not 0.0 <= r_low < np.inf:
            raise ValueError(f"r_low must be finite and >= 0, got {r_low}")
        f1, f2 = np.ogrid[:rows, :cols]
        radius = np.sqrt(f1 * f1 + f2 * f2)
        if self.shape == RECTANGULAR:
            side = int(self.size)
            if side > min(rows, cols):
                raise ZoneError(f"mask side {side} exceeds matrix dims {rows}x{cols}")
            keep = (f1 < side) & (f2 < side)
        else:
            keep = radius < self.size
        if r_low > 0.0:
            keep &= radius >= r_low
        if not keep.any():
            raise ZoneError("mask retains no coefficients")
        return keep


def zone_keeps(masks: Sequence[ZonalMask], shape: tuple[int, int],
               r_low: float = 0.0) -> list[np.ndarray]:
    """Each mask's keep array for a ``shape`` coefficient matrix, cropped to
    the leading block that the union of all of them reaches: transforms only
    need to keep that block."""
    keeps = [mask.keep(*shape, r_low) for mask in masks]
    union = np.logical_or.reduce(keeps)
    rows = np.flatnonzero(union.any(axis=1))[-1] + 1
    cols = np.flatnonzero(union.any(axis=0))[-1] + 1
    return [keep[:rows, :cols] for keep in keeps]


# ---------------------------------------------------------------------------
# Transforms


def dctn(pixels: np.ndarray) -> np.ndarray:
    """``scipy.fft.dctn(pixels, type=2, norm="ortho")`` of a float64 image, bit
    for bit: the same pocketfft call (inorm 1 is the orthonormal scale, on one
    thread) on scipy's compiled kernel alone, loaded on the first call."""
    return kernel("scipy.fft._pocketfft.pypocketfft").dct(pixels, 2, None, 1, None, 1)


def _leading_block(pixels: np.ndarray, kind: str, box: tuple[int, int],
                   log_offset: float) -> np.ndarray:
    """The leading ``box`` of one image's ``kind`` coefficients. ``fft2`` is a
    last-axis ``fft`` then an axis-0 ``fft``, so a column pass over the kept
    columns alone gives exactly ``fft2(pixels)[:rows, :cols]``. The DCT runs in
    full and is cropped: a split DCT would round differently."""
    rows, cols = box
    if kind == DCT:
        return dctn(pixels)[:rows, :cols]
    if kind == LOGDFT:
        pixels = np.log(pixels + log_offset)
    return np.fft.fft(np.fft.fft(pixels, axis=1)[:, :cols], axis=0)[:rows]


# ---------------------------------------------------------------------------
# Zonal masking and feature extraction

MODULUS = "modulus"
INTERLEAVE = "interleave"


def transform_corpus(images: np.ndarray, kind: str, box: tuple[int, int],
                     log_offset: float = 1e-4,
                     maxval: np.ndarray | None = None) -> np.ndarray:
    """(n, rows, cols) stack of the leading ``box`` coefficients of each image
    of an (n, R, C) stack.

    Images are transformed one at a time, each first divided by its entry of
    ``maxval`` (a corpus's stored levels and divisors; float pixels need
    none), and only the block a mask can reach (see :func:`zone_keeps`) is
    kept; a DFT's column pass runs on the block's columns alone.
    """
    if kind not in (DCT, DFT, LOGDFT):
        raise ValueError(f"unknown transform kind {kind!r}")
    if images.ndim != 3 or images.size == 0:
        raise ValueError(f"expected a nonempty (n, rows, cols) image stack, "
                         f"got shape {images.shape}")
    if kind == LOGDFT and not log_offset > 0:
        raise ValueError(f"offset must be > 0, got {log_offset}")
    rows, cols = box
    if rows > images.shape[1] or cols > images.shape[2]:
        raise ValueError(f"images of {images.shape[1]}x{images.shape[2]} are smaller "
                         f"than the {rows}x{cols} coefficient block")
    divisors = np.ones(len(images)) if maxval is None else np.asarray(maxval, np.float64)
    if divisors.shape != (len(images),):
        raise ValueError(f"{divisors.shape} maxvals do not align with {len(images)} images")
    stack = np.empty((len(images), rows, cols),
                     dtype=np.float64 if kind == DCT else np.complex128)
    for i, (image, divisor) in enumerate(zip(images, divisors)):
        stack[i] = _leading_block(image / divisor, kind, box, log_offset)
    return stack


def mask_features(stack: np.ndarray, keep: np.ndarray,
                  complex_mode: str = MODULUS) -> np.ndarray:
    """(n, d) real features: each image's kept coefficients, row-major.

    Complex coefficients are reduced per ``complex_mode``: ``modulus`` keeps
    |F| (dim unchanged), ``interleave`` keeps (real, imag) pairs (dim doubled).
    """
    if keep.shape != stack.shape[1:]:
        raise ValueError(f"keep array {keep.shape} does not match the "
                         f"coefficient block {stack.shape[1:]}")
    # take on the flattened block gives C-ordered rows (a boolean index on the
    # last two axes gives Fortran-ordered ones), positions in row-major order
    retained = np.take(stack.reshape(len(stack), -1), np.flatnonzero(keep), axis=1)
    if np.iscomplexobj(retained):
        if complex_mode == MODULUS:
            return np.abs(retained)
        if complex_mode == INTERLEAVE:
            return retained.view(np.float64)
        raise ValueError(f"unknown complex_mode {complex_mode!r}")
    return np.asarray(retained, dtype=np.float64)
