"""Transform-domain front-end: 2D DCT/DFT, homomorphic log-DFT, zonal masks,
feature extraction, and inverse-DCT reconstruction.

The DCT is the orthonormal type-II transform (Parseval holds exactly); the DFT
uses the plain negative-exponent definition, so F(0, 0) equals the pixel sum.
All operations are pure and accept either an :class:`~faceid.dataset.Image`
or a bare 2-D array.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.fft import dctn, idctn

from .dataset import Image

DCT = "dct"
DFT = "dft"
LOGDFT = "logdft"
KLT = "klt"


@dataclass(frozen=True, eq=False)
class CoeffMatrix:
    """Transform coefficients of one image (real for DCT, complex otherwise)."""

    values: np.ndarray
    kind: str
    subject_id: int | None = None
    sample_id: int | None = None

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape


@dataclass(frozen=True, eq=False)
class FeatureVector:
    """Masked/projected coefficients; the classifier input."""

    coeffs: np.ndarray
    source: str
    label: int | None = None
    sample_id: int | None = None

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.float64).ravel()
        if c.size < 1:
            raise ValueError("feature vector must have dim >= 1")
        object.__setattr__(self, "coeffs", c)

    @property
    def dim(self) -> int:
        return self.coeffs.size


RECTANGULAR = "rectangular"
SECTORIAL = "sectorial"


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
            if self.size != int(self.size) or self.size < 1:
                raise ValueError(f"rectangular side must be an integer >= 1, got {self.size}")
        elif self.shape == SECTORIAL:
            if not self.size > 0:
                raise ValueError(f"sectorial radius must be > 0, got {self.size}")
        else:
            raise ValueError(f"unknown mask shape {self.shape!r}")

    @classmethod
    def rectangular(cls, side: int) -> "ZonalMask":
        return cls(shape=RECTANGULAR, size=side)

    @classmethod
    def sectorial(cls, radius: float) -> "ZonalMask":
        return cls(shape=SECTORIAL, size=radius)

    def array(self, rows: int, cols: int) -> np.ndarray:
        """The 0/1 mask array for a rows x cols coefficient matrix."""
        if self.shape == RECTANGULAR:
            side = int(self.size)
            if side > min(rows, cols):
                raise ValueError(
                    f"mask side {side} exceeds matrix dims {rows}x{cols}"
                )
            mask = np.zeros((rows, cols), dtype=np.uint8)
            mask[:side, :side] = 1
            return mask
        f1 = np.arange(rows)[:, None]
        f2 = np.arange(cols)[None, :]
        return (np.sqrt(f1 * f1 + f2 * f2) < self.size).astype(np.uint8)

    def dim(self, rows: int, cols: int) -> int:
        return int(self.array(rows, cols).sum())


def _pixels(image: Image | np.ndarray) -> np.ndarray:
    px = image.pixels if isinstance(image, Image) else np.asarray(image, dtype=np.float64)
    if px.ndim != 2 or px.size == 0:
        raise ValueError(f"expected a nonempty 2-D image, got shape {px.shape}")
    return px


def _ids(image: Image | np.ndarray) -> tuple[int | None, int | None]:
    if isinstance(image, Image):
        return image.subject_id, image.sample_id
    return None, None


# ---------------------------------------------------------------------------
# Transforms


def dct2(image: Image | np.ndarray) -> CoeffMatrix:
    """Orthonormal 2-D DCT (separable type-II with the 1/sqrt(M), sqrt(2/M) scaling)."""
    subject, sample = _ids(image)
    values = dctn(_pixels(image), type=2, norm="ortho")
    return CoeffMatrix(values=values, kind=DCT, subject_id=subject, sample_id=sample)


def idct2(coeffs: CoeffMatrix) -> np.ndarray:
    """Inverse of :func:`dct2`; only defined for DCT coefficient matrices."""
    if coeffs.kind != DCT:
        raise ValueError(f"idct2 requires DCT coefficients, got kind {coeffs.kind!r}")
    return idctn(coeffs.values, type=2, norm="ortho")


def dft2(image: Image | np.ndarray) -> CoeffMatrix:
    """Plain 2-D DFT with negative exponent; F(0, 0) is the pixel sum."""
    subject, sample = _ids(image)
    values = np.fft.fft2(_pixels(image))
    return CoeffMatrix(values=values, kind=DFT, subject_id=subject, sample_id=sample)


def log_dft2(image: Image | np.ndarray, offset: float = 1e-4) -> CoeffMatrix:
    """DFT of ln(pixels + offset): separates illumination and reflectance additively."""
    if not offset > 0:
        raise ValueError(f"offset must be > 0, got {offset}")
    subject, sample = _ids(image)
    values = np.fft.fft2(np.log(_pixels(image) + offset))
    return CoeffMatrix(values=values, kind=LOGDFT, subject_id=subject, sample_id=sample)


TRANSFORMS = {DCT: dct2, DFT: dft2, LOGDFT: log_dft2}


# ---------------------------------------------------------------------------
# Zonal masking and feature extraction

MODULUS = "modulus"
INTERLEAVE = "interleave"


def extract_features(
    coeffs: CoeffMatrix,
    mask: ZonalMask,
    complex_mode: str = MODULUS,
    r_low: float = 0.0,
) -> FeatureVector:
    """Retain masked coefficients, row-major, as a real feature vector.

    Complex coefficients are reduced per ``complex_mode``: ``modulus`` keeps
    |F| (dim unchanged), ``interleave`` keeps (real, imag) pairs (dim doubled).
    ``r_low`` > 0 additionally drops coefficients closer than that radius to
    the frequency origin (band-pass illumination removal; DC kept by default).
    """
    rows, cols = coeffs.shape
    keep = mask.array(rows, cols).astype(bool)
    if r_low > 0.0:
        f1 = np.arange(rows)[:, None]
        f2 = np.arange(cols)[None, :]
        keep &= np.sqrt(f1 * f1 + f2 * f2) >= r_low
    retained = coeffs.values[keep]  # row-major scan over retained positions
    if retained.size == 0:
        raise ValueError("mask retains no coefficients")
    if np.iscomplexobj(retained):
        if complex_mode == MODULUS:
            retained = np.abs(retained)
        elif complex_mode == INTERLEAVE:
            retained = np.column_stack([retained.real, retained.imag]).ravel()
        else:
            raise ValueError(f"unknown complex_mode {complex_mode!r}")
    return FeatureVector(
        coeffs=np.asarray(retained, dtype=np.float64),
        source=coeffs.kind,
        label=coeffs.subject_id,
        sample_id=coeffs.sample_id,
    )


def mask_apply(coeffs: CoeffMatrix, mask: ZonalMask) -> CoeffMatrix:
    """Pointwise product with the 0/1 mask array (used for reconstruction demos)."""
    rows, cols = coeffs.shape
    values = coeffs.values * mask.array(rows, cols)
    return CoeffMatrix(values=values, kind=coeffs.kind,
                       subject_id=coeffs.subject_id, sample_id=coeffs.sample_id)


# ---------------------------------------------------------------------------
# Export


def write_features_csv(features: list[FeatureVector], path: str | Path) -> None:
    """Write feature vectors as CSV: ``subject,sample,source,dim,c0,c1,...``."""
    if not features:
        raise ValueError("no feature vectors to write")
    dims = {fv.dim for fv in features}
    if len(dims) != 1:
        raise ValueError(f"feature vectors have mixed dims: {sorted(dims)}")
    dim = dims.pop()
    header = "subject,sample,source,dim," + ",".join(f"c{i}" for i in range(dim))
    lines = [header]
    for fv in features:
        subject = "" if fv.label is None else str(fv.label)
        sample = "" if fv.sample_id is None else str(fv.sample_id)
        coeffs = ",".join(repr(float(c)) for c in fv.coeffs)
        lines.append(f"{subject},{sample},{fv.source},{fv.dim},{coeffs}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_features_csv(path: str | Path) -> list[FeatureVector]:
    """Read feature vectors written by :func:`write_features_csv`."""
    lines = Path(path).read_text().splitlines()
    if not lines or not lines[0].startswith("subject,sample,source,dim,"):
        raise ValueError(f"{path}: not a feature CSV")
    features = []
    for ln, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        subject, sample, source, dim = parts[0], parts[1], parts[2], int(parts[3])
        coeffs = np.array([float(c) for c in parts[4:]], dtype=np.float64)
        if coeffs.size != dim:
            raise ValueError(f"{path}:{ln}: dim field {dim} != {coeffs.size} coefficients")
        features.append(FeatureVector(
            coeffs=coeffs,
            source=source,
            label=int(subject) if subject else None,
            sample_id=int(sample) if sample else None,
        ))
    if not features:
        raise ValueError(f"{path}: no feature rows")
    return features


def relative_l2_error(original: Image | np.ndarray, reconstructed: np.ndarray) -> float:
    """||original - reconstructed|| / ||original|| (reconstruction-demo metric)."""
    orig = _pixels(original)
    return float(np.linalg.norm(orig - reconstructed) / np.linalg.norm(orig))
