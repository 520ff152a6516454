"""Corpus ingestion: PGM images, ORL-layout trees, manifests, splits, synthetic fixtures.

Pixel values are normalized to [0, 1] by dividing by the PGM maxval. Images
keep their native resolution; no cropping or registration is applied.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np


class PgmError(ValueError):
    """Malformed or truncated PGM file."""


class InventoryError(RuntimeError):
    """Dataset tree is missing files; ``missing`` lists every gap."""

    def __init__(self, root: Path, missing: list[str]):
        self.missing = missing
        preview = ", ".join(missing[:8]) + (", ..." if len(missing) > 8 else "")
        super().__init__(f"{root}: {len(missing)} missing file(s): {preview}")


@dataclass(frozen=True, eq=False)
class Image:
    """Grayscale pixel matrix in [0, 1] with subject/sample identity."""

    pixels: np.ndarray
    subject_id: int = 0
    sample_id: int = 0

    def __post_init__(self):
        px = np.asarray(self.pixels, dtype=np.float64)
        if px.ndim != 2 or px.shape[0] < 1 or px.shape[1] < 1:
            raise ValueError(f"pixels must be a nonempty 2-D matrix, got shape {px.shape}")
        if px.min() < 0.0 or px.max() > 1.0:
            raise ValueError("pixel values must lie in [0, 1]")
        object.__setattr__(self, "pixels", px)

    @property
    def shape(self) -> tuple[int, int]:
        return self.pixels.shape


@dataclass(frozen=True, eq=False)
class Corpus:
    """A rectangular image collection: n_subjects x samples_per_subject."""

    images: list[Image]
    n_subjects: int
    samples_per_subject: int

    def __post_init__(self):
        if len(self.images) != self.n_subjects * self.samples_per_subject:
            raise ValueError(
                f"expected {self.n_subjects * self.samples_per_subject} images, "
                f"got {len(self.images)}"
            )
        keys = {(im.subject_id, im.sample_id) for im in self.images}
        if len(keys) != len(self.images):
            raise ValueError("duplicate (subject_id, sample_id) pairs in corpus")
        shapes = {im.shape for im in self.images}
        if len(shapes) > 1:
            raise ValueError(f"all corpus images must share dimensions, got {sorted(shapes)}")

    @property
    def image_shape(self) -> tuple[int, int]:
        return self.images[0].shape


@dataclass(frozen=True, eq=False)
class Split:
    """Disjoint gallery (training) / probe (testing) partition of a corpus."""

    gallery: list[Image]
    probes: list[Image]


# ---------------------------------------------------------------------------
# PGM reading and writing


def _parse_pgm(data: bytes, name: str) -> tuple[int, int, int, np.ndarray]:
    """Parse P2/P5 bytes into (rows, cols, maxval, raw samples)."""
    pos = 0

    def skip_separators():
        nonlocal pos
        while pos < len(data):
            if data[pos : pos + 1].isspace():
                pos += 1
            elif data[pos : pos + 1] == b"#":
                nl = data.find(b"\n", pos)
                pos = len(data) if nl < 0 else nl + 1
            else:
                return

    def next_token(what: str) -> bytes:
        nonlocal pos
        skip_separators()
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        if pos == start:
            raise PgmError(f"{name}: malformed header at byte {start}: expected {what}")
        return data[start:pos]

    magic = next_token("magic number")
    if magic not in (b"P2", b"P5"):
        raise PgmError(f"{name}: malformed header at byte 0: unsupported magic {magic!r}")

    fields = []
    for what in ("width", "height", "maxval"):
        at = pos
        tok = next_token(what)
        try:
            fields.append(int(tok))
        except ValueError:
            raise PgmError(f"{name}: malformed header at byte {at}: bad {what} {tok!r}") from None
    width, height, maxval = fields
    if width < 1 or height < 1 or not (0 < maxval <= 255):
        raise PgmError(f"{name}: malformed header at byte {pos}: invalid dims/maxval "
                       f"{width}x{height}, maxval {maxval}")

    count = width * height
    if magic == b"P5":
        # exactly one separator byte between maxval and the payload
        pos += 1
        payload = data[pos : pos + count]
        if len(payload) != count:
            raise PgmError(f"{name}: payload size mismatch: expected {count} samples, "
                           f"got {len(payload)}")
        raw = np.frombuffer(payload, dtype=np.uint8, count=count)
    else:
        tokens = data[pos:].split()
        if len(tokens) < count:
            raise PgmError(f"{name}: payload size mismatch: expected {count} samples, "
                           f"got {len(tokens)}")
        try:
            raw = np.array([int(t) for t in tokens[:count]], dtype=np.int64)
        except ValueError as exc:
            raise PgmError(f"{name}: bad ASCII sample: {exc}") from None
    if raw.max() > maxval:
        raise PgmError(f"{name}: sample value exceeds maxval {maxval}")
    return height, width, maxval, raw


_ORL_DIR_RE = re.compile(r"^s(\d+)$")


def _ids_from_path(path: Path) -> tuple[int, int]:
    """Parse (subject, sample) from the standard ``sX/Y.pgm`` layout; (0, 0) otherwise."""
    m = _ORL_DIR_RE.match(path.parent.name)
    if m and path.stem.isdigit():
        return int(m.group(1)), int(path.stem)
    return 0, 0


def load_pgm(path: str | Path) -> Image:
    """Load a P2/P5 PGM file; pixels scaled by 1/maxval, ids from the directory layout."""
    path = Path(path)
    rows, cols, maxval, raw = _parse_pgm(path.read_bytes(), str(path))
    pixels = raw.reshape(rows, cols).astype(np.float64) / maxval
    subject, sample = _ids_from_path(path)
    return Image(pixels=pixels, subject_id=subject, sample_id=sample)


def write_pgm(image: Image | np.ndarray, path: str | Path, maxval: int = 255) -> None:
    """Write pixels as binary P5, quantized to ``maxval`` levels (single-byte samples)."""
    pixels = image.pixels if isinstance(image, Image) else np.asarray(image, dtype=np.float64)
    if not (0 < maxval <= 255):
        raise ValueError(f"maxval must be in 1..255, got {maxval}")
    quantized = np.rint(np.clip(pixels, 0.0, 1.0) * maxval).astype(np.uint8)
    rows, cols = quantized.shape
    header = f"P5\n{cols} {rows}\n{maxval}\n".encode("ascii")
    Path(path).write_bytes(header + quantized.tobytes())


# ---------------------------------------------------------------------------
# Corpus loading


def load_orl(root: str | Path, n_subjects: int = 40, samples_per_subject: int = 10) -> Corpus:
    """Load an ORL-layout tree ``root/s1..sN/1..K.pgm`` in (subject, sample) order."""
    root = Path(root)
    missing = [
        f"s{s}/{k}.pgm"
        for s in range(1, n_subjects + 1)
        for k in range(1, samples_per_subject + 1)
        if not (root / f"s{s}" / f"{k}.pgm").is_file()
    ]
    if missing:
        raise InventoryError(root, missing)
    # load_pgm reads the (s, k) ids from the s<s>/<k>.pgm layout itself
    images = [load_pgm(root / f"s{s}" / f"{k}.pgm")
              for s in range(1, n_subjects + 1)
              for k in range(1, samples_per_subject + 1)]
    return Corpus(images=images, n_subjects=n_subjects, samples_per_subject=samples_per_subject)


def load_manifest(path: str | Path) -> Corpus:
    """Load a corpus described by a text manifest with lines ``path subject_id sample_id``.

    Relative paths are resolved against the manifest's directory. The described
    collection must be rectangular (same number of samples for every subject).
    """
    path = Path(path)
    entries: list[tuple[Path, int, int]] = []
    for ln, line in enumerate(path.read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"{path}:{ln}: expected 'path subject_id sample_id', got {line!r}")
        rel, subject, sample = parts[0], int(parts[1]), int(parts[2])
        entries.append((path.parent / rel, subject, sample))
    if not entries:
        raise ValueError(f"{path}: empty manifest")

    missing = [str(p) for p, _, _ in entries if not p.is_file()]
    if missing:
        raise InventoryError(path.parent, missing)

    entries.sort(key=lambda e: (e[1], e[2]))
    images = [
        Image(pixels=load_pgm(p).pixels, subject_id=subject, sample_id=sample)
        for p, subject, sample in entries
    ]
    subjects = sorted({im.subject_id for im in images})
    per_subject = {s: sum(1 for im in images if im.subject_id == s) for s in subjects}
    counts = set(per_subject.values())
    if len(counts) != 1:
        raise ValueError(f"{path}: unequal samples per subject: {per_subject}")
    return Corpus(images=images, n_subjects=len(subjects),
                  samples_per_subject=counts.pop())


def split_first_k(corpus: Corpus, k: int) -> Split:
    """Gallery = samples 1..k of every subject, probes = the rest (paper protocol)."""
    if not 1 <= k < corpus.samples_per_subject:
        raise ValueError(
            f"k must be in 1..{corpus.samples_per_subject - 1}, got {k}"
        )
    ordered = sorted(corpus.images, key=lambda im: (im.subject_id, im.sample_id))
    per_subject_rank: dict[int, int] = {}
    gallery, probes = [], []
    for im in ordered:
        rank = per_subject_rank.get(im.subject_id, 0) + 1
        per_subject_rank[im.subject_id] = rank
        (gallery if rank <= k else probes).append(im)
    return Split(gallery=gallery, probes=probes)


# ---------------------------------------------------------------------------
# Synthetic fixture corpus


def synth_corpus(seed: int, n_subjects: int, samples: int, rows: int, cols: int) -> Corpus:
    """Deterministic synthetic corpus: per-subject low-frequency cosine mixture
    plus a small per-sample perturbation. Same seed, same bits."""
    for name, value in (("n_subjects", n_subjects), ("samples", samples),
                        ("rows", rows), ("cols", cols)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    rng = np.random.default_rng(seed)
    m = np.arange(rows)[:, None]
    n = np.arange(cols)[None, :]
    n_components = 6
    images = []
    for subject in range(1, n_subjects + 1):
        f1 = rng.integers(0, 4, size=n_components)
        f2 = rng.integers(0, 4, size=n_components)
        amps = rng.uniform(-1.0, 1.0, size=n_components)
        atoms = [np.cos(np.pi * (2 * m + 1) * p / (2 * rows))
                 * np.cos(np.pi * (2 * n + 1) * q / (2 * cols))
                 for p, q in zip(f1, f2)]
        base = np.zeros((rows, cols))
        for a, atom in zip(amps, atoms):
            base += a * atom
        for sample in range(1, samples + 1):
            jitter = rng.normal(0.0, 0.05, size=n_components)
            wobble = np.zeros((rows, cols))
            for a, e, atom in zip(amps, jitter, atoms):
                wobble += a * e * atom
            noise = rng.normal(0.0, 0.01, size=(rows, cols))
            pixels = np.clip(0.5 + 0.2 * (base + wobble) + noise, 0.0, 1.0)
            images.append(Image(pixels=pixels, subject_id=subject, sample_id=sample))
    return Corpus(images=images, n_subjects=n_subjects, samples_per_subject=samples)


def corpus_checksum(corpus: Corpus) -> str:
    """SHA-256 over ids, dims and little-endian float64 pixel bytes, in corpus order."""
    digest = hashlib.sha256()
    for im in corpus.images:
        digest.update(f"{im.subject_id},{im.sample_id},{im.shape[0]}x{im.shape[1]};".encode())
        digest.update(im.pixels.astype("<f8").tobytes())
    return digest.hexdigest()
