"""Corpus ingestion: PGM images, ORL-layout trees, manifests, splits, synthetic fixtures.

Pixel values are normalized to [0, 1] by dividing by the PGM maxval. Images
keep their native resolution; no cropping or registration is applied.
"""

from __future__ import annotations

import hashlib
import os
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
    """One grayscale image with its subject/sample identity: what
    :func:`load_pgm` returns, and one row of a corpus in :attr:`Corpus.images`."""

    pixels: np.ndarray  # (R, C) float64 in [0, 1]
    subject_id: int = 0
    sample_id: int = 0


@dataclass(frozen=True, eq=False)
class Corpus:
    """A rectangular image collection (every subject has as many samples) as
    one stack: ``pixels[i]`` is image ``(subject_ids[i], sample_ids[i])``, and
    the rows run in (subject, sample) order."""

    pixels: np.ndarray       # (n, R, C) float64 in [0, 1]
    subject_ids: np.ndarray  # (n,)
    sample_ids: np.ndarray   # (n,)

    def __post_init__(self):
        px = np.ascontiguousarray(self.pixels, dtype=np.float64)
        if px.ndim != 3 or 0 in px.shape:
            raise ValueError(f"pixels must form a nonempty (n, rows, cols) stack, "
                             f"got shape {px.shape}")
        if px.min() < 0.0 or px.max() > 1.0:
            raise ValueError("pixel values must lie in [0, 1]")
        object.__setattr__(self, "pixels", px)
        for name in ("subject_ids", "sample_ids"):
            ids = np.asarray(getattr(self, name), dtype=np.int64)
            if ids.shape != (len(px),):
                raise ValueError(f"{name} {ids.shape} do not align with {len(px)} images")
            object.__setattr__(self, name, ids)
        pairs = np.column_stack([self.subject_ids, self.sample_ids])
        ordered = np.unique(pairs, axis=0)
        if len(ordered) != len(pairs):
            raise ValueError("duplicate (subject_id, sample_id) pairs in corpus")
        if not np.array_equal(ordered, pairs):
            raise ValueError("images must run in (subject_id, sample_id) order")
        subjects, counts = np.unique(self.subject_ids, return_counts=True)
        if (counts != counts[0]).any():
            raise ValueError(f"unequal samples per subject: "
                             f"{dict(zip(subjects.tolist(), counts.tolist()))}")

    @property
    def n_subjects(self) -> int:
        return len(self.pixels) // self.samples_per_subject

    @property
    def samples_per_subject(self) -> int:
        return int(np.sum(self.subject_ids == self.subject_ids[0]))

    @property
    def images(self) -> list[Image]:
        """One record per image, whose pixels are a view of the stack."""
        return [Image(px, subject, sample) for px, subject, sample in
                zip(self.pixels, self.subject_ids.tolist(), self.sample_ids.tolist())]


@dataclass(frozen=True, eq=False)
class Split:
    """Gallery (training) / probe (testing) partition of a corpus: the first
    ``k`` samples of every subject, and the rest."""

    corpus: Corpus
    k: int

    def __post_init__(self):
        if not 1 <= self.k < self.corpus.samples_per_subject:
            raise ValueError(f"k must be in 1..{self.corpus.samples_per_subject - 1}, "
                             f"got {self.k}")

    def halves(self, per_image: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The gallery and probe parts of an array with one leading entry per
        corpus image (its pixels, ids or feature rows), as (subjects, samples,
        ...) views: the pixels are never copied."""
        corpus = self.corpus
        grid = per_image.reshape(corpus.n_subjects, corpus.samples_per_subject,
                                 *per_image.shape[1:])
        return grid[:, :self.k], grid[:, self.k:]


# ---------------------------------------------------------------------------
# PGM reading and writing


# header separators are whitespace (``bytes.isspace``) and '#' comments
# running to the end of the line; a token is a run of anything else
_SEPARATORS = re.compile(rb"(?:\s|#[^\n]*\n?)*")
_TOKEN = re.compile(rb"\S*")


def _parse_pgm(data: bytes, name: str) -> tuple[int, int, int, np.ndarray]:
    """Parse P2/P5 bytes into (rows, cols, maxval, raw samples)."""
    pos = 0

    def next_token(what: str) -> bytes:
        nonlocal pos
        start = _SEPARATORS.match(data, pos).end()
        pos = _TOKEN.match(data, start).end()
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
    return Image(_read_stack([path])[0], *_ids_from_path(path))


def write_pgm(image: Image | np.ndarray, path: str | Path, maxval: int = 255) -> None:
    """Write pixels (an Image's, or a bare matrix) as binary P5 at ``maxval`` levels."""
    pixels = np.asarray(getattr(image, "pixels", image), dtype=np.float64)
    if not (0 < maxval <= 255):
        raise ValueError(f"maxval must be in 1..255, got {maxval}")
    quantized = np.rint(np.clip(pixels, 0.0, 1.0) * maxval).astype(np.uint8)
    rows, cols = quantized.shape
    header = f"P5\n{cols} {rows}\n{maxval}\n".encode("ascii")
    Path(path).write_bytes(header + quantized.tobytes())


# ---------------------------------------------------------------------------
# Corpus loading


def _read_stack(paths: list) -> np.ndarray:
    """Read PGM files into one (n, R, C) stack; all must share dimensions.
    Each file's samples are scaled straight into its row of the stack."""
    stack = np.empty((0, 0, 0))
    for i, path in enumerate(paths):
        with open(path, "rb") as fh:
            rows, cols, maxval, raw = _parse_pgm(fh.read(), str(path))
        if i == 0:
            stack = np.empty((len(paths), rows, cols))
        elif (rows, cols) != stack.shape[1:]:
            raise ValueError(f"all corpus images must share dimensions: {path} is "
                             f"{(rows, cols)}, not {stack.shape[1:]}")
        np.divide(raw.reshape(rows, cols), maxval, out=stack[i])
    return stack


def load_orl(root: str | Path, n_subjects: int = 40, samples_per_subject: int = 10) -> Corpus:
    """Load an ORL-layout tree ``root/s1..sN/1..K.pgm`` in (subject, sample) order."""
    root = Path(root)
    subjects = np.repeat(np.arange(1, n_subjects + 1), samples_per_subject)
    samples = np.tile(np.arange(1, samples_per_subject + 1), n_subjects)
    names = [f"s{s}/{k}.pgm" for s, k in zip(subjects, samples)]
    stem = str(root / "s")[:-1]  # root's prefix, as pathlib spells root / name
    paths = [stem + name for name in names]
    missing = [name for name, path in zip(names, paths) if not os.path.isfile(path)]
    if missing:
        raise InventoryError(root, missing)
    return Corpus(_read_stack(paths), subjects, samples)


def load_manifest(path: str | Path) -> Corpus:
    """Load a corpus described by a text manifest with lines ``path subject_id sample_id``.

    Relative paths are resolved against the manifest's directory. The described
    collection must be rectangular (same number of samples for every subject).
    """
    path = Path(path)
    entries: list[tuple[int, int, Path]] = []
    for ln, line in enumerate(path.read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"{path}:{ln}: expected 'path subject_id sample_id', got {line!r}")
        rel, subject, sample = parts[0], int(parts[1]), int(parts[2])
        entries.append((subject, sample, path.parent / rel))
    if not entries:
        raise ValueError(f"{path}: empty manifest")

    missing = [str(p) for _, _, p in entries if not p.is_file()]
    if missing:
        raise InventoryError(path.parent, missing)

    entries.sort(key=lambda e: e[:2])
    subjects, samples, paths = zip(*entries)
    try:
        return Corpus(_read_stack(list(paths)), subjects, samples)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def split_first_k(corpus: Corpus, k: int) -> Split:
    """Gallery = samples 1..k of every subject, probes = the rest (paper protocol)."""
    return Split(corpus, k)


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
    pixels = np.empty((n_subjects * samples, rows, cols))
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
            pixels[(subject - 1) * samples + sample - 1] = np.clip(
                0.5 + 0.2 * (base + wobble) + noise, 0.0, 1.0)
    return Corpus(pixels, np.repeat(np.arange(1, n_subjects + 1), samples),
                  np.tile(np.arange(1, samples + 1), n_subjects))


def corpus_checksum(corpus: Corpus) -> str:
    """SHA-256 over ids, dims and little-endian float64 pixel bytes, in corpus order."""
    digest = hashlib.sha256()
    rows, cols = corpus.pixels.shape[1:]
    # hashed straight from the stack's rows (a no-op cast on little-endian hosts)
    pixels = corpus.pixels.astype("<f8", copy=False)
    for subject, sample, image in zip(corpus.subject_ids.tolist(),
                                      corpus.sample_ids.tolist(), pixels):
        digest.update(f"{subject},{sample},{rows}x{cols};".encode())
        digest.update(image)
    return digest.hexdigest()
