"""Corpus ingestion: PGM images, ORL-layout trees, manifests, splits, synthetic fixtures.

A corpus keeps the levels it was given, with one maxval per image: a PGM tree
or manifest keeps each file's 8-bit samples (one byte per pixel, an eighth of
a float64 stack), and a synthetic or in-memory float stack keeps its float64
pixels with maxval 1. A pixel value is its level divided by its image's
maxval, which lies in [0, 1]. Each stage divides only the images it reads, so
no float copy of the whole corpus is built; the quotient is the float64
division a loaded file always had, so every feature and the corpus checksum
keep their bits. Images keep their native resolution; no cropping or
registration is applied.
"""

from __future__ import annotations

import hashlib
import os
import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np


class CorpusError(ValueError):
    """Corpus files that are missing or malformed, or that do not form one corpus."""


class PgmError(CorpusError):
    """Malformed or truncated PGM file."""


class InventoryError(CorpusError):
    """Dataset tree is missing files; ``missing`` lists every gap."""

    def __init__(self, root: Path, missing: list[str]):
        self.missing = missing
        preview = ", ".join(missing[:8]) + (", ..." if len(missing) > 8 else "")
        super().__init__(f"{root}: {len(missing)} missing file(s): {preview}")


@dataclass(frozen=True, eq=False)
class Image:
    """One grayscale image with its subject/sample identity: one row of a
    corpus in :attr:`Corpus.images`."""

    pixels: np.ndarray  # (R, C) float64 in [0, 1]
    subject_id: int = 0
    sample_id: int = 0


@dataclass(frozen=True, eq=False)
class Corpus:
    """A rectangular image collection (every subject has as many samples) as
    one stack: ``levels[i] / maxval[i]`` is image ``(subject_ids[i],
    sample_ids[i])``, and the rows run in (subject, sample) order.

    ``levels`` stays uint8 when given as uint8 and is float64 otherwise;
    ``maxval`` defaults to 1 for every image, for a stack of float pixels."""

    levels: np.ndarray       # (n, R, C) uint8 or float64 in [0, maxval]
    subject_ids: np.ndarray  # (n,)
    sample_ids: np.ndarray   # (n,)
    maxval: np.ndarray | None = None  # (n,) float64 > 0, each image's divisor

    def __post_init__(self):
        levels = np.asarray(self.levels)
        levels = np.ascontiguousarray(
            levels, dtype=np.uint8 if levels.dtype == np.uint8 else np.float64)
        if levels.ndim != 3 or 0 in levels.shape:
            raise ValueError(f"levels must form a nonempty (n, rows, cols) stack, "
                             f"got shape {levels.shape}")
        object.__setattr__(self, "levels", levels)
        n = len(levels)
        maxval = np.ones(n) if self.maxval is None else np.asarray(self.maxval, np.float64)
        if maxval.shape != (n,) or not (np.isfinite(maxval) & (maxval > 0)).all():
            raise ValueError(f"maxval must hold one finite divisor > 0 for each "
                             f"of the {n} images")
        object.__setattr__(self, "maxval", maxval)
        if levels.min() < 0 or (levels.reshape(n, -1).max(axis=1) > maxval).any():
            raise ValueError("pixel values (levels / maxval) must lie in [0, 1]")
        for name in ("subject_ids", "sample_ids"):
            ids = np.asarray(getattr(self, name), dtype=np.int64)
            if ids.shape != (n,):
                raise ValueError(f"{name} {ids.shape} do not align with {n} images")
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
        return len(self.levels) // self.samples_per_subject

    @property
    def samples_per_subject(self) -> int:
        return int(np.sum(self.subject_ids == self.subject_ids[0]))

    @property
    def images(self) -> list[Image]:
        """One record per image, whose pixels are its levels divided by its
        maxval: a new float64 array per image, never a view of the stack."""
        return [Image(levels / maxval, subject, sample)
                for levels, maxval, subject, sample in
                zip(self.levels, self.maxval, self.subject_ids.tolist(),
                    self.sample_ids.tolist())]


@dataclass(frozen=True, eq=False)
class Split:
    """Gallery (training) / probe (testing) partition of a corpus: the first
    ``k`` samples of every subject, and the rest (the paper's protocol)."""

    corpus: Corpus
    k: int

    def __post_init__(self):
        if not 1 <= self.k < self.corpus.samples_per_subject:
            raise ValueError(f"k must be in 1..{self.corpus.samples_per_subject - 1}, "
                             f"got {self.k}")

    def halves(self, per_image: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The gallery and probe parts of an array with one leading entry per
        corpus image (its levels, maxvals, ids or feature rows), as (subjects,
        samples, ...) views: the levels are never copied."""
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
    if raw.min() < 0:  # an ASCII sample may carry a sign
        raise PgmError(f"{name}: negative sample value")
    return height, width, maxval, raw


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


def _read_stack(paths: list) -> tuple[np.ndarray, np.ndarray]:
    """Read PGM files into one (n, R, C) uint8 stack of their samples and the
    (n,) float64 maxvals; all must share dimensions."""
    stack = np.empty((0, 0, 0), dtype=np.uint8)
    maxvals = np.empty(len(paths))
    for i, path in enumerate(paths):
        with open(path, "rb") as fh:
            rows, cols, maxvals[i], raw = _parse_pgm(fh.read(), str(path))
        if i == 0:
            stack = np.empty((len(paths), rows, cols), dtype=np.uint8)
        elif (rows, cols) != stack.shape[1:]:
            raise CorpusError(f"all corpus images must share dimensions: {path} is "
                              f"{(rows, cols)}, not {stack.shape[1:]}")
        stack[i] = raw.reshape(rows, cols)  # the parser bounds samples by maxval <= 255
    return stack, maxvals


def _read_corpus(root: Path, entries: list[tuple], label: str = "") -> Corpus:
    """The corpus of ``(subject, sample, name, path)`` entries, in (subject,
    sample) order: one InventoryError under ``root`` names every missing file,
    and any other fault in the files is a CorpusError led by ``label``."""
    missing = [name for _, _, name, path in entries if not os.path.isfile(path)]
    if missing:
        raise InventoryError(root, missing)
    subjects, samples, _, paths = zip(*sorted(entries, key=lambda entry: entry[:2]))
    try:
        levels, maxvals = _read_stack(paths)
        return Corpus(levels, subjects, samples, maxvals)
    except (OSError, ValueError) as exc:  # a PgmError stays one
        raise (type(exc) if isinstance(exc, PgmError) else CorpusError)(f"{label}{exc}") from None


def load_orl(root: str | Path, n_subjects: int = 40, samples_per_subject: int = 10) -> Corpus:
    """Load an ORL-layout tree ``root/s1..sN/1..K.pgm`` in (subject, sample) order."""
    root = Path(root)
    stem = str(root / "s")[:-1]  # root's prefix, as pathlib spells root / name
    return _read_corpus(root, [(s, k, f"s{s}/{k}.pgm", f"{stem}s{s}/{k}.pgm")
                               for s in range(1, n_subjects + 1)
                               for k in range(1, samples_per_subject + 1)])


def load_manifest(path: str | Path) -> Corpus:
    """Load a corpus described by a text manifest with lines ``path subject_id sample_id``.

    Relative paths are resolved against the manifest's directory. The described
    collection must be rectangular (same number of samples for every subject),
    with each (subject_id, sample_id) pair listed once; both are checked on
    the listing, before any file is read.
    """
    path = Path(path)
    try:
        lines = path.read_text().splitlines()
    except (OSError, UnicodeDecodeError) as exc:  # an OSError names the path
        raise CorpusError(str(exc) if isinstance(exc, OSError) else f"{path}: {exc}") from None
    entries = []
    listed_at = {}  # (subject, sample) -> the line that lists it
    for ln, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            rel, subject, sample = line.split()
            pair = int(subject), int(sample)
        except ValueError:  # too few or many fields, or an id that is no integer
            raise CorpusError(f"{path}:{ln}: expected 'path subject_id sample_id', "
                              f"got {line!r}") from None
        if pair in listed_at:
            raise CorpusError(f"{path}:{ln}: subject {pair[0]} sample {pair[1]} "
                              f"is already listed on line {listed_at[pair]}")
        listed_at[pair] = ln
        file = str(path.parent / rel)
        entries.append((*pair, file, file))
    if not entries:
        raise CorpusError(f"{path}: empty manifest")
    counts = Counter(subject for subject, _ in listed_at)
    if len(set(counts.values())) > 1:
        raise CorpusError(f"{path}: unequal samples per subject: {dict(sorted(counts.items()))}")
    return _read_corpus(path.parent, entries, f"{path}: ")


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
        base = sum(a * atom for a, atom in zip(amps, atoms))
        for sample in range(1, samples + 1):
            jitter = rng.normal(0.0, 0.05, size=n_components)
            wobble = sum(a * e * atom for a, e, atom in zip(amps, jitter, atoms))
            noise = rng.normal(0.0, 0.01, size=(rows, cols))
            pixels[(subject - 1) * samples + sample - 1] = np.clip(
                0.5 + 0.2 * (base + wobble) + noise, 0.0, 1.0)
    return Corpus(pixels, np.repeat(np.arange(1, n_subjects + 1), samples),
                  np.tile(np.arange(1, samples + 1), n_subjects))


def corpus_checksum(corpus: Corpus) -> str:
    """SHA-256 over ids, dims and little-endian float64 pixel bytes, in corpus
    order; each image's pixels are divided from its levels as they are hashed."""
    digest = hashlib.sha256()
    rows, cols = corpus.levels.shape[1:]
    for subject, sample, levels, maxval in zip(corpus.subject_ids.tolist(),
                                               corpus.sample_ids.tolist(),
                                               corpus.levels, corpus.maxval):
        digest.update(f"{subject},{sample},{rows}x{cols};".encode())
        digest.update((levels / maxval).astype("<f8", copy=False))
    return digest.hexdigest()
