"""PGM parsing, corpus loading, splits, and the synthetic fixture generator."""

from pathlib import Path

import numpy as np
import pytest

from faceid.dataset import (
    Corpus, Image, InventoryError, PgmError, Split,
    corpus_checksum, load_manifest, load_orl, synth_corpus,
    write_pgm,
)
from faceid.dataset import _parse_pgm, _read_stack

from conftest import corpus_pixels


def read_pixels(path):
    """One file's pixels as every stage divides them: its uint8 levels over
    its maxval."""
    levels, maxvals = _read_stack([path])
    assert levels.dtype == np.uint8 and maxvals.dtype == np.float64
    return levels[0] / maxvals[0]


# ---------------------------------------------------------------------------
# PGM parsing


def test_load_p5_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    pixels = rng.random((9, 7))
    path = tmp_path / "img.pgm"
    write_pgm(Image(pixels=pixels), path)
    back = read_pixels(path)
    assert back.shape == (9, 7)
    # quantization to 255 levels is the only loss
    assert np.abs(back - pixels).max() <= 0.5 / 255 + 1e-12


def test_load_p2_ascii(tmp_path):
    body = "P2\n# a comment\n3 2\n255\n0 128 255\n64 32 16\n"
    path = tmp_path / "a.pgm"
    path.write_text(body)
    img = read_pixels(path)
    assert img.shape == (2, 3)
    assert img[0, 1] == pytest.approx(128 / 255)
    assert img[1, 2] == pytest.approx(16 / 255)


def test_p5_comment_and_maxval_scaling(tmp_path):
    header = b"P5\n# comment line\n2 2\n100\n"
    path = tmp_path / "c.pgm"
    path.write_bytes(header + bytes([0, 50, 100, 25]))
    img = read_pixels(path)
    assert img[0, 1] == pytest.approx(0.5)
    assert img[1, 0] == pytest.approx(1.0)


def test_malformed_magic_reports_byte_offset(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P7\n2 2\n255\n" + bytes(4))
    with pytest.raises(PgmError, match="malformed header at byte 0"):
        _read_stack([path])


def test_malformed_width_reports_byte_offset(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P5\nxx 2\n255\n" + bytes(4))
    with pytest.raises(PgmError, match=r"malformed header at byte \d+: bad width"):
        _read_stack([path])


def test_truncated_payload(tmp_path):
    path = tmp_path / "short.pgm"
    path.write_bytes(b"P5\n4 4\n255\n" + bytes(7))
    with pytest.raises(PgmError, match="payload size mismatch: expected 16 samples, got 7"):
        _read_stack([path])


def test_sample_over_maxval_rejected(tmp_path):
    path = tmp_path / "over.pgm"
    path.write_text("P2\n2 1\n10\n5 11\n")
    with pytest.raises(PgmError, match="exceeds maxval"):
        _read_stack([path])
    # a signed ASCII sample would wrap in the uint8 stack
    path.write_text("P2\n2 1\n10\n5 -1\n")
    with pytest.raises(PgmError, match="negative sample"):
        _read_stack([path])


# header grammar: separators are whitespace bytes (``bytes.isspace``) and
# '#' comments running to the end of the line (or of the file); a token is
# any run of non-whitespace bytes, '#' included


@pytest.mark.parametrize("header", [
    b"P5\n# a\n3\n#b\n 2 #c\n# d\n\n255\n",   # a comment between every pair of fields
    b"P5\r3\x0b2\x0c255\n",                   # \r, \x0b and \x0c separate fields
    b"P5 \t# x\r\n\x0c3 2\r\n255\r",          # the payload follows one separator byte of any kind
])
def test_p5_header_separators(tmp_path, header):
    path = tmp_path / "h.pgm"
    path.write_bytes(header + bytes([0, 51, 102, 153, 204, 255]))
    pixels = read_pixels(path)
    assert np.array_equal(pixels, np.array([[0, 51, 102], [153, 204, 255]]) / 255)


def test_p2_header_comments(tmp_path):
    path = tmp_path / "h.pgm"
    path.write_bytes(b"P2 #a\n#b\n2\x0b#c\n1\r\n#d\n\n13\n4\n13\n")
    assert np.array_equal(read_pixels(path), np.array([[4, 13]]) / 13)


@pytest.mark.parametrize("data,message", [
    (b"", "malformed header at byte 0: expected magic number"),
    (b"  # only a comment", "malformed header at byte 18: expected magic number"),
    (b"P5#x 2 2 255\n", "malformed header at byte 0: unsupported magic b'P5#x'"),
    (b"P5\nxx 2\n255\n", "malformed header at byte 2: bad width b'xx'"),
    (b"P5 # c\n3#4 2 255\n", "malformed header at byte 2: bad width b'3#4'"),
    (b"P5 3\n# c\n\nyy 255\n", "malformed header at byte 4: bad height b'yy'"),
    (b"P5 3 2\n#c\nzz\n", "malformed header at byte 6: bad maxval b'zz'"),
    (b"P5 3 2 # no newline", "malformed header at byte 19: expected maxval"),
    (b"P5\x0c3\r2 #\n", "malformed header at byte 9: expected maxval"),
    (b"P5 3 2 0\n", "malformed header at byte 8: invalid dims/maxval 3x2, maxval 0"),
    (b"P5 0 2 255\n", "malformed header at byte 10: invalid dims/maxval 0x2, maxval 255"),
    (b"P2\t3 2 256 ", "malformed header at byte 10: invalid dims/maxval 3x2, maxval 256"),
])
def test_malformed_header_messages(tmp_path, data, message):
    path = tmp_path / "bad.pgm"
    path.write_bytes(data)
    with pytest.raises(PgmError) as exc_info:
        _read_stack([path])
    assert str(exc_info.value) == f"{path}: {message}"


def test_write_pgm_validates_maxval(tmp_path):
    with pytest.raises(ValueError, match="maxval"):
        write_pgm(Image(pixels=np.zeros((2, 2))), tmp_path / "x.pgm", maxval=300)


# ---------------------------------------------------------------------------
# Corpus invariants


def test_corpus_rejects_mixed_shapes(tmp_path):
    write_pgm(np.zeros((4, 4)), tmp_path / "a.pgm")
    write_pgm(np.zeros((5, 4)), tmp_path / "b.pgm")
    (tmp_path / "mf.txt").write_text("a.pgm 1 1\nb.pgm 1 2\n")
    with pytest.raises(ValueError, match="share dimensions"):
        load_manifest(tmp_path / "mf.txt")


def test_image_rejects_out_of_range():
    # the range check is the stack's: one pixel outside [0, 1] refuses it all
    pixels = np.zeros((2, 4, 4))
    pixels[1, 2, 3] = 1.5
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        Corpus(pixels, [1, 1], [1, 2])
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        Corpus(-pixels, [1, 1], [1, 2])
    # stored levels are checked against their own image's maxval
    levels = np.zeros((2, 4, 4), dtype=np.uint8)
    levels[1, 2, 3] = 101
    Corpus(levels, [1, 1], [1, 2], [100, 101])
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        Corpus(levels, [1, 1], [1, 2], [101, 100])
    for maxval in ([255], [255, 0], [255, np.nan], [255, np.inf]):
        with pytest.raises(ValueError, match="one finite divisor > 0"):
            Corpus(levels, [1, 1], [1, 2], maxval)


def test_image_rejects_non_2d():
    # every row of the stack must be a 2-D image
    for shape in ((2, 4), (2, 4, 4, 3)):
        with pytest.raises(ValueError, match=r"\(n, rows, cols\)"):
            Corpus(np.zeros(shape), [1, 1], [1, 2])


@pytest.mark.parametrize("pixels,subjects,samples,match", [
    (np.zeros((0, 4, 4)), [], [], r"\(n, rows, cols\)"),
    (np.zeros((2, 4, 4)), [1, 1, 1], [1, 2, 3], "subject_ids"),
    (np.zeros((2, 4, 4)), [1, 1], [1], "sample_ids"),
    (np.zeros((2, 4, 4)), [1, 1], [2, 2], "duplicate"),
    (np.zeros((2, 4, 4)), [1, 1], [2, 1], "order"),
    (np.zeros((2, 4, 4)), [2, 1], [1, 1], "order"),
    (np.zeros((3, 4, 4)), [1, 1, 2], [1, 2, 1], "unequal samples per subject"),
])
def test_corpus_validates_its_stack(pixels, subjects, samples, match):
    with pytest.raises(ValueError, match=match):
        Corpus(pixels, subjects, samples)


def test_corpus_images_divide_each_stored_image(small_corpus, pgm_tree):
    images = small_corpus.images
    assert len(images) == len(small_corpus.levels) == 48
    assert [(im.subject_id, im.sample_id) for im in images[5:7]] == [(1, 6), (2, 1)]
    # float pixels are stored as given, over a maxval of 1
    assert small_corpus.levels.dtype == np.float64
    assert np.array_equal(small_corpus.maxval, np.ones(48))
    assert (small_corpus.n_subjects, small_corpus.samples_per_subject) == (8, 6)
    loaded = load_orl(pgm_tree[0], n_subjects=5, samples_per_subject=6)
    for corpus in (small_corpus, loaded):
        for image, levels, maxval in zip(corpus.images, corpus.levels, corpus.maxval):
            # each record's pixels are a new float64 array, never a view
            assert image.pixels.dtype == np.float64
            assert not np.shares_memory(image.pixels, corpus.levels)
            assert image.pixels.tobytes() == (levels.astype(np.float64) / maxval).tobytes()


# ---------------------------------------------------------------------------
# Tree and manifest loading


def test_load_orl_layout(pgm_tree):
    root, corpus = pgm_tree
    loaded = load_orl(root, n_subjects=5, samples_per_subject=6)
    assert loaded.n_subjects == 5
    assert loaded.levels.shape == (30, 16, 14) and loaded.levels.dtype == np.uint8
    assert np.array_equal(loaded.maxval, np.full(30, 255.0))
    # order is (subject, sample) ascending
    ids = [(im.subject_id, im.sample_id) for im in loaded.images]
    assert ids == sorted(ids)
    # pixel content survives the write/read cycle up to quantization
    assert np.abs(loaded.images[0].pixels - corpus.images[0].pixels).max() <= 0.5 / 255 + 1e-12


def test_load_orl_lists_every_gap(pgm_tree):
    root, _ = pgm_tree
    (root / "s2" / "4.pgm").unlink()
    (root / "s5" / "1.pgm").unlink()
    with pytest.raises(InventoryError) as exc_info:
        load_orl(root, n_subjects=5, samples_per_subject=6)
    assert exc_info.value.missing == ["s2/4.pgm", "s5/1.pgm"]


def test_load_manifest(pgm_tree, tmp_path):
    root, _ = pgm_tree
    lines = []
    for s in range(1, 4):
        for k in range(1, 3):
            lines.append(f"{root}/s{s}/{k}.pgm {s} {k}")
    mf = tmp_path / "inventory.txt"
    mf.write_text("# header comment\n" + "\n".join(lines) + "\n")
    corpus = load_manifest(mf)
    assert corpus.n_subjects == 3
    assert corpus.samples_per_subject == 2


def test_load_manifest_rejects_ragged(pgm_tree, tmp_path):
    root, _ = pgm_tree
    mf = tmp_path / "bad.txt"
    mf.write_text(f"{root}/s1/1.pgm 1 1\n{root}/s1/2.pgm 1 2\n{root}/s2/1.pgm 2 1\n")
    with pytest.raises(ValueError, match="unequal samples"):
        load_manifest(mf)


def test_load_manifest_missing_file(tmp_path):
    mf = tmp_path / "mf.txt"
    mf.write_text("nothere.pgm 1 1\n")
    with pytest.raises(InventoryError):
        load_manifest(mf)


def frozen_load_pgm_stack(paths):
    """The per-file loop the loaders ran before decoding into the stack: one
    PGM parse per file, its samples cast to float64 and then divided."""
    images = []
    for path in paths:
        rows, cols, maxval, raw = _parse_pgm(Path(path).read_bytes(), str(path))
        images.append(raw.reshape(rows, cols).astype(np.float64) / maxval)
    return np.stack(images)


def mixed_pgm_tree(root, n_subjects=3, samples=4, shape=(7, 5)):
    """P5 and P2 files at maxvals 255, 200, 100 and 13 in the sX/Y.pgm layout;
    returns the paths in (subject, sample) order."""
    rng = np.random.default_rng(8)
    formats = [("P5", 255), ("P2", 255), ("P5", 100), ("P2", 13), ("P5", 200), ("P2", 1)]
    paths = []
    for i in range(n_subjects * samples):
        subject, sample = divmod(i, samples)
        magic, maxval = formats[i % len(formats)]
        q = rng.integers(0, maxval + 1, size=shape)
        header = f"{magic}\n# file {i}\n{shape[1]} {shape[0]}\n{maxval}\n".encode()
        body = (q.astype(np.uint8).tobytes() if magic == "P5" else
                "\n".join(" ".join(map(str, row)) for row in q.tolist()).encode())
        path = root / f"s{subject + 1}" / f"{sample + 1}.pgm"
        path.parent.mkdir(exist_ok=True)
        path.write_bytes(header + body)
        paths.append(path)
    return paths


def test_loaded_stacks_bit_equal_frozen_per_file_loop(tmp_path):
    paths = mixed_pgm_tree(tmp_path)
    frozen = frozen_load_pgm_stack(paths)
    tree = load_orl(tmp_path, n_subjects=3, samples_per_subject=4)
    # one stored byte per pixel; each image's levels over its maxval are the
    # frozen loop's pixels, bit for bit
    assert tree.levels.dtype == np.uint8
    assert np.array_equal(tree.maxval, [255, 255, 100, 13, 200, 1] * 2)
    assert corpus_pixels(tree).tobytes() == frozen.tobytes()
    # a manifest lists the files in any order; the stack runs in (subject, sample) order
    lines = [f"{path.relative_to(tmp_path)} {path.parent.name[1:]} {path.stem}"
             for path in reversed(paths)]
    (tmp_path / "mf.txt").write_text("\n".join(lines) + "\n")
    listed = load_manifest(tmp_path / "mf.txt")
    assert listed.levels.tobytes() == tree.levels.tobytes()
    assert np.array_equal(listed.maxval, tree.maxval)
    assert np.array_equal(listed.subject_ids, tree.subject_ids)
    assert np.array_equal(listed.sample_ids, tree.sample_ids)
    for path, pixels, image in zip(paths, frozen, tree.images):
        assert read_pixels(path).tobytes() == pixels.tobytes()
        assert image.pixels.tobytes() == pixels.tobytes()


# ---------------------------------------------------------------------------
# Splits


def test_split_first_k(small_corpus):
    split = Split(small_corpus, 3)
    gallery, probes = split.halves(small_corpus.sample_ids)
    assert gallery.size == probes.size == 8 * 3
    assert (gallery <= 3).all() and (probes > 3).all()
    # the level halves are views of the corpus stack, never copies
    for half, samples in zip(split.halves(small_corpus.levels), (gallery, probes)):
        assert half.shape == (8, 3, 24, 20)
        assert np.shares_memory(half, small_corpus.levels)
        assert np.array_equal(half[2, 1], small_corpus.levels[2 * 6 + samples[2, 1] - 1])
    assert [half.shape for half in split.halves(small_corpus.maxval)] == [(8, 3), (8, 3)]


def test_split_first_k_bounds(small_corpus):
    with pytest.raises(ValueError):
        Split(small_corpus, 0)
    with pytest.raises(ValueError):
        Split(small_corpus, 6)


# ---------------------------------------------------------------------------
# Synthetic corpus and checksums


def test_synth_corpus_deterministic():
    a = synth_corpus(seed=5, n_subjects=3, samples=4, rows=10, cols=8)
    b = synth_corpus(seed=5, n_subjects=3, samples=4, rows=10, cols=8)
    for x, y in zip(a.images, b.images):
        assert np.array_equal(x.pixels, y.pixels)
    c = synth_corpus(seed=6, n_subjects=3, samples=4, rows=10, cols=8)
    assert not np.array_equal(a.images[0].pixels, c.images[0].pixels)


def frozen_synth_pixels(seed, n_subjects, samples, rows, cols):
    """The generator's original loop, which rebuilt every cosine atom per image."""
    rng = np.random.default_rng(seed)
    m = np.arange(rows)[:, None]
    n = np.arange(cols)[None, :]
    n_components = 6
    out = []
    for _ in range(n_subjects):
        f1 = rng.integers(0, 4, size=n_components)
        f2 = rng.integers(0, 4, size=n_components)
        amps = rng.uniform(-1.0, 1.0, size=n_components)
        base = np.zeros((rows, cols))
        for a, p, q in zip(amps, f1, f2):
            base += a * (np.cos(np.pi * (2 * m + 1) * p / (2 * rows))
                         * np.cos(np.pi * (2 * n + 1) * q / (2 * cols)))
        for _ in range(samples):
            jitter = rng.normal(0.0, 0.05, size=n_components)
            wobble = np.zeros((rows, cols))
            for a, e, p, q in zip(amps, jitter, f1, f2):
                wobble += a * e * (np.cos(np.pi * (2 * m + 1) * p / (2 * rows))
                                   * np.cos(np.pi * (2 * n + 1) * q / (2 * cols)))
            noise = rng.normal(0.0, 0.01, size=(rows, cols))
            out.append(np.clip(0.5 + 0.2 * (base + wobble) + noise, 0.0, 1.0))
    return out


@pytest.mark.parametrize("seed,shape", [(0, (4, 5, 23, 17)), (3, (2, 10, 112, 92))])
def test_synth_corpus_bit_equal_frozen_loop(seed, shape):
    corpus = synth_corpus(seed, *shape)
    want = frozen_synth_pixels(seed, *shape)
    assert len(corpus.images) == len(want)
    for image, pixels in zip(corpus.images, want):
        assert np.array_equal(image.pixels, pixels)


def test_checksum_tracks_content():
    a = synth_corpus(seed=5, n_subjects=3, samples=4, rows=10, cols=8)
    b = synth_corpus(seed=5, n_subjects=3, samples=4, rows=10, cols=8)
    c = synth_corpus(seed=9, n_subjects=3, samples=4, rows=10, cols=8)
    assert corpus_checksum(a) == corpus_checksum(b)
    assert corpus_checksum(a) != corpus_checksum(c)


# corpus_checksum of the ORL-shaped synthetic corpus, seeds 0-4: every
# manifest records this value, so its bytes must not move
PINNED_CHECKSUMS = [
    "f00c5c29eee5c5ee003700111e3f9f12b82eb81ddd4bf65d0f803b9b53dd631d",
    "9a41729831052d2646342ac545cc199aa6e29238685f1072d6c91d3ed2bc1cee",
    "1b306862ed4b36ad2697b905e1042e3899a7f1412e6dd995dcc8174f8cc63860",
    "ebf5c29986a5bab2cda190ca7ec614d5bd698a1f133d02873094358ae699760c",
    "dfbb1e1d6f58e9bbe99c15b2f4f4c1417d4f7b2d618a594ceb269897039928f7",
]


@pytest.mark.parametrize("seed", range(5))
def test_orl_shaped_checksums_are_pinned(seed):
    assert corpus_checksum(synth_corpus(seed, 40, 10, 112, 92)) == PINNED_CHECKSUMS[seed]

