"""PGM parsing, corpus loading, splits, and the synthetic fixture generator."""

import numpy as np
import pytest

from faceid.dataset import (
    Corpus, Image, InventoryError, PgmError, Split,
    corpus_checksum, load_manifest, load_orl, load_pgm, split_first_k,
    synth_corpus, write_pgm,
)


# ---------------------------------------------------------------------------
# PGM parsing


def test_load_p5_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    pixels = rng.random((9, 7))
    path = tmp_path / "img.pgm"
    write_pgm(Image(pixels=pixels), path)
    back = load_pgm(path)
    assert back.pixels.shape == (9, 7)
    # quantization to 255 levels is the only loss
    assert np.abs(back.pixels - pixels).max() <= 0.5 / 255 + 1e-12


def test_load_p2_ascii(tmp_path):
    body = "P2\n# a comment\n3 2\n255\n0 128 255\n64 32 16\n"
    path = tmp_path / "a.pgm"
    path.write_text(body)
    img = load_pgm(path)
    assert img.pixels.shape == (2, 3)
    assert img.pixels[0, 1] == pytest.approx(128 / 255)
    assert img.pixels[1, 2] == pytest.approx(16 / 255)


def test_p5_comment_and_maxval_scaling(tmp_path):
    header = b"P5\n# comment line\n2 2\n100\n"
    path = tmp_path / "c.pgm"
    path.write_bytes(header + bytes([0, 50, 100, 25]))
    img = load_pgm(path)
    assert img.pixels[0, 1] == pytest.approx(0.5)
    assert img.pixels[1, 0] == pytest.approx(1.0)


def test_malformed_magic_reports_byte_offset(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P7\n2 2\n255\n" + bytes(4))
    with pytest.raises(PgmError, match="malformed header at byte 0"):
        load_pgm(path)


def test_malformed_width_reports_byte_offset(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P5\nxx 2\n255\n" + bytes(4))
    with pytest.raises(PgmError, match=r"malformed header at byte \d+: bad width"):
        load_pgm(path)


def test_truncated_payload(tmp_path):
    path = tmp_path / "short.pgm"
    path.write_bytes(b"P5\n4 4\n255\n" + bytes(7))
    with pytest.raises(PgmError, match="payload size mismatch: expected 16 samples, got 7"):
        load_pgm(path)


def test_sample_over_maxval_rejected(tmp_path):
    path = tmp_path / "over.pgm"
    path.write_text("P2\n2 1\n10\n5 11\n")
    with pytest.raises(PgmError, match="exceeds maxval"):
        load_pgm(path)


def test_ids_from_layout(tmp_path):
    d = tmp_path / "s7"
    d.mkdir()
    write_pgm(Image(pixels=np.zeros((2, 2))), d / "3.pgm")
    img = load_pgm(d / "3.pgm")
    assert (img.subject_id, img.sample_id) == (7, 3)


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


def test_corpus_images_are_views_of_the_stack(small_corpus):
    images = small_corpus.images
    assert len(images) == len(small_corpus.pixels) == 48
    assert [(im.subject_id, im.sample_id) for im in images[5:7]] == [(1, 6), (2, 1)]
    assert all(np.shares_memory(im.pixels, small_corpus.pixels) for im in images)
    assert (small_corpus.n_subjects, small_corpus.samples_per_subject) == (8, 6)


# ---------------------------------------------------------------------------
# Tree and manifest loading


def test_load_orl_layout(pgm_tree):
    root, corpus = pgm_tree
    loaded = load_orl(root, n_subjects=5, samples_per_subject=6)
    assert loaded.n_subjects == 5
    assert loaded.pixels.shape == (30, 16, 14)
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


# ---------------------------------------------------------------------------
# Splits


def test_split_first_k(small_corpus):
    split = split_first_k(small_corpus, 3)
    gallery, probes = split.halves(small_corpus.sample_ids)
    assert gallery.size == probes.size == 8 * 3
    assert (gallery <= 3).all() and (probes > 3).all()
    # the pixel halves are views of the corpus stack, never copies
    for half, samples in zip(split.halves(small_corpus.pixels), (gallery, probes)):
        assert half.shape == (8, 3, 24, 20)
        assert np.shares_memory(half, small_corpus.pixels)
        assert np.array_equal(half[2, 1], small_corpus.pixels[2 * 6 + samples[2, 1] - 1])


def test_split_first_k_bounds(small_corpus):
    with pytest.raises(ValueError):
        split_first_k(small_corpus, 0)
    with pytest.raises(ValueError):
        split_first_k(small_corpus, 6)


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

