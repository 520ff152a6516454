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
    assert back.shape == (9, 7)
    # quantization to 255 levels is the only loss
    assert np.abs(back.pixels - pixels).max() <= 0.5 / 255 + 1e-12


def test_load_p2_ascii(tmp_path):
    body = "P2\n# a comment\n3 2\n255\n0 128 255\n64 32 16\n"
    path = tmp_path / "a.pgm"
    path.write_text(body)
    img = load_pgm(path)
    assert img.shape == (2, 3)
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
# Image / Corpus invariants


def test_image_rejects_out_of_range():
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        Image(pixels=np.full((2, 2), 1.5))


def test_image_rejects_non_2d():
    with pytest.raises(ValueError, match="2-D"):
        Image(pixels=np.zeros(4))


def test_corpus_rejects_mixed_shapes():
    images = [Image(pixels=np.zeros((4, 4)), subject_id=1, sample_id=1),
              Image(pixels=np.zeros((5, 4)), subject_id=1, sample_id=2)]
    with pytest.raises(ValueError, match="share dimensions"):
        Corpus(images=images, n_subjects=1, samples_per_subject=2)


# ---------------------------------------------------------------------------
# Tree and manifest loading


def test_load_orl_layout(pgm_tree):
    root, corpus = pgm_tree
    loaded = load_orl(root, n_subjects=5, samples_per_subject=6)
    assert loaded.n_subjects == 5
    assert loaded.image_shape == (16, 14)
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
    assert len(split.gallery) == 8 * 3
    assert len(split.probes) == 8 * 3
    assert all(im.sample_id <= 3 for im in split.gallery)
    assert all(im.sample_id > 3 for im in split.probes)


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
