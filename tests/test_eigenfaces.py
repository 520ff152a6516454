"""Eigenface decomposition checked against the full covariance eigenproblem."""

import cProfile
import os

import numpy as np
import pytest

from faceid.dataset import Corpus, Split, synth_corpus
from faceid.eigenfaces import (
    BLOCK, COLUMNS, EigenBasis, RankError, _blocks, project, train_eigenbasis,
)
from faceid.evaluation import extract_split_features
from faceid.transforms import KLT

# one BLAS thread: the blocked products must keep the one product's bits
ONE_BLAS_THREAD = os.environ.get("OPENBLAS_NUM_THREADS") == "1"


@pytest.fixture(scope="module")
def gallery():
    return synth_corpus(seed=21, n_subjects=4, samples=3, rows=8, cols=7).levels


def reconstruct(weights, basis):
    """Mean face plus the weighted eigenface sum, reshaped to image dims (oracle)."""
    return basis.mean_face + (weights @ basis.eigenfaces).reshape(basis.mean_face.shape)


def full_covariance_basis(gallery, m_prime):
    """Oracle: diagonalize the P x P covariance directly (tiny images only)."""
    x = gallery.reshape(len(gallery), -1)
    phi = x - x.mean(axis=0)
    cov = (phi.T @ phi) / len(gallery)
    eigenvalues, eigenvectors = np.linalg.eigh(cov)
    order = np.argsort(-eigenvalues, kind="stable")
    return eigenvalues[order][:m_prime], eigenvectors[:, order][:, :m_prime].T


def test_matches_full_covariance_eigenproblem(gallery):
    m_prime = 6
    basis = train_eigenbasis(gallery, m_prime)
    want_values, want_faces = full_covariance_basis(gallery, m_prime)
    assert np.abs(basis.eigenvalues - want_values).max() < 1e-8
    for got, want in zip(basis.eigenfaces, want_faces):
        # eigenvectors agree up to sign
        sign = np.sign(got @ want)
        assert np.abs(got - sign * want).max() < 1e-8


def test_eigenfaces_orthonormal(gallery):
    basis = train_eigenbasis(gallery, 8)
    gram = basis.eigenfaces @ basis.eigenfaces.T
    assert np.abs(gram - np.eye(8)).max() < 1e-10


def test_eigenvalues_descending_positive(gallery):
    basis = train_eigenbasis(gallery, 10)
    assert np.all(np.diff(basis.eigenvalues) <= 1e-12)
    assert np.all(basis.eigenvalues > 0)


def test_sign_convention(gallery):
    basis = train_eigenbasis(gallery, 5)
    peaks = basis.eigenfaces[np.arange(5), np.argmax(np.abs(basis.eigenfaces), axis=1)]
    assert np.all(peaks > 0)


def test_rank_error_reports_attainable(gallery):
    # M images span at most M-1 directions after mean removal
    m = len(gallery)
    with pytest.raises(RankError) as exc_info:
        train_eigenbasis(gallery, m)
    assert exc_info.value.attainable == m - 1
    assert exc_info.value.requested == m
    assert train_eigenbasis(gallery, m, clamp=True).n_components == m - 1


def test_rank_deficiency_from_duplicates(gallery):
    # 4 distinct images, each repeated: rank 3, not 7
    doubled = np.concatenate([gallery[:4], gallery[:4]])
    with pytest.raises(RankError) as exc_info:
        train_eigenbasis(doubled, 4)
    assert exc_info.value.attainable == 3
    assert train_eigenbasis(doubled, 8, clamp=True).n_components == 3
    train_eigenbasis(doubled, 3)  # at the limit is fine


def test_m_prime_bounds(gallery):
    with pytest.raises(ValueError, match="m_prime"):
        train_eigenbasis(gallery, 0)
    # more components than images is past the rank too
    with pytest.raises(RankError) as exc_info:
        train_eigenbasis(gallery, len(gallery) + 1)
    assert exc_info.value.attainable == len(gallery) - 1
    with pytest.raises(ValueError, match="image stack"):
        train_eigenbasis(gallery[0], 1)


def per_image_projection(images, basis):
    """Oracle: one eigenfaces @ (x - mean_face) mat-vec per image."""
    return np.stack([basis.eigenfaces @ (image - basis.mean_face).ravel()
                     for image in images])


def test_projection_of_training_residual(gallery):
    basis = train_eigenbasis(gallery, 5)
    weights = project(gallery, basis)
    assert weights.shape == (len(gallery), 5)
    # weights are inner products with the residual
    residual = (gallery[0] - basis.mean_face).ravel()
    assert np.abs(weights[0] - basis.eigenfaces @ residual).max() < 1e-12


def test_project_accepts_bare_arrays(gallery):
    # any bare array whose last two axes are an image projects alike
    basis = train_eigenbasis(gallery, 4)
    want = project(gallery, basis)
    assert want.shape == (len(gallery), 4)
    assert np.array_equal(project(gallery.reshape(4, 3, 8, 7), basis), want)
    assert project(gallery[0], basis).shape == (1, 4)
    assert project(gallery[:0], basis).shape == (0, 4)


def test_split_halves_fit_and_project_as_their_copies():
    # a split half is a strided (subjects, samples, R, C) view of the stack
    split = Split(synth_corpus(seed=4, n_subjects=6, samples=5, rows=9, cols=8), 3)
    gallery, probes = split.halves(split.corpus.levels)
    copies = [half.reshape(-1, 9, 8) for half in (gallery, probes)]
    basis = train_eigenbasis(gallery, 10)
    want = train_eigenbasis(copies[0], 10)
    assert np.array_equal(basis.mean_face, want.mean_face)
    assert np.array_equal(basis.eigenfaces, want.eigenfaces)
    for half, copy in zip((gallery, probes), copies):
        assert np.array_equal(project(half, basis), project(copy, basis))


def test_stored_levels_fit_and_project_as_their_pixels():
    # a loaded corpus's halves are uint8 levels with a maxval per image; the
    # fit and the projection divide them exactly as the float pixels were
    float_corpus = synth_corpus(seed=4, n_subjects=6, samples=5, rows=9, cols=8)
    maxval = np.tile([255.0, 200.0, 13.0, 1.0, 100.0], 6)
    levels = np.rint(float_corpus.levels * maxval[:, None, None]).astype(np.uint8)
    split = Split(Corpus(levels, float_corpus.subject_ids,
                         float_corpus.sample_ids, maxval), 3)
    halves, maxvals = split.halves(split.corpus.levels), split.halves(split.corpus.maxval)
    pixels = [half / m[..., None, None] for half, m in zip(halves, maxvals)]
    basis = train_eigenbasis(halves[0], 10, maxval=maxvals[0])
    want = train_eigenbasis(pixels[0], 10)
    assert np.array_equal(basis.mean_face, want.mean_face)
    assert np.array_equal(basis.eigenfaces, want.eigenfaces)
    assert np.array_equal(basis.eigenvalues, want.eigenvalues)
    for half, m, px in zip(halves, maxvals, pixels):
        assert np.array_equal(project(half, basis, m), project(px, want))
    assert np.array_equal(split.corpus.levels, levels)


def test_full_rank_projection_reconstructs_exactly(gallery):
    m = len(gallery)
    basis = train_eigenbasis(gallery, m - 1)
    for image, weights in zip(gallery, project(gallery, basis)):
        recon = reconstruct(weights, basis)
        assert np.abs(recon - image).max() < 1e-9


def test_truncated_reconstruction_error_decreases(gallery):
    probe = gallery[0]
    errs = []
    for m_prime in (2, 5, 9):
        basis = train_eigenbasis(gallery, m_prime)
        recon = reconstruct(project(probe[None], basis)[0], basis)
        errs.append(np.linalg.norm(recon - probe))
    assert errs[0] >= errs[1] >= errs[2]


def test_project_shape_mismatch(gallery):
    basis = train_eigenbasis(gallery, 3)
    with pytest.raises(ValueError, match="dims"):
        project(np.zeros((2, 9, 9)), basis)


def _frozen_train_eigenbasis(gallery, m_prime):
    """The fit before centring moved in place: separate x and phi."""
    x = np.stack([image.ravel() for image in gallery])
    mean_face = x.mean(axis=0)
    phi = x - mean_face
    gram = (phi @ phi.T) / len(gallery)
    eigenvalues, eigenvectors = np.linalg.eigh(gram)
    order = np.argsort(-eigenvalues, kind="stable")
    eigenvalues = eigenvalues[order]
    eigenvectors = eigenvectors[:, order]
    faces = eigenvectors[:, :m_prime].T @ phi
    faces /= np.linalg.norm(faces, axis=1, keepdims=True)
    flip = faces[np.arange(m_prime), np.argmax(np.abs(faces), axis=1)] < 0
    faces[flip] *= -1.0
    return mean_face, faces, eigenvalues[:m_prime]


@pytest.fixture(scope="module")
def larger_gallery():
    return synth_corpus(seed=5, n_subjects=10, samples=4, rows=32, cols=28).levels


@pytest.mark.parametrize("m_prime", [1, 10, 39])
def test_bit_equal_frozen_fit(larger_gallery, m_prime):
    pixels = larger_gallery.copy()
    basis = train_eigenbasis(larger_gallery, m_prime)
    mean_face, faces, eigenvalues = _frozen_train_eigenbasis(larger_gallery, m_prime)
    assert np.array_equal(basis.mean_face.ravel(), mean_face)
    assert np.array_equal(basis.eigenfaces, faces)
    assert np.array_equal(basis.eigenvalues, eigenvalues)
    # centring in place must not reach the caller's images
    assert np.array_equal(larger_gallery, pixels)


def test_fit_under_a_profiler_keeps_its_bits(larger_gallery):
    # a profiler's call holds one more reference to the fit's own buffer, so
    # shrinking it in place must not check references
    expected = train_eigenbasis(larger_gallery, 10)
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        basis = train_eigenbasis(larger_gallery, 10)
    finally:
        profiler.disable()
    for got, want in ((basis.mean_face, expected.mean_face),
                      (basis.eigenfaces, expected.eigenfaces),
                      (basis.eigenvalues, expected.eigenvalues)):
        assert got.tobytes() == want.tobytes()


def test_leading_components_do_not_depend_on_count(larger_gallery):
    # table1 slices one 39-component projection for its smaller dims
    big = train_eigenbasis(larger_gallery, 39)
    small = train_eigenbasis(larger_gallery, 10)
    assert np.array_equal(big.eigenvalues[:10], small.eigenvalues)
    assert np.abs(big.eigenfaces[:10] - small.eigenfaces).max() < 1e-12


def test_fit_memory_is_bounded(peak_bytes):
    # the centred gallery's buffer becomes the eigenfaces, so the fit holds one
    # (M, P) matrix plus one block (a fit that kept the eigenfaces apart took
    # 2.03-2.05x here). Below 2 * BLOCK eigenfaces the one block is all of
    # them, so these small galleries still reach 2.0x
    corpus = synth_corpus(seed=2, n_subjects=12, samples=5, rows=56, cols=46)
    images = corpus.levels
    assert peak_bytes(train_eigenbasis, images, len(images) - 1) < 2.1 * images.nbytes
    # a split half is copied once, straight from its strided view
    gallery = Split(corpus, 3).halves(images)[0]
    assert peak_bytes(train_eigenbasis, gallery, 35) < 2.1 * gallery.nbytes
    # uint8 levels: the one copy is the scaled gallery, at float64 size
    levels = np.rint(gallery * 255).astype(np.uint8)
    peak = peak_bytes(train_eigenbasis, levels, 35, maxval=np.full(levels.shape[:2], 255.0))
    assert peak < 2.1 * gallery.nbytes


@pytest.mark.parametrize("m_prime", [1, 10, 39])
def test_block_projection_matches_per_image_oracle(larger_gallery, m_prime):
    basis = train_eigenbasis(larger_gallery, m_prime)
    probes = synth_corpus(seed=6, n_subjects=10, samples=4, rows=32, cols=28).levels
    for images in (larger_gallery, probes):
        got = project(images, basis)
        want = per_image_projection(images, basis)
        assert got.shape == (len(images), m_prime)
        scale = np.abs(want).max()
        assert np.abs(got - want).max() <= 1e-12 * scale


def test_block_projection_memory_is_one_block(peak_bytes):
    # the images are centred a block at a time into one reused buffer, so
    # beside the weights the projection holds one block, not a copy of the
    # stack (centring a copy of the whole stack peaked at 1.05-1.16x the
    # weights-plus-block total)
    images = synth_corpus(seed=2, n_subjects=12, samples=5, rows=56, cols=46).levels
    basis = train_eigenbasis(images, 10)

    def weights_and_block(n):
        block = len(range(n)[_blocks(n, BLOCK)[-1]])
        return 8 * (n * basis.n_components + block * basis.mean_face.size)

    assert peak_bytes(project, images, basis) < 1.05 * weights_and_block(60)
    # a split half is centred straight from its strided view
    gallery = Split(synth_corpus(seed=2, n_subjects=12, samples=5, rows=56,
                                 cols=46), 3).halves(images)[0]
    assert peak_bytes(project, gallery, basis) < 1.05 * weights_and_block(36)
    # uint8 levels are scaled into the block, which is centred in place
    levels = np.rint(gallery * 255).astype(np.uint8)
    maxval = np.full(levels.shape[:2], 255.0)
    assert peak_bytes(project, levels, basis, maxval) < 1.05 * weights_and_block(36)


# ---------------------------------------------------------------------------
# blocked fit and projection against the one product, at ORL shape: P spans
# 13 column blocks and both halves hold 200 images, past one image block


def assert_one_product(got, want):
    """Bit-equal at one BLAS thread; threaded BLAS splits the one product
    differently, so elsewhere within 1e-15 of its largest entry."""
    if ONE_BLAS_THREAD:
        assert np.array_equal(got, want)
    else:
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


def test_blocks_cover_the_range_and_the_last_takes_the_remainder():
    for n in (1, 47, 48, 49, 95, 96, 97, 200):
        blocks = _blocks(n, BLOCK)
        assert np.array_equal(np.concatenate([np.arange(n)[b] for b in blocks]), np.arange(n))
        sizes = [len(range(n)[b]) for b in blocks]
        assert sizes[:-1] == [BLOCK] * (len(blocks) - 1)
        assert BLOCK <= sizes[-1] < 2 * BLOCK or sizes == [n]
    assert [len(range(10304)[b]) for b in _blocks(10304, COLUMNS)][-1] == 768 + 320
    assert BLOCK % 12 == BLOCK % 16 == COLUMNS % BLOCK == 0


@pytest.fixture(scope="module")
def orl_levels_split(orl_split):
    """The ORL-shaped split on the 8-bit levels a PGM tree of it would hold."""
    corpus = orl_split.corpus
    levels = np.rint(corpus.levels * 255).astype(np.uint8)
    return Split(Corpus(levels, corpus.subject_ids, corpus.sample_ids,
                        np.full(len(levels), 255.0)), orl_split.k)


@pytest.fixture(scope="module")
def orl_levels(orl_levels_split):
    """Its (gallery, probe) level halves and (gallery, probe) maxval halves."""
    corpus = orl_levels_split.corpus
    return orl_levels_split.halves(corpus.levels), orl_levels_split.halves(corpus.maxval)


@pytest.fixture(scope="module", params=["float", "uint8"])
def orl_halves(request, orl_split, orl_levels):
    """Level and maxval halves of the ORL-shaped split: float pixels, or 8-bit levels."""
    if request.param == "uint8":
        return orl_levels
    corpus = orl_split.corpus
    return orl_split.halves(corpus.levels), orl_split.halves(corpus.maxval)


@pytest.mark.parametrize("m_prime", [150, 199])
def test_orl_shaped_fit_matches_frozen_fit(orl_halves, m_prime):
    (gallery, _), (maxval, _) = orl_halves
    pixels = (gallery / maxval[..., None, None]).reshape(-1, *gallery.shape[-2:])
    basis = train_eigenbasis(gallery, m_prime, maxval=maxval)
    mean_face, faces, eigenvalues = _frozen_train_eigenbasis(pixels, m_prime)
    assert np.array_equal(basis.mean_face.ravel(), mean_face)
    assert np.array_equal(basis.eigenvalues, eigenvalues)
    assert_one_product(basis.eigenfaces, faces)


def test_orl_shaped_projection_matches_the_one_product(orl_halves):
    halves, maxvals = orl_halves
    basis = train_eigenbasis(halves[0], 199, maxval=maxvals[0])
    rows, cols = basis.mean_face.shape
    flat = halves[1].reshape(-1, rows, cols), maxvals[1].reshape(-1)
    # 200 and 100 images (strided views), and 97, whose last block takes
    # its one leftover image with it
    for images, maxval in [(halves[1], maxvals[1]), (halves[1][:20], maxvals[1][:20]),
                           (flat[0][:97], flat[1][:97])]:
        centred = images / maxval[..., None, None] - basis.mean_face
        want = centred.reshape(-1, rows * cols) @ basis.eigenfaces.T
        assert_one_product(project(images, basis, maxval), want)


def test_orl_shaped_fit_memory_is_one_gallery_and_a_block(orl_levels, peak_bytes):
    # 200 gallery images of 112 x 92 on 8-bit levels, all 199 eigenfaces:
    # 1.31x the float gallery (2.04x with the eigenfaces kept apart)
    (gallery, _), (maxval, _) = orl_levels
    floats = gallery.size * 8
    assert peak_bytes(train_eigenbasis, gallery, 199, maxval=maxval) < 1.35 * floats


def test_orl_shaped_klt_extraction_memory(orl_levels_split, peak_bytes):
    # fit and both projections at 199 eigenfaces on 8-bit levels: 1.32x the
    # gallery's float size (20.8 MB), against 2.04x (32.1 MB) when the fit
    # and the projection each held two pixel-wide float matrices
    floats = 200 * 112 * 92 * 8
    peak = peak_bytes(extract_split_features, orl_levels_split, KLT, dim=199)
    assert peak < 1.4 * floats
