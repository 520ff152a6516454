"""Oracles that tie the feature paths together: DCT, raw pixels and full-rank
eigenfaces give nearest neighbor (MSE) the same distances, up to rounding
and a per-probe constant, so they give it the same predictions.

- Parseval: the orthonormal 2-D DCT-II preserves Euclidean distance, and on a
  square image ``rect:R`` keeps every coefficient, so the DCT features'
  squared distances are the pixels'.
- The KLT projection theorem (Turk & Pentland 1991): at full rank (M - 1
  eigenfaces for M gallery images) every gallery image lies in the mean plus
  the eigenfaces' span, so a probe's squared pixel distance to each gallery
  image is its eigenspace distance plus one residual, the same for all of
  them.

- Ky Fan's maximum principle: the gallery's eigenvalues sum to its total
  variance, and no s^2 orthonormal directions, the DCT ``rect:s`` zone's
  among them, hold more of it than the s^2 leading eigenvalues.

Each corpus is 12 subjects of 6 images of 16 x 16, split 3, so the gallery
has 36 images and full rank is 35 components. The hard corpora do not
saturate, so equal predictions there are not equal 100% rates. The property
tests draw smaller corpora of either recipe, of any shape and split.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faceid.classifiers import MSE, Features, nn_scores
from faceid.classifiers.common import cdist
from faceid.dataset import Split, synth_corpus
from faceid.eigenfaces import train_eigenbasis
from faceid.evaluation import NN_MSE, extract_split_features, run_experiment
from faceid.transforms import DCT, KLT, ZonalMask

from conftest import corpus_pixels
from test_hard_corpus import hard_corpus

SIDE = 16
CORPORA = [(name, seed) for name in ("synth", "hard") for seed in range(5)]


def pixel_features(split: Split) -> tuple[Features, Features]:
    """Gallery and probe features that are the images' own pixels, each
    image's levels over its maxval, one flattened image per row."""
    corpus = split.corpus
    halves = [split.halves(ids) for ids in
              (corpus_pixels(corpus), corpus.subject_ids, corpus.sample_ids)]
    return tuple(Features(pixels.reshape(-1, pixels[0, 0].size), labels.ravel(),
                          samples.ravel(), "pixels")
                 for pixels, labels, samples in zip(*halves))


@pytest.fixture(scope="module", params=CORPORA, ids=[f"{n}-{s}" for n, s in CORPORA])
def split(request):
    """One corpus's recipe name and split."""
    name, seed = request.param
    make = synth_corpus if name == "synth" else hard_corpus
    return name, Split(make(seed, 12, 6, SIDE, SIDE), 3)


@pytest.fixture(scope="module")
def paths(split):
    """Per feature path, the (gallery, probe) features of one corpus."""
    name, split = split
    return name, {
        "pixels": pixel_features(split),
        "dct": extract_split_features(split, DCT, mask=ZonalMask.rectangular(SIDE)),
        "klt": extract_split_features(split, KLT, dim=35),
    }


def squared_distances(features: tuple[Features, Features]) -> np.ndarray:
    gallery, probes = features
    return cdist(probes.matrix, gallery.matrix, "sqeuclidean")


def test_nn_mse_predicts_alike_on_dct_pixels_and_full_rank_eigenfaces(paths):
    name, features = paths
    assert features["klt"][0].dim == 35
    runs = {path: run_experiment(NN_MSE, *pair) for path, pair in features.items()}
    for path in ("dct", "klt"):
        assert np.array_equal(runs[path].preds, runs["pixels"].preds), path
    if name == "hard":
        # far from saturation, so the agreement is probe by probe
        assert runs["pixels"].rate < 50.0


def test_dct_distances_are_the_pixel_distances(paths):
    _, features = paths
    pixels = squared_distances(features["pixels"])
    dct = squared_distances(features["dct"])
    assert np.abs(dct - pixels).max() <= 1e-14 * pixels.max()


def test_pixel_minus_eigenspace_distances_are_one_residual_per_probe(paths):
    _, features = paths
    pixels = squared_distances(features["pixels"])
    residuals = pixels - squared_distances(features["klt"])
    spread = residuals.max(axis=1) - residuals.min(axis=1)
    assert spread.max() <= 1e-14 * pixels.max()
    # the residual is a probe's squared distance from the eigenfaces' span
    assert residuals.min() >= -1e-14 * pixels.max()


@pytest.fixture(scope="module")
def eigenbasis(split):
    """One corpus's full-rank gallery eigenbasis, and the (M, P) gallery pixels."""
    _, split = split
    pixels = pixel_features(split)[0].matrix
    return train_eigenbasis(pixels.reshape(-1, SIDE, SIDE), len(pixels) - 1), pixels


def test_eigenvalues_sum_to_the_gallery_variance(eigenbasis):
    # the Gram matrix over M has the centred gallery's total variance as its trace
    basis, pixels = eigenbasis
    total = pixels.var(axis=0).sum()
    assert abs(basis.eigenvalues.sum() - total) <= 1e-14 * total


def test_leading_eigenvalues_hold_at_least_each_dct_zones_variance(split, eigenbasis):
    _, split = split
    basis, pixels = eigenbasis
    total = pixels.var(axis=0).sum()
    for side in range(1, 6):
        gallery, _ = extract_split_features(split, DCT, mask=ZonalMask.rectangular(side))
        zone = gallery.matrix.var(axis=0).sum()
        assert basis.eigenvalues[:side * side].sum() >= zone - 1e-14 * total, side


# ---------------------------------------------------------------------------
# the same oracles over drawn corpora

RTOL = 1e-13  # distance agreement, relative to the largest pixel distance


@st.composite
def drawn_splits(draw, square: bool) -> Split:
    """A small corpus of either recipe, 2-5 subjects of 2-4 images of 6-14
    pixels a side, split anywhere that leaves a probe sample."""
    make = draw(st.sampled_from([synth_corpus, hard_corpus]))
    subjects, samples = draw(st.integers(2, 5)), draw(st.integers(2, 4))
    rows = draw(st.integers(6, 14))
    cols = rows if square else draw(st.integers(6, 14))
    corpus = make(draw(st.integers(0, 2 ** 16)), subjects, samples, rows, cols)
    return Split(corpus, draw(st.integers(1, samples - 1)))


def assert_nn_mse_agrees(pixels: tuple, other: tuple, per_probe_constant: bool) -> None:
    """``other``'s squared distances are the pixels' (less one constant per
    probe, if ``per_probe_constant``) within ``RTOL``, and NN (MSE) predicts
    alike on every probe whose top-2 subject margin is above that rounding."""
    want = squared_distances(pixels)
    tol = RTOL * want.max()
    gap = want - squared_distances(other)
    if per_probe_constant:
        assert (gap.max(axis=1) - gap.min(axis=1)).max() <= tol
        assert gap.min() >= -tol
    else:
        assert np.abs(gap).max() <= tol
    top_two = np.sort(nn_scores(pixels[1].matrix, pixels[0], MSE), axis=1)[:, -2:]
    decided = top_two[:, 1] - top_two[:, 0] > 2 * tol
    preds = [run_experiment(NN_MSE, *pair).preds[decided] for pair in (pixels, other)]
    assert np.array_equal(*preds)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(drawn_splits(square=True))
def test_parseval_over_drawn_square_corpora(split):
    side = split.corpus.levels.shape[1]
    assert_nn_mse_agrees(pixel_features(split), extract_split_features(
        split, DCT, mask=ZonalMask.rectangular(side)), per_probe_constant=False)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(drawn_splits(square=False))
def test_klt_projection_theorem_over_drawn_corpora(split):
    full_rank = split.corpus.n_subjects * split.k - 1
    features = extract_split_features(split, KLT, dim=full_rank)
    assert features[0].dim == full_rank
    assert_nn_mse_agrees(pixel_features(split), features, per_probe_constant=True)
