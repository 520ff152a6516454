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

Each corpus is 12 subjects of 6 images of 16 x 16, split 3, so the gallery
has 36 images and full rank is 35 components. The hard corpora do not
saturate, so equal predictions there are not equal 100% rates.
"""

import numpy as np
import pytest

from faceid.classifiers import Features
from faceid.classifiers.common import cdist
from faceid.dataset import Split, synth_corpus
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
    return tuple(Features(pixels.reshape(-1, SIDE * SIDE), labels.ravel(),
                          samples.ravel(), "pixels")
                 for pixels, labels, samples in zip(*halves))


@pytest.fixture(scope="module", params=CORPORA, ids=[f"{n}-{s}" for n, s in CORPORA])
def paths(request):
    """Per feature path, the (gallery, probe) features of one corpus."""
    name, seed = request.param
    make = synth_corpus if name == "synth" else hard_corpus
    split = Split(make(seed, 12, 6, SIDE, SIDE), 3)
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
