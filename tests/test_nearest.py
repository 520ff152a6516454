"""Nearest-neighbour classifier and its distance metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.spatial.distance import cdist

from faceid.classifiers import MAD, MSE, common, nn_scores
from faceid.evaluation import decide
from faceid.fusion import MINMAX, ZSCORE, normalize_scores

from conftest import FROZEN_LOWER, frozen_normalize_scores, gallery_of


def make_gallery(matrix, labels):
    return gallery_of(np.asarray(matrix, dtype=float), labels)


def mad(x, y):
    """Sum of absolute coordinate differences (oracle)."""
    return float(np.abs(x - y).sum())


def mse_dist(x, y):
    """Sum of squared coordinate differences, no averaging (oracle)."""
    d = x - y
    return float(d @ d)


def pair_distance(x, y, metric):
    """The distance behind nn_scores (its negated score) between one probe
    and a one-row gallery."""
    gallery = make_gallery([y], [1])
    return -nn_scores(np.asarray(x, dtype=float)[None, :], gallery, metric)[0, 0]


def nn_predict(probes, gallery, metric):
    """Decisions for a probe block under the single decision rule."""
    preds, _ = decide([nn_scores(np.atleast_2d(probes), gallery, metric)],
                      gallery.subject_ids)
    return preds.tolist()


def test_mad_trivial():
    assert pair_distance([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], MAD) == 0.0
    assert pair_distance([0.0, 0.0], [3.0, -2.0], MAD) == 5.0


def test_mse_trivial():
    assert pair_distance([1.0, 1.0], [1.0, 1.0], MSE) == 0.0
    assert pair_distance([0.0, 0.0], [3.0, 2.0], MSE) == 13.0


def test_metrics_are_sums_not_means():
    # doubling the dimension with identical per-element error doubles the total
    for metric in (MAD, MSE):
        assert pair_distance(np.zeros(4), np.ones(4), metric) == \
            2 * pair_distance(np.zeros(2), np.ones(2), metric)


def test_metric_dim_mismatch():
    for metric in (MAD, MSE):
        with pytest.raises(ValueError, match="dim"):
            pair_distance(np.zeros(3), np.zeros(4), metric)


@given(hnp.arrays(np.float64, 10, elements=st.floats(-50, 50)),
       hnp.arrays(np.float64, 10, elements=st.floats(-50, 50)))
def test_metrics_match_loop_oracle(x, y):
    assert pair_distance(x, y, MAD) == pytest.approx(sum(abs(a - b) for a, b in zip(x, y)))
    assert pair_distance(x, y, MSE) == pytest.approx(sum((a - b) ** 2 for a, b in zip(x, y)))
    assert mad(x, y) == pytest.approx(sum(abs(a - b) for a, b in zip(x, y)))
    assert mse_dist(x, y) == pytest.approx(sum((a - b) ** 2 for a, b in zip(x, y)))


def test_nn_classify_exact_match():
    gallery = make_gallery([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]], [1, 2, 3])
    for metric in (MAD, MSE):
        scores = nn_scores(np.array([[10.0, 0.0]]), gallery, metric)
        assert scores.shape == (1, 3)
        assert scores[0, 1] == 0.0
        assert np.all(scores[0, [0, 2]] < 0.0)  # farther subjects score lower
        assert nn_predict([10.0, 0.0], gallery, metric) == [2]


def test_nn_scores_per_subject_minimum():
    # subject 1 has two templates; the score keeps the closer one
    gallery = make_gallery([[0.0], [4.0], [10.0]], [1, 1, 2])
    scores = nn_scores(np.array([[3.0], [9.0]]), gallery, MAD)
    assert gallery.subject_ids.tolist() == [1, 2]
    assert scores[0] == pytest.approx([-1.0, -7.0])  # -min(3, 1)
    assert scores[1] == pytest.approx([-5.0, -1.0])  # -min(9, 5)


def test_nn_tie_goes_to_lowest_subject_id():
    gallery = make_gallery([[1.0], [-1.0]], [7, 3])
    scores = nn_scores(np.array([[0.0]]), gallery, MAD)
    assert scores[0, 0] == scores[0, 1]  # an exact tie
    assert nn_predict([0.0], gallery, MAD) == [3]


def test_metrics_can_disagree():
    # MAD prefers one small coordinate error; MSE punishes the large one more
    gallery = make_gallery([[3.0, 0.0], [2.0, 2.0]], [1, 2])
    probe = np.array([0.0, 0.0])
    assert nn_predict(probe, gallery, MAD) == [1]  # 3 < 4
    assert nn_predict(probe, gallery, MSE) == [2]  # 9 > 8


def test_unknown_metric():
    gallery = make_gallery([[0.0], [1.0]], [1, 2])
    with pytest.raises(ValueError, match="metric"):
        nn_scores(np.zeros((1, 1)), gallery, "cosine")


def test_probe_block_must_match_gallery_dim():
    gallery = make_gallery([[0.0, 1.0], [1.0, 0.0]], [1, 2])
    with pytest.raises(ValueError, match="dim"):
        nn_scores(np.zeros((3, 5)), gallery, MAD)
    with pytest.raises(ValueError, match=r"\(k, d\)"):
        nn_scores(np.zeros(2), gallery, MAD)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 999))
def test_random_probe_matches_exhaustive_search(seed):
    rng = np.random.default_rng(seed)
    matrix = rng.normal(size=(12, 100))
    labels = np.repeat(np.arange(1, 5), 3)
    gallery = make_gallery(matrix, labels)
    probes = rng.normal(size=(3, 100))
    for metric, fn in ((MAD, mad), (MSE, mse_dist)):
        scores = nn_scores(probes, gallery, metric)
        preds = nn_predict(probes, gallery, metric)
        for probe, row, pred in zip(probes, scores, preds):
            dists = [fn(probe, gal_row) for gal_row in matrix]
            assert pred == labels[int(np.argmin(dists))]
            assert row[pred - 1] == pytest.approx(-min(dists))


def test_prediction_invariant_to_common_scaling():
    rng = np.random.default_rng(3)
    matrix = rng.normal(size=(8, 20))
    gallery = make_gallery(matrix, [1, 1, 2, 2, 3, 3, 4, 4])
    probes = rng.normal(size=(5, 20))
    for metric in (MAD, MSE):
        base = nn_predict(probes, gallery, metric)
        scaled = nn_predict(5.0 * probes, make_gallery(5.0 * matrix, gallery.labels), metric)
        assert base == scaled


def test_batch_matches_single():
    # the (k, S) block equals k one-probe blocks and a naive per-subject loop
    rng = np.random.default_rng(9)
    matrix = rng.normal(size=(10, 30))
    gallery = make_gallery(matrix, np.repeat(np.arange(1, 6), 2))
    probes = rng.normal(size=(7, 30))
    for metric, fn in ((MAD, mad), (MSE, mse_dist)):
        batch = nn_scores(probes, gallery, metric)
        singles = np.vstack([nn_scores(p[None, :], gallery, metric) for p in probes])
        assert np.array_equal(batch, singles)
        naive = [[min(fn(p, r) for r, lab in zip(matrix, gallery.labels) if lab == sid)
                  for sid in gallery.subject_ids] for p in probes]
        assert batch == pytest.approx(-np.array(naive), rel=1e-12)
        assert nn_predict(probes, gallery, metric) == [
            int(gallery.subject_ids[np.argmin(row)]) for row in naive]


def test_negated_scores_normalize_as_the_distances_did():
    # the scores are the exact negation of the per-subject minimum distances,
    # and normalise bit for bit as those distances did when they travelled
    # with a lower-is-better polarity
    rng = np.random.default_rng(12)
    matrix = rng.normal(size=(15, 40))
    gallery = make_gallery(matrix, np.repeat(np.arange(1, 6), 3))
    probes = rng.normal(size=(9, 40))
    probes[4] = matrix[7]  # a zero distance
    for metric, name in ((MAD, "cityblock"), (MSE, "sqeuclidean")):
        dists = cdist(probes, matrix, name)
        nearest = np.stack([dists[:, gallery.labels == sid].min(axis=1)
                            for sid in gallery.subject_ids], axis=1)
        scores = nn_scores(probes, gallery, metric)
        assert np.array_equal(scores, -nearest)
        for mode in (MINMAX, ZSCORE):
            assert np.array_equal(normalize_scores(scores, mode),
                                  frozen_normalize_scores(nearest, FROZEN_LOWER, mode))


@pytest.mark.parametrize("metric", ["cityblock", "sqeuclidean"])
@pytest.mark.parametrize("k,n,d", [(1, 7, 1), (1, 6, 100), (9, 1, 900), (13, 11, 100),
                                   (5, 4, 1)])
def test_cdist_is_bit_equal_to_scipy(metric, k, n, d):
    # common.cdist runs the compiled kernel scipy's cdist runs, on C-ordered,
    # strided and Fortran-ordered rows alike
    rng = np.random.default_rng(k * 10000 + n * 1000 + d)
    x, y = rng.normal(size=(k, d)), rng.normal(size=(n, d))
    strided = rng.normal(size=(k, 2 * d))[:, ::2]
    for a, b in ((x, y), (strided, np.asfortranarray(y)), (y, x)):
        assert np.array_equal(common.cdist(a, b, metric), cdist(a, b, metric))


def test_cdist_refuses_a_width_mismatch_and_other_metrics():
    with pytest.raises(ValueError, match="columns"):
        common.cdist(np.zeros((2, 3)), np.zeros((2, 4)), "cityblock")
    with pytest.raises(ValueError, match="metric"):
        common.cdist(np.zeros((2, 3)), np.zeros((2, 3)), "euclidean")


def test_nonfinite_scores_rejected():
    gallery = make_gallery([[0.0], [1.0]], [1, 2])
    with pytest.raises(ValueError, match="finite"):
        nn_scores(np.array([[0.5], [np.nan]]), gallery, MAD)
    with pytest.raises(ValueError, match="finite"):
        nn_scores(np.array([[np.inf]]), gallery, MSE)
