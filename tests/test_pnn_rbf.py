"""Radial basis classifiers: PNN probabilities, greedy RBF design, persistence."""

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from faceid.classifiers import (
    HIGHER, Gallery, MLPConfig, PNNModel, RBFModel, load_model, mlp_train,
    pnn_classify, pnn_train, radbas_bias, rbf_scores, rbf_train, save_model,
)
from faceid.classifiers.rbf import _activations
from faceid.fusion import fuse_mean, normalize_scores


def clustered_gallery(seed=5, n_subjects=4, per_class=3, dim=6, noise=0.3):
    rng = np.random.default_rng(seed)
    centers = rng.normal(scale=3.0, size=(n_subjects, dim))
    rows, labels = [], []
    for s, c in enumerate(centers, start=1):
        for _ in range(per_class):
            rows.append(c + rng.normal(scale=noise, size=dim))
            labels.append(s)
    return Gallery(matrix=np.stack(rows), labels=np.array(labels))


def decide(model, scored):
    """Per-probe decisions from a scorer's (scores, polarity) result."""
    preds, _ = fuse_mean([normalize_scores(*scored)], model.subject_ids)
    return preds.tolist()


# ---------------------------------------------------------------------------
# PNN


def test_radbas_bias_half_response_at_spread():
    for spread in (0.1, 0.9, 3.0):
        b = radbas_bias(spread)
        assert np.exp(-(spread * b) ** 2) == pytest.approx(0.5)
    with pytest.raises(ValueError, match="spread"):
        radbas_bias(0.0)


def test_pnn_probabilities_hand_computed():
    # z-scored centers land at -1 and +1; probe z-scores to -1.
    # With spread 1 the activations are 2^(-d^2): [1, 1/16].
    gallery = Gallery(matrix=np.array([[0.0], [2.0]]), labels=np.array([1, 2]))
    model = pnn_train(gallery, spread=1.0)
    scores, polarity = pnn_classify(model, np.array([[0.0]]))
    assert scores[0] == pytest.approx([16 / 17, 1 / 17])
    assert polarity == HIGHER
    assert decide(model, (scores, polarity)) == [1]


def test_pnn_scores_are_probabilities():
    gallery = clustered_gallery()
    model = pnn_train(gallery, spread=2.0)
    rng = np.random.default_rng(0)
    scores, _ = pnn_classify(model, rng.normal(scale=3.0, size=(5, gallery.dim)))
    assert scores.shape == (5, gallery.subject_ids.size)
    assert scores.sum(axis=1) == pytest.approx(np.ones(5))
    assert np.all(scores >= 0) and np.all(scores <= 1)


def test_pnn_centers_are_zscored_gallery():
    gallery = clustered_gallery()
    model = pnn_train(gallery, spread=1.0)
    assert np.array_equal(model.centers, gallery.normalized_matrix())
    assert np.array_equal(model.labels, gallery.labels)


def test_pnn_small_spread_reduces_to_nearest_neighbor():
    gallery = clustered_gallery(seed=8)
    model = pnn_train(gallery, spread=0.2)
    z_gallery = gallery.normalized_matrix()
    rng = np.random.default_rng(1)
    probes = rng.normal(scale=3.0, size=(10, gallery.dim))
    preds = decide(model, pnn_classify(model, probes))
    for probe, pred in zip(probes, preds):
        z = gallery.normalize(probe)
        nearest = int(np.argmin(np.linalg.norm(z_gallery - z, axis=1)))
        assert pred == gallery.labels[nearest]


def test_pnn_total_underflow_falls_back_to_one_hot():
    gallery = Gallery(matrix=np.array([[0.0], [1.0]]), labels=np.array([1, 2]))
    model = pnn_train(gallery, spread=1e-8)
    scored = pnn_classify(model, np.array([[0.1], [0.9]]))
    assert np.array_equal(scored[0], [[1.0, 0.0], [0.0, 1.0]])
    assert decide(model, scored) == [1, 2]


def test_pnn_underflow_fallback_is_per_probe():
    # one probe halfway between the centers (live), one far away (underflow)
    gallery = Gallery(matrix=np.array([[0.0], [1.0]]), labels=np.array([1, 2]))
    model = pnn_train(gallery, spread=1.0)
    scores, _ = pnn_classify(model, np.array([[0.5], [200.0]]))
    assert np.array_equal(scores[0], [0.5, 0.5])
    assert np.array_equal(scores[1], [0.0, 1.0])


def test_pnn_batch_matches_per_probe_loop():
    """Batch probabilities against a naive per-probe, per-center loop."""
    gallery = clustered_gallery(seed=21)
    model = pnn_train(gallery, spread=1.3)
    rng = np.random.default_rng(3)
    probes = rng.normal(scale=3.0, size=(8, gallery.dim))
    scores, _ = pnn_classify(model, probes)
    b = radbas_bias(1.3)
    for probe, got in zip(probes, scores):
        z = (probe - gallery.mean) / gallery.std
        sums = {int(sid): 0.0 for sid in gallery.subject_ids}
        for center, label in zip(model.centers, model.labels):
            d = np.sqrt(sum((c - v) ** 2 for c, v in zip(center, z)))
            sums[int(label)] += np.exp(-(d * b) ** 2)
        total = sum(sums.values())
        want = [sums[int(sid)] / total for sid in gallery.subject_ids]
        assert got == pytest.approx(want, rel=1e-9)


def test_pnn_equidistant_tie_takes_lowest_id():
    gallery = Gallery(matrix=np.array([[-1.0], [1.0]]), labels=np.array([9, 4]))
    model = pnn_train(gallery, spread=1.0)
    scored = pnn_classify(model, np.array([[0.0]]))
    assert scored[0][0, 0] == pytest.approx(scored[0][0, 1])
    assert decide(model, scored) == [4]


def test_pnn_validation():
    gallery = clustered_gallery()
    with pytest.raises(ValueError, match="spread"):
        pnn_train(gallery, spread=-1.0)
    model = pnn_train(gallery, spread=1.0)
    with pytest.raises(ValueError, match="dim"):
        pnn_classify(model, np.zeros((2, 99)))
    with pytest.raises(ValueError, match="finite"):
        pnn_classify(model, np.full((1, gallery.dim), np.nan))


# ---------------------------------------------------------------------------
# RBF


def test_activations_match_closed_form():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(5, 3))
    centers = rng.normal(size=(4, 3))
    spread = 1.0
    got = _activations(x, centers, spread)
    # b^2 = ln2 at spread 1, so the response is exactly 2^(-d^2)
    d = cdist(x, centers)
    assert np.abs(got - np.power(2.0, -(d ** 2))).max() < 1e-12
    assert _activations(x, np.zeros((0, 3)), spread).shape == (5, 0)


def test_rbf_residuals_monotone_nonincreasing():
    gallery = clustered_gallery(seed=11)
    model = rbf_train(gallery, spread=1.5, max_centers=gallery.size)
    assert model.residuals.size == gallery.size
    assert np.all(np.diff(model.residuals) <= 1e-9)


def test_rbf_full_design_interpolates():
    # one center per training vector: n rows, n+1 free columns, exact fit
    gallery = clustered_gallery(seed=2, n_subjects=3, per_class=3)
    model = rbf_train(gallery, spread=1.0, max_centers=gallery.size)
    assert model.residuals[-1] < 1e-6
    assert decide(model, rbf_scores(model, gallery.matrix)) == gallery.labels.tolist()


def test_rbf_greedy_matches_bruteforce_oracle():
    """Re-run the growth loop with independently computed pieces."""
    gallery = clustered_gallery(seed=13, n_subjects=3, per_class=4, dim=5)
    spread = 1.2
    model = rbf_train(gallery, spread=spread, max_centers=6)

    x = gallery.normalized_matrix()
    targets = np.where(gallery.labels[:, None] == gallery.subject_ids[None, :], 1.0, -1.0)
    b = np.sqrt(np.log(2.0)) / spread
    acts_full = np.exp(-(cdist(x, x) * b) ** 2)

    def fit(cols):
        design = np.hstack([acts_full[:, cols], np.ones((x.shape[0], 1))])
        coef = np.linalg.pinv(design) @ targets
        return design @ coef

    chosen = []
    for _ in range(6):
        errs = ((fit(chosen) - targets) ** 2).sum(axis=1)
        errs[chosen] = -np.inf
        chosen.append(int(np.argmax(errs)))
    assert model.center_indices.tolist() == chosen
    assert np.array_equal(model.centers, x[chosen])


def test_rbf_first_pick_is_index_zero_on_balanced_classes():
    # bias-only start leaves every row with the same error on balanced targets
    gallery = clustered_gallery(seed=1, n_subjects=3, per_class=2)
    model = rbf_train(gallery, spread=1.0, max_centers=3)
    assert model.center_indices[0] == 0
    assert len(set(model.center_indices.tolist())) == 3


def test_rbf_zero_weights_score_is_bias():
    model = RBFModel(centers=np.zeros((2, 3)), spread=1.0,
                     weights=np.zeros((2, 2)), biases=np.array([0.7, -0.1]),
                     subject_ids=np.array([1, 2]),
                     norm_mean=np.zeros(3), norm_std=np.ones(3))
    scores, polarity = rbf_scores(model, np.array([[5.0, 5.0, 5.0], [0.0, 1.0, 2.0]]))
    assert np.array_equal(scores, [[0.7, -0.1], [0.7, -0.1]])
    assert polarity == HIGHER


def test_rbf_scores_match_manual_forward_pass():
    gallery = clustered_gallery(seed=6)
    model = rbf_train(gallery, spread=1.0, max_centers=5)
    got, _ = rbf_scores(model, gallery.matrix)
    for probe, row in zip(gallery.matrix, got):
        z = (probe - model.norm_mean) / model.norm_std
        acts = np.exp(-(np.linalg.norm(model.centers - z, axis=1) * radbas_bias(1.0)) ** 2)
        want = model.weights @ acts + model.biases
        assert np.abs(row - want).max() < 1e-12


def test_rbf_batch_scores_bit_equal_row_loop():
    # the batch output layer must reproduce a row-by-row `weights @ a` exactly:
    # rows that tie in the collapse regime decide on the last bit
    gallery = clustered_gallery(seed=7, n_subjects=5, per_class=4, dim=9)
    probes = np.random.default_rng(5).normal(scale=3.0, size=(17, gallery.dim))
    for spread in (0.3, 1.0, 4.0):
        model = rbf_train(gallery, spread=spread, max_centers=12)
        batch, _ = rbf_scores(model, probes)
        z = (probes - model.norm_mean) / model.norm_std
        loop = np.stack([
            model.weights @ _activations(zi[None, :], model.centers, spread)[0]
            + model.biases for zi in z])
        assert np.array_equal(batch, loop)


def test_rbf_validation():
    gallery = clustered_gallery()
    with pytest.raises(ValueError, match="spread"):
        rbf_train(gallery, spread=0.0)
    with pytest.raises(ValueError, match="max_centers"):
        rbf_train(gallery, spread=1.0, max_centers=0)
    with pytest.raises(ValueError, match="max_centers"):
        rbf_train(gallery, spread=1.0, max_centers=gallery.size + 1)


# ---------------------------------------------------------------------------
# Persistence


def assert_arrays_equal(a, b, names):
    for name in names:
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def test_store_roundtrip_mlp(tmp_path):
    gallery = clustered_gallery(per_class=2)
    model = mlp_train(gallery, MLPConfig(hidden=4, epochs=40, seed=3))
    path = tmp_path / "m.npz"
    save_model(model, path)
    back = load_model(path)
    assert_arrays_equal(model, back, ["w1", "b1", "w2", "b2", "subject_ids",
                                      "norm_mean", "norm_std", "curve"])
    assert back.config == model.config


def test_store_roundtrip_pnn(tmp_path):
    model = pnn_train(clustered_gallery(), spread=0.7)
    path = tmp_path / "p.npz"
    save_model(model, path)
    back = load_model(path)
    assert_arrays_equal(model, back, ["centers", "labels", "subject_ids",
                                      "norm_mean", "norm_std"])
    assert back.spread == model.spread


def test_store_roundtrip_rbf(tmp_path):
    model = rbf_train(clustered_gallery(), spread=1.3, max_centers=4)
    path = tmp_path / "r.npz"
    save_model(model, path)
    back = load_model(path)
    assert_arrays_equal(model, back, ["centers", "weights", "biases", "subject_ids",
                                      "norm_mean", "norm_std", "center_indices",
                                      "residuals"])
    assert back.spread == model.spread


def test_store_rejects_unknown_type(tmp_path):
    with pytest.raises(TypeError):
        save_model(object(), tmp_path / "x.npz")


def test_store_rejects_future_version(tmp_path):
    path = tmp_path / "v.npz"
    np.savez(path, format_version=99, kind="pnn")
    with pytest.raises(ValueError, match="version"):
        load_model(path)


def test_loaded_models_predict_identically(tmp_path):
    gallery = clustered_gallery(seed=30)
    probes = np.random.default_rng(2).normal(scale=3.0, size=(4, gallery.dim))
    for trained, fname in ((pnn_train(gallery, 1.1), "a.npz"),
                           (rbf_train(gallery, 1.1, max_centers=5), "b.npz")):
        save_model(trained, tmp_path / fname)
        loaded = load_model(tmp_path / fname)
        score = pnn_classify if isinstance(trained, PNNModel) else rbf_scores
        assert np.array_equal(score(trained, probes)[0], score(loaded, probes)[0])
