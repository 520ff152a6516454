"""Radial basis classifiers: PNN probabilities, greedy RBF design, persistence."""

from dataclasses import replace

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from faceid.classifiers import (
    EvalConfig, PNNModel, RBFModel, make_targets,
    mlp_train, pnn_classify, pnn_train, radbas_bias, rbf_scores, rbf_train,
)
from faceid.classifiers.common import z_distances
from faceid.classifiers.mlp import GRAD_TOL
from faceid.classifiers.pnn import radbas
from faceid.classifiers.rbf import TIE_RTOL, _pick, _solve_linear
from faceid.dataset import Split, synth_corpus
from faceid.evaluation import (
    FORMAT_VERSION, SPREAD_GRID, extract_split_features, run_experiment, save_model,
)
from faceid.fusion import fuse_mean, normalize_scores
from faceid.transforms import DCT, ZonalMask

from conftest import gallery_of, read_model


def clustered_gallery(seed=5, n_subjects=4, per_class=3, dim=6, noise=0.3):
    rng = np.random.default_rng(seed)
    centers = rng.normal(scale=3.0, size=(n_subjects, dim))
    rows, labels = [], []
    for s, c in enumerate(centers, start=1):
        for _ in range(per_class):
            rows.append(c + rng.normal(scale=noise, size=dim))
            labels.append(s)
    return gallery_of(np.stack(rows), labels)


def decide(model, scores):
    """Per-probe decisions from a scorer's (k, S) scores."""
    preds, _ = fuse_mean([normalize_scores(scores)], model.subject_ids)
    return preds.tolist()


# ---------------------------------------------------------------------------
# PNN


def test_radbas_bias_half_response_at_spread():
    for spread in (0.1, 0.9, 3.0):
        b = radbas_bias(spread)
        assert np.exp(-(spread * b) ** 2) == pytest.approx(0.5)
    for bad in (0.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="spread"):
            radbas_bias(bad)


def test_pnn_probabilities_hand_computed():
    # z-scored centers land at -1 and +1; probe z-scores to -1.
    # With spread 1 the activations are 2^(-d^2): [1, 1/16].
    gallery = gallery_of(np.array([[0.0], [2.0]]), [1, 2])
    model = pnn_train(gallery, spread=1.0)
    scores, _ = pnn_classify(model, np.array([[0.0]]))
    assert scores[0] == pytest.approx([16 / 17, 1 / 17])
    assert decide(model, scores) == [1]


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
    preds = decide(model, pnn_classify(model, probes)[0])
    for probe, pred in zip(probes, preds):
        z = (probe - gallery.mean) / gallery.std
        nearest = int(np.argmin(np.linalg.norm(z_gallery - z, axis=1)))
        assert pred == gallery.labels[nearest]


def test_pnn_total_underflow_falls_back_to_one_hot():
    gallery = gallery_of(np.array([[0.0], [1.0]]), [1, 2])
    model = pnn_train(gallery, spread=1e-8)
    scored, fallbacks = pnn_classify(model, np.array([[0.1], [0.9]]))
    assert np.array_equal(scored, [[1.0, 0.0], [0.0, 1.0]])
    assert decide(model, scored) == [1, 2]
    assert fallbacks == 2


def test_pnn_underflow_fallback_is_per_probe():
    # one probe halfway between the centers (live), one far away (underflow)
    gallery = gallery_of(np.array([[0.0], [1.0]]), [1, 2])
    model = pnn_train(gallery, spread=1.0)
    scores, fallbacks = pnn_classify(model, np.array([[0.5], [200.0]]))
    assert np.array_equal(scores[0], [0.5, 0.5])
    assert np.array_equal(scores[1], [0.0, 1.0])
    assert fallbacks == 1


@pytest.mark.parametrize("seed", range(3))
def test_pnn_fallbacks_on_orl_shaped_corpora(orl_split, seed):
    # each probe's nearest DCT rect:10 center lies 3.34-13.5 away in z-space
    # on seeds 0-2, and an activation underflows to 0 beyond 3.28 at spread
    # 0.1 and beyond 29.5 at 0.9: every probe falls back at 0.1, none at 0.9
    split = orl_split if seed == 0 else Split(synth_corpus(seed, 40, 10, 112, 92), 5)
    gallery, probes = extract_split_features(split, DCT, mask=ZonalMask.rectangular(10))
    z = (probes.matrix - gallery.mean) / gallery.std
    for spread, fallbacks in ((0.1, 200), (0.9, 0)):
        model = pnn_train(gallery, spread)
        acts = np.exp(-(cdist(z, model.centers) * radbas_bias(spread)) ** 2)
        _, counted = pnn_classify(model, probes.matrix)
        assert counted == np.all(acts == 0.0, axis=1).sum() == fallbacks


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
    gallery = gallery_of(np.array([[-1.0], [1.0]]), [9, 4])
    model = pnn_train(gallery, spread=1.0)
    scored, _ = pnn_classify(model, np.array([[0.0]]))
    assert scored[0, 0] == pytest.approx(scored[0, 1])
    assert decide(model, scored) == [4]


def test_pnn_validation():
    gallery = clustered_gallery()
    for spread in (-1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="spread"):
            pnn_train(gallery, spread=spread)
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
    got = radbas(z_distances(x, centers), spread)
    # b^2 = ln2 at spread 1, so the response is exactly 2^(-d^2)
    d = cdist(x, centers)
    assert np.abs(got - np.power(2.0, -(d ** 2))).max() < 1e-12
    assert radbas(z_distances(x, np.zeros((0, 3))), spread).shape == (5, 0)


def test_rbf_residuals_monotone_nonincreasing():
    gallery = clustered_gallery(seed=11)
    model = rbf_train(gallery, spread=1.5, max_centers=len(gallery))
    assert model.residuals.size == len(gallery)
    assert np.all(np.diff(model.residuals) <= 1e-9)


def test_rbf_full_design_interpolates():
    # one center per training vector: n rows, n+1 free columns, exact fit
    gallery = clustered_gallery(seed=2, n_subjects=3, per_class=3)
    model = rbf_train(gallery, spread=1.0, max_centers=len(gallery))
    assert model.residuals[-1] < 1e-6
    assert decide(model, rbf_scores(model, gallery.matrix)) == gallery.labels.tolist()


def _lowest_within_tolerance(errs, taken):
    """The tie rule, written out: the lowest untaken index whose error is
    within TIE_RTOL (relative) of the largest untaken error, and how many
    untaken candidates lie that close."""
    taken = set(taken)
    free = [j for j in range(errs.size) if j not in taken]
    top = max(errs[j] for j in free)
    tied = [j for j in free if errs[j] >= top - TIE_RTOL * top]
    return tied[0], len(tied)


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
        chosen.append(_lowest_within_tolerance(errs, chosen)[0])
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
    scores = rbf_scores(model, np.array([[5.0, 5.0, 5.0], [0.0, 1.0, 2.0]]))
    assert np.array_equal(scores, [[0.7, -0.1], [0.7, -0.1]])


def test_rbf_scores_match_manual_forward_pass():
    gallery = clustered_gallery(seed=6)
    model = rbf_train(gallery, spread=1.0, max_centers=5)
    got = rbf_scores(model, gallery.matrix)
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
        batch = rbf_scores(model, probes)
        z = (probes - model.norm_mean) / model.norm_std
        loop = np.stack([
            model.weights @ radbas(z_distances(zi[None, :], model.centers), spread)[0]
            + model.biases for zi in z])
        assert np.array_equal(batch, loop)


# Frozen copies of the RBF kernels before the distance matrix moved onto the
# gallery and the growth became incremental: the network output computed
# twice per growth step and one full lstsq refit per added center. Run on the
# gallery's cached distances, the refit loop is the bit-for-bit oracle of the
# live growth; with `tie_rule` the pick is the tie rule's instead of argmax's,
# which makes the loop the brute-force oracle of the live code.
# `_frozen_distances` is the z-space kernel before there was one kernel for
# every z-space distance: one (n, k, d) difference tensor. It stays as the
# reference that `z_distances` and the RBF built on it are checked against.

# Largest relative difference allowed between the live code's per-step
# residuals (read off the running outputs) and the refits' residuals; the
# last residual comes from the final fit and must match bit for bit.
RESIDUAL_RTOL = 1e-13

# predictions must agree with the difference-kernel oracle on every probe
# whose top two scores lie further apart than this, relative to the row's
# largest score; closer rows are ties that rounding decides
DECIDED_GAP = 1e-12


def _frozen_distances(x, centers):
    diff = x[:, None, :] - centers[None, :, :]
    return np.sqrt((diff ** 2).sum(axis=2))


def _frozen_activations(x, centers, spread):
    if centers.shape[0] == 0:
        return np.zeros((x.shape[0], 0))
    return np.exp(-(_frozen_distances(x, centers) * radbas_bias(spread)) ** 2)


def _frozen_rbf_train(gallery, spread, max_centers, tie_rule=False, dists=None):
    """(center indices, weights, biases, residuals, tied picks), on the
    gallery's cached distances unless ``dists`` gives others."""
    targets = make_targets(gallery)
    if dists is None:
        dists = gallery.normalized_distances
    all_acts = np.exp(-(dists * radbas_bias(spread)) ** 2)
    chosen = []
    remaining = np.ones(len(gallery), dtype=bool)
    weights, biases = _solve_linear(all_acts[:, []], targets)
    residuals = []
    tied_picks = 0
    for _ in range(max_centers):
        outputs = all_acts[:, chosen] @ weights.T + biases
        row_err = ((outputs - targets) ** 2).sum(axis=1)
        if tie_rule:
            pick, n_tied = _lowest_within_tolerance(row_err, chosen)
            tied_picks += n_tied > 1
        else:
            pick = int(np.argmax(np.where(remaining, row_err, -np.inf)))
        chosen.append(pick)
        remaining[pick] = False
        acts = all_acts[:, chosen]
        weights, biases = _solve_linear(acts, targets)
        fit = acts @ weights.T + biases
        residuals.append(float(((fit - targets) ** 2).sum()))
    return np.array(chosen), weights, biases, np.array(residuals), tied_picks


def _frozen_rbf_scores(model, probes):
    """Scores through the difference kernel, one block of probes at a time."""
    z = (probes - model.norm_mean) / model.norm_std
    step = model.n_centers
    acts = np.vstack([_frozen_activations(z[i:i + step], model.centers, model.spread)
                      for i in range(0, z.shape[0], step)])
    return np.matmul(model.weights, acts[..., None])[..., 0] + model.biases


def _cdist_rbf_scores(model, probes):
    """Scores one probe at a time through `sqrt(cdist(..., "sqeuclidean"))`."""
    z = (probes - model.norm_mean) / model.norm_std
    b = radbas_bias(model.spread)
    return np.stack([
        model.weights @ np.exp(-(np.sqrt(cdist(zi[None, :], model.centers, "sqeuclidean"))[0]
                                 * b) ** 2) + model.biases
        for zi in z])


def _relative_gap(scores):
    """Each row's top-two score gap over its largest absolute score."""
    top_two = np.sort(scores, axis=1)[:, -2:]
    return (top_two[:, 1] - top_two[:, 0]) / np.abs(scores).max(axis=1)


def assert_residuals_match(got, want):
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= RESIDUAL_RTOL * np.abs(want))
    assert got[-1] == want[-1]


@pytest.fixture(scope="module")
def orl_shaped_features(orl_split):
    """DCT rect:10 gallery and probe features of the ORL-shaped synthetic corpus."""
    return extract_split_features(orl_split, DCT, mask=ZonalMask.rectangular(10))


@pytest.fixture(scope="module")
def orl_shaped_dct(orl_shaped_features):
    """The same gallery, and the bare probe block."""
    gal, probes = orl_shaped_features
    return gal, probes.matrix


def test_z_distances_match_difference_kernel(orl_shaped_dct):
    gallery, probes = orl_shaped_dct
    z = gallery.normalized_matrix()
    z_probes = (probes - gallery.mean) / gallery.std
    cached = gallery.normalized_distances
    assert np.array_equal(cached, z_distances(z, z))
    for x, own in ((z, True), (z_probes, False)):
        got = z_distances(x, z)
        want = _frozen_distances(x, z)
        assert np.abs(got - want).max() <= 1e-15 * want.max()
        # the nearest other gallery row is the same row under both kernels
        off_self = np.where(np.eye(*got.shape, dtype=bool) & own, np.inf, 0.0)
        assert np.array_equal((got + off_self).argmin(axis=1),
                              (want + off_self).argmin(axis=1))
        # a row's distances do not depend on the batch it is computed in
        for i in range(x.shape[0]):
            assert np.array_equal(z_distances(x[i:i + 1], z)[0], got[i])
    assert np.array_equal(cached, cached.T)
    assert np.all(np.diag(cached) == 0.0)


@pytest.mark.parametrize("spread,collapsed", [(20.0, False), (0.9, True)])
def test_rbf_bit_equal_lstsq_oracle_on_cached_distances(orl_shaped_features, spread,
                                                        collapsed):
    # spread 20 has no near-tie, so the frozen argmax loop still decides it;
    # in the collapse most picks are ties, decided by the tie-rule oracle
    gallery, probe_features = orl_shaped_features
    probes = probe_features.matrix
    run = run_experiment("rbf", gallery, probe_features, EvalConfig(spread=spread))
    model = run.models["rbf"]
    chosen, weights, biases, residuals, tied_picks = _frozen_rbf_train(
        gallery, spread, 100, tie_rule=collapsed)
    assert np.array_equal(model.center_indices, chosen)
    assert np.array_equal(model.weights, weights)
    assert np.array_equal(model.biases, biases)
    assert_residuals_match(model.residuals, residuals)
    scores = run.scores["rbf"]
    assert np.array_equal(scores, _cdist_rbf_scores(model, probes))
    # spread 0.9 is the collapse of ROADMAP aim 3: every output is the bias,
    # which the run counts from the scores it made
    assert np.all(scores == model.biases) == collapsed
    assert run.collapsed == {"rbf": probes.shape[0] if collapsed else 0}
    assert (np.unique(np.argmax(scores, axis=1)).size == 1) == collapsed
    if collapsed:
        assert model.tied_picks == tied_picks > 0


def test_rbf_collapse_shows_in_subjects_predicted(orl_shaped_features):
    # at spread 1.5 most probes reach some center, so their outputs leave the
    # biases, yet the network still sends every probe to one subject
    gallery, probes = orl_shaped_features
    run = run_experiment("rbf", gallery, probes, EvalConfig(spread=1.5))
    subjects = np.unique(np.argmax(run.scores["rbf"], axis=1)).size
    assert 0 < run.collapsed["rbf"] < len(probes) and subjects == 1


def test_rbf_growth_matches_lstsq_oracle_over_spreads(orl_shaped_dct):
    # every spread table1 sweeps, and three wide ones where no pick is a tie
    gallery, probes = orl_shaped_dct
    for spread in (*SPREAD_GRID, 5.0, 10.0, 20.0):
        model = rbf_train(gallery, spread)
        chosen, weights, biases, residuals, tied_picks = _frozen_rbf_train(
            gallery, spread, 100, tie_rule=True)
        assert np.array_equal(model.center_indices, chosen), spread
        assert np.array_equal(model.weights, weights), spread
        assert np.array_equal(model.biases, biases), spread
        assert model.tied_picks == tied_picks, spread
        assert_residuals_match(model.residuals, residuals)
        oracle = replace(model, weights=weights, biases=biases)
        assert np.array_equal(rbf_scores(model, probes),
                              _cdist_rbf_scores(oracle, probes)), spread


def test_rbf_matches_difference_kernel_oracle_over_spreads(orl_shaped_dct):
    # the network grown on the difference kernel's distances picks the same
    # centers, and decides every probe that rounding does not
    gallery, probes = orl_shaped_dct
    z = gallery.normalized_matrix()
    dists = _frozen_distances(z, z)
    for spread in (*SPREAD_GRID, 5.0, 10.0, 20.0):
        model = rbf_train(gallery, spread)
        chosen, weights, biases, _, tied_picks = _frozen_rbf_train(
            gallery, spread, 100, tie_rule=True, dists=dists)
        assert np.array_equal(model.center_indices, chosen), spread
        assert model.tied_picks == tied_picks, spread
        assert np.abs(model.weights - weights).max() <= 1e-12 * np.abs(weights).max(), spread
        assert np.abs(model.biases - biases).max() <= 1e-12 * np.abs(biases).max(), spread
        frozen = _frozen_rbf_scores(replace(model, weights=weights, biases=biases), probes)
        decided = _relative_gap(frozen) > DECIDED_GAP
        got = np.array(decide(model, rbf_scores(model, probes)))
        want = np.array(decide(model, frozen))
        assert np.array_equal(got[decided], want[decided]), spread


def test_rbf_dependent_columns_keep_minimum_norm_weights():
    # rows 0 and 5 are one vector under two labels: their activation columns
    # are equal, so the second pick of the pair adds nothing to the span
    base = clustered_gallery(seed=3, n_subjects=4, per_class=3)
    matrix = base.matrix.copy()
    matrix[5] = matrix[0]
    gallery = gallery_of(matrix, base.labels)
    assert gallery.labels[0] != gallery.labels[5]
    model = rbf_train(gallery, spread=1.5, max_centers=8)
    chosen, weights, biases, residuals, _ = _frozen_rbf_train(
        gallery, 1.5, 8, tie_rule=True)
    assert {0, 5} <= set(model.center_indices.tolist())
    assert np.array_equal(model.center_indices, chosen)
    assert np.array_equal(model.weights, weights)
    assert np.array_equal(model.biases, biases)
    assert_residuals_match(model.residuals, residuals)
    # the minimum-norm answer splits the pair's weight evenly
    where = {int(j): k for k, j in enumerate(model.center_indices)}
    assert np.allclose(model.weights[:, where[0]], model.weights[:, where[5]])


def test_rbf_near_tie_picks_lower_index():
    remaining = np.ones(4, dtype=bool)
    below = np.array([0.5, 2.0, 2.0 * (1 + 0.5 * TIE_RTOL), 1.0])
    assert _pick(below, remaining) == (1, True)
    above = np.array([0.5, 2.0, 2.0 * (1 + 2 * TIE_RTOL), 1.0])
    assert _pick(above, remaining) == (2, False)
    # a center is never promoted again, however large its error
    remaining[2] = False
    assert _pick(above, remaining) == (1, False)


def test_gallery_distances_computed_once_and_read_only(monkeypatch):
    from faceid.classifiers import common, pnn, rbf
    gallery = clustered_gallery(seed=9)
    calls = []

    def counted(x, y):
        calls.append((x.shape[0], y.shape[0]))
        return z_distances(x, y)

    for module in (common, pnn, rbf):
        monkeypatch.setattr(module, "z_distances", counted)
    models = [rbf_train(gallery, spread, max_centers=4) for spread in (0.5, 1.0, 2.0)]
    assert calls == [(len(gallery), len(gallery))]
    # both kernel classifiers score through the same kernel
    probes = np.random.default_rng(4).normal(scale=3.0, size=(3, gallery.dim))
    calls.clear()
    rbf_scores(models[0], probes)
    pnn_classify(pnn_train(gallery, 1.0), probes)
    assert calls == [(3, 4), (3, len(gallery))]
    dists = gallery.normalized_distances
    assert dists is gallery.normalized_distances
    z = gallery.normalized_matrix()
    assert np.abs(dists - cdist(z, z)).max() < 1e-12
    with pytest.raises(ValueError):
        dists[0, 1] = 0.0


def test_rbf_train_memory_is_bounded(peak_bytes):
    # the (n, n, d) difference tensor alone would be 32 MB here
    rng = np.random.default_rng(0)
    gallery = gallery_of(rng.normal(size=(200, 100)), np.repeat(np.arange(1, 41), 5))
    assert peak_bytes(rbf_train, gallery, 20.0) < 8e6


def test_rbf_scores_memory_is_bounded(peak_bytes):
    rng = np.random.default_rng(1)
    gallery = gallery_of(rng.normal(size=(200, 100)), np.repeat(np.arange(1, 41), 5))
    model = rbf_train(gallery, 20.0)
    probes = rng.normal(size=(200, 100))
    assert peak_bytes(rbf_scores, model, probes) < 4e6


def test_rbf_validation():
    gallery = clustered_gallery()
    for spread in (0.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="spread"):
            rbf_train(gallery, spread=spread)
    with pytest.raises(ValueError, match="max_centers"):
        rbf_train(gallery, spread=1.0, max_centers=0)
    with pytest.raises(ValueError, match="max_centers"):
        rbf_train(gallery, spread=1.0, max_centers=len(gallery) + 1)


# ---------------------------------------------------------------------------
# Persistence


def assert_arrays_equal(a, b, names):
    for name in names:
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def test_store_roundtrip_mlp(tmp_path):
    # the file keeps the MLP's own knobs only: the spread and center budget it
    # never reads are set away from their defaults and not written
    gallery = clustered_gallery(per_class=2)
    cfg = EvalConfig(hidden=4, epochs=40, gamma=0.8, seed=3, spread=2.0, max_centers=5)
    model = mlp_train(gallery, cfg)
    path = tmp_path / "m.npz"
    save_model(model, path)
    with np.load(path) as data:
        assert data["config"].tolist() == [4, 40, 0.8, 3, GRAD_TOL]
    back = read_model(path)
    assert_arrays_equal(model, back, ["w1", "b1", "w2", "b2", "subject_ids",
                                      "norm_mean", "norm_std", "curve"])
    knobs = ("hidden", "epochs", "gamma", "seed")
    assert [getattr(back.config, k) for k in knobs] == [getattr(cfg, k) for k in knobs]


def test_store_roundtrip_pnn(tmp_path):
    model = pnn_train(clustered_gallery(), spread=0.7)
    path = tmp_path / "p.npz"
    save_model(model, path)
    back = read_model(path)
    assert_arrays_equal(model, back, ["centers", "labels", "subject_ids",
                                      "norm_mean", "norm_std"])
    assert back.spread == model.spread


def test_store_roundtrip_rbf(tmp_path):
    model = rbf_train(clustered_gallery(), spread=1.3, max_centers=4)
    path = tmp_path / "r.npz"
    save_model(model, path)
    back = read_model(path)
    assert_arrays_equal(model, back, ["centers", "weights", "biases", "subject_ids",
                                      "norm_mean", "norm_std", "center_indices",
                                      "residuals"])
    assert back.spread == model.spread


def test_store_rejects_unknown_type(tmp_path):
    with pytest.raises(TypeError):
        save_model(object(), tmp_path / "x.npz")


def test_store_rejects_future_version(tmp_path):
    # save_model stamps the current format version; the reader refuses any other
    save_model(pnn_train(clustered_gallery(), spread=0.7), tmp_path / "p.npz")
    with np.load(tmp_path / "p.npz") as data:
        assert int(data["format_version"]) == FORMAT_VERSION
    path = tmp_path / "v.npz"
    np.savez(path, format_version=99, kind="pnn")
    with pytest.raises(ValueError, match="version"):
        read_model(path)


def test_loaded_models_predict_identically(tmp_path):
    gallery = clustered_gallery(seed=30)
    probes = np.random.default_rng(2).normal(scale=3.0, size=(4, gallery.dim))
    for trained, fname in ((pnn_train(gallery, 1.1), "a.npz"),
                           (rbf_train(gallery, 1.1, max_centers=5), "b.npz")):
        save_model(trained, tmp_path / fname)
        loaded = read_model(tmp_path / fname)
        score = (lambda model, x: pnn_classify(model, x)[0]) if isinstance(
            trained, PNNModel) else rbf_scores
        assert np.array_equal(score(trained, probes), score(loaded, probes))
