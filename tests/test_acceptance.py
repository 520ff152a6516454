"""Acceptance gate: one test per criterion, run with `pytest -v`.

Criteria 1-7 reproduce benchmark numbers and orderings on the 40-subject
face corpus (faces 1-5 train, 6-10 test) and skip with a pointer when the
corpus is not installed. Criterion 8 is a dataset-free property battery
with a hard 30-second budget.
"""

import statistics
import time

import numpy as np
import pytest

from faceid.classifiers import (
    HIGHER, Gallery, MLPConfig, mlp_train, msereg_gradient,
    msereg_loss, pnn_classify, pnn_train, rbf_train,
)
from faceid.dataset import split_first_k, synth_corpus
from faceid.eigenfaces import attainable_rank, train_eigenbasis
from faceid.evaluation import (
    DCT, KLT, RECTANGULAR, SPREAD_GRID, TRAIN_SAMPLES, DEFAULT_MASK_SIDE,
    EvalConfig, extract_split_features, run_experiment, sweep_dimension,
    sweep_spread,
)
from faceid.fusion import fuse_mean, normalize_scores
from faceid.transforms import ZonalMask, dct2, dft2, idct2


# ---------------------------------------------------------------------------
# shared corpus-dependent fixtures (module scope: computed once per session)


@pytest.fixture(scope="module")
def split(orl):
    return split_first_k(orl, TRAIN_SAMPLES)


@pytest.fixture(scope="module")
def dct100(split):
    mask = ZonalMask.rectangular(DEFAULT_MASK_SIDE)
    return extract_split_features(split, DCT, mask=mask)


@pytest.fixture(scope="module")
def nn_rates(split, dct100):
    gal, probes = dct100
    rates = {}
    t0 = time.perf_counter()
    rates["dct_mad"] = run_experiment("nn:mad", gal, probes).rate
    rates["dct_mse"] = run_experiment("nn:mse", gal, probes).rate
    rates["c1_runtime"] = time.perf_counter() - t0
    k_gal, k_probes = extract_split_features(split, KLT, dim=100)
    rates["klt100_mad"] = run_experiment("nn:mad", k_gal, k_probes).rate
    top = min(200, attainable_rank(split.gallery))
    k_gal, k_probes = extract_split_features(split, KLT, dim=top)
    rates["klt_top_mad"] = run_experiment("nn:mad", k_gal, k_probes).rate
    rates["klt_top_dim"] = top
    return rates


@pytest.fixture(scope="module")
def rbf_curve(dct100):
    gal, probes = dct100
    return sweep_spread(gal, probes, "rbf", SPREAD_GRID)


@pytest.fixture(scope="module")
def pnn_curve(dct100):
    gal, probes = dct100
    return sweep_spread(gal, probes, "pnn", SPREAD_GRID)


# ---------------------------------------------------------------------------
# criteria 1-7: benchmark reproduction


def test_criterion_1_dct_nn_rates(nn_rates):
    assert abs(nn_rates["dct_mad"] - 92.5) <= 2.0, nn_rates
    assert abs(nn_rates["dct_mse"] - 91.0) <= 2.0, nn_rates
    assert nn_rates["c1_runtime"] <= 120.0


def test_criterion_2_eigenface_rates(nn_rates):
    assert abs(nn_rates["klt100_mad"] - 78.5) <= 3.0, nn_rates
    assert abs(nn_rates["klt_top_mad"] - 86.5) <= 3.0, nn_rates


def test_criterion_3_relative_ordering(nn_rates):
    assert nn_rates["dct_mad"] > nn_rates["klt100_mad"]
    assert nn_rates["dct_mad"] >= nn_rates["dct_mse"]


def test_criterion_4_mlp_rate_and_median(dct100):
    gal, probes = dct100
    t0 = time.perf_counter()
    rates = []
    for seed in range(5):
        cfg = EvalConfig(seed=seed)  # 15000 epochs, 40 hidden neurons
        rates.append(run_experiment("mlp", gal, probes, cfg).rate)
    runtime = time.perf_counter() - t0
    assert rates[0] >= 92.0, rates
    assert abs(statistics.median(rates) - 95.0) <= 3.0, rates
    assert runtime <= 1800.0


def test_criterion_5_kernel_spread_peaks(rbf_curve, pnn_curve):
    rbf_best = max(rbf_curve, key=lambda pt: pt.rate)
    assert rbf_best.rate >= 93.0, [(pt.param, pt.rate) for pt in rbf_curve]
    assert 0.6 <= rbf_best.param <= 1.1, [(pt.param, pt.rate) for pt in rbf_curve]
    pnn_best = max(pnn_curve, key=lambda pt: pt.rate)
    assert pnn_best.rate >= 88.0, [(pt.param, pt.rate) for pt in pnn_curve]


def test_criterion_6_fusion_beats_parts(dct100, nn_rates, rbf_curve):
    gal, probes = dct100
    best = max(rbf_curve, key=lambda pt: pt.rate)
    cfg = EvalConfig(spread=best.param)
    fused = run_experiment("fusion:rbf+nn:mad", gal, probes, cfg).rate
    assert fused >= max(best.rate, nn_rates["dct_mad"]) - 0.5
    assert abs(fused - 96.5) <= 2.5


def test_criterion_7_rate_drops_at_high_dims(split):
    sides = [4, 6, 8, 10, 14, 20, 25]  # dims 16 .. 625
    points = sweep_dimension(split, DCT, RECTANGULAR, grid=sides)
    by_dim = {pt.dim: pt.rate for pt in points}
    top_dim = max(by_dim)
    assert top_dim >= 400
    assert by_dim[100] > by_dim[top_dim], by_dim


# ---------------------------------------------------------------------------
# criterion 8: dataset-free property battery


def _clustered_gallery(rng, n_subjects=4, per_class=3, dim=6):
    centers = rng.normal(scale=3.0, size=(n_subjects, dim))
    rows, labels = [], []
    for s, c in enumerate(centers, start=1):
        for _ in range(per_class):
            rows.append(c + rng.normal(scale=0.3, size=dim))
            labels.append(s)
    return Gallery(matrix=np.stack(rows), labels=np.array(labels))


def test_criterion_8_property_battery():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)

    # DCT and DFT match direct summation on small images
    for rows, cols in ((12, 12), (16, 16)):
        px = rng.random((rows, cols))
        x, y = np.arange(rows), np.arange(cols)
        dct_want = np.empty((rows, cols))
        dft_want = np.empty((rows, cols), dtype=complex)
        for u in range(rows):
            au = np.sqrt((1.0 if u == 0 else 2.0) / rows)
            cu = np.cos((2 * x + 1) * u * np.pi / (2 * rows))
            eu = np.exp(-2j * np.pi * u * x / rows)
            for v in range(cols):
                av = np.sqrt((1.0 if v == 0 else 2.0) / cols)
                cv = np.cos((2 * y + 1) * v * np.pi / (2 * cols))
                ev = np.exp(-2j * np.pi * v * y / cols)
                dct_want[u, v] = au * av * np.sum(px * np.outer(cu, cv))
                dft_want[u, v] = np.sum(px * np.outer(eu, ev))
        assert np.abs(dct2(px).values - dct_want).max() < 1e-10
        assert np.abs(dft2(px).values - dft_want).max() < 1e-10

        # Parseval and the inverse pair
        coeffs = dct2(px)
        assert abs(np.sum(coeffs.values ** 2) - np.sum(px ** 2)) < 1e-9
        assert np.abs(idct2(coeffs) - px).max() < 1e-9

    # Gram-trick eigenfaces match the direct covariance diagonalization
    corpus = synth_corpus(seed=23, n_subjects=4, samples=3, rows=8, cols=7)
    images = corpus.images
    basis = train_eigenbasis(images, 6)
    stack = np.stack([im.pixels.ravel() for im in images])
    phi = stack - stack.mean(axis=0)
    values, vectors = np.linalg.eigh((phi.T @ phi) / len(images))
    order = np.argsort(-values, kind="stable")
    values, vectors = values[order][:6], vectors[:, order][:, :6].T
    assert np.abs(basis.eigenvalues - values).max() < 1e-8
    for got, want in zip(basis.eigenfaces, vectors):
        sign = np.sign(got @ want)
        assert np.abs(got - sign * want).max() < 1e-8

    # analytic MSEREG gradient vs central finite differences
    x = rng.normal(size=(5, 4))
    t = np.where(rng.random((5, 3)) > 0.5, 1.0, -1.0)
    hidden = 3
    theta = rng.normal(scale=0.4, size=hidden * 4 + hidden + 3 * hidden + 3)
    grad = msereg_gradient(theta, x, t, 0.9, hidden)
    fd = np.empty_like(theta)
    for i in range(theta.size):
        up, down = theta.copy(), theta.copy()
        up[i] += 1e-6
        down[i] -= 1e-6
        fd[i] = (msereg_loss(up, x, t, 0.9, hidden)
                 - msereg_loss(down, x, t, 0.9, hidden)) / 2e-6
    assert np.abs(grad - fd).max() / np.linalg.norm(fd) < 1e-5

    # PNN at vanishing spread equals Euclidean nearest neighbor: once with
    # live activations on clustered data, once in the total-underflow regime
    gallery = _clustered_gallery(rng)
    z_rows = gallery.normalized_matrix()
    for spread in (0.2, 1e-6):
        model = pnn_train(gallery, spread=spread)
        probes = np.stack([gallery.matrix[j] + rng.normal(scale=0.05, size=gallery.dim)
                           for j in (0, 4, 7, 11)])
        preds, _ = fuse_mean([normalize_scores(*pnn_classify(model, probes))],
                             model.subject_ids)
        for probe, pred in zip(probes, preds):
            z = gallery.normalize(probe)
            nearest = int(np.argmin(np.linalg.norm(z_rows - z, axis=1)))
            assert pred == gallery.labels[nearest]

    # RBF residual never rises as centers are added
    rbf = rbf_train(gallery, spread=1.5, max_centers=12)
    assert np.all(np.diff(rbf.residuals) <= 1e-9)

    # mean fusion preserves a unanimous winner
    for _ in range(10):
        mats = rng.random((3, 5))
        mats[:, 2] = 2.0  # subject 3 dominates every opinion
        opinions = [normalize_scores(s[None, :], HIGHER) for s in mats]
        preds, _ = fuse_mean(opinions, np.arange(1, 6))
        assert preds.tolist() == [3]

    # seeded runs are bit-reproducible
    cfg = MLPConfig(hidden=4, epochs=40, seed=9)
    m1 = mlp_train(gallery, cfg)
    m2 = mlp_train(gallery, cfg)
    assert np.array_equal(m1.w1, m2.w1) and np.array_equal(m1.curve, m2.curve)
    c1 = synth_corpus(seed=3, n_subjects=2, samples=2, rows=6, cols=6)
    c2 = synth_corpus(seed=3, n_subjects=2, samples=2, rows=6, cols=6)
    assert all(np.array_equal(a.pixels, b.pixels)
               for a, b in zip(c1.images, c2.images))
    r6 = rbf_train(gallery, spread=1.5, max_centers=6)
    assert np.array_equal(r6.center_indices, rbf.center_indices[:6])

    assert time.perf_counter() - t0 < 30.0
