"""MSEREG gradient correctness, SCG training behaviour, determinism."""

import csv

import numpy as np
import pytest

from faceid.classifiers import (
    HIGHER, DivergenceError, Gallery, MLPConfig, MLPModel, make_targets,
    mlp_scores, mlp_train, msereg_gradient,
    msereg_loss, pack_params, save_model, unpack_params, write_training_log,
)
from faceid.classifiers import mlp
from faceid.classifiers.mlp import (
    SCG_LAMBDA_INIT, SCG_SIGMA, STOP_BUDGET, STOP_GRAD_TOL, _init_params,
)
from faceid.fusion import fuse_mean, normalize_scores

from conftest import read_model


def mlp_predict(model, probes):
    preds, _ = fuse_mean([normalize_scores(*mlp_scores(model, probes))],
                         model.subject_ids)
    return preds.tolist()


def fd_gradient(theta, x, t, gamma, hidden, h=1e-6):
    """Central-difference gradient of the loss (oracle)."""
    grad = np.empty_like(theta)
    for i in range(theta.size):
        up, down = theta.copy(), theta.copy()
        up[i] += h
        down[i] -= h
        grad[i] = (msereg_loss(up, x, t, gamma, hidden)
                   - msereg_loss(down, x, t, gamma, hidden)) / (2 * h)
    return grad


@pytest.fixture
def toy_batch():
    rng = np.random.default_rng(17)
    x = rng.normal(size=(5, 4))
    t = np.where(rng.random((5, 3)) > 0.5, 1.0, -1.0)
    hidden = 3
    theta = rng.normal(scale=0.4, size=hidden * 4 + hidden + 3 * hidden + 3)
    return theta, x, t, hidden


@pytest.mark.parametrize("gamma", [0.9, 1.0, 0.0, 0.37])
def test_gradient_matches_finite_differences(toy_batch, gamma):
    theta, x, t, hidden = toy_batch
    got = msereg_gradient(theta, x, t, gamma, hidden)
    want = fd_gradient(theta, x, t, gamma, hidden)
    rel = np.abs(got - want).max() / (np.linalg.norm(want) + 1e-12)
    assert rel < 1e-5


def test_gamma_zero_gradient_is_pure_penalty(toy_batch):
    theta, x, t, hidden = toy_batch
    got = msereg_gradient(theta, x, t, 0.0, hidden)
    assert np.allclose(got, (2.0 / theta.size) * theta, atol=1e-15)
    assert msereg_loss(theta, x, t, 0.0, hidden) == pytest.approx(theta @ theta / theta.size)


def test_gamma_one_zero_residual_means_zero_gradient(toy_batch):
    theta, x, _, hidden = toy_batch
    # set the targets to the network's own outputs: the MSE term vanishes
    from faceid.classifiers.mlp import _forward
    _, a2 = _forward(theta, x, x.shape[1], hidden, 3)
    grad = msereg_gradient(theta, x, a2, 1.0, hidden)
    assert np.abs(grad).max() < 1e-14
    assert msereg_loss(theta, x, a2, 1.0, hidden) == 0.0


def test_pack_unpack_roundtrip():
    rng = np.random.default_rng(2)
    parts = (rng.normal(size=(3, 5)), rng.normal(size=3),
             rng.normal(size=(2, 3)), rng.normal(size=2))
    theta = pack_params(*parts)
    back = unpack_params(theta, dim=5, hidden=3, n_out=2)
    for orig, rt in zip(parts, back):
        assert np.array_equal(orig, rt)
    with pytest.raises(ValueError, match="length"):
        unpack_params(theta[:-1], dim=5, hidden=3, n_out=2)


def separable_gallery():
    rng = np.random.default_rng(5)
    centers = rng.normal(scale=4.0, size=(3, 6))
    rows, labels = [], []
    for s, c in enumerate(centers, start=1):
        for _ in range(4):
            rows.append(c + rng.normal(scale=0.2, size=6))
            labels.append(s)
    return Gallery(matrix=np.stack(rows), labels=np.array(labels))


def test_training_reaches_low_error_on_separable_data():
    gallery = separable_gallery()
    cfg = MLPConfig(hidden=8, epochs=500, gamma=1.0, seed=0)
    model = mlp_train(gallery, cfg)
    x = gallery.normalized_matrix()
    t = make_targets(gallery)
    theta = pack_params(model.w1, model.b1, model.w2, model.b2)
    assert msereg_loss(theta, x, t, 1.0, 8) < 1e-3


def test_scg_beats_plain_gradient_descent():
    """Same start, same verified gradient: SCG must not lose to naive descent."""
    gallery = separable_gallery()
    cfg = MLPConfig(hidden=8, epochs=300, gamma=0.9, seed=3)
    model = mlp_train(gallery, cfg)
    x = gallery.normalized_matrix()
    t = make_targets(gallery)

    theta = _init_params(np.random.default_rng(cfg.seed), 6, 8, 3)
    for _ in range(3000):
        theta = theta - 0.5 * msereg_gradient(theta, x, t, 0.9, 8)
    gd_loss = msereg_loss(theta, x, t, 0.9, 8)
    assert model.curve[-1] <= gd_loss + 1e-12


def frozen_scg(theta, loss_fn, grad_fn, max_iters, grad_tol, events):
    """SCG as first written: every loss and gradient call runs its own forward
    pass. ``events`` counts rejected steps and conjugacy restarts; nothing
    else differs from the original."""
    n = theta.size
    lam = SCG_LAMBDA_INIT
    lam_bar = 0.0
    f = loss_fn(theta)
    if not np.isfinite(f):
        raise DivergenceError(0)
    r = -grad_fn(theta)
    p = r.copy()
    success = True
    curve = [f]
    delta = 1.0
    mu = 0.0
    p_sq = float(p @ p)
    for k in range(1, max_iters + 1):
        if success:
            mu = float(p @ r)
            if mu <= 0.0:
                events["restarts"] += 1
                p = r.copy()
                p_sq = float(p @ p)
                mu = p_sq
            if p_sq == 0.0:
                break
            sigma_k = SCG_SIGMA / np.sqrt(p_sq)
            s = (grad_fn(theta + sigma_k * p) - (-r)) / sigma_k
            delta = float(p @ s)
        delta += (lam - lam_bar) * p_sq
        if delta <= 0.0:
            lam_bar = 2.0 * (lam - delta / p_sq)
            delta = -delta + lam * p_sq
            lam = lam_bar
        alpha = mu / delta
        f_new = loss_fn(theta + alpha * p)
        if not np.isfinite(f_new):
            raise DivergenceError(k)
        comparison = 2.0 * delta * (f - f_new) / (mu * mu)
        if comparison >= 0.0:
            theta = theta + alpha * p
            f = f_new
            r_new = -grad_fn(theta)
            lam_bar = 0.0
            success = True
            if k % n == 0:
                p = r_new.copy()
            else:
                beta = (float(r_new @ r_new) - float(r_new @ r)) / mu
                p = r_new + beta * p
            r = r_new
            p_sq = float(p @ p)
            if comparison >= 0.75:
                lam *= 0.25
        else:
            events["rejected"] += 1
            lam_bar = lam
            success = False
        if comparison < 0.25:
            lam += delta * (1.0 - comparison) / p_sq
        curve.append(f)
        if np.sqrt(float(r @ r)) < grad_tol:
            break
        if lam > 1e100:
            break
    return theta, np.array(curve)


def frozen_train(gallery, cfg):
    x = gallery.normalized_matrix()
    t = make_targets(gallery)
    theta0 = _init_params(np.random.default_rng(cfg.seed), gallery.dim,
                          cfg.hidden, gallery.subject_ids.size)
    events = {"rejected": 0, "restarts": 0}
    theta, curve = frozen_scg(
        theta0, lambda th: msereg_loss(th, x, t, cfg.gamma, cfg.hidden),
        lambda th: msereg_gradient(th, x, t, cfg.gamma, cfg.hidden),
        cfg.epochs, cfg.grad_tol, events)
    return theta, curve, events


@pytest.mark.parametrize("seed,epochs,reason", [
    (0, 300, STOP_BUDGET),     # runs the whole budget
    (2, 300, STOP_GRAD_TOL),   # stops early, after 78 epochs
])
def test_training_bit_equal_frozen_scg(seed, epochs, reason):
    gallery = separable_gallery()
    cfg = MLPConfig(hidden=5, epochs=epochs, gamma=0.9, seed=seed)
    want_theta, want_curve, events = frozen_train(gallery, cfg)
    # the run must exercise the rejected-step and restart branches
    assert events["rejected"] >= 1 and events["restarts"] >= 1
    model = mlp_train(gallery, cfg)
    assert model.stop_reason == reason
    assert (model.curve.size == epochs + 1) == (reason == STOP_BUDGET)
    assert np.array_equal(model.curve, want_curve)
    theta = pack_params(model.w1, model.b1, model.w2, model.b2)
    assert np.array_equal(theta, want_theta)


def test_at_most_two_forward_passes_per_epoch(monkeypatch):
    gallery = separable_gallery()
    cfg = MLPConfig(hidden=5, epochs=200, gamma=0.9, seed=0)
    calls = []
    forward = mlp._forward
    monkeypatch.setattr(mlp, "_forward",
                        lambda *args: calls.append(1) or forward(*args))
    model = mlp_train(gallery, cfg)
    epochs = model.curve.size - 1
    assert epochs == cfg.epochs
    assert len(calls) <= 2 * epochs + 2
    # separate loss and gradient calls cost a third pass per accepted step
    calls.clear()
    frozen_train(gallery, cfg)
    assert len(calls) > 2 * epochs + 2


def test_stop_reason_and_lambda_are_not_saved(tmp_path):
    gallery = separable_gallery()
    model = mlp_train(gallery, MLPConfig(hidden=4, epochs=20, seed=0))
    assert model.stop_reason == STOP_BUDGET
    assert model.last_lambda > 0.0
    save_model(model, tmp_path / "m.npz")
    loaded = read_model(tmp_path / "m.npz")
    assert loaded.stop_reason is None and loaded.last_lambda is None
    with np.load(tmp_path / "m.npz") as data:
        assert sorted(data.files) == [
            "b1", "b2", "config", "curve", "format_version", "kind",
            "norm_mean", "norm_std", "subject_ids", "w1", "w2"]


def test_curve_monotone_and_recorded():
    gallery = separable_gallery()
    model = mlp_train(gallery, MLPConfig(hidden=6, epochs=100, seed=1))
    assert model.curve.size >= 2
    assert np.all(np.diff(model.curve) <= 1e-15)  # failed steps repeat f
    # first entry is the untrained loss, which cannot be tiny
    assert model.curve[0] > model.curve[-1]


def test_training_is_deterministic_per_seed():
    gallery = separable_gallery()
    cfg = MLPConfig(hidden=5, epochs=60, seed=42)
    a = mlp_train(gallery, cfg)
    b = mlp_train(gallery, cfg)
    assert np.array_equal(a.w1, b.w1) and np.array_equal(a.w2, b.w2)
    assert np.array_equal(a.b1, b.b1) and np.array_equal(a.b2, b.b2)
    assert np.array_equal(a.curve, b.curve)
    c = mlp_train(gallery, MLPConfig(hidden=5, epochs=60, seed=43))
    assert not np.array_equal(a.w1, c.w1)


def test_trained_model_separates_genuine_from_impostor():
    gallery = separable_gallery()
    model = mlp_train(gallery, MLPConfig(hidden=8, epochs=400, seed=0))
    scores, _ = mlp_scores(model, gallery.matrix)
    assert mlp_predict(model, gallery.matrix) == gallery.labels.tolist()
    for row, label in zip(scores, gallery.labels):
        own = row[list(model.subject_ids).index(label)]
        others = [s for s, sid in zip(row, model.subject_ids) if sid != label]
        assert own > max(others)


def test_scores_polarity_and_range():
    gallery = separable_gallery()
    model = mlp_train(gallery, MLPConfig(hidden=4, epochs=30, seed=0))
    scores, polarity = mlp_scores(model, gallery.matrix[:3])
    assert polarity == HIGHER
    assert scores.shape == (3, len(model.subject_ids))
    assert np.all(np.abs(scores) < 1.0)  # tanh outputs
    with pytest.raises(ValueError, match="dim"):
        mlp_scores(model, np.zeros((1, 99)))
    with pytest.raises(ValueError, match="finite"):
        mlp_scores(model, np.full((1, gallery.dim), np.nan))


def test_batch_scores_bit_equal_row_loop():
    # the batch forward pass must reproduce a row-by-row `w @ a` exactly
    gallery = separable_gallery()
    model = mlp_train(gallery, MLPConfig(hidden=7, epochs=50, seed=2))
    probes = np.random.default_rng(8).normal(size=(13, gallery.dim))
    batch, _ = mlp_scores(model, probes)
    loop = []
    for probe in probes:
        z = (probe - model.norm_mean) / model.norm_std
        a1 = np.tanh(model.w1 @ z + model.b1)
        loop.append(np.tanh(model.w2 @ a1 + model.b2))
    assert np.array_equal(batch, np.stack(loop))


def test_zero_weight_model_outputs_bias_only():
    model = MLPModel(
        w1=np.zeros((4, 3)), b1=np.zeros(4),
        w2=np.zeros((2, 4)), b2=np.array([0.3, -0.2]),
        subject_ids=np.array([1, 2]),
        norm_mean=np.zeros(3), norm_std=np.ones(3),
        config=MLPConfig(hidden=4, epochs=1),
    )
    scores, _ = mlp_scores(model, np.array([[9.0, -2.0, 4.0]]))
    assert scores[0] == pytest.approx(np.tanh([0.3, -0.2]))
    assert mlp_predict(model, np.zeros((1, 3))) == [1]


def test_equal_outputs_tie_to_lowest_subject():
    model = MLPModel(
        w1=np.zeros((2, 2)), b1=np.zeros(2),
        w2=np.zeros((3, 2)), b2=np.zeros(3),
        subject_ids=np.array([2, 4, 9]),
        norm_mean=np.zeros(2), norm_std=np.ones(2),
        config=MLPConfig(hidden=2, epochs=1),
    )
    assert mlp_predict(model, np.ones((2, 2))) == [2, 2]


def test_divergence_raises_with_epoch():
    matrix = np.array([[np.nan, 1.0], [0.0, 1.0]])
    gallery = Gallery(matrix=np.array([[0.0, 1.0], [1.0, 0.0]]), labels=np.array([1, 2]))
    gallery.matrix = matrix  # inject the poison after validation
    with pytest.raises(DivergenceError) as exc_info:
        mlp_train(gallery, MLPConfig(hidden=2, epochs=5))
    assert exc_info.value.epoch == 0


def test_config_validation():
    with pytest.raises(ValueError):
        MLPConfig(hidden=0)
    with pytest.raises(ValueError):
        MLPConfig(gamma=1.5)


def test_training_log_roundtrip(tmp_path):
    curve = np.array([0.5, 0.25, 0.1250001])
    path = tmp_path / "log.csv"
    write_training_log(curve, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["epoch", "loss"]
    assert [int(r[0]) for r in rows[1:]] == [0, 1, 2]
    assert [float(r[1]) for r in rows[1:]] == curve.tolist()
