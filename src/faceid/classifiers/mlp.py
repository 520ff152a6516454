"""Two-layer tanh perceptron trained by scaled conjugate gradient on MSEREG.

One network covers all subjects: each output neuron is trained toward +1 on
its own subject's vectors and -1 on everyone else's. The regularized loss is

    MSEREG = gamma * MSE + (1 - gamma) * (1/n) * sum(w_j^2)

with MSE averaged over examples x outputs and n the total parameter count
(weights and biases). Inputs are z-scored with the gallery statistics stored
on the model. The network's knobs are :class:`~.common.EvalConfig`'s
``hidden``, ``epochs``, ``gamma`` and ``seed``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .common import EvalConfig, Features, finite_scores, make_targets, zscore

SCG_SIGMA = 5e-5
SCG_LAMBDA_INIT = 5e-7
GRAD_TOL = 1e-10

# why SCG stopped
STOP_BUDGET = "epoch budget"
STOP_GRAD_TOL = "grad_tol"
STOP_ZERO_DIRECTION = "zero search direction"
STOP_LAMBDA = "lambda overflow"


class DivergenceError(RuntimeError):
    """Training loss became non-finite."""

    def __init__(self, epoch: int):
        super().__init__(f"training diverged at epoch {epoch}: non-finite loss")
        self.epoch = epoch


@dataclass(eq=False)
class MLPModel:
    w1: np.ndarray            # (hidden, dim)
    b1: np.ndarray            # (hidden,)
    w2: np.ndarray            # (n_out, hidden)
    b2: np.ndarray            # (n_out,)
    subject_ids: np.ndarray   # (n_out,) ascending
    norm_mean: np.ndarray
    norm_std: np.ndarray
    config: EvalConfig
    curve: np.ndarray = field(default_factory=lambda: np.zeros(0))
    # training diagnostics, set by mlp_train and not saved with the model
    stop_reason: str | None = None
    last_lambda: float | None = None

    def __post_init__(self):
        for arr in (self.w1, self.b1, self.w2, self.b2):
            if not np.all(np.isfinite(arr)):
                raise ValueError("model parameters must be finite")
        hidden, dim = self.w1.shape
        if self.b1.shape != (hidden,) or self.w2.shape[1] != hidden:
            raise ValueError("layer shapes are inconsistent")
        if self.b2.shape != (self.w2.shape[0],):
            raise ValueError("output bias shape mismatch")


# ---------------------------------------------------------------------------
# parameter packing and the loss/gradient pair
# ---------------------------------------------------------------------------

@lru_cache(maxsize=16)
def _layout(dim: int, hidden: int, n_out: int):
    """((shape, start, stop) per parameter block, total size) for one network."""
    blocks, pos = [], 0
    for shape in ((hidden, dim), (hidden,), (n_out, hidden), (n_out,)):
        size = math.prod(shape)
        blocks.append((shape, pos, pos + size))
        pos += size
    return tuple(blocks), pos


def pack_params(w1, b1, w2, b2) -> np.ndarray:
    return np.concatenate([a.ravel() for a in (w1, b1, w2, b2)])


def unpack_params(theta: np.ndarray, dim: int, hidden: int, n_out: int):
    blocks, size = _layout(dim, hidden, n_out)
    if theta.size != size:
        raise ValueError("parameter vector length mismatch")
    return tuple(theta[start:stop].reshape(shape) for shape, start, stop in blocks)


def _forward(theta, x, dim, hidden, n_out):
    """Hidden and output activations ``(a1, a2)`` of the batch ``x``."""
    w1, b1, w2, b2 = unpack_params(theta, dim, hidden, n_out)
    a1 = np.tanh(x @ w1.T + b1)
    a2 = np.tanh(a1 @ w2.T + b2)
    return a1, a2


def msereg_loss(theta: np.ndarray, x: np.ndarray, t: np.ndarray,
                gamma: float, hidden: int, forward=None) -> float:
    """MSEREG at ``theta``; ``forward`` is ``_forward``'s ``(a1, a2)`` there, if known."""
    if forward is None:
        forward = _forward(theta, x, x.shape[1], hidden, t.shape[1])
    mse = np.mean((forward[1] - t) ** 2)
    reg = float(theta @ theta) / theta.size
    return float(gamma * mse + (1.0 - gamma) * reg)


def msereg_gradient(theta: np.ndarray, x: np.ndarray, t: np.ndarray,
                    gamma: float, hidden: int, forward=None) -> np.ndarray:
    """Analytic gradient of MSEREG over all weights and biases.

    ``forward`` is ``_forward``'s ``(a1, a2)`` at ``theta``, if known.
    """
    n_ex, dim = x.shape
    n_out = t.shape[1]
    a1, a2 = forward if forward is not None else _forward(theta, x, dim, hidden, n_out)
    w2 = unpack_params(theta, dim, hidden, n_out)[2]
    # d(MSE)/d(pre-activation), layer by layer
    d2 = (2.0 / (n_ex * n_out)) * (a2 - t) * (1.0 - a2 ** 2)
    gw2 = d2.T @ a1
    gb2 = d2.sum(axis=0)
    d1 = (d2 @ w2) * (1.0 - a1 ** 2)
    gw1 = d1.T @ x
    gb1 = d1.sum(axis=0)
    grad = gamma * pack_params(gw1, gb1, gw2, gb2)
    grad += (1.0 - gamma) * (2.0 / theta.size) * theta
    return grad


# ---------------------------------------------------------------------------
# scaled conjugate gradient (Moller's algorithm, full batch)
# ---------------------------------------------------------------------------

def _scg_minimize(theta, loss_fn, grad_fn, max_iters):
    """Returns (theta, curve, stop reason, last lambda).

    ``loss_fn(theta)`` returns the loss and the forward pass it ran, which
    ``grad_fn(theta, forward)`` reuses at an accepted point; ``grad_fn(theta)``
    runs its own. Raises DivergenceError on non-finite loss.
    """
    n = theta.size
    lam = SCG_LAMBDA_INIT
    lam_bar = 0.0
    f, forward = loss_fn(theta)
    if not np.isfinite(f):
        raise DivergenceError(0)
    r = -grad_fn(theta, forward)
    p = r.copy()
    success = True
    curve = [f]
    delta = 1.0
    mu = 0.0
    p_sq = float(p @ p)
    reason = STOP_BUDGET
    for k in range(1, max_iters + 1):
        if success:
            mu = float(p @ r)
            if mu <= 0.0:
                # conjugacy has degraded; restart along steepest descent
                p = r.copy()
                p_sq = float(p @ p)
                mu = p_sq
            if p_sq == 0.0:
                reason = STOP_ZERO_DIRECTION
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
        trial = theta + alpha * p
        f_new, forward = loss_fn(trial)
        if not np.isfinite(f_new):
            raise DivergenceError(k)
        comparison = 2.0 * delta * (f - f_new) / (mu * mu)
        if comparison >= 0.0:
            theta = trial
            f = f_new
            r_new = -grad_fn(theta, forward)
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
            lam_bar = lam
            success = False
        if comparison < 0.25:
            lam += delta * (1.0 - comparison) / p_sq
        curve.append(f)
        if np.sqrt(float(r @ r)) < GRAD_TOL:
            reason = STOP_GRAD_TOL
            break
        if lam > 1e100:
            reason = STOP_LAMBDA   # step sizes have collapsed; no further progress possible
            break
    return theta, np.array(curve), reason, lam


def _init_params(rng: np.random.Generator, dim: int, hidden: int, n_out: int):
    w1 = (rng.uniform(-0.5, 0.5, size=(hidden, dim))) / np.sqrt(dim)
    b1 = (rng.uniform(-0.5, 0.5, size=hidden)) / np.sqrt(dim)
    w2 = (rng.uniform(-0.5, 0.5, size=(n_out, hidden))) / np.sqrt(hidden)
    b2 = (rng.uniform(-0.5, 0.5, size=n_out)) / np.sqrt(hidden)
    return pack_params(w1, b1, w2, b2)


def mlp_train(gallery: Features, cfg: EvalConfig = EvalConfig()) -> MLPModel:
    """Full-batch SCG on z-scored gallery vectors; deterministic per seed."""
    x = gallery.normalized_matrix()
    t = make_targets(gallery)
    dim, n_out = gallery.dim, gallery.subject_ids.size
    rng = np.random.default_rng(cfg.seed)
    theta0 = _init_params(rng, dim, cfg.hidden, n_out)

    def loss_fn(theta):
        forward = _forward(theta, x, dim, cfg.hidden, n_out)
        return msereg_loss(theta, x, t, cfg.gamma, cfg.hidden, forward), forward

    def grad_fn(theta, forward=None):
        return msereg_gradient(theta, x, t, cfg.gamma, cfg.hidden, forward)

    theta, curve, reason, lam = _scg_minimize(theta0, loss_fn, grad_fn, cfg.epochs)
    w1, b1, w2, b2 = unpack_params(theta, dim, cfg.hidden, n_out)
    return MLPModel(w1=w1, b1=b1, w2=w2, b2=b2,
                    subject_ids=gallery.subject_ids.copy(),
                    norm_mean=gallery.mean.copy(), norm_std=gallery.std.copy(),
                    config=cfg, curve=curve, stop_reason=reason, last_lambda=lam)


def mlp_scores(model: MLPModel, probes: np.ndarray) -> np.ndarray:
    """(k, S) tanh outputs in (-1, 1); the probes are z-scored here."""
    z = zscore(probes, model)
    # one mat-vec per probe keeps the bits of a row-by-row `w @ a`
    a1 = np.tanh(np.matmul(model.w1, z[..., None])[..., 0] + model.b1)
    a2 = np.tanh(np.matmul(model.w2, a1[..., None])[..., 0] + model.b2)
    return finite_scores(a2)
