"""A synthetic corpus that does not saturate, every classifier's rate on it,
and the paper's DCT-over-eigenfaces claim on it as a paired test.

On ``synth_corpus`` every NN and eigenfaces row of ``table1`` reads 100, so
no accuracy claim or regression can show there. ``hard_corpus`` adds what
breaks face identification: high-frequency atoms, per-sample atom jitter, an
illumination ramp, a circular shift and more noise. Its body is the recipe
ROADMAP.md writes out, verbatim, so the rates below are that recipe's.
"""

import functools
import math

import numpy as np
import pytest

from faceid.dataset import Corpus, Split
from faceid.evaluation import (
    KERNEL_CLASSIFIERS, MLP_NAME, NN_MAD, NN_MSE, PNN_NAME, RBF_NAME, SPREAD_GRID, EvalConfig,
    Outcome, extract_split_features, run_experiment, sweep_spread,
)
from faceid.transforms import DCT, KLT, ZonalMask


def hard_corpus(seed: int, n_subjects: int, samples: int, rows: int, cols: int) -> Corpus:
    """6 low-frequency atoms plus 6 at frequencies 4-19 per subject; each
    sample jitters the atoms by 1 + N(0, 0.3), takes an illumination ramp
    with gains U(-1, 1), a circular shift of up to 4 px and noise of
    sigma 0.02, and is clipped to [0, 1]. Same seed, same bits."""
    rng = np.random.default_rng(seed)
    m = np.arange(rows)[:, None]
    n = np.arange(cols)[None, :]
    ramp_r = m / max(rows - 1, 1) - 0.5
    ramp_c = n / max(cols - 1, 1) - 0.5
    pixels = np.empty((n_subjects * samples, rows, cols))
    for subject in range(1, n_subjects + 1):
        p = np.concatenate([rng.integers(0, 4, size=6), rng.integers(4, 20, size=6)])
        q = np.concatenate([rng.integers(0, 4, size=6), rng.integers(4, 20, size=6)])
        amps = np.concatenate([rng.uniform(-1.0, 1.0, size=6),
                               rng.uniform(-0.4, 0.4, size=6)])
        atoms = [np.cos(np.pi * (2 * m + 1) * a / (2 * rows))
                 * np.cos(np.pi * (2 * n + 1) * b / (2 * cols)) for a, b in zip(p, q)]
        for sample in range(1, samples + 1):
            jitter = rng.normal(0.0, 0.3, size=12)
            g_r, g_c = rng.uniform(-1.0, 1.0, size=2)
            shift = rng.integers(-4, 5, size=2)
            noise = rng.normal(0.0, 0.02, size=(rows, cols))
            face = 0.5 + 0.2 * sum(a * (1.0 + e) * atom
                                   for a, e, atom in zip(amps, jitter, atoms))
            face = face * (1.0 + g_r * ramp_r + g_c * ramp_c)
            face = np.roll(face, tuple(shift), axis=(0, 1))
            pixels[(subject - 1) * samples + sample - 1] = np.clip(face + noise, 0.0, 1.0)
    return Corpus(pixels, np.repeat(np.arange(1, n_subjects + 1), samples),
                  np.tile(np.arange(1, samples + 1), n_subjects))


# per seed: NN (MAD) and NN (MSE) rates as (DCT rect:10, KLT-100), and the
# MAD probes that only DCT gets right against those that only KLT gets right
PINNED = {
    0: {NN_MAD: (88.5, 78.5), NN_MSE: (84.0, 83.0), "discordant": (29, 9)},
    1: {NN_MAD: (85.5, 80.0), NN_MSE: (75.0, 75.0), "discordant": (22, 11)},
    2: {NN_MAD: (86.5, 84.0), NN_MSE: (78.0, 78.5), "discordant": (11, 6)},
    3: {NN_MAD: (78.5, 81.0), NN_MSE: (76.5, 72.5), "discordant": (11, 16)},
    4: {NN_MAD: (89.5, 83.5), NN_MSE: (84.0, 81.5), "discordant": (19, 7)},
}


# per seed: the MLP's rate (1200 epochs) and the first best (rate, spread)
# of PNN and of RBF over SPREAD_GRID, all on DCT rect:10
PINNED_LEARNERS = {
    0: {MLP_NAME: 93.5, PNN_NAME: (80.5, 1.7), RBF_NAME: (14.5, 2.0)},
    1: {MLP_NAME: 94.0, PNN_NAME: (83.0, 0.1), RBF_NAME: (10.5, 2.0)},
    2: {MLP_NAME: 95.0, PNN_NAME: (73.0, 0.1), RBF_NAME: (9.5, 2.0)},
    3: {MLP_NAME: 93.0, PNN_NAME: (75.0, 0.1), RBF_NAME: (7.0, 1.9)},
    4: {MLP_NAME: 89.0, PNN_NAME: (78.0, 0.1), RBF_NAME: (12.5, 2.0)},
}


@functools.lru_cache(maxsize=None)
def features(seed: int) -> tuple:
    """The (gallery, probes) features of DCT rect:10 and of KLT-100 on the
    ORL-shaped corpus (40 x 10 of 112 x 92), split 5/5."""
    split = Split(hard_corpus(seed, 40, 10, 112, 92), 5)
    return (extract_split_features(split, DCT, mask=ZonalMask.rectangular(10)),
            extract_split_features(split, KLT, dim=100))


@functools.lru_cache(maxsize=None)
def nn_outcomes(seed: int) -> dict:
    """Per NN metric, the outcomes of DCT rect:10 and of KLT-100."""
    return {metric: tuple(run_experiment(metric, gallery, probes)
                          for gallery, probes in features(seed))
            for metric in (NN_MAD, NN_MSE)}


def discordant(a: Outcome, b: Outcome) -> tuple[int, int]:
    """The probes only ``a`` gets right, and those only ``b`` gets right:
    the pairs McNemar's test counts. Both must score the same probes."""
    assert np.array_equal(a.truth, b.truth)
    right_a, right_b = a.truth == a.preds, b.truth == b.preds
    return int(np.count_nonzero(right_a & ~right_b)), int(np.count_nonzero(right_b & ~right_a))


def mcnemar_exact(b: int, c: int) -> float:
    """Two-sided exact McNemar p of b discordant pairs against c: the
    binomial(b + c, 1/2) tail at min(b, c), doubled and capped at 1."""
    n = b + c
    return min(1.0, 2 * sum(math.comb(n, i) for i in range(min(b, c) + 1)) / 2 ** n)


@pytest.mark.parametrize("seed", sorted(PINNED))
def test_hard_corpus_nn_rates_and_discordant_probes(seed):
    outcomes = nn_outcomes(seed)
    for metric in (NN_MAD, NN_MSE):
        assert tuple(run.rate for run in outcomes[metric]) == PINNED[seed][metric], metric
    dct, klt = outcomes[NN_MAD]
    assert dct.truth.size == 200
    assert discordant(dct, klt) == PINNED[seed]["discordant"]


@pytest.mark.parametrize("seed", sorted(PINNED_LEARNERS))
def test_hard_corpus_learner_rates(seed):
    gallery, probes = features(seed)[0]
    cfg = EvalConfig(epochs=1200)
    assert run_experiment(MLP_NAME, gallery, probes, cfg).rate == PINNED_LEARNERS[seed][MLP_NAME]
    for name in KERNEL_CLASSIFIERS:
        best = max(sweep_spread(gallery, probes, name, SPREAD_GRID, cfg), key=lambda pt: pt.rate)
        assert (best.rate, best.param) == PINNED_LEARNERS[seed][name], name


def test_hard_corpus_pooled_mcnemar_favours_dct():
    # DCT loses on seed 3, so the claim is pinned pooled, not per seed
    counts = [discordant(*nn_outcomes(seed)[NN_MAD]) for seed in PINNED]
    dct_only = sum(b for b, _ in counts)
    klt_only = sum(c for _, c in counts)
    assert (dct_only, klt_only) == (92, 49)
    assert f"{mcnemar_exact(dct_only, klt_only):.1e}" == "3.7e-04"


def test_mcnemar_exact_small_cases():
    assert mcnemar_exact(0, 0) == 1.0
    assert mcnemar_exact(3, 3) == 1.0
    # 5 vs 0: 2 * (1/2)^5
    assert mcnemar_exact(5, 0) == mcnemar_exact(0, 5) == 2 / 32
