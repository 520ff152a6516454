"""Shared fixtures: synthetic corpora, feature sets, and ORL discovery."""

from __future__ import annotations

import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from faceid.classifiers import EvalConfig, Features, MLPModel, PNNModel, RBFModel
from faceid.classifiers.mlp import GRAD_TOL
from faceid.dataset import Split, load_orl, synth_corpus, write_pgm
from faceid.evaluation import (
    FORMAT_VERSION, MLP_NAME, PNN_NAME, RBF_NAME, extract_split_features,
)
from faceid.fusion import MINMAX, ZSCORE
from faceid.transforms import DCT, ZonalMask

ORL_ENV = "FACEID_ORL_DIR"
ORL_DEFAULT = Path("data/orl")


def orl_root() -> Path | None:
    env = os.environ.get(ORL_ENV)
    if env and Path(env).is_dir():
        return Path(env)
    if (ORL_DEFAULT / "s1").is_dir():
        return ORL_DEFAULT
    return None


@pytest.fixture(scope="session")
def orl():
    root = orl_root()
    if root is None:
        pytest.skip(f"ORL dataset not present (set ${ORL_ENV} or unpack "
                    f"under {ORL_DEFAULT})")
    return load_orl(root)


@pytest.fixture(scope="session")
def small_corpus():
    return synth_corpus(seed=11, n_subjects=8, samples=6, rows=24, cols=20)


@pytest.fixture(scope="session")
def small_split(small_corpus):
    return Split(small_corpus, 3)


@pytest.fixture(scope="session")
def orl_split():
    """ORL-shaped synthetic split: 40 subjects x 10 images of 112 x 92, 5/5."""
    return Split(synth_corpus(seed=0, n_subjects=40, samples=10,
                              rows=112, cols=92), 5)


@pytest.fixture(scope="session")
def dct_features(small_split):
    """(gallery, probes) DCT rect:5 feature lists over the synthetic split."""
    return extract_split_features(small_split, DCT, mask=ZonalMask.rectangular(5))


@pytest.fixture()
def pgm_tree(tmp_path):
    """Synthetic corpus laid out as s<N>/<k>.pgm under a temp root."""
    corpus = synth_corpus(seed=4, n_subjects=5, samples=6, rows=16, cols=14)
    for im in corpus.images:
        d = tmp_path / f"s{im.subject_id}"
        d.mkdir(exist_ok=True)
        write_pgm(im, d / f"{im.sample_id}.pgm")
    return tmp_path, corpus


@pytest.fixture()
def peak_bytes():
    """Measure the peak bytes a call allocates, as tracemalloc sees them
    (numpy reports its array buffers to it)."""
    def measure(fn, *args, **kwargs):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            fn(*args, **kwargs)
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
    return measure


# Frozen copy of the score normalisation from when every scorer returned a
# polarity with its matrix and nearest neighbor reported bare distances
# (lower is better): the oracle the higher-is-better contract must match bit
# for bit.
FROZEN_HIGHER = "higher"
FROZEN_LOWER = "lower"


def frozen_normalize_scores(scores, polarity, mode=MINMAX):
    vals = np.array(scores, dtype=np.float64)
    if vals.ndim != 2 or vals.shape[1] < 2:
        raise ValueError("normalization needs a (k, S) matrix of at least 2 subjects")
    if not np.all(np.isfinite(vals)):
        raise ValueError("raw scores must all be finite")
    if polarity == FROZEN_LOWER:
        vals = -vals
    elif polarity != FROZEN_HIGHER:
        raise ValueError(f"polarity must be {FROZEN_HIGHER!r} or {FROZEN_LOWER!r}")
    if mode == MINMAX:
        center = vals.min(axis=1, keepdims=True)
        scale = vals.max(axis=1, keepdims=True) - center
    elif mode == ZSCORE:
        center = vals.mean(axis=1, keepdims=True)
        scale = vals.std(axis=1, keepdims=True)
    else:
        raise ValueError(f"mode must be one of {(MINMAX, ZSCORE)}")
    flat = scale[:, 0] == 0.0
    scaled = (vals - center) / np.where(flat[:, None], 1.0, scale)
    scaled[flat] = 0.5
    return scaled


def corpus_pixels(corpus) -> np.ndarray:
    """A corpus's whole (n, R, C) float stack, its levels over its maxvals:
    the oracle's view of the pixels, which the program never builds at once."""
    return corpus.levels / corpus.maxval[:, None, None]


def gallery_of(matrix, labels) -> Features:
    """Training features from bare rows and their subject ids; the sample ids
    number the rows."""
    return Features(matrix, labels, np.arange(len(labels)), "test")


def compared(record) -> dict:
    """A sweep point's or table row's fields with its rate, its arrays as
    lists: records hold arrays, so ``==`` on them is identity."""
    return {**vars(record), "truth": record.truth.tolist(), "preds": record.preds.tolist(),
            "rate": record.rate}


def read_features_csv(path) -> Features:
    """Read back the features ``write_features_csv`` wrote (the oracle of its
    round trip), refusing rows whose ids or dims do not parse."""
    lines = Path(path).read_text().splitlines()
    if not lines or not lines[0].startswith("subject,sample,source,dim,"):
        raise ValueError(f"{path}: not a feature CSV")
    labels, samples, sources, rows = [], [], set(), []
    for ln, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        subject, sample, source, dim, *coeffs = line.split(",")
        try:
            labels.append(int(subject))
            samples.append(int(sample))
        except ValueError:
            raise ValueError(f"{path}:{ln}: subject {subject!r} and sample "
                             f"{sample!r} must be integers") from None
        if len(coeffs) != int(dim):
            raise ValueError(f"{path}:{ln}: dim field {dim} != {len(coeffs)} coefficients")
        if rows and len(coeffs) != len(rows[0]):
            raise ValueError(f"{path}:{ln}: mixed dims {len(rows[0])} and {len(coeffs)}")
        sources.add(source)
        rows.append([float(c) for c in coeffs])
    if not rows:
        raise ValueError(f"{path}: no feature rows")
    if len(sources) != 1:
        raise ValueError(f"{path}: mixed sources {sorted(sources)}")
    return Features(np.array(rows), labels, samples, sources.pop())



def read_model(path) -> MLPModel | PNNModel | RBFModel:
    """Read back a model ``save_model`` wrote (the oracle of its bit-exact
    round trip), refusing any format version but the current one."""
    with np.load(path) as data:
        version = int(data["format_version"])
        if version != FORMAT_VERSION:
            raise ValueError(f"unsupported model format version {version}")
        kind = str(data["kind"])
        common = dict(subject_ids=data["subject_ids"],
                      norm_mean=data["norm_mean"], norm_std=data["norm_std"])
        if kind == MLP_NAME:
            hidden, epochs, gamma, seed, grad_tol = data["config"].tolist()
            if grad_tol != GRAD_TOL:
                raise ValueError(f"model trained with grad_tol {grad_tol}, not {GRAD_TOL}")
            cfg = EvalConfig(hidden=int(hidden), epochs=int(epochs), gamma=gamma,
                             seed=int(seed))
            return MLPModel(w1=data["w1"], b1=data["b1"], w2=data["w2"], b2=data["b2"],
                            config=cfg, curve=data["curve"], **common)
        if kind == PNN_NAME:
            return PNNModel(centers=data["centers"], labels=data["labels"],
                            spread=float(data["spread"]), **common)
        if kind == RBF_NAME:
            return RBFModel(centers=data["centers"], spread=float(data["spread"]),
                            weights=data["weights"], biases=data["biases"],
                            center_indices=data["center_indices"],
                            residuals=data["residuals"], **common)
    raise ValueError(f"unknown classifier kind {kind!r}")
