"""Experiment protocols: rates, dimension/spread sweeps, histograms, summary table.

The fixed protocol throughout is closed-set identification: every probe is
scored against all gallery models and the top subject is the answer. Sweeps
cache each image's full transform once and only re-apply masks per grid
point.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .dataset import Corpus, Split, split_first_k
from .transforms import (
    DCT, LOGDFT, KLT, TRANSFORMS,
    MODULUS, RECTANGULAR, SECTORIAL,
    CoeffMatrix, FeatureVector, ZonalMask,
    extract_features,
)
from .eigenfaces import attainable_rank, train_eigenbasis, project
from .classifiers import (
    Gallery, MAD, MSE,
    MLPConfig, mlp_train, mlp_scores,
    pnn_train, pnn_classify,
    rbf_train, rbf_scores,
    nn_scores,
)
from .fusion import MINMAX, fuse_mean, normalize_scores

DEFAULT_SPREAD = 0.9
SPREAD_GRID = tuple(round(0.1 * i, 1) for i in range(1, 21))
DEFAULT_MASK_SIDE = 10
TRAIN_SAMPLES = 5

NN_MAD = "nn:mad"
NN_MSE = "nn:mse"
MLP_NAME = "mlp"
PNN_NAME = "pnn"
RBF_NAME = "rbf"
BASE_CLASSIFIERS = (NN_MAD, NN_MSE, MLP_NAME, PNN_NAME, RBF_NAME)


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class ExperimentResult:
    config: dict
    pairs: list          # (true, predicted) per probe, in probe order
    probe_tags: list     # printable probe identifiers, aligned with pairs
    rate: float
    runtime: float


def identification_rate(pairs: Sequence[tuple[int, int]]) -> float:
    """Percentage of probes whose predicted subject equals the true one."""
    if len(pairs) == 0:
        raise ValueError("identification rate needs at least one probe")
    correct = sum(1 for true_id, pred_id in pairs if true_id == pred_id)
    return 100.0 * correct / len(pairs)


# ---------------------------------------------------------------------------
# feature extraction pipelines
# ---------------------------------------------------------------------------

def transform_corpus(images: Sequence, kind: str, log_offset: float = 1e-4) -> list[CoeffMatrix]:
    """Full (unmasked) transform of every image, cached for re-masking."""
    if kind not in TRANSFORMS:
        raise ValueError(f"unknown transform kind {kind!r}")
    fn = TRANSFORMS[kind]
    if kind == LOGDFT:
        return [fn(img, offset=log_offset) for img in images]
    return [fn(img) for img in images]


def mask_features(coeffs: Sequence[CoeffMatrix], mask: ZonalMask,
                  complex_mode: str = MODULUS, r_low: float = 0.0) -> list[FeatureVector]:
    return [extract_features(c, mask, complex_mode=complex_mode, r_low=r_low)
            for c in coeffs]


def extract_split_features(split: Split, kind: str, *,
                           mask: ZonalMask | None = None,
                           dim: int | None = None,
                           complex_mode: str = MODULUS,
                           r_low: float = 0.0,
                           log_offset: float = 1e-4,
                           ) -> tuple[list[FeatureVector], list[FeatureVector]]:
    """Gallery and probe feature lists for one transform configuration.

    Transform-domain kinds need a zonal mask; the eigenface kind needs a
    component count instead (clamped by callers, exact here).
    """
    if kind == KLT:
        if dim is None:
            raise ValueError("klt extraction requires dim")
        basis = train_eigenbasis(split.gallery, dim)
        return ([project(img, basis) for img in split.gallery],
                [project(img, basis) for img in split.probes])
    if mask is None:
        raise ValueError(f"{kind} extraction requires a zonal mask")
    gal = mask_features(transform_corpus(split.gallery, kind, log_offset),
                        mask, complex_mode, r_low)
    probes = mask_features(transform_corpus(split.probes, kind, log_offset),
                           mask, complex_mode, r_low)
    return gal, probes


def _probe_tag(fv: FeatureVector, index: int) -> str:
    if fv.label is not None and fv.sample_id is not None:
        return f"s{fv.label}_{fv.sample_id}"
    return str(index)


# ---------------------------------------------------------------------------
# classifier runners
# ---------------------------------------------------------------------------

def parse_classifier_spec(spec: str) -> list[str]:
    """'nn:mad' -> ['nn:mad']; 'fusion:rbf+nn:mad' -> ['rbf', 'nn:mad']."""
    spec = spec.strip().lower()
    if spec.startswith("fusion:"):
        parts = [p for p in spec[len("fusion:"):].split("+") if p]
        if len(parts) < 1:
            raise ValueError("fusion spec lists no classifiers")
        for p in parts:
            if p not in BASE_CLASSIFIERS:
                raise ValueError(f"unknown classifier {p!r} in fusion spec")
        return parts
    if spec not in BASE_CLASSIFIERS:
        raise ValueError(f"unknown classifier spec {spec!r}")
    return [spec]


@dataclass
class EvalConfig:
    """Knobs shared by the classifier runners; defaults follow the protocol."""
    seed: int = 0
    epochs: int = 15000
    hidden: int = 40
    gamma: float = 0.9
    spread: float = DEFAULT_SPREAD
    max_centers: int = 100
    fusion_mode: str = MINMAX


def _member_scores(name: str, gallery: Gallery, probes: np.ndarray,
                   cfg: EvalConfig, models: dict) -> tuple[np.ndarray, str]:
    """Train one base classifier (if it learns) into ``models``, then score."""
    if name in (NN_MAD, NN_MSE):
        return nn_scores(probes, gallery, MAD if name == NN_MAD else MSE)
    if name == MLP_NAME:
        model = mlp_train(gallery, MLPConfig(hidden=cfg.hidden, epochs=cfg.epochs,
                                             gamma=cfg.gamma, seed=cfg.seed))
        models[name] = model
        return mlp_scores(model, probes)
    if name == PNN_NAME:
        model = pnn_train(gallery, cfg.spread)
        models[name] = model
        return pnn_classify(model, probes)
    if name == RBF_NAME:
        model = rbf_train(gallery, cfg.spread, min(cfg.max_centers, gallery.size))
        models[name] = model
        return rbf_scores(model, probes)
    raise ValueError(f"unknown classifier spec {name!r}")


def identify(parts: Sequence[str], gallery: Gallery, probes: np.ndarray,
             cfg: EvalConfig | None = None, models: dict | None = None,
             ) -> tuple[np.ndarray, np.ndarray]:
    """The one decision rule: normalize each member's (k, S) scores row-wise,
    take their mean, and answer each probe's arg-max subject (lowest id on
    ties). Returns (predicted ids, fused matrix); trained models land in
    ``models`` when given.
    """
    cfg = cfg if cfg is not None else EvalConfig()
    models = models if models is not None else {}
    opinions = [normalize_scores(*_member_scores(name, gallery, probes, cfg, models),
                                 cfg.fusion_mode)
                for name in parts]
    return fuse_mean(opinions, gallery.subject_ids)


def run_experiment(spec: str, gallery_feats: Sequence[FeatureVector],
                   probe_feats: Sequence[FeatureVector],
                   cfg: EvalConfig | None = None,
                   extra_config: dict | None = None,
                   artifacts: dict | None = None) -> ExperimentResult:
    """Closed-set identification of every probe under one classifier spec.

    When given a dict, ``artifacts`` receives the trained models keyed by
    classifier name and, for fused runs, the per-probe fusion report rows.
    """
    cfg = cfg if cfg is not None else EvalConfig()
    parts = parse_classifier_spec(spec)
    gallery = Gallery.from_features(gallery_feats)
    if any(fv.label is None for fv in probe_feats):
        raise ValueError("probe feature vectors must carry subject labels")
    start = time.perf_counter()
    probes = np.stack([fv.coeffs for fv in probe_feats])
    tags = [_probe_tag(fv, i) for i, fv in enumerate(probe_feats)]
    models: dict = {}
    preds, fused = identify(parts, gallery, probes, cfg, models)
    truth = [int(fv.label) for fv in probe_feats]
    if artifacts is not None:
        artifacts["models"] = models
        if len(parts) > 1:
            artifacts["fusion_rows"] = [
                (tag, true_id, int(pred), float(top))
                for tag, true_id, pred, top in zip(tags, truth, preds, fused.max(axis=1))]
    runtime = time.perf_counter() - start
    pairs = [(true_id, int(p)) for true_id, p in zip(truth, preds)]
    config = {"classifier": spec, "dim": gallery.dim,
              "n_gallery": gallery.size, "n_probes": len(probe_feats)}
    if extra_config:
        config.update(extra_config)
    return ExperimentResult(config=config, pairs=pairs, probe_tags=tags,
                            rate=identification_rate(pairs), runtime=runtime)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

@dataclass
class SweepPoint:
    param: float     # grid value: mask side, sector radius, dim, or spread
    dim: int
    rate: float


def default_dim_grid(kind: str, rows: int, cols: int, n_gallery: int) -> list:
    """Mask sides / radii / component counts covering the interesting range."""
    if kind == KLT:
        top = min(n_gallery - 1, 200)
        grid = [d for d in (5, 10, 20, 30, 50, 75, 100, 150, 200) if d <= top]
        return grid if grid else [top]
    limit = min(rows, cols, 30)
    return list(range(1, limit + 1))


def sweep_dimension(split: Split, kind: str, mask_shape: str = RECTANGULAR,
                    grid: Sequence | None = None, metric: str = MAD, *,
                    complex_mode: str = MODULUS, r_low: float = 0.0,
                    log_offset: float = 1e-4) -> list[SweepPoint]:
    """Nearest-neighbor identification rate as the retained-coefficient
    count grows.

    One point per grid entry, grid sorted ascending. Transform-domain kinds
    interpret the grid as mask sides (rectangular) or radii (sectorial);
    the eigenface kind interprets it as component counts and slices one
    full-rank projection instead of retraining per point.
    """
    rows, cols = split.gallery[0].shape
    if grid is None:
        grid = default_dim_grid(kind, rows, cols, len(split.gallery))
    grid = sorted(grid)
    if len(grid) == 0:
        raise ValueError("sweep grid is empty")
    points = []
    if kind == KLT:
        top = int(max(grid))
        rank = attainable_rank(split.gallery)
        if top > rank:
            raise ValueError(f"grid maximum {top} exceeds attainable rank {rank}")
        basis = train_eigenbasis(split.gallery, top)
        gal_full = np.stack([project(img, basis).coeffs for img in split.gallery])
        probe_full = np.stack([project(img, basis).coeffs for img in split.probes])
        gal_labels = np.array([img.subject_id for img in split.gallery])
        probe_labels = np.array([img.subject_id for img in split.probes])
        for d in grid:
            d = int(d)
            gallery = Gallery(gal_full[:, :d], gal_labels)
            preds, _ = identify([f"nn:{metric}"], gallery, probe_full[:, :d])
            rate = identification_rate(list(zip(probe_labels, preds)))
            points.append(SweepPoint(param=float(d), dim=d, rate=rate))
        return points
    gal_coeffs = transform_corpus(split.gallery, kind, log_offset)
    probe_coeffs = transform_corpus(split.probes, kind, log_offset)
    gal_labels = np.array([img.subject_id for img in split.gallery])
    probe_labels = np.array([img.subject_id for img in split.probes])
    for value in grid:
        if mask_shape == RECTANGULAR:
            mask = ZonalMask.rectangular(int(value))
        elif mask_shape == SECTORIAL:
            mask = ZonalMask.sectorial(float(value))
        else:
            raise ValueError(f"unknown mask shape {mask_shape!r}")
        gal = mask_features(gal_coeffs, mask, complex_mode, r_low)
        probes = mask_features(probe_coeffs, mask, complex_mode, r_low)
        gallery = Gallery(np.stack([fv.coeffs for fv in gal]), gal_labels)
        preds, _ = identify([f"nn:{metric}"], gallery,
                            np.stack([fv.coeffs for fv in probes]))
        rate = identification_rate(list(zip(probe_labels, preds)))
        points.append(SweepPoint(param=float(value), dim=gal[0].dim, rate=rate))
    return points


def sweep_spread(gallery_feats: Sequence[FeatureVector],
                 probe_feats: Sequence[FeatureVector], classifier: str,
                 spreads: Sequence[float] = SPREAD_GRID,
                 cfg: EvalConfig | None = None) -> list[SweepPoint]:
    """Identification rate per spread value for the kernel classifiers."""
    if classifier not in (PNN_NAME, RBF_NAME):
        raise ValueError("spread sweeps apply to pnn or rbf only")
    spreads = sorted(spreads)
    if len(spreads) == 0:
        raise ValueError("sweep grid is empty")
    if any(s <= 0 for s in spreads):
        raise ValueError("spreads must be positive")
    base = cfg if cfg is not None else EvalConfig()
    points = []
    for spread in spreads:
        run_cfg = replace(base, spread=float(spread))
        result = run_experiment(classifier, gallery_feats, probe_feats, run_cfg)
        points.append(SweepPoint(param=float(spread),
                                 dim=len(gallery_feats[0].coeffs),
                                 rate=result.rate))
    return points


# ---------------------------------------------------------------------------
# genuine / impostor histograms
# ---------------------------------------------------------------------------

@dataclass
class GaussianFit:
    mean: float
    std: float


@dataclass(eq=False)
class HistogramPair:
    intra: np.ndarray
    inter: np.ndarray
    intra_fit: GaussianFit | None
    inter_fit: GaussianFit | None
    bin_edges: np.ndarray
    intra_counts: np.ndarray
    inter_counts: np.ndarray


def _moment_fit(values: np.ndarray) -> GaussianFit | None:
    if values.size == 0:
        return None
    return GaussianFit(mean=float(values.mean()), std=float(values.std()))


def distance_histograms(matrix: np.ndarray, probe_labels: Sequence[int],
                        column_labels: Sequence[int], bins: int = 40) -> HistogramPair:
    """Split probe-vs-model comparisons by label match and fit each side.

    Works for distance matrices (columns = gallery vectors) and network
    output matrices (columns = subjects) alike; only the label geometry
    matters. Gaussian fits are method-of-moments.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.size == 0:
        raise ValueError("comparison matrix must be nonempty and 2-D")
    probe_labels = np.asarray(probe_labels)
    column_labels = np.asarray(column_labels)
    if probe_labels.shape != (matrix.shape[0],) or column_labels.shape != (matrix.shape[1],):
        raise ValueError("label lengths must match the matrix")
    genuine = probe_labels[:, None] == column_labels[None, :]
    intra = matrix[genuine]
    inter = matrix[~genuine]
    edges = np.histogram_bin_edges(matrix.ravel(), bins=bins)
    intra_counts, _ = np.histogram(intra, bins=edges)
    inter_counts, _ = np.histogram(inter, bins=edges)
    return HistogramPair(intra=intra, inter=inter,
                         intra_fit=_moment_fit(intra), inter_fit=_moment_fit(inter),
                         bin_edges=edges, intra_counts=intra_counts,
                         inter_counts=inter_counts)


# ---------------------------------------------------------------------------
# summary table
# ---------------------------------------------------------------------------

@dataclass
class TableRow:
    key: str          # machine name, e.g. "nn:mad" or "fusion:rbf+nn:mad"
    feature: str      # "dct" or "eigenfaces"
    dim: int
    classifier: str   # display label
    paper_rate: float
    measured_rate: float


TABLE_TARGETS = (
    ("eigenfaces", 200, "nn:mad", "NN (MAD)", 86.5),
    ("eigenfaces", 200, "nn:mse", "NN (MSE)", 78.0),
    ("eigenfaces", 100, "nn:mad", "NN (MAD)", 78.5),
    ("eigenfaces", 100, "nn:mse", "NN (MSE)", 75.5),
    ("dct", 100, "nn:mad", "NN (MAD)", 92.5),
    ("dct", 100, "nn:mse", "NN (MSE)", 91.0),
    ("dct", 100, "mlp", "MLP", 95.0),
    ("dct", 100, "rbf", "RBF", 96.0),
    ("dct", 100, "pnn", "PNN", 91.0),
    ("dct", 100, "fusion:rbf+nn:mad", "RBF+NN (MAD)", 96.5),
)


def table1_report(corpus: Corpus, cfg: EvalConfig | None = None,
                  rows_filter: str | None = None,
                  spreads: Sequence[float] = SPREAD_GRID) -> list[TableRow]:
    """Reference-comparison table: every benchmark row, paper vs measured.

    Kernel-classifier rows (PNN, RBF, fusion) report their best rate over
    the spread grid, matching how the reference numbers were quoted. Vector
    dimensions clamp to what the corpus actually supports so small synthetic
    corpora can exercise the full path.
    """
    cfg = cfg if cfg is not None else EvalConfig()
    k = min(TRAIN_SAMPLES, corpus.samples_per_subject - 1)
    split = split_first_k(corpus, k)
    rows, cols = split.gallery[0].shape
    side = min(DEFAULT_MASK_SIDE, rows, cols)
    mask = ZonalMask.rectangular(side)
    dct_gal, dct_probes = extract_split_features(split, DCT, mask=mask)
    dct_dim = dct_gal[0].dim
    rank = attainable_rank(split.gallery)
    klt_dims = {200: min(200, rank), 100: min(100, rank)}

    klt_feats = {}
    for want, actual in klt_dims.items():
        if actual not in klt_feats:
            klt_feats[actual] = extract_split_features(split, KLT, dim=actual)

    best_spread = {}
    for name in (PNN_NAME, RBF_NAME):
        curve = sweep_spread(dct_gal, dct_probes, name, spreads, cfg)
        best = max(curve, key=lambda pt: pt.rate)
        best_spread[name] = (best.param, best.rate)

    out = []
    for feature, want_dim, key, label, paper_rate in TABLE_TARGETS:
        if rows_filter is not None and not key.startswith(rows_filter.lower()):
            continue
        if feature == "eigenfaces":
            actual = klt_dims[want_dim]
            gal, probes = klt_feats[actual]
            rate = run_experiment(key, gal, probes, cfg).rate
            dim = actual
        else:
            dim = dct_dim
            if key in (PNN_NAME, RBF_NAME):
                rate = best_spread[key][1]
            elif key.startswith("fusion:"):
                run_cfg = replace(cfg, spread=best_spread[RBF_NAME][0])
                rate = run_experiment(key, dct_gal, dct_probes, run_cfg).rate
            else:
                rate = run_experiment(key, dct_gal, dct_probes, cfg).rate
        out.append(TableRow(key=key, feature=feature, dim=dim, classifier=label,
                            paper_rate=paper_rate, measured_rate=rate))
    return out


def format_table(rows: Sequence[TableRow]) -> str:
    header = f"{'feature':<12} {'dim':>4} {'classifier':<14} {'paper':>6} {'measured':>9}"
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(f"{r.feature:<12} {r.dim:>4} {r.classifier:<14} "
                     f"{r.paper_rate:>6.1f} {r.measured_rate:>9.1f}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------

def write_manifest(config: dict, path: str | Path) -> None:
    """Deterministic JSON run description (no timestamps, sorted keys)."""
    with open(path, "w") as fh:
        json.dump(config, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_result_csv(result: ExperimentResult, path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["probe", "subject_true", "subject_pred"])
        for tag, (true_id, pred_id) in zip(result.probe_tags, result.pairs):
            writer.writerow([tag, true_id, pred_id])


def write_curve_csv(points: Sequence[SweepPoint], path: str | Path,
                    param_name: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([param_name, "dim", "rate"])
        for pt in points:
            writer.writerow([repr(pt.param), pt.dim, repr(pt.rate)])


def write_table_csv(rows: Sequence[TableRow], path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["feature", "dim", "classifier", "paper_rate",
                         "measured_rate"])
        for r in rows:
            writer.writerow([r.feature, r.dim, r.classifier,
                             f"{r.paper_rate:.1f}", f"{r.measured_rate:.1f}"])


def write_histogram_csv(hist: HistogramPair, path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bin_left", "bin_right", "intra_count", "inter_count"])
        for i in range(hist.intra_counts.size):
            writer.writerow([repr(float(hist.bin_edges[i])),
                             repr(float(hist.bin_edges[i + 1])),
                             int(hist.intra_counts[i]),
                             int(hist.inter_counts[i])])
