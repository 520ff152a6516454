"""Experiment protocols: rates, dimension/spread sweeps, summary table.

The fixed protocol throughout is closed-set identification: every probe is
scored against all gallery models and the top subject is the answer.
Transform-domain features come from one coefficient stack per corpus: each
image is transformed once, only the leading block its masks reach is kept,
and each mask (in a dimension sweep, each mask's new band) is one gather
over that stack. Eigenface features come from one basis fit per gallery.
Each split half's features travel as one labelled
:class:`~faceid.transforms.Features` matrix, from extraction to the
gallery and the probe block.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .dataset import Corpus, Split, split_first_k
from .transforms import (
    DCT, KLT, MODULUS, RECTANGULAR,
    Features, ZonalMask,
    mask_features, transform_corpus, zone_keeps,
)
from .eigenfaces import train_eigenbasis, project
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
    pairs: list          # (true, predicted) per probe, in probe order
    probe_tags: list     # printable probe identifiers, aligned with pairs
    rate: float


def identification_rate(pairs: Sequence[tuple[int, int]]) -> float:
    """Percentage of probes whose predicted subject equals the true one."""
    if len(pairs) == 0:
        raise ValueError("identification rate needs at least one probe")
    correct = sum(1 for true_id, pred_id in pairs if true_id == pred_id)
    return 100.0 * correct / len(pairs)


# ---------------------------------------------------------------------------
# feature extraction pipelines
# ---------------------------------------------------------------------------

def _bands(split: Split, kind: str, steps: Sequence, *,
           complex_mode: str = MODULUS, r_low: float = 0.0,
           log_offset: float = 1e-4, clamp: bool = False):
    """The one path from a split to its features: per step of an ascending
    chain (zonal masks, or KLT component counts), the (gallery, probe)
    matrices of the band it adds to the step before. Every mask and the rank
    are checked before the first band is returned."""
    if kind == KLT:
        halves = split.halves(split.corpus.pixels)
        basis = train_eigenbasis(halves[0], steps[-1], clamp=clamp)
        weights = [project(half, basis) for half in halves]
        dims = [min(step, basis.n_components) for step in steps]
        return ([w[:, lo:hi] for w in weights] for lo, hi in zip([0, *dims], dims))
    keeps = zone_keeps(steps, split.corpus.pixels.shape[1:], r_low)
    stack = transform_corpus(split.corpus.pixels, kind, keeps[0].shape, log_offset)
    kept = [np.zeros_like(keeps[0]), *keeps[:-1]]
    return (_split_rows(split, mask_features(stack, keep & ~prev, complex_mode))
            for keep, prev in zip(keeps, kept))


def _split_rows(split: Split, per_image: np.ndarray) -> list[np.ndarray]:
    """Gallery and probe rows of a per-image array, each flattened to (n, ...)."""
    return [half.reshape(half.shape[0] * half.shape[1], *per_image.shape[1:])
            for half in split.halves(per_image)]


def extract_split_features(split: Split, kind: str, *,
                           mask: ZonalMask | None = None,
                           dim: int | None = None,
                           complex_mode: str = MODULUS,
                           r_low: float = 0.0,
                           log_offset: float = 1e-4,
                           clamp: bool = False,
                           ) -> tuple[Features, Features]:
    """Gallery and probe features for one transform configuration.

    Transform-domain kinds need a zonal mask; the eigenface kind needs a
    component count instead, which ``clamp`` lowers to the gallery's rank
    where that is smaller.
    """
    step = dim if kind == KLT else mask
    if step is None:
        raise ValueError(f"{kind} extraction requires "
                         f"{'dim' if kind == KLT else 'a zonal mask'}")
    (matrices,) = _bands(split, kind, [step], complex_mode=complex_mode,
                         r_low=r_low, log_offset=log_offset, clamp=clamp)
    ids = zip(_split_rows(split, split.corpus.subject_ids),
              _split_rows(split, split.corpus.sample_ids))
    return tuple(Features(m, labels, samples, kind)
                 for m, (labels, samples) in zip(matrices, ids))


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


def decide(member_scores: Sequence[tuple[np.ndarray, str]], subject_ids: np.ndarray,
           mode: str = MINMAX) -> tuple[np.ndarray, np.ndarray]:
    """The one decision rule: normalize each member's (k, S) scores row-wise,
    take their mean, and answer each probe's arg-max subject (lowest id on
    ties). Returns (predicted ids, fused matrix).
    """
    return fuse_mean([normalize_scores(scores, polarity, mode)
                      for scores, polarity in member_scores], subject_ids)


def identify(parts: Sequence[str], gallery: Gallery, probes: np.ndarray,
             cfg: EvalConfig | None = None, models: dict | None = None,
             ) -> tuple[np.ndarray, np.ndarray]:
    """Score a probe block with each member classifier (training those that
    learn) and :func:`decide`. Returns (predicted ids, fused matrix); trained
    models land in ``models`` when given.
    """
    cfg = cfg if cfg is not None else EvalConfig()
    models = models if models is not None else {}
    return decide([_member_scores(name, gallery, probes, cfg, models) for name in parts],
                  gallery.subject_ids, cfg.fusion_mode)


def run_experiment(spec: str, gallery_feats: Features, probe_feats: Features,
                   cfg: EvalConfig | None = None,
                   artifacts: dict | None = None) -> ExperimentResult:
    """Closed-set identification of every probe under one classifier spec.

    When given a dict, ``artifacts`` receives the trained models keyed by
    classifier name and, for fused runs, the per-probe fusion report rows.
    """
    cfg = cfg if cfg is not None else EvalConfig()
    parts = parse_classifier_spec(spec)
    gallery = Gallery(gallery_feats.matrix, gallery_feats.labels)
    tags = [f"s{label}_{sample}" for label, sample in
            zip(probe_feats.labels.tolist(), probe_feats.sample_ids.tolist())]
    models: dict = {}
    preds, fused = identify(parts, gallery, probe_feats.matrix, cfg, models)
    truth = probe_feats.labels.tolist()
    if artifacts is not None:
        artifacts["models"] = models
        if len(parts) > 1:
            artifacts["fusion_rows"] = [
                (tag, true_id, int(pred), float(top))
                for tag, true_id, pred, top in zip(tags, truth, preds, fused.max(axis=1))]
    pairs = [(true_id, int(p)) for true_id, p in zip(truth, preds)]
    return ExperimentResult(pairs=pairs, probe_tags=tags, rate=identification_rate(pairs))


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

@dataclass
class SweepPoint:
    param: float     # grid value: mask side, sector radius, dim, or spread
    dim: int
    rate: float


def _sorted_grid(grid: Sequence) -> list:
    """The grid ascending; empty grids and repeated values are refused."""
    grid = sorted(grid)
    if len(grid) == 0:
        raise ValueError("sweep grid is empty")
    if len(set(grid)) != len(grid):
        raise ValueError(f"sweep grid repeats a value: {grid}")
    return grid


def _spread_grid(spreads: Sequence[float]) -> list[float]:
    spreads = _sorted_grid(spreads)
    if spreads[0] <= 0:
        raise ValueError("spreads must be positive")
    return spreads


def default_dim_grid(kind: str, rows: int, cols: int, n_gallery: int, *,
                     mask_shape: str = RECTANGULAR, r_low: float = 0.0) -> list:
    """Mask sides / radii / component counts covering the interesting range.

    Mask grids start at the first side or radius whose mask keeps a
    coefficient beyond ``r_low``. The largest mask stays in the grid even
    when it keeps none, so that such an ``r_low`` is refused as usual.
    """
    if kind == KLT:
        top = min(n_gallery - 1, 200)
        grid = [d for d in (5, 10, 20, 30, 50, 75, 100, 150, 200) if d <= top]
        return grid if grid else [top]
    grid = list(range(1, min(rows, cols, 30) + 1))
    if r_low > 0.0:
        # a sector of radius r_low holds exactly the coefficients r_low drops
        dropped = ZonalMask.sectorial(r_low).keep(rows, cols)
        grid = [value for value in grid if
                (ZonalMask(mask_shape, value).keep(rows, cols) & ~dropped).any()] or grid[-1:]
    return grid


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

    An ascending grid gives nested zones: each point keeps the previous
    point's coefficients plus a band (the new mask positions, or the next
    eigenface columns). Each point gathers only its band and adds the band's
    distances to one running (probes, gallery) distance matrix, so the
    distance work is one pass over the largest zone.
    """
    rows, cols = split.corpus.pixels.shape[1:]
    gallery_labels, probe_labels = _split_rows(split, split.corpus.subject_ids)
    if grid is None:
        grid = default_dim_grid(kind, rows, cols, len(gallery_labels),
                                mask_shape=mask_shape, r_low=r_low)
    grid = _sorted_grid(grid)
    if kind == KLT and grid[0] < 1:
        raise ValueError(f"KLT component count must be >= 1, got {grid[0]}")
    steps = ([int(d) for d in grid] if kind == KLT
             else [ZonalMask(mask_shape, value) for value in grid])
    bands = _bands(split, kind, steps, complex_mode=complex_mode, r_low=r_low,
                   log_offset=log_offset)
    dists = np.zeros((len(probe_labels), len(gallery_labels)))
    dim = 0
    points = []
    for value, (gallery_band, probe_band) in zip(grid, bands):
        gallery = Gallery(gallery_band, gallery_labels)
        preds, _ = decide([nn_scores(probe_band, gallery, metric, running=dists)],
                          gallery.subject_ids)
        dim += gallery.dim
        rate = identification_rate(list(zip(probe_labels, preds)))
        points.append(SweepPoint(param=float(value), dim=dim, rate=rate))
    return points


def sweep_spread(gallery_feats: Features, probe_feats: Features, classifier: str,
                 spreads: Sequence[float] = SPREAD_GRID,
                 cfg: EvalConfig | None = None) -> list[SweepPoint]:
    """Identification rate per spread value for the kernel classifiers.

    One gallery serves every spread, so its z-space distance matrix is
    computed once.
    """
    if classifier not in (PNN_NAME, RBF_NAME):
        raise ValueError("spread sweeps apply to pnn or rbf only")
    spreads = _spread_grid(spreads)
    base = cfg if cfg is not None else EvalConfig()
    gallery = Gallery(gallery_feats.matrix, gallery_feats.labels)
    truth = probe_feats.labels.tolist()
    points = []
    for spread in spreads:
        preds, _ = identify([classifier], gallery, probe_feats.matrix,
                            replace(base, spread=float(spread)))
        rate = identification_rate(list(zip(truth, preds)))
        points.append(SweepPoint(param=float(spread), dim=gallery.dim, rate=rate))
    return points


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
    spreads = _spread_grid(spreads)
    targets = [row for row in TABLE_TARGETS
               if rows_filter is None or row[2].startswith(rows_filter.lower())]
    if not targets:
        return []
    k = min(TRAIN_SAMPLES, corpus.samples_per_subject - 1)
    split = split_first_k(corpus, k)
    rows, cols = corpus.pixels.shape[1:]
    side = min(DEFAULT_MASK_SIDE, rows, cols)
    mask = ZonalMask.rectangular(side)
    dct_gal, dct_probes = extract_split_features(split, DCT, mask=mask)

    # one eigenbasis at the largest dim, or at the gallery's rank when that is
    # lower; smaller dims slice its projections (the leading eigenfaces do not
    # depend on how many are kept)
    klt_wanted = {row[1] for row in targets if row[0] == "eigenfaces"}
    klt_feats = {}
    if klt_wanted:
        full = extract_split_features(split, KLT, dim=max(klt_wanted), clamp=True)
        for want in klt_wanted:
            dim = min(want, full[0].dim)
            klt_feats[want] = [replace(f, matrix=f.matrix[:, :dim]) for f in full]
    # spread sweeps only for the selected rows; fusion runs at RBF's best spread
    sweeps = {row[2] for row in targets} & {PNN_NAME, RBF_NAME}
    if any(row[2].startswith("fusion:") for row in targets):
        sweeps.add(RBF_NAME)
    best_spread = {}
    for name in (PNN_NAME, RBF_NAME):
        if name in sweeps:
            curve = sweep_spread(dct_gal, dct_probes, name, spreads, cfg)
            best = max(curve, key=lambda pt: pt.rate)
            best_spread[name] = (best.param, best.rate)

    out = []
    for feature, want_dim, key, label, paper_rate in targets:
        if feature == "eigenfaces":
            gal, probes = klt_feats[want_dim]
            rate = run_experiment(key, gal, probes, cfg).rate
            dim = gal.dim
        else:
            dim = dct_gal.dim
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

