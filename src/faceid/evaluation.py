"""Experiment protocols: rates, dimension/spread sweeps, summary table.

The fixed protocol throughout is closed-set identification: every probe is
scored against all gallery models and the top subject is the answer.
Transform-domain features come from one coefficient stack per corpus: each
image is transformed once, only the leading block its masks reach is kept,
and each mask (in a dimension sweep, each mask's new band) is one gather
over that stack. Eigenface features come from one basis fit per gallery.
Each split half's features travel as one labelled
:class:`~faceid.classifiers.common.Features` matrix: the gallery's is what
the classifiers train on, the probes' gives the truth, and the scorers see
only its bare matrix.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .dataset import Split
from .transforms import (
    DCT, KLT, MODULUS, RECTANGULAR,
    ZonalMask,
    mask_features, transform_corpus, zone_keeps,
)
from .eigenfaces import train_eigenbasis, project
from .classifiers import (
    EvalConfig, Features, MAD, MSE,
    MLPModel, mlp_train, mlp_scores,
    PNNModel, pnn_train, pnn_classify,
    RBFModel, rbf_train, rbf_scores,
    check_spread, nn_scores,
)
from .classifiers.mlp import GRAD_TOL
from .fusion import MINMAX, fuse_mean, normalize_scores

SPREAD_GRID = tuple(round(0.1 * i, 1) for i in range(1, 21))
DEFAULT_MASK_SIDE = 10
TRAIN_SAMPLES = 5

NN_MAD = "nn:mad"
NN_MSE = "nn:mse"
MLP_NAME = "mlp"
PNN_NAME = "pnn"
RBF_NAME = "rbf"
BASE_CLASSIFIERS = (NN_MAD, NN_MSE, MLP_NAME, PNN_NAME, RBF_NAME)
# the classifiers whose activations take a spread
KERNEL_CLASSIFIERS = (PNN_NAME, RBF_NAME)
# the classifiers that train a model (nearest neighbor scores the gallery as is)
LEARNERS = (MLP_NAME, *KERNEL_CLASSIFIERS)


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class Outcome:
    """Each probe's true and predicted subject ids: the one record every rate
    is read from, so that any two rates can be compared probe by probe. Each
    kernel member's collapse count travels with them: the probes no
    activation reached (PNN's fallbacks, RBF's outputs all at the biases)."""
    truth: np.ndarray      # (k,) true subject id per probe
    preds: np.ndarray      # (k,) predicted subject id per probe
    collapsed: dict = field(default_factory=dict, kw_only=True)  # count per kernel member

    def __post_init__(self):
        self.truth, self.preds = np.asarray(self.truth), np.asarray(self.preds)
        if self.truth.shape != self.preds.shape or self.truth.size == 0:
            raise ValueError(f"an outcome needs at least one probe and true ids aligned with "
                             f"the predictions, got {self.truth.shape} and {self.preds.shape}")

    @property
    def rate(self) -> float:
        """Percentage of probes whose predicted subject equals the true one."""
        return 100.0 * int(np.count_nonzero(self.truth == self.preds)) / self.truth.size


@dataclass(eq=False)
class ExperimentResult(Outcome):
    scores: dict           # (k, S) raw scores per member of the spec, by name, in order
    probes: Features       # the probes scored; their labels are the truth
    fused: np.ndarray      # (k, S) the decision rule's fused scores
    models: dict           # trained model per learning classifier, by name


# ---------------------------------------------------------------------------
# feature extraction pipelines
# ---------------------------------------------------------------------------

def _bands(split: Split, kind: str, steps: Sequence, *,
           complex_mode: str = MODULUS, r_low: float = 0.0,
           log_offset: float = 1e-4, clamp: bool = False):
    """The one path from a split to its features: per step of an ascending
    chain (zonal masks, or KLT component counts), the labelled (gallery,
    probe) features of the band it adds to the step before, or None where
    the band holds no column. Every mask and the rank are checked before the
    first band is returned."""
    corpus = split.corpus
    if kind == KLT:
        halves = split.halves(corpus.levels)
        maxvals = split.halves(corpus.maxval)
        basis = train_eigenbasis(halves[0], steps[-1], clamp=clamp, maxval=maxvals[0])
        weights = [project(half, basis, maxval) for half, maxval in zip(halves, maxvals)]
        dims = [min(step, basis.n_components) for step in steps]
        bands = ([w[:, lo:hi] for w in weights] for lo, hi in zip([0, *dims], dims))
    else:
        keeps = zone_keeps(steps, corpus.levels.shape[1:], r_low)
        stack = transform_corpus(corpus.levels, kind, keeps[0].shape, log_offset,
                                 corpus.maxval)
        kept = [np.zeros_like(keeps[0]), *keeps[:-1]]
        bands = (_split_rows(split, mask_features(stack, keep & ~prev, complex_mode))
                 for keep, prev in zip(keeps, kept))
    ids = list(zip(_split_rows(split, corpus.subject_ids),
                   _split_rows(split, corpus.sample_ids)))
    return (tuple(Features(m, *half_ids, kind) for m, half_ids in zip(band, ids))
            if band[0].shape[1] else None for band in bands)


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
    (features,) = _bands(split, kind, [step], complex_mode=complex_mode,
                         r_low=r_low, log_offset=log_offset, clamp=clamp)
    return features


# ---------------------------------------------------------------------------
# classifier runners
# ---------------------------------------------------------------------------

def parse_classifier_spec(spec: str) -> list[str]:
    """'nn:mad' -> ['nn:mad']; 'fusion:rbf+nn:mad' -> ['rbf', 'nn:mad']: a
    fusion names two or more classifiers, none twice."""
    spec = spec.strip().lower()
    if spec.startswith("fusion:"):
        parts = [p for p in spec[len("fusion:"):].split("+") if p]
        for p in parts:
            if p not in BASE_CLASSIFIERS:
                raise ValueError(f"unknown classifier {p!r} in fusion spec")
        if len(set(parts)) != len(parts):
            raise ValueError(f"fusion spec {spec!r} repeats a classifier")
        if len(parts) < 2:
            raise ValueError(f"fusion spec {spec!r} needs two or more classifiers")
        return parts
    if spec not in BASE_CLASSIFIERS:
        raise ValueError(f"unknown classifier spec {spec!r}")
    return [spec]


def _member_scores(name: str, gallery: Features, probes: np.ndarray,
                   cfg: EvalConfig) -> tuple[np.ndarray, object | None, int | None]:
    """Train one base classifier (a member of a checked spec) if it learns,
    then score the probes with it. Returns (scores, trained model or None,
    a kernel member's collapse count or None)."""
    if name in (NN_MAD, NN_MSE):
        return nn_scores(probes, gallery, MAD if name == NN_MAD else MSE), None, None
    if name == MLP_NAME:
        model = mlp_train(gallery, cfg)
        return mlp_scores(model, probes), model, None
    if name == PNN_NAME:
        model = pnn_train(gallery, cfg.spread)
        scores, fallbacks = pnn_classify(model, probes)
        return scores, model, fallbacks
    model = rbf_train(gallery, cfg.spread, min(cfg.max_centers, len(gallery)))
    scores = rbf_scores(model, probes)
    return scores, model, int(np.all(scores == model.biases, axis=1).sum())


def decide(member_scores: Sequence[np.ndarray], subject_ids: np.ndarray,
           mode: str = MINMAX) -> tuple[np.ndarray, np.ndarray]:
    """The one decision rule: normalize each member's (k, S) scores row-wise,
    take their mean, and answer each probe's arg-max subject (lowest id on
    ties). Returns (predicted ids, fused matrix).
    """
    return fuse_mean([normalize_scores(scores, mode) for scores in member_scores],
                     subject_ids)


def run_experiment(spec: str, gallery: Features, probes: Features,
                   cfg: EvalConfig = EvalConfig()) -> ExperimentResult:
    """Closed-set identification of every probe under one classifier spec:
    score the probe block with each member (training those that learn) and
    :func:`decide`. The result carries each member's scores, the trained
    models and the kernel members' collapse counts by name.
    """
    scored = {name: _member_scores(name, gallery, probes.matrix, cfg)
              for name in parse_classifier_spec(spec)}
    scores = {name: member_scores for name, (member_scores, _, _) in scored.items()}
    preds, fused = decide(list(scores.values()), gallery.subject_ids, cfg.fusion_mode)
    models = {name: model for name, (_, model, _) in scored.items() if model is not None}
    collapsed = {name: count for name, (_, _, count) in scored.items() if count is not None}
    return ExperimentResult(truth=probes.labels, preds=preds, scores=scores, probes=probes,
                            fused=fused, models=models, collapsed=collapsed)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class SweepPoint(Outcome):
    param: float     # grid value: mask side, sector radius, dim, or spread
    dim: int


def _sorted_grid(grid: Sequence, name: str) -> list:
    """The grid ascending; empty grids and repeated values are refused."""
    grid = sorted(grid)
    if len(grid) == 0:
        raise ValueError(f"{name} grid is empty")
    if len(set(grid)) != len(grid):
        raise ValueError(f"{name} grid repeats a value: {grid}")
    return grid


def spread_grid(spreads: Sequence[float]) -> list[float]:
    """The spreads ascending, each a spread (see ``check_spread``), none repeated."""
    return [check_spread(spread) for spread in _sorted_grid(spreads, "spread")]


def dim_grid(kind: str, grid: Sequence, mask_shape: str = RECTANGULAR) -> list:
    """A dimension sweep's grid ascending: KLT component counts (integers >= 1),
    or the sizes of the ``mask_shape`` masks that ``ZonalMask`` takes."""
    grid = _sorted_grid(grid, "sweep")
    if kind != KLT:
        return [ZonalMask(mask_shape, size).size for size in grid]
    bad = [n for n in grid if not float(n).is_integer() or n < 1]
    if bad:
        raise ValueError(f"KLT component count must be >= 1 and an integer, got {bad[0]:g}")
    return [int(n) for n in grid]


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
    """Nearest-neighbor predictions as the retained-coefficient count
    grows.

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
    rows, cols = split.corpus.levels.shape[1:]
    gallery_labels, probe_labels = _split_rows(split, split.corpus.subject_ids)
    if grid is None:
        grid = default_dim_grid(kind, rows, cols, len(gallery_labels),
                                mask_shape=mask_shape, r_low=r_low)
    grid = dim_grid(kind, grid, mask_shape)
    steps = grid if kind == KLT else [ZonalMask(mask_shape, value) for value in grid]
    bands = _bands(split, kind, steps, complex_mode=complex_mode, r_low=r_low,
                   log_offset=log_offset)
    dists = np.zeros((len(probe_labels), len(gallery_labels)))
    dim = 0
    points = []
    for value, band in zip(grid, bands):
        # a step whose band holds no column repeats the point before it
        if band is not None:
            gallery, probes = band
            preds, _ = decide([nn_scores(probes.matrix, gallery, metric, running=dists)],
                              gallery.subject_ids)
            dim += gallery.dim
        points.append(SweepPoint(probe_labels, preds, param=float(value), dim=dim))
    return points


# what a kernel classifier's collapse count counts
COLLAPSES = {PNN_NAME: "probes took the nearest-neighbor fallback",
             RBF_NAME: "probes sat at the bias"}


def _collapse_warning(name: str, gallery: Features,
                     points: Sequence[SweepPoint]) -> str | None:
    """The one warning for a spread sweep of kernel classifier ``name`` on
    ``gallery`` in which some probe got no activation: the spreads affected,
    the worst count, and the gallery's median nearest-neighbor z-distance (the
    least off-diagonal entry of each row of its cached distances) against the
    largest spread. None where every count is zero."""
    hit = [pt for pt in points if pt.collapsed[name]]
    if not hit:
        return None
    worst = max(hit, key=lambda pt: pt.collapsed[name])
    off_self = np.where(np.eye(len(gallery), dtype=bool), np.inf, gallery.normalized_distances)
    return (f"warning: {name}: {COLLAPSES[name]} at spread "
            f"{', '.join(f'{pt.param:g}' for pt in hit)} (worst {worst.collapsed[name]}/"
            f"{worst.truth.size} at {worst.param:g}); the gallery's median nearest-neighbor "
            f"z-distance is {np.median(off_self.min(axis=1)):.4g} against a largest spread of "
            f"{points[-1].param:g}")


def sweep_spread(gallery: Features, probes: Features, classifier: str,
                 spreads: Sequence[float] = SPREAD_GRID,
                 cfg: EvalConfig = EvalConfig(),
                 log: Callable[[str], object] = lambda line: None) -> list[SweepPoint]:
    """One :func:`run_experiment` per spread value for a kernel classifier;
    each point keeps its run's predictions and collapse count, and ``log``
    takes the sweep's :func:`_collapse_warning`, if any.

    One gallery serves every spread, so its z-space distance matrix is
    computed once.
    """
    members = parse_classifier_spec(classifier)
    if len(members) > 1 or members[0] not in KERNEL_CLASSIFIERS:
        raise ValueError(f"spread sweeps apply to {' or '.join(KERNEL_CLASSIFIERS)} only")
    points = []
    for spread in map(float, spread_grid(spreads)):
        run = run_experiment(classifier, gallery, probes, replace(cfg, spread=spread))
        points.append(SweepPoint(run.truth, run.preds, param=spread, dim=gallery.dim,
                                 collapsed=run.collapsed))
    warning = _collapse_warning(members[0], gallery, points)
    if warning:
        log(warning)
    return points


# ---------------------------------------------------------------------------
# summary table
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class TableRow(Outcome):
    key: str          # machine name, e.g. "nn:mad" or "fusion:rbf+nn:mad"
    feature: str      # "dct" or "eigenfaces"
    dim: int
    classifier: str   # display label
    paper_rate: float


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


def table_targets(rows_filter: str | None = None) -> list[tuple]:
    """The ``TABLE_TARGETS`` rows whose classifier key starts with the filter."""
    return [row for row in TABLE_TARGETS
            if rows_filter is None or row[2].startswith(rows_filter.lower())]


def table_classifiers(targets: Sequence[tuple]) -> set[str]:
    """The base classifiers the given table rows train: each row's classifier,
    or each member of its fusion."""
    return {member for row in targets for member in parse_classifier_spec(row[2])}


def table1_report(split: Split, cfg: EvalConfig = EvalConfig(),
                  rows_filter: str | None = None,
                  spreads: Sequence[float] = SPREAD_GRID,
                  log: Callable[[str], object] = lambda line: None) -> list[TableRow]:
    """Reference-comparison table: every benchmark row, paper vs measured.

    One rule serves every row. Each feature is extracted once: the DCT under
    a rect mask of side ``DEFAULT_MASK_SIDE``, the eigenfaces under one basis
    at the rows' largest dim, each clamped to what the corpus supports. Each
    kernel classifier the rows train is swept over the spreads on the DCT
    features once, and the rows run at RBF's first best spread. A row takes
    its feature's leading ``dim`` columns: a kernel row reports its sweep's
    best rate, as the reference numbers were quoted, and every other row is
    one :func:`run_experiment`. ``log`` takes each sweep's warning and the
    MLP row's :func:`stop_line`.
    """
    spreads = spread_grid(spreads)
    targets = table_targets(rows_filter)
    if not targets:
        return []
    mask = ZonalMask.rectangular(min(DEFAULT_MASK_SIDE, *split.corpus.levels.shape[1:]))
    features = {"dct": extract_split_features(split, DCT, mask=mask)}
    # one basis serves each eigenface row: the leading eigenfaces do not depend on the count
    klt_dims = [row[1] for row in targets if row[0] == "eigenfaces"]
    if klt_dims:
        features["eigenfaces"] = extract_split_features(split, KLT, dim=max(klt_dims), clamp=True)
    trained = table_classifiers(targets)
    best = {name: max(sweep_spread(*features["dct"], name, spreads, cfg, log),
                      key=lambda pt: pt.rate)
            for name in KERNEL_CLASSIFIERS if name in trained}
    if RBF_NAME in best:
        cfg = replace(cfg, spread=best[RBF_NAME].param)
    out = []
    for feature, dim, key, label, paper_rate in targets:
        gal, probes = (replace(f, matrix=f.matrix[:, :dim]) for f in features[feature])
        run = best[key] if key in best else run_experiment(key, gal, probes, cfg)
        if key == MLP_NAME:
            log(stop_line(key, run.models[key]))
        out.append(TableRow(run.truth, run.preds, key=key, feature=feature, dim=gal.dim,
                            classifier=label, paper_rate=paper_rate, collapsed=run.collapsed))
    return out


def format_table(rows: Sequence[TableRow]) -> str:
    header = f"{'feature':<12} {'dim':>4} {'classifier':<14} {'paper':>6} {'measured':>9}"
    return "\n".join([header, "-" * len(header), *(
        f"{r.feature:<12} {r.dim:>4} {r.classifier:<14} {r.paper_rate:>6.1f} {r.rate:>9.1f}"
        for r in rows)])


def stop_line(name: str, model: MLPModel) -> str:
    """Why SCG training stopped, and its last lambda."""
    return (f"{name}: SCG stopped after {model.curve.size - 1} epochs "
            f"({model.stop_reason}), last lambda {model.last_lambda:.6g}")


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------

def write_manifest(config: dict, path: str | Path) -> None:
    """Deterministic JSON run description (no timestamps, sorted keys)."""
    Path(path).write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")


def write_features_csv(features: Features, path: str | Path) -> None:
    """Write features as CSV, one row per image: ``subject,sample,source,dim,c0,c1,...``.

    Its rows end with LF, not :func:`_write_csv`'s CRLF."""
    header = "subject,sample,source,dim," + ",".join(f"c{i}" for i in range(features.dim))
    lines = [header]
    for subject, sample, row in zip(features.labels.tolist(),
                                    features.sample_ids.tolist(), features.matrix):
        coeffs = ",".join(map(repr, row.tolist()))
        lines.append(f"{subject},{sample},{features.source},{features.dim},{coeffs}")
    Path(path).write_text("\n".join(lines) + "\n")


def _write_csv(path: str | Path, header: list, rows) -> None:
    """A header row, then the rows; ``csv.writer`` ends each with CRLF."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _probe_rows(result: ExperimentResult) -> list[list]:
    """Per probe, in probe order: its tag, true subject and predicted subject."""
    probes = result.probes
    return [[f"s{label}_{sample}", label, pred] for label, sample, pred in
            zip(probes.labels.tolist(), probes.sample_ids.tolist(), result.preds.tolist())]


def write_result_csv(result: ExperimentResult, path: str | Path) -> None:
    _write_csv(path, ["probe", "subject_true", "subject_pred"], _probe_rows(result))


def write_fusion_report(result: ExperimentResult, path: str | Path) -> None:
    """CSV of per-probe fusion outcomes: probe, truth, prediction, top fused score."""
    _write_csv(path, ["probe", "subject_true", "subject_pred", "fused_score"],
               ([*row, repr(top)] for row, top in
                zip(_probe_rows(result), result.fused.max(axis=1).tolist())))


def write_curve_csv(points: Sequence[SweepPoint], path: str | Path,
                    param_name: str) -> None:
    _write_csv(path, [param_name, "dim", "rate"],
               ([repr(pt.param), pt.dim, repr(pt.rate)] for pt in points))


def write_table_csv(rows: Sequence[TableRow], path: str | Path) -> None:
    _write_csv(path, ["feature", "dim", "classifier", "paper_rate", "measured_rate"],
               ([r.feature, r.dim, r.classifier, f"{r.paper_rate:.1f}",
                 f"{r.rate:.1f}"] for r in rows))


def write_training_log(curve: np.ndarray, path: str | Path) -> None:
    """CSV of the recorded loss trajectory, one row per epoch."""
    _write_csv(path, ["epoch", "loss"],
               ([epoch, repr(float(loss))] for epoch, loss in enumerate(curve)))


FORMAT_VERSION = 1


def save_model(model: MLPModel | PNNModel | RBFModel, path: str | Path) -> None:
    """One npz per trained classifier: its name as the kind, the format
    version, the gallery's subject ids and z-score statistics, and the
    model's arrays."""
    if isinstance(model, MLPModel):
        cfg = model.config
        kind, arrays = MLP_NAME, dict(
            w1=model.w1, b1=model.b1, w2=model.w2, b2=model.b2, curve=model.curve,
            config=np.array([cfg.hidden, cfg.epochs, cfg.gamma, cfg.seed, GRAD_TOL]))
    elif isinstance(model, PNNModel):
        kind, arrays = PNN_NAME, dict(centers=model.centers, labels=model.labels,
                                      spread=model.spread)
    elif isinstance(model, RBFModel):
        kind, arrays = RBF_NAME, dict(
            centers=model.centers, spread=model.spread, weights=model.weights,
            biases=model.biases, center_indices=model.center_indices,
            residuals=model.residuals)
    else:
        raise TypeError(f"unsupported model type {type(model).__name__}")
    np.savez(path, kind=kind, format_version=FORMAT_VERSION,
             subject_ids=model.subject_ids,
             norm_mean=model.norm_mean, norm_std=model.norm_std, **arrays)
