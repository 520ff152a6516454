"""Experiment harness: rates, sweeps, the benchmark table, exports."""

import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from faceid.classifiers import (
    MAD, MSE, Features, MLPModel, mlp_scores, nn_scores,
    pnn_classify, pnn_train, rbf_scores, rbf_train,
)
from faceid.dataset import Corpus, Split, synth_corpus
from faceid.eigenfaces import RankError
from faceid.evaluation import (
    DCT, KLT, RECTANGULAR, EvalConfig, Outcome, SweepPoint,
    TABLE_TARGETS, default_dim_grid, dim_grid,
    extract_split_features, format_table,
    parse_classifier_spec, run_experiment, spread_grid, sweep_dimension, sweep_spread,
    table1_report, write_curve_csv, write_fusion_report, write_manifest,
    write_result_csv, write_table_csv,
)
from faceid import evaluation
from faceid.transforms import SECTORIAL, ZonalMask

from conftest import compared
from test_hard_corpus import hard_corpus


# ---------------------------------------------------------------------------
# identification rate


def test_rate_trivial_cases():
    assert Outcome([1, 2], [1, 2]).rate == 100.0
    assert Outcome([1, 2], [2, 1]).rate == 0.0
    assert Outcome([1, 2], [1, 1]).rate == 50.0
    # a plain float, so that the CSV writers print it as before
    assert type(Outcome(np.array([3, 4]), np.array([3, 9])).rate) is float


def test_rate_example_from_protocol():
    assert Outcome([1] * 200, [1] * 185 + [2] * 15).rate == 92.5


def test_rate_empty():
    with pytest.raises(ValueError, match="at least one probe"):
        Outcome([], [])


def test_rate_refuses_misaligned_ids():
    with pytest.raises(ValueError, match="align"):
        Outcome([1, 2, 3], [1, 2])
    # every record refuses them when built, not when its rate is read
    with pytest.raises(ValueError, match="align"):
        SweepPoint([1, 2, 3], [1, 2], param=1.0, dim=1)


# ---------------------------------------------------------------------------
# classifier spec parsing


def test_parse_single_specs():
    assert parse_classifier_spec("nn:mad") == ["nn:mad"]
    assert parse_classifier_spec(" MLP ") == ["mlp"]
    assert parse_classifier_spec("fusion:rbf+nn:mad") == ["rbf", "nn:mad"]
    assert parse_classifier_spec("fusion:pnn+nn:mse") == ["pnn", "nn:mse"]


def test_parse_rejects_unknown():
    with pytest.raises(ValueError):
        parse_classifier_spec("svm")
    with pytest.raises(ValueError):
        parse_classifier_spec("fusion:rbf+svm")
    with pytest.raises(ValueError):
        parse_classifier_spec("fusion:")
    # a fusion of one classifier, or of one classifier twice, fuses nothing
    with pytest.raises(ValueError, match="two or more"):
        parse_classifier_spec("fusion:pnn")
    with pytest.raises(ValueError, match="repeats"):
        parse_classifier_spec("fusion:rbf+RBF")
    with pytest.raises(ValueError, match="repeats"):
        parse_classifier_spec("fusion:rbf+nn:mad+rbf")


# ---------------------------------------------------------------------------
# run_experiment


def test_nn_experiment_structure(dct_features):
    gal, probes = dct_features
    result = run_experiment("nn:mad", gal, probes)
    assert list(result.scores) == ["nn:mad"]
    assert result.probes is probes
    assert result.preds.shape == (len(probes),)
    assert result.fused.shape == (len(probes), gal.subject_ids.size)
    assert result.truth is probes.labels
    assert result.rate == Outcome(probes.labels, result.preds).rate
    assert 0.0 <= result.rate <= 100.0


def test_nn_experiment_matches_per_probe_loop(dct_features):
    gal, probes = dct_features
    result = run_experiment("nn:mse", gal, probes)
    for pred_id, probe in zip(result.preds.tolist(), probes.matrix):
        # exhaustive search; scanning ids in ascending order keeps the lowest on ties
        best = {}
        for row, sid in zip(gal.matrix, gal.labels.tolist()):
            d = float((probe - row) @ (probe - row))
            best[sid] = min(d, best.get(sid, np.inf))
        want = min(sorted(best), key=lambda sid: best[sid])
        assert pred_id == want


def test_single_member_decision_matches_raw_arg_best(dct_features):
    # normalizing one member's scores before the arg-max changes no decision
    gallery, probes = dct_features
    block = probes.matrix
    cfg = EvalConfig(spread=2.0, max_centers=12, epochs=30, hidden=5)
    scorers = {"mlp": mlp_scores, "pnn": lambda *a: pnn_classify(*a)[0], "rbf": rbf_scores}
    for spec in ("nn:mad", "nn:mse", "mlp", "pnn", "rbf"):
        result = run_experiment(spec, gallery, probes, cfg)
        # nearest neighbor trains nothing
        assert list(result.models) == ([spec] if spec in scorers else [])
        if spec in scorers:
            scores = scorers[spec](result.models[spec], block)
        else:
            scores = nn_scores(block, gallery, spec[len("nn:"):])
        # the result keeps the member's raw scores
        assert np.array_equal(result.scores[spec], scores)
        best = np.argmax(scores, axis=1)
        assert result.preds.tolist() == gallery.subject_ids[best].tolist()


def test_nonfinite_scores_fail_the_experiment(dct_features):
    gal, probes = dct_features
    bad = replace(probes, matrix=np.full_like(probes.matrix, np.nan))
    for spec in ("nn:mad", "pnn", "fusion:rbf+nn:mse"):
        with pytest.raises(ValueError, match="finite"):
            run_experiment(spec, gal, bad, EvalConfig(max_centers=5))


def test_fusion_experiment_artifacts(dct_features):
    gal, probes = dct_features
    cfg = EvalConfig(spread=2.0, max_centers=12)
    result = run_experiment("fusion:rbf+nn:mad", gal, probes, cfg)
    assert set(result.models) == {"rbf"}  # nn trains nothing
    assert list(result.scores) == ["rbf", "nn:mad"]
    # each member's min-max scores lie in [0, 1], and so does their mean
    assert result.fused.shape == (len(probes), gal.subject_ids.size)
    assert np.all((0.0 <= result.fused) & (result.fused <= 1.0))
    assert np.array_equal(result.preds, gal.subject_ids[np.argmax(result.fused, axis=1)])


def test_single_model_experiment_artifacts(dct_features):
    gal, probes = dct_features
    cfg = EvalConfig(epochs=40, hidden=6)
    result = run_experiment("mlp", gal, probes, cfg)
    assert isinstance(result.models["mlp"], MLPModel)
    assert list(result.scores) == ["mlp"]


def test_experiment_requires_probe_labels(dct_features):
    # a probe set without one label per row cannot even be built
    _, probes = dct_features
    with pytest.raises(ValueError, match="labels"):
        replace(probes, labels=probes.labels[:-1])
    with pytest.raises(TypeError):
        Features(probes.matrix, [None] * len(probes), probes.sample_ids, probes.source)


# ---------------------------------------------------------------------------
# sweeps


def test_dimension_sweep_rectangular(small_split):
    points = sweep_dimension(small_split, DCT, RECTANGULAR, grid=[3, 1, 2])
    assert [pt.param for pt in points] == [1.0, 2.0, 3.0]  # sorted
    assert [pt.dim for pt in points] == [1, 4, 9]
    assert all(0.0 <= pt.rate <= 100.0 for pt in points)


def test_dimension_sweep_sectorial(small_split):
    points = sweep_dimension(small_split, DCT, SECTORIAL, grid=[1.5, 2.5])
    want = [ZonalMask.sectorial(r).keep(24, 20).sum() for r in (1.5, 2.5)]
    assert [pt.dim for pt in points] == want


def test_dimension_sweep_klt_slicing_matches_retraining(small_split):
    grid = [2, 5, 10]
    points = sweep_dimension(small_split, KLT, grid=grid)
    for pt in points:
        gal, probes = extract_split_features(small_split, KLT, dim=pt.dim)
        run = run_experiment("nn:mad", gal, probes)
        assert pt.rate == run.rate
        assert np.array_equal(pt.preds, run.preds)
        assert np.array_equal(pt.truth, probes.labels)


def test_dimension_sweep_klt_rank_guard(small_split):
    with pytest.raises(RankError, match="rank"):
        sweep_dimension(small_split, KLT, grid=[24])  # 24 gallery images: rank 23


@pytest.mark.parametrize("grid", [[-3, 2], [0, 1, 2], [0.5, 2], [2, 2.5, 3.7]])
def test_dimension_sweep_klt_refuses_counts_below_one(small_split, monkeypatch, grid):
    # refused before the basis fit: no eigensolve runs
    calls = count_eigensolves(monkeypatch)
    with pytest.raises(ValueError, match="KLT component count must be >= 1"):
        sweep_dimension(small_split, KLT, grid=grid)
    assert calls == {"eigh": 0, "eigvalsh": 0}


@pytest.mark.parametrize("grid", [[1, 5, 23], [3], None])
def test_dimension_sweep_klt_makes_one_eigensolve(small_split, monkeypatch, grid):
    calls = count_eigensolves(monkeypatch)
    sweep_dimension(small_split, KLT, grid=grid)
    assert calls == {"eigh": 1, "eigvalsh": 0}


# `faceid sweep --transform klt --grid 1:6` on the ORL-shaped synthetic corpus
# (seed 0): the low dims do not saturate, so a change in the KLT features shows
KLT_LOW_DIM_RATES = {
    MAD: [62.0, 97.0, 100.0, 100.0, 100.0, 100.0],
    MSE: [62.0, 97.5, 100.0, 100.0, 100.0, 100.0],
}


@pytest.mark.parametrize("metric", [MAD, MSE])
def test_klt_low_dim_rates_are_pinned(orl_split, metric):
    points = sweep_dimension(orl_split, KLT, grid=range(1, 7), metric=metric)
    assert [(pt.param, pt.dim) for pt in points] == [(float(d), d) for d in range(1, 7)]
    assert [pt.rate for pt in points] == KLT_LOW_DIM_RATES[metric]


def test_dimension_sweep_empty_grid(small_split):
    with pytest.raises(ValueError, match="empty"):
        sweep_dimension(small_split, DCT, grid=[])


def test_default_dim_grid():
    assert default_dim_grid(DCT, 24, 20, 24) == list(range(1, 21))
    assert default_dim_grid(DCT, 112, 92, 200) == list(range(1, 31))
    assert default_dim_grid(KLT, 24, 20, 24) == [5, 10, 20]
    assert default_dim_grid(KLT, 24, 20, 3) == [2]
    # mask grids start where r_low leaves a coefficient; an r_low that empties
    # even the largest mask keeps that mask, to be refused
    for shape in (RECTANGULAR, SECTORIAL):
        assert default_dim_grid(DCT, 24, 20, 24, mask_shape=shape, r_low=1.5) == \
            list(range(3, 21))
        assert default_dim_grid(DCT, 24, 20, 24, mask_shape=shape, r_low=1.0) == \
            list(range(2, 21))
        assert default_dim_grid(DCT, 24, 20, 24, mask_shape=shape, r_low=40.0) == [20]
    # (3, 3) lies at radius 4.24: inside rect:4, outside sector:4
    assert default_dim_grid(DCT, 24, 20, 24, mask_shape=RECTANGULAR, r_low=4.2) == \
        list(range(4, 21))
    assert default_dim_grid(DCT, 24, 20, 24, mask_shape=SECTORIAL, r_low=4.2) == \
        list(range(5, 21))


def refusal(call) -> str:
    with pytest.raises(ValueError) as info:
        call()
    return str(info.value)


@pytest.mark.parametrize("value", [0.0, -1.0, math.inf, math.nan])
def test_every_grid_point_meets_the_one_rule_of_its_value(value):
    # a mask grid point is refused as its ZonalMask is, a spread as a run's
    # or a PNN's spread is, in the same words
    for shape in (RECTANGULAR, SECTORIAL):
        assert refusal(lambda: dim_grid(DCT, [value], shape)) == \
            refusal(lambda: ZonalMask(shape, value))
    gallery = Features(np.eye(2), labels=[0, 1], sample_ids=[0, 0], source=DCT)
    assert (refusal(lambda: spread_grid([value])) == refusal(lambda: EvalConfig(spread=value))
            == refusal(lambda: pnn_train(gallery, value))
            == refusal(lambda: rbf_train(gallery, value))
            == f"spread must be finite and > 0, got {value}")
    assert refusal(lambda: dim_grid(KLT, [value])).startswith(
        "KLT component count must be >= 1 and an integer")


def test_mask_grids_take_what_zonal_mask_takes():
    assert refusal(lambda: dim_grid(DCT, [2.5])) == refusal(lambda: ZonalMask.rectangular(2.5))
    assert dim_grid(DCT, [2.5, 1.0], SECTORIAL) == [1.0, 2.5]
    # a whole rect side is an int, as a rect grid's points have always been
    assert [type(n) for n in dim_grid(DCT, [3.0, 1.0])] == [int, int]


def test_spread_sweep(dct_features):
    gal, probes = dct_features
    points = sweep_spread(gal, probes, "pnn", spreads=[2.0, 0.5, 1.0])
    assert [pt.param for pt in points] == [0.5, 1.0, 2.0]
    assert all(pt.dim == 25 for pt in points)
    with pytest.raises(ValueError, match="pnn or rbf"):
        sweep_spread(gal, probes, "nn:mad", spreads=[1.0])
    with pytest.raises(ValueError, match="pnn or rbf"):
        sweep_spread(gal, probes, "fusion:pnn+rbf", spreads=[1.0])
    again = sweep_spread(gal, probes, " PNN ", spreads=[2.0, 0.5, 1.0])
    assert [compared(pt) for pt in again] == [compared(pt) for pt in points]
    with pytest.raises(ValueError, match=re.escape("spread must be finite and > 0, got 0.0")):
        sweep_spread(gal, probes, "pnn", spreads=[0.0, 1.0])
    with pytest.raises(ValueError, match="empty"):
        sweep_spread(gal, probes, "rbf", spreads=[])


def test_sweeps_refuse_repeated_grid_values(small_split, dct_features):
    gal, probes = dct_features
    with pytest.raises(ValueError, match="repeats"):
        sweep_spread(gal, probes, "rbf", spreads=[0.5, 1.0, 0.5])
    with pytest.raises(ValueError, match="repeats"):
        sweep_dimension(small_split, DCT, grid=[3, 3])
    with pytest.raises(ValueError, match="repeats"):
        sweep_dimension(small_split, KLT, grid=[2, 5, 2])


@pytest.mark.parametrize("classifier", ["pnn", "rbf"])
def test_spread_sweep_matches_one_experiment_per_spread(dct_features, classifier):
    gal, probes = dct_features
    cfg = EvalConfig(max_centers=10)
    spreads = [0.5, 1.0, 3.0, 20.0]
    points = sweep_spread(gal, probes, classifier, spreads, cfg)
    runs = [run_experiment(classifier, gal, probes, replace(cfg, spread=s)) for s in spreads]
    assert [pt.rate for pt in points] == [run.rate for run in runs]
    # each point keeps its run's predictions and collapse count, and its truth
    # is the probes' labels
    for point, run in zip(points, runs):
        assert np.array_equal(point.preds, run.preds)
        assert np.array_equal(point.truth, probes.labels)
        assert point.collapsed == run.collapsed and list(run.collapsed) == [classifier]
    # and each rate is the raw arg-max of a model trained at that spread alone
    for spread, point in zip(spreads, points):
        if classifier == "pnn":
            scores, _ = pnn_classify(pnn_train(gal, spread), probes.matrix)
        else:
            scores = rbf_scores(rbf_train(gal, spread, cfg.max_centers), probes.matrix)
        preds = gal.subject_ids[np.argmax(scores, axis=1)]
        assert np.array_equal(point.preds, preds)
        assert point.rate == Outcome(probes.labels, preds).rate


# ---------------------------------------------------------------------------
# benchmark table


@pytest.fixture(scope="module")
def table_rows():
    split = Split(synth_corpus(seed=19, n_subjects=6, samples=6, rows=16, cols=14), 5)
    cfg = EvalConfig(epochs=80, hidden=8, max_centers=20)
    rows = table1_report(split, cfg, spreads=[0.9, 2.0])
    return split, cfg, rows


def test_table_has_every_benchmark_row(table_rows):
    _, _, rows = table_rows
    assert len(rows) == len(TABLE_TARGETS) == 10
    assert [r.key for r in rows] == [t[2] for t in TABLE_TARGETS]
    assert [r.paper_rate for r in rows] == [t[4] for t in TABLE_TARGETS]
    assert all(0.0 <= r.rate <= 100.0 for r in rows)


def test_table_dims_clamp_to_corpus(table_rows):
    _, _, rows = table_rows
    # 30 gallery images: eigenface rows clamp to rank 29; dct keeps 10x10
    for r in rows:
        if r.feature == "eigenfaces":
            assert r.dim == 29
        else:
            assert r.dim == 100


def test_table_kernel_and_fusion_rows_follow_the_sweeps(table_rows):
    # each PNN/RBF row is the best rate of its sweep over the table's spreads,
    # on the DCT rect:10 features, and the fusion row runs at RBF's first best
    split, cfg, rows = table_rows
    gal, probes = extract_split_features(split, DCT, mask=ZonalMask.rectangular(10))
    curves = {name: sweep_spread(gal, probes, name, [0.9, 2.0], cfg) for name in ("pnn", "rbf")}
    by_key = {row.key: row.rate for row in rows}
    for name, curve in curves.items():
        assert by_key[name] == max(pt.rate for pt in curve)
    rbf_best = max(curves["rbf"], key=lambda pt: pt.rate).param
    fused = run_experiment("fusion:rbf+nn:mad", gal, probes, replace(cfg, spread=rbf_best))
    assert by_key["fusion:rbf+nn:mad"] == fused.rate
    # where RBF's best spread (20) is not the default, the fused rate follows it
    (row,) = table1_report(split, cfg, rows_filter="fusion:", spreads=[0.9, 20.0])
    fused_at = {spread: run_experiment("fusion:rbf+nn:mad", gal, probes,
                                       replace(cfg, spread=spread)).rate
                for spread in (0.9, 20.0)}
    assert row.rate == fused_at[20.0] != fused_at[0.9]


def test_table_rows_run_at_the_spreads_their_rule_picks():
    # on the table_rows fixture RBF sits at chance at every spread; here each
    # kernel and fusion rate moves with the spread, so each row's rate is
    # read at one spread only: a kernel row's first best point of its own
    # sweep, and the fusion row at RBF's first best spread
    split = Split(hard_corpus(0, 8, 8, 24, 20), 4)
    cfg = EvalConfig(epochs=20, hidden=8, max_centers=20)
    spreads = [1.0, 2.0, 3.0, 4.0, 6.0, 8.0]
    rows = {row.key: row for row in table1_report(split, cfg, spreads=spreads)}
    gal, probes = extract_split_features(split, DCT, mask=ZonalMask.rectangular(10))
    rates = {name: [pt.rate for pt in sweep_spread(gal, probes, name, spreads, cfg)]
             for name in ("pnn", "rbf")}
    rates["fusion:rbf+nn:mad"] = [run_experiment("fusion:rbf+nn:mad", gal, probes,
                                                 replace(cfg, spread=spread)).rate
                                  for spread in spreads]
    assert rates == {"pnn": [50.0, 46.875, 46.875, 46.875, 40.625, 31.25],
                     "rbf": [12.5, 12.5, 12.5, 12.5, 25.0, 21.875],
                     "fusion:rbf+nn:mad": [31.25, 28.125, 28.125, 31.25, 50.0, 53.125]}
    rbf_best = spreads[rates["rbf"].index(max(rates["rbf"]))]
    for key, spread in (("pnn", 1.0), ("rbf", rbf_best), ("fusion:rbf+nn:mad", rbf_best)):
        assert [at for at, rate in zip(spreads, rates[key])
                if rate == rows[key].rate] == [spread], key


def test_table_rows_keep_their_sources_predictions(table_rows):
    # a PNN/RBF row keeps its sweep's first best point's predictions, and any
    # other row those of its one run at RBF's first best spread
    split, cfg, rows = table_rows
    features = {"dct": extract_split_features(split, DCT, mask=ZonalMask.rectangular(10)),
                "eigenfaces": extract_split_features(split, KLT, dim=200, clamp=True)}
    best = {name: max(sweep_spread(*features["dct"], name, [0.9, 2.0], cfg),
                      key=lambda pt: pt.rate) for name in ("pnn", "rbf")}
    run_cfg = replace(cfg, spread=best["rbf"].param)
    for row in rows:
        gal, probes = features[row.feature]
        source = (best[row.key] if row.key in best
                  else run_experiment(row.key, gal, probes, run_cfg))
        assert np.array_equal(row.preds, source.preds), row.key
        assert np.array_equal(row.truth, probes.labels), row.key
        assert row.rate == source.rate, row.key
        assert row.collapsed == source.collapsed, row.key


def test_table_logs_each_collapsed_sweep_and_the_mlp_stop(table_rows):
    # at spread 0.01 no activation reaches any probe, at 20 every one is reached
    split, cfg, rows = table_rows
    lines = []
    logged = table1_report(split, cfg, spreads=[0.01, 0.9, 20.0], log=lines.append)
    gal, _ = extract_split_features(split, DCT, mask=ZonalMask.rectangular(10))
    z = gal.normalized_matrix()
    dists = np.sqrt(((z[:, None, :] - z[None, :, :]) ** 2).sum(axis=2))
    np.fill_diagonal(dists, np.inf)
    scale = f"{np.median(dists.min(axis=1)):.4g}"
    collapsed = {row.key: row.collapsed for row in logged if row.key in ("pnn", "rbf")}
    assert collapsed == {"pnn": {"pnn": 0}, "rbf": {"rbf": 0}}
    assert lines[:2] == [
        f"warning: pnn: probes took the nearest-neighbor fallback at spread 0.01 "
        f"(worst 6/6 at 0.01); the gallery's median nearest-neighbor z-distance is "
        f"{scale} against a largest spread of 20",
        f"warning: rbf: probes sat at the bias at spread 0.01, 0.9 (worst 6/6 at 0.01); "
        f"the gallery's median nearest-neighbor z-distance is {scale} against a "
        f"largest spread of 20"]
    mlp = run_experiment("mlp", *extract_split_features(
        split, DCT, mask=ZonalMask.rectangular(10)), cfg).models["mlp"]
    assert lines[2:] == [f"mlp: SCG stopped after {mlp.curve.size - 1} epochs "
                         f"({mlp.stop_reason}), last lambda {mlp.last_lambda:.6g}"]
    # where no probe collapses, only the MLP line is logged
    lines.clear()
    table1_report(split, cfg, spreads=[20.0], log=lines.append)
    assert len(lines) == 1 and lines[0].startswith("mlp: SCG stopped after 80 epochs")


def test_table_rows_filter(table_rows):
    split, cfg, _ = table_rows
    rows = table1_report(split, cfg, rows_filter="nn", spreads=[0.9])
    assert [r.key for r in rows] == ["nn:mad", "nn:mse"] * 3
    assert [r.feature for r in rows] == ["eigenfaces"] * 4 + ["dct"] * 2
    only_mlp = table1_report(split, cfg, rows_filter="mlp", spreads=[0.9])
    assert [r.key for r in only_mlp] == ["mlp"]


@pytest.mark.parametrize("rows_filter,swept", [
    ("nn", []), ("mlp", []), ("pnn", ["pnn"]), ("rbf", ["rbf"]),
    ("fusion:", ["rbf"]), ("", ["pnn", "rbf"]),
])
def test_table_rows_filter_runs_only_needed_sweeps(table_rows, monkeypatch,
                                                   rows_filter, swept):
    split, cfg, all_rows = table_rows
    calls = []

    def counted(gallery_feats, probe_feats, classifier, *args, **kwargs):
        calls.append(classifier)
        return sweep_spread(gallery_feats, probe_feats, classifier, *args, **kwargs)

    monkeypatch.setattr(evaluation, "sweep_spread", counted)
    rows = table1_report(split, cfg, rows_filter=rows_filter, spreads=[0.9, 2.0])
    assert calls == swept
    assert [compared(r) for r in rows] == [compared(r) for r in all_rows
                                           if r.key.startswith(rows_filter)]


def count_eigensolves(monkeypatch) -> dict:
    """Calls of numpy's symmetric eigensolvers from here on."""
    calls = {"eigh": 0, "eigvalsh": 0}

    def counting(name):
        original = getattr(np.linalg, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return counted

    for name in calls:
        monkeypatch.setattr(np.linalg, name, counting(name))
    return calls


@pytest.mark.parametrize("rows_filter,fits,dims", [
    ("nn", 1, [109, 109, 100, 100, 100, 100]), ("mlp", 0, [100]),
])
def test_table_fits_one_eigenbasis(monkeypatch, rows_filter, fits, dims):
    # 110 gallery images: rank 109, so the 200 and 100 rows want different dims;
    # the one basis fit's eigendecomposition also gives that rank
    split = Split(synth_corpus(seed=19, n_subjects=22, samples=6, rows=16, cols=14), 5)
    calls = count_eigensolves(monkeypatch)
    cfg = EvalConfig(epochs=20, hidden=4)
    rows = table1_report(split, cfg, rows_filter=rows_filter, spreads=[0.9])
    assert calls == {"eigh": fits, "eigvalsh": 0}
    assert [r.dim for r in rows] == dims
    monkeypatch.undo()
    # the sliced features decide as a separate fit at each dim does
    for row in rows:
        if row.feature == "eigenfaces":
            gal, probes = extract_split_features(split, KLT, dim=row.dim)
            run = run_experiment(row.key, gal, probes, cfg)
            assert row.rate == run.rate
            assert np.array_equal(row.preds, run.preds)


def test_table_rows_filter_matching_nothing_transforms_nothing(table_rows, monkeypatch):
    split, cfg, _ = table_rows

    def refuse(*args, **kwargs):
        raise AssertionError("transformed before the rows filter was applied")

    monkeypatch.setattr(evaluation, "transform_corpus", refuse)
    assert table1_report(split, cfg, rows_filter="xyz", spreads=[0.9]) == []


def test_table_refuses_repeated_spreads(table_rows):
    split, cfg, _ = table_rows
    with pytest.raises(ValueError, match="repeats"):
        table1_report(split, cfg, rows_filter="nn", spreads=[0.9, 0.9])


def test_table_refuses_a_gallery_of_rank_0():
    # every gallery image the same: the clamped eigenface fit keeps no
    # component, and the eigenface rows must not run on an empty band
    corpus = Corpus(np.full((4, 6, 5), 0.5), [1, 1, 2, 2], [1, 2, 1, 2])
    with pytest.raises(RankError, match="requested 200 eigenfaces but the gallery "
                                        "supports only 0"):
        table1_report(Split(corpus, 1), EvalConfig(), rows_filter="nn:mse", spreads=[0.9])


def test_format_table(table_rows):
    _, _, rows = table_rows
    text = format_table(rows)
    lines = text.splitlines()
    assert lines[0].split() == ["feature", "dim", "classifier", "paper", "measured"]
    assert len(lines) == 2 + len(rows)
    assert "86.5" in text


# ---------------------------------------------------------------------------
# exports


def test_manifest_is_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    write_manifest({"zeta": 1, "alpha": {"y": 2, "x": 3}}, a)
    write_manifest({"alpha": {"x": 3, "y": 2}, "zeta": 1}, b)
    assert a.read_bytes() == b.read_bytes()
    assert json.loads(a.read_text()) == {"zeta": 1, "alpha": {"x": 3, "y": 2}}


def test_result_csv(tmp_path, dct_features):
    gal, probes = dct_features
    result = run_experiment("nn:mad", gal, probes)
    path = tmp_path / "result.csv"
    write_result_csv(result, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "probe,subject_true,subject_pred"
    assert lines[1:] == [f"s{label}_{sample},{label},{pred}" for label, sample, pred
                         in zip(probes.labels, probes.sample_ids, result.preds)]


def test_fusion_report_csv(tmp_path, dct_features):
    gal, probes = dct_features
    result = run_experiment("fusion:pnn+nn:mse", gal, probes, EvalConfig(spread=2.0))
    path = tmp_path / "report.csv"
    write_fusion_report(result, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "probe,subject_true,subject_pred,fused_score"
    # the result.csv columns, then each probe's top fused score, repr-exact
    result_path = tmp_path / "result.csv"
    write_result_csv(result, result_path)
    tops = result.fused.max(axis=1)
    for line, result_line, top in zip(lines[1:], result_path.read_text().splitlines()[1:],
                                      tops):
        head, score = line.rsplit(",", 1)
        assert head == result_line
        assert float(score) == top


def test_curve_csv(tmp_path):
    # 1 of 2 probes right, then 151 of 200
    points = [SweepPoint([1, 2], [1, 1], param=1.0, dim=1),
              SweepPoint([1] * 200, [1] * 151 + [2] * 49, param=2.0, dim=4)]
    path = tmp_path / "curve.csv"
    write_curve_csv(points, path, "side")
    lines = path.read_text().splitlines()
    assert lines[0] == "side,dim,rate"
    assert lines[2] == "2.0,4,75.5"


def test_table_csv(tmp_path, table_rows):
    _, _, rows = table_rows
    path = tmp_path / "table.csv"
    write_table_csv(rows, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "feature,dim,classifier,paper_rate,measured_rate"
    assert len(lines) == 11
    assert lines[1].startswith("eigenfaces,29,NN (MAD),86.5,")

