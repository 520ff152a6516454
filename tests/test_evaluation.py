"""Experiment harness: rates, sweeps, the benchmark table, exports."""

import json
from dataclasses import replace

import numpy as np
import pytest

from faceid.classifiers import (
    HIGHER, MAD, MSE, Gallery, MLPModel, mlp_scores, nn_scores,
    pnn_classify, rbf_scores,
)
from faceid.dataset import split_first_k, synth_corpus
from faceid.eigenfaces import RankError
from faceid.evaluation import (
    DCT, KLT, RECTANGULAR, EvalConfig, SweepPoint,
    TABLE_TARGETS, default_dim_grid,
    extract_split_features, format_table, identification_rate, identify,
    parse_classifier_spec, run_experiment, sweep_dimension, sweep_spread,
    table1_report, write_curve_csv, write_manifest,
    write_result_csv, write_table_csv,
)
from faceid import evaluation
from faceid.transforms import SECTORIAL, Features, ZonalMask


# ---------------------------------------------------------------------------
# identification rate


def test_rate_trivial_cases():
    assert identification_rate([(1, 1), (2, 2)]) == 100.0
    assert identification_rate([(1, 2), (2, 1)]) == 0.0
    assert identification_rate([(1, 1), (2, 1)]) == 50.0


def test_rate_example_from_protocol():
    pairs = [(1, 1)] * 185 + [(1, 2)] * 15
    assert identification_rate(pairs) == 92.5


def test_rate_empty():
    with pytest.raises(ValueError):
        identification_rate([])


# ---------------------------------------------------------------------------
# classifier spec parsing


def test_parse_single_specs():
    assert parse_classifier_spec("nn:mad") == ["nn:mad"]
    assert parse_classifier_spec(" MLP ") == ["mlp"]
    assert parse_classifier_spec("fusion:rbf+nn:mad") == ["rbf", "nn:mad"]
    assert parse_classifier_spec("fusion:pnn") == ["pnn"]


def test_parse_rejects_unknown():
    with pytest.raises(ValueError):
        parse_classifier_spec("svm")
    with pytest.raises(ValueError):
        parse_classifier_spec("fusion:rbf+svm")
    with pytest.raises(ValueError):
        parse_classifier_spec("fusion:")


# ---------------------------------------------------------------------------
# run_experiment


def test_nn_experiment_structure(dct_features):
    gal, probes = dct_features
    result = run_experiment("nn:mad", gal, probes)
    assert len(result.pairs) == len(probes)
    assert 0.0 <= result.rate <= 100.0
    assert result.probe_tags[0] == f"s{probes.labels[0]}_{probes.sample_ids[0]}"
    assert result.probe_tags == [f"s{label}_{sample}" for label, sample
                                 in zip(probes.labels, probes.sample_ids)]


def test_nn_experiment_matches_per_probe_loop(dct_features):
    gal, probes = dct_features
    result = run_experiment("nn:mse", gal, probes)
    for (true_id, pred_id), probe, label in zip(result.pairs, probes.matrix, probes.labels):
        # exhaustive search; scanning ids in ascending order keeps the lowest on ties
        best = {}
        for row, sid in zip(gal.matrix, gal.labels.tolist()):
            d = float((probe - row) @ (probe - row))
            best[sid] = min(d, best.get(sid, np.inf))
        want = min(sorted(best), key=lambda sid: best[sid])
        assert pred_id == want
        assert true_id == label


def test_single_member_decision_matches_raw_arg_best(dct_features):
    # normalizing one member's scores before the arg-max changes no decision
    gal, probes = dct_features
    gallery = Gallery(gal.matrix, gal.labels)
    block = probes.matrix
    cfg = EvalConfig(spread=2.0, max_centers=12, epochs=30, hidden=5)
    scorers = {"mlp": mlp_scores, "pnn": pnn_classify, "rbf": rbf_scores}
    for spec in ("nn:mad", "nn:mse", "mlp", "pnn", "rbf"):
        models = {}
        preds, _ = identify([spec], gallery, block, cfg, models)
        if spec in scorers:
            scores, polarity = scorers[spec](models[spec], block)
        else:
            scores, polarity = nn_scores(block, gallery, spec[len("nn:"):])
        best = np.argmax(scores, axis=1) if polarity == HIGHER else np.argmin(scores, axis=1)
        assert preds.tolist() == gallery.subject_ids[best].tolist()
        result = run_experiment(spec, gal, probes, cfg)
        assert [p for _, p in result.pairs] == preds.tolist()


def test_nonfinite_scores_fail_the_experiment(dct_features):
    gal, probes = dct_features
    bad = replace(probes, matrix=np.full_like(probes.matrix, np.nan))
    for spec in ("nn:mad", "pnn", "fusion:rbf+nn:mse"):
        with pytest.raises(ValueError, match="finite"):
            run_experiment(spec, gal, bad, EvalConfig(max_centers=5))


def test_fusion_experiment_artifacts(dct_features):
    gal, probes = dct_features
    cfg = EvalConfig(spread=2.0, max_centers=12)
    artifacts = {}
    result = run_experiment("fusion:rbf+nn:mad", gal, probes, cfg, artifacts=artifacts)
    assert set(artifacts["models"]) == {"rbf"}  # nn trains nothing
    rows = artifacts["fusion_rows"]
    assert len(rows) == len(probes)
    tag, true_id, pred_id, fused = rows[0]
    assert (true_id, pred_id) == result.pairs[0]
    assert tag == result.probe_tags[0]
    assert 0.0 <= fused <= 1.0


def test_single_model_experiment_artifacts(dct_features):
    gal, probes = dct_features
    cfg = EvalConfig(epochs=40, hidden=6)
    artifacts = {}
    run_experiment("mlp", gal, probes, cfg, artifacts=artifacts)
    assert isinstance(artifacts["models"]["mlp"], MLPModel)
    assert "fusion_rows" not in artifacts  # only fused runs report opinions


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
        want = run_experiment("nn:mad", gal, probes).rate
        assert pt.rate == want


def test_dimension_sweep_klt_rank_guard(small_split):
    with pytest.raises(RankError, match="rank"):
        sweep_dimension(small_split, KLT, grid=[24])  # 24 gallery images: rank 23


@pytest.mark.parametrize("grid", [[-3, 2], [0, 1, 2], [0.5, 2]])
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


def test_spread_sweep(dct_features):
    gal, probes = dct_features
    points = sweep_spread(gal, probes, "pnn", spreads=[2.0, 0.5, 1.0])
    assert [pt.param for pt in points] == [0.5, 1.0, 2.0]
    assert all(pt.dim == 25 for pt in points)
    with pytest.raises(ValueError, match="pnn or rbf"):
        sweep_spread(gal, probes, "nn:mad", spreads=[1.0])
    with pytest.raises(ValueError, match="positive"):
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
    want = [run_experiment(classifier, gal, probes, replace(cfg, spread=s)).rate
            for s in spreads]
    assert [pt.rate for pt in points] == want


# ---------------------------------------------------------------------------
# benchmark table


@pytest.fixture(scope="module")
def table_rows():
    corpus = synth_corpus(seed=19, n_subjects=6, samples=6, rows=16, cols=14)
    cfg = EvalConfig(epochs=80, hidden=8, max_centers=20)
    rows = table1_report(corpus, cfg, spreads=[0.9, 2.0])
    return corpus, cfg, rows


def test_table_has_every_benchmark_row(table_rows):
    _, _, rows = table_rows
    assert len(rows) == len(TABLE_TARGETS) == 10
    assert [r.key for r in rows] == [t[2] for t in TABLE_TARGETS]
    assert [r.paper_rate for r in rows] == [t[4] for t in TABLE_TARGETS]
    assert all(0.0 <= r.measured_rate <= 100.0 for r in rows)


def test_table_dims_clamp_to_corpus(table_rows):
    _, _, rows = table_rows
    # 30 gallery images: eigenface rows clamp to rank 29; dct keeps 10x10
    for r in rows:
        if r.feature == "eigenfaces":
            assert r.dim == 29
        else:
            assert r.dim == 100


def test_table_rows_filter(table_rows):
    corpus, cfg, _ = table_rows
    rows = table1_report(corpus, cfg, rows_filter="nn", spreads=[0.9])
    assert [r.key for r in rows] == ["nn:mad", "nn:mse"] * 3
    assert [r.feature for r in rows] == ["eigenfaces"] * 4 + ["dct"] * 2
    only_mlp = table1_report(corpus, cfg, rows_filter="mlp", spreads=[0.9])
    assert [r.key for r in only_mlp] == ["mlp"]


@pytest.mark.parametrize("rows_filter,swept", [
    ("nn", []), ("mlp", []), ("pnn", ["pnn"]), ("rbf", ["rbf"]),
    ("fusion:", ["rbf"]), ("", ["pnn", "rbf"]),
])
def test_table_rows_filter_runs_only_needed_sweeps(table_rows, monkeypatch,
                                                   rows_filter, swept):
    corpus, cfg, all_rows = table_rows
    calls = []

    def counted(gallery_feats, probe_feats, classifier, *args, **kwargs):
        calls.append(classifier)
        return sweep_spread(gallery_feats, probe_feats, classifier, *args, **kwargs)

    monkeypatch.setattr(evaluation, "sweep_spread", counted)
    rows = table1_report(corpus, cfg, rows_filter=rows_filter, spreads=[0.9, 2.0])
    assert calls == swept
    assert rows == [r for r in all_rows if r.key.startswith(rows_filter)]


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
    corpus = synth_corpus(seed=19, n_subjects=22, samples=6, rows=16, cols=14)
    calls = count_eigensolves(monkeypatch)
    cfg = EvalConfig(epochs=20, hidden=4)
    rows = table1_report(corpus, cfg, rows_filter=rows_filter, spreads=[0.9])
    assert calls == {"eigh": fits, "eigvalsh": 0}
    assert [r.dim for r in rows] == dims
    monkeypatch.undo()
    # the sliced features decide as a separate fit at each dim does
    split = split_first_k(corpus, 5)
    for row in rows:
        if row.feature == "eigenfaces":
            gal, probes = extract_split_features(split, KLT, dim=row.dim)
            assert row.measured_rate == run_experiment(row.key, gal, probes, cfg).rate


def test_table_rows_filter_matching_nothing_transforms_nothing(table_rows, monkeypatch):
    corpus, cfg, _ = table_rows

    def refuse(*args, **kwargs):
        raise AssertionError("transformed before the rows filter was applied")

    monkeypatch.setattr(evaluation, "transform_corpus", refuse)
    assert table1_report(corpus, cfg, rows_filter="xyz", spreads=[0.9]) == []


def test_table_refuses_repeated_spreads(table_rows):
    corpus, cfg, _ = table_rows
    with pytest.raises(ValueError, match="repeats"):
        table1_report(corpus, cfg, rows_filter="nn", spreads=[0.9, 0.9])


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
    assert len(lines) == 1 + len(probes)


def test_curve_csv(tmp_path):
    points = [SweepPoint(param=1.0, dim=1, rate=50.0),
              SweepPoint(param=2.0, dim=4, rate=75.5)]
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

