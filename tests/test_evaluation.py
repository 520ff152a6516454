"""Experiment harness: rates, sweeps, histograms, the benchmark table, exports."""

import json

import numpy as np
import pytest

from faceid.classifiers import (
    HIGHER, Gallery, MLPModel, mlp_scores, mse_dist, nn_scores, pnn_classify,
    rbf_scores,
)
from faceid.dataset import synth_corpus
from faceid.evaluation import (
    DCT, KLT, RECTANGULAR, SECTORIAL, EvalConfig, GaussianFit, SweepPoint,
    TABLE_TARGETS, default_dim_grid, distance_histograms,
    extract_split_features, format_table, identification_rate, identify,
    parse_classifier_spec, run_experiment, sweep_dimension, sweep_spread,
    table1_report, write_curve_csv, write_histogram_csv, write_manifest,
    write_result_csv, write_table_csv,
)
from faceid.transforms import ZonalMask


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
    result = run_experiment("nn:mad", gal, probes, extra_config={"note": "x"})
    assert len(result.pairs) == len(probes)
    assert 0.0 <= result.rate <= 100.0
    assert result.runtime >= 0.0
    assert result.config["classifier"] == "nn:mad"
    assert result.config["dim"] == 25
    assert result.config["note"] == "x"
    assert result.probe_tags[0] == f"s{probes[0].label}_{probes[0].sample_id}"


def test_nn_experiment_matches_per_probe_loop(dct_features):
    gal, probes = dct_features
    result = run_experiment("nn:mse", gal, probes)
    for (true_id, pred_id), fv in zip(result.pairs, probes):
        # exhaustive search; scanning ids in ascending order keeps the lowest on ties
        best = {}
        for g in gal:
            d = mse_dist(fv, g)
            best[g.label] = min(d, best.get(g.label, np.inf))
        want = min(sorted(best), key=lambda sid: best[sid])
        assert pred_id == want
        assert true_id == fv.label


def test_single_member_decision_matches_raw_arg_best(dct_features):
    # normalizing one member's scores before the arg-max changes no decision
    gal, probes = dct_features
    gallery = Gallery.from_features(gal)
    block = np.stack([fv.coeffs for fv in probes])
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
    from faceid.transforms import FeatureVector
    bad = [FeatureVector(coeffs=np.full(fv.dim, np.nan), source=fv.source,
                         label=fv.label, sample_id=fv.sample_id) for fv in probes]
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
    gal, probes = dct_features
    from faceid.transforms import FeatureVector
    bad = [FeatureVector(coeffs=fv.coeffs, source=fv.source) for fv in probes]
    with pytest.raises(ValueError, match="labels"):
        run_experiment("nn:mad", gal, bad)


# ---------------------------------------------------------------------------
# sweeps


def test_dimension_sweep_rectangular(small_split):
    points = sweep_dimension(small_split, DCT, RECTANGULAR, grid=[3, 1, 2])
    assert [pt.param for pt in points] == [1.0, 2.0, 3.0]  # sorted
    assert [pt.dim for pt in points] == [1, 4, 9]
    assert all(0.0 <= pt.rate <= 100.0 for pt in points)


def test_dimension_sweep_sectorial(small_split):
    points = sweep_dimension(small_split, DCT, SECTORIAL, grid=[1.5, 2.5])
    want = [ZonalMask.sectorial(r).dim(24, 20) for r in (1.5, 2.5)]
    assert [pt.dim for pt in points] == want


def test_dimension_sweep_klt_slicing_matches_retraining(small_split):
    grid = [2, 5, 10]
    points = sweep_dimension(small_split, KLT, grid=grid)
    for pt in points:
        gal, probes = extract_split_features(small_split, KLT, dim=pt.dim)
        want = run_experiment("nn:mad", gal, probes).rate
        assert pt.rate == want


def test_dimension_sweep_klt_rank_guard(small_split):
    with pytest.raises(ValueError, match="rank"):
        sweep_dimension(small_split, KLT, grid=[len(small_split.gallery)])


def test_dimension_sweep_empty_grid(small_split):
    with pytest.raises(ValueError, match="empty"):
        sweep_dimension(small_split, DCT, grid=[])


def test_default_dim_grid():
    assert default_dim_grid(DCT, 24, 20, 24) == list(range(1, 21))
    assert default_dim_grid(DCT, 112, 92, 200) == list(range(1, 31))
    assert default_dim_grid(KLT, 24, 20, 24) == [5, 10, 20]
    assert default_dim_grid(KLT, 24, 20, 3) == [2]


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


# ---------------------------------------------------------------------------
# histograms


def test_histogram_counts_account_for_every_comparison():
    rng = np.random.default_rng(0)
    matrix = rng.random((6, 8))
    probe_labels = [1, 1, 2, 2, 3, 3]
    column_labels = [1, 1, 1, 2, 2, 3, 3, 4]
    hist = distance_histograms(matrix, probe_labels, column_labels)
    assert hist.intra.size + hist.inter.size == 6 * 8
    assert hist.intra_counts.sum() == hist.intra.size
    assert hist.inter_counts.sum() == hist.inter.size
    assert hist.bin_edges.size == 41  # shared edges for both sides


def test_histogram_split_by_label_match():
    matrix = np.array([[0.1, 5.0], [6.0, 0.2]])
    hist = distance_histograms(matrix, [1, 2], [1, 2], bins=4)
    assert sorted(hist.intra.tolist()) == [0.1, 0.2]
    assert sorted(hist.inter.tolist()) == [5.0, 6.0]
    assert hist.intra_fit.mean == pytest.approx(0.15)
    assert hist.intra_fit.std == pytest.approx(0.05)  # population std
    assert hist.inter_fit.mean == pytest.approx(5.5)


def test_histogram_empty_side_fit_is_none():
    hist = distance_histograms(np.ones((2, 2)), [1, 2], [3, 4])
    assert hist.intra.size == 0
    assert hist.intra_fit is None
    assert isinstance(hist.inter_fit, GaussianFit)


def test_histogram_validation():
    with pytest.raises(ValueError, match="2-D"):
        distance_histograms(np.ones(4), [1], [1])
    with pytest.raises(ValueError, match="lengths"):
        distance_histograms(np.ones((2, 2)), [1], [1, 2])


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


def test_histogram_csv(tmp_path):
    hist = distance_histograms(np.arange(12.0).reshape(3, 4), [1, 2, 3],
                               [1, 2, 3, 4], bins=5)
    path = tmp_path / "hist.csv"
    write_histogram_csv(hist, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "bin_left,bin_right,intra_count,inter_count"
    assert len(lines) == 6
    total = sum(int(ln.split(",")[2]) + int(ln.split(",")[3]) for ln in lines[1:])
    assert total == 12
