"""End-to-end command-line runs, option plumbing, and exit codes."""

import json

import numpy as np
import pytest

from faceid.classifiers import PNNModel, load_model
from faceid.cli import (
    ConfigError, main, parse_float_grid, parse_int_grid, parse_mask_spec,
    parse_synth_spec, read_config_file,
)
from faceid.transforms import read_features_csv

SYNTH = "subjects=5,samples=6,rows=16,cols=14"


def run(argv):
    return main(argv)


# ---------------------------------------------------------------------------
# option parsing helpers


def test_parse_mask_spec():
    mask = parse_mask_spec("rect:10")
    assert (mask.shape, mask.size) == ("rectangular", 10)
    mask = parse_mask_spec("sector:8.5")
    assert (mask.shape, mask.size) == ("sectorial", 8.5)
    for bad in ("oval:3", "rect:x", "rect", "sector:-1"):
        with pytest.raises(ConfigError):
            parse_mask_spec(bad)


def test_parse_int_grid():
    assert parse_int_grid("1:5") == [1, 2, 3, 4, 5]
    assert parse_int_grid("1,4,9") == [1, 4, 9]
    with pytest.raises(ConfigError):
        parse_int_grid("1:x")


def test_parse_float_grid():
    assert parse_float_grid("0.5:1.0:0.25") == [0.5, 0.75, 1.0]
    assert parse_float_grid("0.5,0.9") == [0.5, 0.9]
    grid = parse_float_grid("0.1:2.0:0.1")
    assert len(grid) == 20
    assert grid[0] == 0.1 and grid[-1] == 2.0
    with pytest.raises(ConfigError):
        parse_float_grid("0.1:2.0")  # step required in range form


def test_parse_synth_spec():
    corpus = parse_synth_spec("", seed=3)
    assert (corpus.n_subjects, corpus.samples_per_subject) == (10, 6)
    corpus = parse_synth_spec("subjects=3,rows=12", seed=3)
    assert corpus.n_subjects == 3
    assert corpus.image_shape == (12, 28)
    with pytest.raises(ConfigError):
        parse_synth_spec("subjects", seed=0)
    with pytest.raises(ConfigError):
        parse_synth_spec("depth=3", seed=0)


def test_read_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\nclassifier = pnn\nspread 2.0\n\nseed=7 # trailing\n")
    values = read_config_file(str(cfg))
    assert values == {"classifier": "pnn", "spread": 2.0, "seed": 7}
    cfg.write_text("nonsense = 1\n")
    with pytest.raises(ConfigError, match="line 1"):
        read_config_file(str(cfg))
    cfg.write_text("seed = notanint\n")
    with pytest.raises(ConfigError):
        read_config_file(str(cfg))
    with pytest.raises(ConfigError, match="cannot read"):
        read_config_file(str(tmp_path / "missing.cfg"))


# ---------------------------------------------------------------------------
# extract


def test_extract_from_synth(tmp_path, capsys):
    out = tmp_path / "out"
    code = run(["extract", "--synth", SYNTH, "--out", str(out)])
    assert code == 0
    gal = read_features_csv(out / "gallery.csv")
    probes = read_features_csv(out / "probes.csv")
    assert len(gal) == 25 and len(probes) == 5  # 5 subjects, train-k 5 of 6
    assert gal[0].dim == 100
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "extract"
    assert manifest["outputs"] == ["gallery.csv", "probes.csv"]
    assert "dataset_checksum" in manifest
    assert "func" not in manifest["config"]
    assert "identification" not in capsys.readouterr().out


def test_extract_from_pgm_tree(pgm_tree, tmp_path):
    root, _ = pgm_tree
    out = tmp_path / "out"
    code = run(["extract", "--data", str(root), "--subjects", "5",
                "--samples", "6", "--train-k", "3", "--mask", "rect:4",
                "--out", str(out)])
    assert code == 0
    gal = read_features_csv(out / "gallery.csv")
    assert len(gal) == 15 and gal[0].dim == 16
    assert {fv.label for fv in gal} == {1, 2, 3, 4, 5}


def test_env_var_fills_data(pgm_tree, tmp_path, monkeypatch):
    root, _ = pgm_tree
    monkeypatch.setenv("FACEID_DATA", str(root))
    out = tmp_path / "out"
    code = run(["extract", "--subjects", "5", "--samples", "6",
                "--out", str(out)])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["data"] == str(root)
    # an explicit source silences the env var
    out2 = tmp_path / "out2"
    code = run(["extract", "--synth", SYNTH, "--out", str(out2)])
    assert code == 0
    manifest = json.loads((out2 / "manifest.json").read_text())
    assert manifest["config"]["data"] is None


# ---------------------------------------------------------------------------
# evaluate


def test_evaluate_nn(tmp_path, capsys):
    out = tmp_path / "out"
    code = run(["evaluate", "--synth", SYNTH, "--classifier", "nn:mad",
                "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "identification rate:" in printed and printed.rstrip().endswith("%")
    lines = (out / "result.csv").read_text().splitlines()
    assert lines[0] == "probe,subject_true,subject_pred"
    assert len(lines) == 6


def test_evaluate_pnn_saves_model(tmp_path):
    out = tmp_path / "out"
    code = run(["evaluate", "--synth", SYNTH, "--classifier", "pnn",
                "--spread", "1.5", "--out", str(out)])
    assert code == 0
    model = load_model(out / "model_pnn.npz")
    assert isinstance(model, PNNModel)
    assert model.spread == 1.5


def test_evaluate_mlp_writes_training_log(tmp_path):
    out = tmp_path / "out"
    code = run(["evaluate", "--synth", SYNTH, "--classifier", "mlp",
                "--epochs", "30", "--hidden", "4", "--out", str(out)])
    assert code == 0
    assert (out / "model_mlp.npz").exists()
    log = (out / "training_log.csv").read_text().splitlines()
    assert log[0] == "epoch,loss"
    assert len(log) >= 3
    losses = [float(row.split(",")[1]) for row in log[1:]]
    assert losses[-1] <= losses[0]


def test_evaluate_fusion_writes_report(tmp_path):
    out = tmp_path / "out"
    code = run(["evaluate", "--synth", SYNTH,
                "--classifier", "fusion:rbf+nn:mad", "--spread", "2.0",
                "--max-centers", "10", "--out", str(out)])
    assert code == 0
    report = (out / "fusion_report.csv").read_text().splitlines()
    assert report[0] == "probe,subject_true,subject_pred,fused_score"
    assert len(report) == 6
    assert (out / "model_rbf.npz").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert "fusion_report.csv" in manifest["outputs"]


def test_evaluate_reruns_are_byte_identical(tmp_path):
    out = tmp_path / "out"
    argv = ["evaluate", "--synth", SYNTH, "--classifier", "pnn",
            "--spread", "1.0", "--out", str(out)]
    assert run(argv) == 0
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    assert run(argv) == 0
    second = {p.name: p.read_bytes() for p in out.iterdir()}
    assert first == second


def test_config_file_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("classifier = pnn\nspread = 2.0\n")
    out1 = tmp_path / "a"
    assert run(["evaluate", "--synth", SYNTH, "--config", str(cfg),
                "--out", str(out1)]) == 0
    manifest = json.loads((out1 / "manifest.json").read_text())
    assert manifest["config"]["classifier"] == "pnn"
    assert manifest["config"]["spread"] == 2.0
    assert (out1 / "model_pnn.npz").exists()

    # explicit flag beats the file
    out2 = tmp_path / "b"
    assert run(["evaluate", "--synth", SYNTH, "--config", str(cfg),
                "--classifier", "nn:mad", "--out", str(out2)]) == 0
    manifest = json.loads((out2 / "manifest.json").read_text())
    assert manifest["config"]["classifier"] == "nn:mad"
    assert manifest["config"]["spread"] == 2.0  # file still fills the rest


def test_config_file_values_obey_flag_choices(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    for line in ("complex_mode = bogus", "fusion_mode = nope", "transform = wavelet",
                 "metric = cosine", "mask_shape = oval"):
        cfg.write_text(f"seed = 1\n{line}\n")
        out = tmp_path / "out"
        assert run(["evaluate", "--synth", SYNTH, "--train-k", "3",
                    "--config", str(cfg), "--out", str(out)]) == 2
        assert "line 2" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()
    cfg.write_text("complex_mode = interleave\nfusion_mode = zscore\nmask_shape = sector\n")
    assert run(["evaluate", "--synth", SYNTH, "--train-k", "3", "--config", str(cfg),
                "--out", str(tmp_path / "ok")]) == 0
    manifest = json.loads((tmp_path / "ok" / "manifest.json").read_text())
    assert manifest["config"]["fusion_mode"] == "zscore"


# ---------------------------------------------------------------------------
# sweep and table1


def test_sweep_dim(tmp_path, capsys):
    out = tmp_path / "out"
    code = run(["sweep", "--axis", "dim", "--synth", SYNTH,
                "--grid", "1,2,3", "--out", str(out)])
    assert code == 0
    lines = (out / "curve.csv").read_text().splitlines()
    assert lines[0] == "param,dim,rate"
    assert len(lines) == 4
    assert [int(ln.split(",")[1]) for ln in lines[1:]] == [1, 4, 9]
    assert "best rate" in capsys.readouterr().out


def test_sweep_spread(tmp_path):
    out = tmp_path / "out"
    code = run(["sweep", "--axis", "spread", "--synth", SYNTH,
                "--classifier", "pnn", "--spreads", "0.5,1.0",
                "--out", str(out)])
    assert code == 0
    lines = (out / "curve.csv").read_text().splitlines()
    assert lines[0] == "spread,dim,rate"
    assert len(lines) == 3


def test_sweep_spread_needs_kernel_classifier(tmp_path, capsys):
    code = run(["sweep", "--axis", "spread", "--synth", SYNTH,
                "--classifier", "nn:mad", "--out", str(tmp_path / "o")])
    assert code == 2
    assert "pnn or rbf" in capsys.readouterr().err


def test_table1_rows_filter(tmp_path, capsys):
    out = tmp_path / "out"
    code = run(["table1", "--synth", "subjects=4,samples=6,rows=12,cols=10",
                "--rows", "nn", "--spreads", "1.0", "--out", str(out)])
    assert code == 0
    lines = (out / "table1.csv").read_text().splitlines()
    assert len(lines) == 7  # header + six nearest-neighbor rows
    printed = capsys.readouterr().out
    assert "eigenfaces" in printed and "measured" in printed


def test_table1_bad_filter(tmp_path, capsys):
    code = run(["table1", "--synth", SYNTH, "--rows", "zzz",
                "--spreads", "1.0", "--out", str(tmp_path / "o")])
    assert code == 2
    assert "matches no table rows" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# failure modes and exit codes


def test_no_source_is_config_error(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("FACEID_DATA", raising=False)
    code = run(["extract", "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert "exactly one dataset source" in err
    assert "usage:" in err


def test_two_sources_is_config_error(pgm_tree, tmp_path, capsys):
    root, _ = pgm_tree
    code = run(["extract", "--data", str(root), "--synth", SYNTH,
                "--out", str(tmp_path / "o")])
    assert code == 2


def test_unknown_classifier_is_config_error(tmp_path, capsys):
    code = run(["evaluate", "--synth", SYNTH, "--classifier", "svm",
                "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert "unknown classifier" in err
    assert "usage:" in err


def test_missing_files_is_data_error(pgm_tree, tmp_path, capsys):
    root, _ = pgm_tree
    (root / "s3" / "2.pgm").unlink()
    code = run(["extract", "--data", str(root), "--subjects", "5",
                "--samples", "6", "--out", str(tmp_path / "o")])
    assert code == 3
    err = capsys.readouterr().err
    assert "data error:" in err
    assert "s3/2.pgm" in err


def test_rank_overflow_is_data_error(tmp_path, capsys):
    # 25 gallery images give rank 24; asking for 25 components trips the
    # rank check rather than the argument bound
    code = run(["evaluate", "--synth", SYNTH, "--transform", "klt",
                "--dim", "25", "--classifier", "nn:mad",
                "--out", str(tmp_path / "o")])
    assert code == 3
    assert "rank" in capsys.readouterr().err


def test_klt_requires_dim(tmp_path, capsys):
    code = run(["evaluate", "--synth", SYNTH, "--transform", "klt",
                "--classifier", "nn:mad", "--out", str(tmp_path / "o")])
    assert code == 2
    assert "requires --dim" in capsys.readouterr().err


def test_checksum_mismatch_warns_but_proceeds(tmp_path, capsys):
    out = tmp_path / "out"
    assert run(["extract", "--synth", SYNTH, "--seed", "1",
                "--out", str(out)]) == 0
    capsys.readouterr()
    assert run(["extract", "--synth", SYNTH, "--seed", "2",
                "--out", str(out)]) == 0
    assert "checksum differs" in capsys.readouterr().err
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["seed"] == 2  # second run still wrote its manifest
