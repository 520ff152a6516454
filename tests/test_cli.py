"""End-to-end command-line runs, option plumbing, and exit codes."""

import json
import re

import numpy as np
import pytest

from faceid.classifiers import PNNModel
from faceid.cli import (
    ConfigError, build_parser, config_options, main, parse_float_grid,
    parse_int_grid, parse_mask_spec, parse_radius_grid, parse_synth_spec,
    read_config_file,
)
from faceid.dataset import split_first_k, synth_corpus
from faceid.evaluation import sweep_dimension, write_curve_csv
from faceid.transforms import SECTORIAL

from conftest import read_features_csv, read_model

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


def test_parse_radius_grid():
    assert parse_radius_grid("2.5,3.5") == [2.5, 3.5]
    assert parse_radius_grid("2:4:0.5") == [2.0, 2.5, 3.0, 3.5, 4.0]
    assert parse_radius_grid("1:3") == [1.0, 2.0, 3.0]
    for bad in ("1:x", "2.5:4", "1:2:3:4"):
        with pytest.raises(ConfigError):
            parse_radius_grid(bad)


def test_parse_synth_spec():
    corpus = parse_synth_spec("", seed=3)
    assert (corpus.n_subjects, corpus.samples_per_subject) == (10, 6)
    corpus = parse_synth_spec("subjects=3,rows=12", seed=3)
    assert corpus.n_subjects == 3
    assert corpus.pixels.shape[1:] == (12, 28)
    with pytest.raises(ConfigError):
        parse_synth_spec("subjects", seed=0)
    with pytest.raises(ConfigError):
        parse_synth_spec("depth=3", seed=0)


def test_read_config_file(tmp_path):
    options = config_options(build_parser())
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\nclassifier = pnn\nspread 2.0\n\nseed=7 # trailing\n")
    values = read_config_file(str(cfg), options)
    assert values == {"classifier": "pnn", "spread": 2.0, "seed": 7}
    cfg.write_text("nonsense = 1\n")
    with pytest.raises(ConfigError, match="line 1"):
        read_config_file(str(cfg), options)
    cfg.write_text("seed = notanint\n")
    with pytest.raises(ConfigError):
        read_config_file(str(cfg), options)
    with pytest.raises(ConfigError, match="cannot read"):
        read_config_file(str(tmp_path / "missing.cfg"), options)


def test_config_options_come_from_the_parser():
    # the keys and types a config file takes, as the CLI's flags declare them
    frozen = {
        "data": str, "manifest": str, "synth": str, "out": str,
        "transform": str, "mask": str, "metric": str, "classifier": str,
        "mask_shape": str, "complex_mode": str, "fusion_mode": str,
        "grid": str, "spreads": str, "rows": str,
        "dim": int, "train_k": int, "seed": int, "epochs": int, "hidden": int,
        "max_centers": int, "subjects": int, "samples": int,
        "gamma": float, "spread": float, "r_low": float, "log_offset": float,
    }
    options = config_options(build_parser())
    assert {key: kind for key, (kind, _) in options.items()} == frozen
    choices = {key: allowed for key, (_, allowed) in options.items() if allowed}
    assert choices == {"transform": ["dct", "dft", "logdft", "klt"],
                       "complex_mode": ["modulus", "interleave"],
                       "fusion_mode": ["minmax", "zscore"],
                       "metric": ["mad", "mse"], "mask_shape": ["rect", "sector"]}


# ---------------------------------------------------------------------------
# extract


def test_extract_from_synth(tmp_path, capsys):
    out = tmp_path / "out"
    code = run(["extract", "--synth", SYNTH, "--out", str(out)])
    assert code == 0
    gal = read_features_csv(out / "gallery.csv")
    probes = read_features_csv(out / "probes.csv")
    assert len(gal) == 25 and len(probes) == 5  # 5 subjects, train-k 5 of 6
    assert gal.dim == 100
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
    assert len(gal) == 15 and gal.dim == 16
    assert set(gal.labels.tolist()) == {1, 2, 3, 4, 5}


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
    model = read_model(out / "model_pnn.npz")
    assert isinstance(model, PNNModel)
    assert model.spread == 1.5


def test_evaluate_mlp_writes_training_log(tmp_path, capsys):
    out = tmp_path / "out"
    code = run(["evaluate", "--synth", SYNTH, "--classifier", "mlp",
                "--epochs", "30", "--hidden", "4", "--out", str(out)])
    assert code == 0
    # the stop reason goes to stderr only, never into the written files
    err = capsys.readouterr().err
    assert "mlp: SCG stopped after 30 epochs (epoch budget), last lambda" in err
    for path in out.iterdir():
        assert b"epoch budget" not in path.read_bytes()
    assert (out / "model_mlp.npz").exists()
    log = (out / "training_log.csv").read_text().splitlines()
    assert log[0] == "epoch,loss"
    assert len(log) >= 3
    losses = [float(row.split(",")[1]) for row in log[1:]]
    assert losses[-1] <= losses[0]


@pytest.mark.parametrize("spread,at_bias", [("0.01", 5), ("20", 0)])
def test_evaluate_rbf_reports_growth_on_stderr(tmp_path, capsys, spread, at_bias):
    # a spread far below the gallery distances leaves every probe at the bias
    out = tmp_path / "out"
    argv = ["evaluate", "--synth", SYNTH, "--classifier", "rbf",
            "--spread", spread, "--max-centers", "6", "--out", str(out)]
    runs = []
    for _ in range(2):
        assert run(argv) == 0
        err = capsys.readouterr().err
        assert re.search(r"^rbf: 6 centers, [1-6] picked by the tie rule, final residual "
                         rf"[0-9.e+-]+, {at_bias}/5 probes at the bias$", err, re.M), err
        runs.append({p.name: p.read_bytes() for p in out.iterdir()})
    # the line is a diagnostic: it goes into no written file, the model saves
    # no tie count, and reruns stay byte-identical
    assert sorted(runs[0]) == ["manifest.json", "model_rbf.npz", "result.csv"]
    assert runs[0] == runs[1]
    for data in runs[0].values():
        assert b"tie rule" not in data and b"tied_picks" not in data
    assert read_model(out / "model_rbf.npz").tied_picks is None


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


def test_evaluate_manifest_records_only_its_own_options(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("rows = nn\nmetric = mse\nspread = 2.0\n")
    out = tmp_path / "out"
    assert run(["evaluate", "--synth", SYNTH, "--config", str(cfg),
                "--out", str(out)]) == 0
    config = json.loads((out / "manifest.json").read_text())["config"]
    assert sorted(config) == sorted([
        "classifier", "complex_mode", "data", "dim", "epochs", "fusion_mode",
        "gamma", "hidden", "log_offset", "manifest", "mask", "max_centers",
        "out", "r_low", "samples", "seed", "spread", "subjects", "synth",
        "train_k", "transform"])
    assert config["spread"] == 2.0


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


@pytest.mark.parametrize("grid", ["2.5,3,5.5", "5.5,2.5,3.0"])
def test_sector_sweep_takes_fractional_radii(tmp_path, grid):
    out = tmp_path / "out"
    synth = "subjects=4,samples=6,rows=24,cols=20"
    code = run(["sweep", "--axis", "dim", "--synth", synth, "--mask-shape", "sector",
                "--grid", grid, "--out", str(out)])
    assert code == 0
    split = split_first_k(synth_corpus(0, 4, 6, 24, 20), 5)
    write_curve_csv(sweep_dimension(split, "dct", SECTORIAL, grid=[2.5, 3.0, 5.5]),
                    tmp_path / "want.csv", "param")
    assert (out / "curve.csv").read_text() == (tmp_path / "want.csv").read_text()


def test_sector_sweep_takes_a_radius_range(tmp_path):
    out = tmp_path / "out"
    code = run(["sweep", "--axis", "dim", "--synth", SYNTH, "--mask-shape", "sector",
                "--grid", "1.5:3.0:0.5", "--out", str(out)])
    assert code == 0
    lines = (out / "curve.csv").read_text().splitlines()
    assert [ln.split(",")[0] for ln in lines[1:]] == ["1.5", "2.0", "2.5", "3.0"]


@pytest.mark.parametrize("argv", [
    ["--grid", "2.5,3.5"],
    ["--grid", "2:4:0.5"],
    ["--mask-shape", "sector", "--transform", "klt", "--grid", "2.5,3.5"],
])
def test_rect_and_klt_grids_refuse_fractions(tmp_path, capsys, argv):
    code = run(["sweep", "--axis", "dim", "--synth", SYNTH, *argv,
                "--out", str(tmp_path / "o")])
    assert code == 2
    assert "bad grid" in capsys.readouterr().err


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


@pytest.mark.parametrize("argv", [
    ["sweep", "--axis", "dim", "--grid", "3,3"],
    ["sweep", "--axis", "spread", "--classifier", "rbf", "--spreads", "0.5,0.5"],
    ["table1", "--spreads", "0.5,0.5"],
    ["table1", "--rows", "nn", "--spreads", "0.5,1.0,0.5"],
])
def test_repeated_grid_values_are_config_errors(tmp_path, capsys, argv):
    out = tmp_path / "o"
    assert run(argv + ["--synth", SYNTH, "--out", str(out)]) == 2
    assert "repeats" in capsys.readouterr().err
    assert not (out / "curve.csv").exists() and not (out / "table1.csv").exists()


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
    # rank check rather than the argument bound, in extraction and in a sweep,
    # and the refused run leaves no output directory behind
    for name, argv in (("evaluate", ["evaluate", "--dim", "25", "--classifier", "nn:mad"]),
                       ("sweep", ["sweep", "--axis", "dim", "--grid", "1:25"])):
        out = tmp_path / name
        code = run([*argv, "--synth", SYNTH, "--transform", "klt", "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert "data error:" in err and "supports only 24" in err
        assert not out.exists()


@pytest.mark.parametrize("grid", ["--grid=0:3", "--grid=-2:2"])
def test_klt_sweep_below_one_component_is_config_error(tmp_path, capsys, grid):
    # rect sides and `evaluate --dim` below 1 were refused already
    out = tmp_path / "out"
    code = run(["sweep", "--axis", "dim", "--transform", "klt", grid,
                "--synth", "subjects=4,samples=6,rows=24,cols=20", "--out", str(out)])
    assert code == 2
    assert "KLT component count must be >= 1" in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize("earlier", ['["x"]', '"text"', "3", "null"])
def test_earlier_manifest_that_is_not_an_object_is_ignored(tmp_path, capsys, earlier):
    out = tmp_path / "out"
    out.mkdir()
    (out / "manifest.json").write_text(earlier)
    assert run(["extract", "--synth", SYNTH, "--out", str(out)]) == 0
    assert "checksum differs" not in capsys.readouterr().err
    assert json.loads((out / "manifest.json").read_text())["command"] == "extract"
