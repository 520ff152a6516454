"""End-to-end command-line runs, option plumbing, and exit codes."""

import contextlib
import ctypes
import hashlib
import inspect
import io
import json
import os
import re
import subprocess
import sys
from argparse import Namespace
from dataclasses import asdict
from pathlib import Path
from tempfile import TemporaryDirectory

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import faceid
from faceid import cli, evaluation
from faceid.classifiers import PNNModel, pnn, rbf_scores, rbf_train
from faceid.classifiers.common import z_distances
from faceid.cli import (
    _DEFAULTS, MAX_GRID_POINTS, OPTIONS, ConfigError, _subcommands, build_parser,
    config_options, finite_float, flag, int_at_least_2, main, make_eval_config,
    nonnegative_float, nonnegative_int, parse_grid, parse_mask_spec,
    positive_float, positive_int, read_config_file,
    synth_params, unit_float,
)
from faceid.dataset import Split, synth_corpus, write_pgm
from faceid.evaluation import (
    EvalConfig, dim_grid, spread_grid, sweep_dimension, write_curve_csv,
)
from faceid.transforms import DCT, KLT, RECTANGULAR, SECTORIAL

from conftest import read_features_csv, read_model

SYNTH = "subjects=5,samples=6,rows=16,cols=14"


def run(argv):
    """The exit code, also when argparse refuses the command line."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


# ---------------------------------------------------------------------------
# option parsing helpers


def test_parse_mask_spec():
    mask = parse_mask_spec("rect:10")
    assert (mask.shape, mask.size) == ("rectangular", 10)
    mask = parse_mask_spec("sector:8.5")
    assert (mask.shape, mask.size) == ("sectorial", 8.5)
    for bad in ("oval:3", "rect:x", "rect", "sector:-1", "sector:inf", "sector:nan"):
        with pytest.raises(ConfigError):
            parse_mask_spec(bad)


def refuses_grid(bad, why):
    """parse_grid refuses ``bad`` with ``why`` in the flag-free message."""
    with pytest.raises(ConfigError, match=re.escape(f"bad grid {bad!r}: {why}")):
        parse_grid(bad)


TOO_LONG = f"a range may span at most {MAX_GRID_POINTS} points"
NO_STEP = "lo:hi counts integers; give a step (lo:hi:step)"
NOT_FINITE = "is not a finite number"


def test_parse_int_grid():
    # the rect side and KLT count forms; each axis's check gives ints, as the
    # integer parser did, so every curve.csv keeps its bytes
    frozen = {"1:30": list(range(1, 31)), "1:5": [1, 2, 3, 4, 5], "1,4,9": [1, 4, 9],
              "2:10:2": [2, 4, 6, 8, 10], "10:30:10": [10, 20, 30]}
    for spec, points in frozen.items():
        assert parse_grid(spec) == points, spec
    for kind, shape, spec in ((DCT, RECTANGULAR, "1:30"), (DCT, RECTANGULAR, "1,4,9"),
                              (DCT, RECTANGULAR, "2:10:2"), (KLT, RECTANGULAR, "10:30:10"),
                              (KLT, SECTORIAL, "1,4,9")):
        grid = dim_grid(kind, parse_grid(spec), shape)
        assert grid == frozen[spec] and all(type(n) is int for n in grid), spec
    # a range is counted from its ends and refused before it is built
    assert len(parse_grid(f"1:{MAX_GRID_POINTS}")) == MAX_GRID_POINTS
    refuses_grid("1:x", "could not convert string to float: 'x'")
    refuses_grid(f"0:{MAX_GRID_POINTS}", TOO_LONG)
    refuses_grid("1:1000000000000", TOO_LONG)


def test_parse_float_grid():
    # the --spreads forms, read by spread_grid as the float parser read them
    assert parse_grid("0.5:1.0:0.25") == [0.5, 0.75, 1.0]
    assert parse_grid("0.5,0.9") == [0.5, 0.9]
    grid = parse_grid("0.1:2.0:0.1")
    assert grid == [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0,
                    1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9, 2.0]
    for spec in ("0.1:2.0:0.1", "0.5,0.9", "0.5:1.0:0.25"):
        assert spread_grid(parse_grid(spec)) == parse_grid(spec), spec
    assert len(parse_grid("0.001:10:0.001")) == MAX_GRID_POINTS
    refuses_grid("0.1:2.0", NO_STEP)
    for bad, token in (("0.1:inf:0.1", "inf"), ("0.1:1:nan", "nan"),
                       ("0.5,inf", "inf"), ("nan", "nan")):
        refuses_grid(bad, f"{token!r} {NOT_FINITE}")
    for bad in ("0:1e308:1e-300", "0:10:0.001", "0.000001:1:0.000001"):
        refuses_grid(bad, TOO_LONG)


def test_parse_radius_grid():
    # the sector radius forms, fractions and all
    frozen = {"2.5,3.5": [2.5, 3.5], "2:4:0.5": [2.0, 2.5, 3.0, 3.5, 4.0],
              "2:6:0.5": [2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0, 5.5, 6.0], "1:3": [1.0, 2.0, 3.0]}
    for spec, points in frozen.items():
        assert parse_grid(spec) == points, spec
        assert dim_grid(DCT, parse_grid(spec), SECTORIAL) == points, spec
    refuses_grid("1:x", "could not convert string to float: 'x'")
    refuses_grid("2.5:4", NO_STEP)
    refuses_grid("1:2:3:4", "expected lo:hi, lo:hi:step or a comma list")


def test_parse_grid():
    # what no one axis owns: a descending range is empty, also one whose
    # length overflows to -inf, and a step must be positive
    for spec in ("5:1", "2:1:0.5", "1e308:-1e308:1"):
        assert parse_grid(spec) == [], spec
    assert spread_grid(parse_grid("1:3")) == [1.0, 2.0, 3.0]
    refuses_grid("1:2:0", "step must be positive")


def test_synth_params():
    # in synth_corpus's argument order
    assert list(synth_params("", seed=3).values()) == [3, 10, 6, 32, 28]
    params = synth_params("subjects=3,rows=12", seed=3)
    corpus = synth_corpus(*params.values())
    assert (corpus.n_subjects, corpus.samples_per_subject) == (3, 6)
    assert corpus.levels.shape[1:] == (12, 28)
    # a count below 1 or a negative seed is refused as the spec's, not by synth_corpus
    for bad in ("subjects", "depth=3", "samples=x", "rows=0", "subjects=-2", "seed=-1"):
        with pytest.raises(ConfigError, match=f"bad --synth token '{bad}'"):
            synth_params(bad, seed=0)


def test_read_config_file(tmp_path):
    options = config_options()
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
    with pytest.raises(ConfigError, match="cannot read --config file: "):
        read_config_file(str(tmp_path / "missing.cfg"), options)
    cfg.write_bytes(b"seed = \xff\n")
    with pytest.raises(ConfigError, match="cannot read --config file: 'utf-8' codec"):
        read_config_file(str(cfg), options)


def test_config_options_come_from_the_parser():
    # the keys and types a config file takes, as the CLI's flags declare them
    frozen = {
        "out": str,
        "transform": str, "mask": str, "metric": str, "classifier": str,
        "mask_shape": str, "complex_mode": str, "fusion_mode": str,
        "grid": str, "spreads": str, "rows": str,
        "dim": positive_int, "train_k": positive_int, "seed": nonnegative_int,
        "epochs": positive_int, "hidden": positive_int, "max_centers": positive_int,
        "subjects": positive_int, "samples": int_at_least_2,
        "gamma": unit_float, "spread": positive_float, "r_low": nonnegative_float,
        "log_offset": positive_float,
    }
    options = config_options()
    assert {key: kind for key, (kind, _) in options.items()} == frozen
    choices = {key: allowed for key, (_, allowed) in options.items() if allowed}
    assert choices == {"transform": ["dct", "dft", "logdft", "klt"],
                       "complex_mode": ["modulus", "interleave"],
                       "fusion_mode": ["minmax", "zscore"],
                       "metric": ["mad", "mse"], "mask_shape": ["rect", "sector"]}
    # every command that declares one converts and checks its flag the same way
    declared = set()
    for sub in _subcommands(build_parser()).values():
        for action in sub._actions:
            if action.dest in options:
                assert (action.type or str, action.choices) == options[action.dest]
                declared.add(action.dest)
    assert declared == set(options)


@pytest.mark.parametrize("line", ["synth = " + SYNTH, "data = faces", "manifest = faces.txt",
                                  "config = other.cfg", "axis = dim"])
def test_command_line_only_keys_are_bad_config_entries(tmp_path, capsys, line):
    # the dataset source, --config and --axis come only from the command line
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"seed = 1\n{line}\n")
    out = tmp_path / "out"
    assert run(["sweep", "--axis", "dim", "--synth", SYNTH, "--config", str(cfg),
                "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"config file line 2: bad entry {line!r}" in err
    assert "usage: faceid sweep" in err
    assert not out.exists()


def test_option_defaults_are_frozen():
    # the value each option takes when neither a flag nor a config file sets it
    frozen = {
        "out": "faceid-out", "transform": "dct", "mask": "rect:10", "metric": "mad",
        "classifier": "nn:mad", "mask_shape": "rect", "complex_mode": "modulus",
        "fusion_mode": "minmax", "grid": None, "spreads": None, "rows": None,
        "dim": None, "train_k": 5, "seed": 0, "epochs": 15000, "hidden": 40,
        "max_centers": 100, "subjects": 40, "samples": 10,
        "gamma": 0.9, "spread": 0.9, "r_low": 0.0, "log_offset": 1e-4,
    }
    assert {key: (value, type(value)) for key, value in _DEFAULTS.items()} == {
        key: (value, type(value)) for key, value in frozen.items()}
    # every option a config file may set has a default
    options = config_options()
    assert set(frozen) == set(options)
    # the library's own defaults are the same values: the classifier options
    # fill an EvalConfig field by field
    cfg = EvalConfig()
    assert asdict(cfg) == {key: frozen[key] for key in asdict(cfg)}
    assert make_eval_config(Namespace(**frozen)) == cfg
    assert inspect.signature(rbf_train).parameters["max_centers"].default == 100


def test_readme_option_grid_matches_the_option_table():
    # README's grid of which options each command (and each sweep axis)
    # declares and reads, against the one the option table gives
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    header = "| option | extract | evaluate | sweep dim | sweep spread | table1 |\n"
    assert readme.count(header) == 1
    rows = readme.split(header)[1].splitlines()[1:]
    documented = {}
    for row in rows[:next(i for i, row in enumerate(rows) if not row.startswith("|"))]:
        flags, *cells = (cell.strip() for cell in row.strip("|").split("|"))
        assert set(cells) <= {"x", ""} and len(cells) == 5, row
        for name in re.findall(r"`(--[a-z-]+)`", flags):
            assert name not in documented, name
            documented[name] = tuple(cell == "x" for cell in cells)
    columns = [("extract", None), ("evaluate", None), ("sweep", "dim"),
               ("sweep", "spread"), ("table1", None)]

    def reads(option, command, axis):
        return command in option.commands and (axis is None or option.axis is None
                                               or axis in option.axis)
    assert documented == {flag(option): tuple(reads(option, *column) for column in columns)
                          for option in OPTIONS}


@pytest.mark.parametrize("command, slots", [("extract", 15), ("evaluate", 22),
                                            ("sweep", 22), ("table1", 15)])
def test_help_lists_exactly_the_declared_flags(capsys, command, slots):
    # help strings are data, and a stray % in one would break only --help
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    assert text.startswith(f"usage: faceid {command} [-h] ")
    listed = re.findall(r"^  (--[a-z-]+)", text, re.M)
    declared = [flag(option) for option in OPTIONS if command in option.commands]
    assert sorted(listed) == sorted(declared) and len(declared) == slots


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
    assert "data" not in manifest["config"]
    assert manifest["config"]["synth"] == SYNTH


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


@pytest.mark.parametrize("spread,fallbacks", [("0.1", 10), ("0.9", 0)])
def test_evaluate_pnn_reports_fallbacks_on_stderr(tmp_path, capsys, spread, fallbacks):
    # the default corpus's z-space gallery distances lie far above 0.1 and
    # reach 0.9: at 0.1 every probe takes the fallback, at 0.9 none does
    out = tmp_path / "out"
    assert run(["evaluate", "--synth", "", "--classifier", "pnn", "--spread", spread,
                "--out", str(out)]) == 0
    assert capsys.readouterr().err == (
        f"pnn: {fallbacks}/10 probes took the nearest-neighbor fallback (every "
        f"activation underflowed at spread {spread})\n")
    for path in out.iterdir():
        assert b"fallback" not in path.read_bytes()


def test_evaluate_pnn_computes_its_probe_distances_once(tmp_path, monkeypatch):
    # the fallback count comes out of the pass that made the scores: one
    # (probes, gallery) distance matrix, 5 probes against 25 centers
    calls = []

    def counted(x, y):
        calls.append((x.shape[0], y.shape[0]))
        return z_distances(x, y)

    monkeypatch.setattr(pnn, "z_distances", counted)
    assert run(["evaluate", "--synth", SYNTH, "--classifier", "pnn", "--spread", "0.1",
                "--out", str(tmp_path / "out")]) == 0
    assert calls == [(5, 25)]


PNN_COLLAPSE = ("warning: pnn: probes took the nearest-neighbor fallback at spread 0.1 "
                "(worst 5/5 at 0.1); the gallery's median nearest-neighbor z-distance is "
                "12.13 against a largest spread of {}\n")


@pytest.mark.parametrize("argv", [["sweep", "--axis", "spread", "--classifier", "pnn"],
                                  ["table1", "--rows", "pnn"]])
@pytest.mark.parametrize("spreads,err", [("0.1", PNN_COLLAPSE.format("0.1")),
                                         ("0.1,0.9", PNN_COLLAPSE.format("0.9")),
                                         ("0.9", "")])
def test_spread_runs_warn_where_no_activation_reached_a_probe(tmp_path, capsys, argv,
                                                               spreads, err):
    # SYNTH's gallery rows lie 12.13 apart in z-space at the median: at 0.1
    # every probe takes PNN's fallback, at 0.9 none does
    out = tmp_path / "out"
    assert run([*argv, "--synth", SYNTH, "--spreads", spreads, "--out", str(out)]) == 0
    assert capsys.readouterr().err == err
    for path in out.iterdir():
        assert b"warning" not in path.read_bytes()


def test_table1_reports_why_mlp_training_stopped_as_evaluate_does(tmp_path, capsys):
    # table1's MLP row trains on evaluate's default features and split
    outs = {}
    for argv in (["table1", "--rows", "mlp"], ["evaluate", "--classifier", "mlp"]):
        assert run([*argv, "--synth", SYNTH, "--epochs", "30", "--out",
                    str(tmp_path / argv[0])]) == 0
        outs[argv[0]] = capsys.readouterr().err
    assert outs["table1"] == outs["evaluate"]
    assert outs["table1"].startswith("mlp: SCG stopped after 30 epochs (epoch budget), ")


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


POCKETFFT = "scipy.fft._pocketfft.pypocketfft"
DISTANCE = "scipy.spatial._distance_pybind"


def fresh_run(tmp_path, argv, script=""):
    """The last stdout line of a fresh interpreter (this one has imported
    scipy already) that runs ``faceid`` with ``argv`` (None: imports it
    alone) and then ``script``."""
    code = "import gc, json, sys, types\nfrom faceid.cli import main\n"
    if argv is not None:
        argv = [*argv, "--synth", SYNTH, "--out", str(tmp_path / "out")]
        code += f"assert main({argv!r}) == 0\n"
    src = str(Path(faceid.__file__).parents[1])
    done = subprocess.run([sys.executable, "-c", code + script], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src}, check=True,
                          timeout=120)
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("argv,kernels", [
    (None, []),
    (["extract", "--transform", "dft"], []),
    (["evaluate", "--transform", "klt", "--dim", "20", "--classifier", "mlp",
      "--epochs", "5"], []),
    (["extract"], [POCKETFFT]),
    (["evaluate", "--classifier", "nn:mad"], [POCKETFFT, DISTANCE]),
], ids=["import", "extract-dft", "evaluate-klt-mlp", "extract", "nn"])
def test_a_run_loads_only_the_scipy_modules_it_computes_with(tmp_path, argv, kernels):
    # the DCT and the distances run on scipy's compiled kernels, loaded alone on
    # first use: no run imports a scipy package module (scipy, scipy.fft,
    # scipy._lib, scipy.special, scipy.spatial), and each loads only the
    # kernels it computes with
    imported, live = fresh_run(tmp_path, argv, (
        "print(json.dumps([sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'),"
        " sorted(m.__name__ for m in gc.get_objects() if isinstance(m, types.ModuleType)"
        " and m.__name__.split('.')[0] == 'scipy')]))"))
    assert imported == []
    assert live == kernels


def test_public_scipy_imports_reuse_the_loaded_kernels(tmp_path):
    # after a run has loaded both kernels, scipy's own modules import the same
    # module objects, and its public calls give the bits faceid's wrappers give
    same, equal = fresh_run(tmp_path, ["evaluate", "--classifier", "nn:mad"], f"""
import numpy as np
import scipy.fft
from scipy.fft._pocketfft import realtransforms
from scipy.spatial import distance
from faceid._kernels import kernel
from faceid.classifiers.common import cdist
from faceid.transforms import dctn
rng = np.random.default_rng(3)
px, x, y = rng.random((16, 14)), rng.random((4, 9)), rng.random((6, 9))
print(json.dumps([
    [realtransforms.pfft is kernel({POCKETFFT!r}),
     distance._distance_pybind is kernel({DISTANCE!r})],
    [np.array_equal(dctn(px), scipy.fft.dctn(px, type=2, norm="ortho")),
     *(np.array_equal(cdist(x, y, m), distance.cdist(x, y, m))
       for m in ("cityblock", "sqeuclidean"))]]))
""")
    assert same == [True, True]
    assert equal == [True, True, True]


def test_a_missing_kernel_names_its_file_and_the_scipy_version():
    import scipy
    from faceid._kernels import kernel
    with pytest.raises(ImportError, match=rf"/fft/_no_kernel\..* in scipy {scipy.__version__};"):
        kernel("scipy.fft._no_kernel")


@pytest.mark.parametrize("spread,at_bias,subjects", [
    ("0.01", 5, 1),   # far below the gallery distances: every probe at the bias
    ("2.0", 1, 1),    # one probe at the bias, yet every probe goes to one subject
    ("20", 0, 4),
])
def test_evaluate_rbf_reports_growth_on_stderr(tmp_path, capsys, monkeypatch, spread,
                                               at_bias, subjects):
    out = tmp_path / "out"
    argv = ["evaluate", "--synth", SYNTH, "--classifier", "rbf",
            "--spread", spread, "--max-centers", "6", "--out", str(out)]
    calls = []

    def counted_rbf_scores(*args, **kwargs):
        calls.append(1)
        return rbf_scores(*args, **kwargs)

    # the line's counts come from the scores the run computed, not a rescoring
    monkeypatch.setattr(evaluation, "rbf_scores", counted_rbf_scores)
    runs = []
    for i in range(2):
        assert run(argv) == 0
        assert len(calls) == i + 1
        err = capsys.readouterr().err
        assert re.search(r"^rbf: 6 centers, [1-6] picked by the tie rule, final residual "
                         rf"[0-9.e+-]+, {at_bias}/5 probes at the bias, "
                         rf"predictions span {subjects}/5 subjects$", err, re.M), err
        runs.append({p.name: p.read_bytes() for p in out.iterdir()})
    # the line is a diagnostic: it goes into no written file, the model saves
    # no tie count, and reruns stay byte-identical
    assert sorted(runs[0]) == ["manifest.json", "model_rbf.npz", "result.csv"]
    assert runs[0] == runs[1]
    for data in runs[0].values():
        assert b"tie rule" not in data and b"tied_picks" not in data
        assert b"span" not in data
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


# SHA-256 of the fused reports, trained models, training log and spread
# curves on SYNTH, pinned across commits: a refactor of the experiment path
# or of a writer that moves any byte shows here. The same at 1 and 2 BLAS
# threads.
GOLDEN_DIGESTS = [
    (["evaluate", "--classifier", "fusion:rbf+nn:mad", "--spread", "2.0"], {
        "fusion_report.csv": "834e9c447c28abadf3f3b267cb5c77a83fbc0640cdb7ba3d838d8767fef4d508",
        "model_rbf.npz": "6b36e1ea350b83d7b72baee7cfbd232be4c7451527f61bfe290710844cddad91",
        "result.csv": "d7ae9b0fbdcf671940f0b12e2965b76173b799ba0f9517e88157bea115c5c503"}),
    (["evaluate", "--classifier", "fusion:pnn+mlp+nn:mse", "--epochs", "50",
      "--spread", "1.0"], {
        "fusion_report.csv": "f591956ea242a4fd7f7a0a10d07494b61909beae3418a03effb1f0339269a29f",
        "model_mlp.npz": "05348c6b7d768d18ebcc063a07f778698f1285d88930a354d8f891be50ea47aa",
        "model_pnn.npz": "6b8c76f315fc1238fce1ce87f4c7be2ac5a942d349c410c164d4e97d137dcf1b",
        "result.csv": "b1d657446f59d789df30b7d06fcf9483f5d1c814b663839ef59cbd89a4b230ac",
        "training_log.csv": "e8e06c7b6cc1c401725035181b7010d86ce78530519ddb1b033b93b141b7ed85"}),
    (["sweep", "--axis", "spread", "--classifier", "rbf", "--spreads", "0.5,1.0,2.0"], {
        "curve.csv": "df56d01bf74faca4b91944f7278d1f599ac9a5355319be67a901f2c4d6db1695"}),
    (["sweep", "--axis", "spread", "--classifier", "pnn", "--spreads", "0.5,1.0,2.0"], {
        "curve.csv": "ae35c020b9986bf4165c0bffd400478a231aa224ff7eecc00ee7a6457521d717"}),
]


@pytest.mark.parametrize("argv,digests", GOLDEN_DIGESTS,
                         ids=["fusion-rbf-nn", "fusion-pnn-mlp-nn", "sweep-rbf", "sweep-pnn"])
def test_outputs_keep_their_digests(tmp_path, argv, digests):
    out = tmp_path / "out"
    assert run([*argv, "--synth", SYNTH, "--out", str(out)]) == 0
    got = {name: output_digest(out / name) for name in digests}
    assert got == digests


def test_every_output_writer_comes_from_evaluation():
    # bench/tracer.py times the writers where faceid.cli binds them, and the
    # classifier package computes only
    for name in ("save_model", "write_training_log", "write_result_csv",
                 "write_fusion_report", "write_curve_csv", "write_table_csv",
                 "write_features_csv", "write_manifest"):
        assert getattr(cli, name) is getattr(evaluation, name), name
    assert not hasattr(faceid.classifiers, "save_model")
    assert not hasattr(faceid.classifiers, "write_training_log")
    assert faceid.save_model is evaluation.save_model


def output_digest(path: Path) -> str:
    """SHA-256 of a file's bytes; of the arrays, by sorted name, for an npz,
    whose zip headers carry write times."""
    if path.suffix != ".npz":
        return hashlib.sha256(path.read_bytes()).hexdigest()
    digest = hashlib.sha256()
    with np.load(path) as data:
        for key in sorted(data.files):
            digest.update(key.encode())
            digest.update(data[key].tobytes())
    return digest.hexdigest()


def test_evaluate_reruns_are_byte_identical(tmp_path):
    # every command, a fused evaluation with its report, both sweep axes and
    # the table: a second run rewrites each output file with the same bytes
    runs = [
        ["evaluate", "--classifier", "pnn", "--spread", "1.0"],
        ["evaluate", "--classifier", "fusion:rbf+nn:mad", "--spread", "2.0"],
        ["sweep", "--axis", "dim", "--grid", "1:5"],
        ["sweep", "--axis", "spread", "--classifier", "rbf", "--spreads", "0.5,1.0,2.0"],
        ["table1", "--epochs", "20", "--spreads", "0.5,2.0"],
    ]
    for i, argv in enumerate(runs):
        out = tmp_path / str(i)
        argv = [*argv, "--synth", SYNTH, "--out", str(out)]
        assert run(argv) == 0
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        assert run(argv) == 0
        second = {p.name: p.read_bytes() for p in out.iterdir()}
        assert first == second, argv
    assert (tmp_path / "1" / "fusion_report.csv").exists()


def test_config_file_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("classifier = pnn\nspread = 2.0\nfusion_mode = zscore\n")
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
    assert manifest["config"]["fusion_mode"] == "zscore"  # file still fills the rest
    assert "spread" not in manifest["config"]  # which nn:mad does not read


def test_evaluate_manifest_records_only_its_own_options(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("rows = nn\nmetric = mse\nspread = 2.0\n")
    out = tmp_path / "out"
    assert run(["evaluate", "--synth", SYNTH, "--config", str(cfg),
                "--out", str(out)]) == 0
    config = json.loads((out / "manifest.json").read_text())["config"]
    assert sorted(config) == ["classifier", "fusion_mode", "mask", "out", "r_low",
                              "seed", "synth", "train_k", "transform"]


# each run's argv, and the config keys its manifest records: the options it
# reads (evaluate's are pinned above and in the transform x classifier x
# source grid below)
RUNS = {
    "extract": (["extract"],
                ["mask", "out", "r_low", "seed", "synth", "train_k", "transform"]),
    "extract-logdft": (["extract", "--transform", "logdft"],
                       ["complex_mode", "log_offset", "mask", "out", "r_low", "seed",
                        "synth", "train_k", "transform"]),
    "sweep-dim": (["sweep", "--axis", "dim", "--grid", "1,2"],
                  ["axis", "grid", "mask_shape", "metric", "out", "r_low", "seed",
                   "synth", "train_k", "transform"]),
    "sweep-dim-klt": (["sweep", "--axis", "dim", "--transform", "klt", "--grid", "1,2"],
                      ["axis", "grid", "metric", "out", "seed", "synth", "train_k",
                       "transform"]),
    "sweep-spread": (["sweep", "--axis", "spread", "--classifier", "pnn",
                      "--spreads", "1.0"],
                     ["axis", "classifier", "mask", "out", "r_low", "seed", "spreads",
                      "synth", "train_k", "transform"]),
    "sweep-spread-rbf": (["sweep", "--axis", "spread", "--classifier", "rbf",
                          "--spreads", "1.0"],
                         ["axis", "classifier", "mask", "max_centers", "out", "r_low",
                          "seed", "spreads", "synth", "train_k", "transform"]),
    "table1": (["table1", "--rows", "nn:mad"],
               ["fusion_mode", "out", "rows", "seed", "synth"]),
    "table1-mlp": (["table1", "--rows", "mlp", "--epochs", "5"],
                   ["epochs", "fusion_mode", "gamma", "hidden", "out", "rows", "seed",
                    "synth"]),
    "table1-fusion": (["table1", "--rows", "fusion", "--spreads", "1.0"],
                      ["fusion_mode", "max_centers", "out", "rows", "seed", "spreads",
                       "synth"]),
}
# a config value for every key a file may set, none of them a default
CONFIG_VALUES = {
    "transform": "dft", "mask": "rect:3", "metric": "mse", "classifier": "pnn",
    "mask_shape": "sector", "complex_mode": "interleave", "fusion_mode": "zscore",
    "grid": "1,2", "spreads": "0.5", "rows": "nn", "dim": "3", "train_k": "3",
    "epochs": "5", "hidden": "3", "max_centers": "2", "gamma": "0.5", "spread": "2.0",
    "r_low": "1.0", "log_offset": "0.1", "subjects": "3", "samples": "4", "seed": "1",
    "out": "elsewhere",
}


@pytest.mark.parametrize("run_name", RUNS)
def test_runs_fill_and_record_only_the_options_they_read(tmp_path, run_name):
    # a config key the run does not read is neither refused nor recorded,
    # and it changes no output
    argv, keys = RUNS[run_name]
    assert set(CONFIG_VALUES) == set(config_options())
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{key} = {value}\n" for key, value in CONFIG_VALUES.items()
                           if key not in keys))
    outputs = []
    for name, extra in (("plain", []), ("config", ["--config", str(cfg)])):
        out = tmp_path / name
        assert run([*argv, "--synth", SYNTH, *extra, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert sorted(manifest["config"]) == keys
        del manifest["config"]["out"]
        outputs.append((manifest, {p.name: p.read_bytes() for p in out.iterdir()
                                   if p.name != "manifest.json"}))
    assert outputs[0] == outputs[1]


# what evaluate reads beyond the options every run of it reads, per
# transform, classifier and dataset source
TRANSFORM_READS = {"dct": ["mask", "r_low"], "dft": ["complex_mode", "mask", "r_low"],
                   "logdft": ["complex_mode", "log_offset", "mask", "r_low"],
                   "klt": ["dim"]}
CLASSIFIER_READS = {"nn:mad": [], "mlp": ["epochs", "gamma", "hidden"],
                    "pnn": ["spread"], "rbf": ["max_centers", "spread"],
                    "fusion:rbf+nn:mad": ["max_centers", "spread"]}
SOURCE_READS = {"synth": ["synth"], "data": ["data", "samples", "subjects"],
                "manifest": ["manifest"]}


@pytest.mark.parametrize("source", SOURCE_READS)
@pytest.mark.parametrize("classifier", CLASSIFIER_READS)
@pytest.mark.parametrize("transform", TRANSFORM_READS)
def test_evaluate_reads_only_the_options_of_its_selectors(pgm_tree, tmp_path, capsys,
                                                          transform, classifier, source):
    root, _ = pgm_tree
    keys = sorted(["classifier", "fusion_mode", "out", "seed", "train_k", "transform",
                   *TRANSFORM_READS[transform], *CLASSIFIER_READS[classifier],
                   *SOURCE_READS[source]])
    inventory = root / "inventory.txt"
    inventory.write_text("".join(f"s{s}/{k}.pgm {s} {k}\n"
                                 for s in range(1, 6) for k in range(1, 7)))
    sources = {"synth": ["--synth", SYNTH],
               "data": ["--data", str(root), "--subjects", "5", "--samples", "6"],
               "manifest": ["--manifest", str(inventory)]}
    argv = ["evaluate", "--transform", transform, "--classifier", classifier,
            *(["--dim", "3"] if transform == "klt" else []),
            *(["--epochs", "5"] if "mlp" in classifier else [])]

    # a config file setting every key the run does not read changes no output
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{key} = {value}\n" for key, value in CONFIG_VALUES.items()
                           if key not in keys))
    outputs = []
    for name, extra in (("plain", []), ("config", ["--config", str(cfg)])):
        out = tmp_path / name
        assert run([*argv, *sources[source], *extra, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert sorted(manifest["config"]) == keys
        del manifest["config"]["out"]
        outputs.append((manifest, {p.name: p.read_bytes() for p in out.iterdir()
                                   if p.name != "manifest.json"}))
    assert outputs[0] == outputs[1]

    # each flag it does not read is refused before the source is read: each
    # of these sources would fail if it were
    broken = {"synth": ["--synth", "depth=3"], "data": ["--data", str(tmp_path / "missing")],
              "manifest": ["--manifest", str(tmp_path / "missing.txt")]}[source]
    capsys.readouterr()
    for flag, value in OPTION_VALUES.items():
        if flag[2:].replace("-", "_") in keys:
            continue
        out = tmp_path / "refused"
        assert run([*argv, *broken, flag, value, "--out", str(out)]) == 2, flag
        err = capsys.readouterr().err
        assert f" does not read {flag}\n" in err, err
        assert "usage: faceid evaluate " in err
        assert not out.exists()


def test_config_file_values_obey_flag_choices(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    for line in ("complex_mode = bogus", "fusion_mode = nope", "transform = wavelet",
                 "metric = cosine", "mask_shape = oval", "spread = inf", "r_low = nan",
                 "r_low = -5", "gamma = -inf", "log_offset = inf", "gamma = 2",
                 "log_offset = 0", "epochs = 0", "hidden = -3", "seed = -1",
                 "max_centers = 0", "dim = 0", "train_k = 0"):
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
    split = Split(synth_corpus(0, 4, 6, 24, 20), 5)
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


@pytest.mark.parametrize("argv,params", [
    (["--axis", "dim", "--grid", "2:10:2"], ["2.0", "4.0", "6.0", "8.0", "10.0"]),
    (["--axis", "dim", "--transform", "klt", "--grid", "10:30:10"], ["10.0", "20.0", "30.0"]),
    (["--axis", "spread", "--classifier", "pnn", "--spreads", "1:3"], ["1.0", "2.0", "3.0"]),
])
def test_every_axis_reads_every_grid_form(tmp_path, argv, params):
    # one grammar: a step on a rect or KLT grid, and lo:hi on the spreads
    out = tmp_path / "out"
    assert run(["sweep", *argv, "--synth", "", "--out", str(out)]) == 0
    lines = (out / "curve.csv").read_text().splitlines()
    assert [ln.split(",")[0] for ln in lines[1:]] == params


@pytest.mark.parametrize("argv", [
    ["--grid", "2.5,3.5"],
    ["--grid", "2:4:0.5"],
    # klt reads no --mask-shape, so a sector shape cannot make its dims fractional
    ["--transform", "klt", "--grid", "2.5,3.5"],
])
def test_rect_and_klt_grids_refuse_fractions(tmp_path, capsys, argv):
    code = run(["sweep", "--axis", "dim", "--synth", SYNTH, *argv,
                "--out", str(tmp_path / "o")])
    assert code == 2
    what = ("KLT component count must be >= 1 and" if "klt" in argv
            else "rect mask side must be")
    assert f"error: --grid: {what} an integer, got 2.5" in capsys.readouterr().err


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


@pytest.mark.parametrize("given,name", [("PNN", "pnn"), (" rbf ", "rbf")])
def test_sweep_spread_reads_the_classifier_as_evaluate_does(tmp_path, given, name):
    # the spec is parsed as every --classifier is: case and padding do not count
    curves = []
    for i, classifier in enumerate((given, name)):
        out = tmp_path / str(i)
        assert run(["sweep", "--axis", "spread", "--synth", SYNTH, "--classifier",
                    classifier, "--spreads", "0.5,1.0", "--out", str(out)]) == 0
        curves.append((out / "curve.csv").read_bytes())
    assert curves[0] == curves[1]


def test_sweep_spread_refuses_a_fusion_of_kernel_classifiers(tmp_path, capsys):
    code = run(["sweep", "--axis", "spread", "--synth", SYNTH,
                "--classifier", "fusion:pnn+rbf", "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert "error: --axis spread requires --classifier pnn or rbf\n" in err


def test_table1_rows_filter(tmp_path, capsys):
    out = tmp_path / "out"
    code = run(["table1", "--synth", "subjects=4,samples=6,rows=12,cols=10",
                "--rows", "nn", "--out", str(out)])
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
    ["table1", "--rows", "rbf", "--spreads", "0.5,1.0,0.5"],
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


# a value each shared option takes
OPTION_VALUES = {
    "--train-k": "3", "--transform": "dft", "--mask": "rect:5", "--dim": "3",
    "--complex-mode": "interleave", "--r-low": "1.0", "--log-offset": "0.1",
    "--gamma": "0.5", "--epochs": "10", "--hidden": "5", "--spread": "3",
    "--max-centers": "5", "--fusion-mode": "zscore", "--subjects": "5", "--samples": "6",
}
# the shared options each command does not declare, after its required ones;
# argparse takes no abbreviations, or `table1 --spread 3` would run as --spreads 3
UNDECLARED = {
    ("extract",): ["--gamma", "--epochs", "--hidden", "--spread", "--max-centers",
                   "--fusion-mode"],
    ("table1",): ["--train-k", "--transform", "--mask", "--dim", "--complex-mode",
                  "--r-low", "--log-offset", "--spread"],
    ("sweep", "--axis", "dim"): ["--gamma", "--epochs", "--hidden", "--spread",
                                 "--fusion-mode"],
}


@pytest.mark.parametrize("argv,message", [
    pytest.param(["sweep", "--axis", "spread", "--classifier", "nn:mad"], "pnn or rbf",
                 id="spread-classifier"),
    pytest.param(["extract", "--transform", "klt"], "--transform klt requires --dim",
                 id="klt-dim"),
    pytest.param(["evaluate", "--mask", "bogus"], "bad mask spec 'bogus'", id="mask"),
    pytest.param(["table1", "--spreads", "2:1:0.5"], "spread grid is empty",
                 id="table1-spreads"),
    pytest.param(["table1", "--spreads=1e308:-1e308:1"], "spread grid is empty",
                 id="table1-spreads-overflowing-range"),
    pytest.param(["sweep", "--axis", "dim", "--grid", "2.5,3.5"],
                 "error: --grid: rect mask side must be an integer, got 2.5", id="dim-grid"),
    pytest.param(["sweep", "--axis", "dim", "--mask-shape", "sector", "--grid", "1.5:4"],
                 "error: --grid: bad grid '1.5:4': lo:hi counts integers; give a step "
                 "(lo:hi:step)", id="dim-grid-fractional-range"),
    pytest.param(["sweep", "--axis", "spread", "--classifier", "rbf", "--spreads", "0.1:2.0"],
                 "error: --spreads: bad grid '0.1:2.0': lo:hi counts integers; give a step "
                 "(lo:hi:step)", id="spreads-fractional-range"),
    pytest.param(["table1", "--rows", "svm"], "matches no table rows", id="table1-rows"),
    pytest.param(["sweep", "--axis", "spread", "--classifier", "pnn", "--spreads", "0,1"],
                 "spreads must be positive", id="spread-grid"),
    pytest.param(["sweep", "--axis", "dim", "--transform", "klt", "--grid", "0:3"],
                 "KLT component count must be >= 1", id="klt-grid"),
    pytest.param(["sweep", "--axis", "dim", "--grid", "3,3"],
                 "sweep grid repeats a value", id="dim-grid-repeats"),
    pytest.param(["evaluate", "--classifier", "fusion:rbf+rbf"], "repeats a classifier",
                 id="fusion-repeats"),
    pytest.param(["evaluate", "--classifier", "fusion:rbf"],
                 "needs two or more classifiers", id="fusion-one-member"),
    *[pytest.param([*command, flag, OPTION_VALUES[flag]],
                   f"unrecognized arguments: {flag} {OPTION_VALUES[flag]}",
                   id=f"{command[0]}{flag}")
      for command, flags in UNDECLARED.items() for flag in flags],
    pytest.param(["evaluate", "--classif", "nn:mad"], "unrecognized arguments: --classif",
                 id="abbreviation"),
    pytest.param(["sweep", "--axis", "dim", "--spreads", "0.5"],
                 "--axis dim does not read --spreads", id="dim-axis-spreads"),
    pytest.param(["sweep", "--axis", "dim", "--transform", "klt", "--dim", "3"],
                 "--axis dim does not read --dim", id="dim-axis-dim"),
    pytest.param(["sweep", "--axis", "spread", "--classifier", "pnn", "--grid", "1:3"],
                 "--axis spread does not read --grid", id="spread-axis-grid"),
    pytest.param(["sweep", "--axis", "dim", "--transform", "klt", "--mask", "rect:3"],
                 "--axis dim does not read --mask", id="dim-axis-klt-mask"),
    pytest.param(["extract", "--transform", "dct", "--dim", "3"],
                 "--transform dct does not read --dim", id="dct-dim"),
    pytest.param(["sweep", "--axis", "spread", "--classifier", "rbf", "--dim", "3"],
                 "--transform dct does not read --dim", id="spread-axis-dct-dim"),
    pytest.param(["extract", "--transform", "klt", "--dim", "5", "--mask", "rect:3",
                  "--log-offset", "7"],
                 "--transform klt does not read --mask", id="klt-mask"),
    pytest.param(["sweep", "--axis", "dim", "--transform", "klt", "--mask-shape", "sector"],
                 "--transform klt does not read --mask-shape", id="klt-mask-shape"),
    pytest.param(["evaluate", "--transform", "dft", "--log-offset", "7"],
                 "--transform dft does not read --log-offset", id="dft-log-offset"),
    pytest.param(["evaluate", "--complex-mode", "interleave"],
                 "--transform dct does not read --complex-mode", id="dct-complex-mode"),
    pytest.param(["evaluate", "--classifier", "nn:mad", "--spread", "3"],
                 "--classifier nn:mad does not read --spread", id="nn-spread"),
    pytest.param(["evaluate", "--classifier", "fusion:pnn+nn:mad", "--max-centers", "3"],
                 "--classifier fusion:pnn+nn:mad does not read --max-centers",
                 id="fusion-max-centers"),
    pytest.param(["sweep", "--axis", "spread", "--classifier", "pnn", "--max-centers", "3"],
                 "--classifier pnn does not read --max-centers", id="spread-axis-pnn"),
    pytest.param(["table1", "--rows", "nn", "--spreads", "1.0"],
                 "--rows nn does not read --spreads", id="table1-nn-spreads"),
    pytest.param(["table1", "--rows", "rbf", "--epochs", "3"],
                 "--rows rbf does not read --epochs", id="table1-rbf-epochs"),
    *[pytest.param(["evaluate", "--classifier", name, "--spread", "inf"],
                   "argument --spread: invalid positive_float value: 'inf'",
                   id=f"{name}-spread-inf") for name in ("pnn", "rbf")],
    pytest.param(["sweep", "--axis", "spread", "--classifier", "pnn",
                  "--spreads", "0.1:inf:0.1"],
                 "bad grid '0.1:inf:0.1': 'inf' is not a finite number",
                 id="spread-range-inf"),
    pytest.param(["table1", "--rows", "pnn", "--spreads", "0.1:inf:0.1"],
                 "bad grid '0.1:inf:0.1': 'inf' is not a finite number",
                 id="table1-spread-range-inf"),
    pytest.param(["sweep", "--axis", "spread", "--classifier", "pnn",
                  "--spreads", "0.5,inf"],
                 "bad grid '0.5,inf': 'inf' is not a finite number", id="spreads-inf"),
    pytest.param(["extract", "--r-low", "nan"],
                 "argument --r-low: invalid nonnegative_float value: 'nan'",
                 id="r-low-nan"),
    pytest.param(["extract", "--r-low", "-5"],
                 "argument --r-low: invalid nonnegative_float value: '-5'",
                 id="r-low-negative"),
    pytest.param(["extract", "--mask", "sector:inf"],
                 "bad mask spec 'sector:inf': 'inf' is not a finite number",
                 id="mask-sector-inf"),
    pytest.param(["evaluate", "--transform", "logdft", "--log-offset", "inf"],
                 "argument --log-offset: invalid positive_float value: 'inf'",
                 id="log-offset-inf"),
    pytest.param(["evaluate", "--classifier", "mlp", "--gamma", "nan"],
                 "argument --gamma: invalid unit_float value: 'nan'", id="gamma-nan"),
    pytest.param(["evaluate", "--transform", "logdft", "--log-offset", "0"],
                 "argument --log-offset: invalid positive_float value: '0'",
                 id="log-offset-zero"),
    pytest.param(["evaluate", "--classifier", "mlp", "--gamma", "2"],
                 "argument --gamma: invalid unit_float value: '2'", id="gamma-above-one"),
    *[pytest.param([*argv, flag, value],
                   f"argument {flag}: invalid {kind} value: '{value}'",
                   id=f"{flag[2:]}-{value}") for argv, flag, value, kind in (
        (["evaluate", "--classifier", "mlp"], "--epochs", "0", "positive_int"),
        (["evaluate", "--classifier", "pnn"], "--spread", "0", "positive_float"),
        (["evaluate", "--classifier", "rbf"], "--spread", "-1", "positive_float"),
        (["evaluate", "--classifier", "mlp"], "--hidden", "0", "positive_int"),
        (["evaluate", "--classifier", "rbf"], "--max-centers", "0", "positive_int"),
        (["extract", "--transform", "klt"], "--dim", "0", "positive_int"),
        (["extract"], "--train-k", "0", "positive_int"),
        (["extract"], "--subjects", "0", "positive_int"),
        (["extract"], "--samples", "1", "int_at_least_2"),
        (["table1", "--rows", "nn"], "--samples", "1", "int_at_least_2"),
        (["evaluate", "--classifier", "mlp"], "--seed", "-1", "nonnegative_int"),
        (["evaluate", "--classifier", "mlp"], "--epochs", "2.5", "positive_int"),
    )],
    pytest.param(["extract", "--train-k", "10"],
                 "--train-k 10 leaves no probe sample of the 10 per subject",
                 id="train-k-default-samples"),
    pytest.param(["sweep", "--axis", "dim", "--samples", "4", "--train-k", "6"],
                 "--train-k 6 leaves no probe sample of the 4 per subject",
                 id="train-k-above-samples"),
    pytest.param(["sweep", "--axis", "dim", "--grid", "0:3"],
                 "error: --grid: mask sizes must be > 0, got 0", id="rect-grid-zero"),
    pytest.param(["sweep", "--axis", "dim", "--mask-shape", "sector", "--grid", "0,2"],
                 "error: --grid: mask sizes must be > 0, got 0.0", id="sector-grid-zero"),
    pytest.param(["sweep", "--axis", "dim", "--grid", "1:1000000"],
                 "bad grid '1:1000000': a range may span at most 10000 points",
                 id="dim-grid-range-too-long"),
    pytest.param(["sweep", "--axis", "spread", "--classifier", "pnn",
                  "--spreads", "0.000001:1:0.000001"],
                 "bad grid '0.000001:1:0.000001': a range may span at most 10000 points",
                 id="spread-range-too-long"),
])
def test_option_errors_are_refused_before_the_corpus_is_read(tmp_path, capsys,
                                                             argv, message):
    # the --data tree does not exist, so a run that read the corpus first
    # would stop on the data error (exit 3) instead
    out = tmp_path / "out"
    code = run([*argv, "--data", str(tmp_path / "missing"), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert message in err and "missing file" not in err
    # the refusal shows its own subcommand's usage line
    assert f"\nusage: faceid {argv[0]} " in f"\n{err}"
    assert not out.exists()


def test_train_k_is_checked_against_the_synth_spec(tmp_path, capsys):
    # the spec states its samples per subject, so no corpus is built first
    out = tmp_path / "out"
    assert run(["extract", "--synth", "subjects=3,samples=4", "--train-k", "4",
                "--out", str(out)]) == 2
    assert "--train-k 4 leaves no probe sample of the 4 per subject" in capsys.readouterr().err
    assert not out.exists()
    assert run(["extract", "--synth", "subjects=3,samples=4", "--train-k", "3",
                "--out", str(out)]) == 0


def test_missing_files_is_data_error(pgm_tree, tmp_path, capsys):
    root, _ = pgm_tree
    (root / "s3" / "2.pgm").unlink()
    code = run(["extract", "--data", str(root), "--subjects", "5",
                "--samples", "6", "--out", str(tmp_path / "o")])
    assert code == 3
    err = capsys.readouterr().err
    assert "data error:" in err
    assert "s3/2.pgm" in err


@pytest.mark.parametrize("source", ["data", "manifest"])
def test_malformed_pgm_is_data_error_from_either_source(pgm_tree, tmp_path, capsys,
                                                       source):
    root, _ = pgm_tree
    (root / "s3" / "2.pgm").write_bytes(b"P7\n2 2\n255\n" + bytes(4))
    if source == "data":
        argv = ["--data", str(root), "--subjects", "5", "--samples", "6"]
    else:
        inventory = tmp_path / "inventory.txt"
        inventory.write_text("".join(f"s{s}/{k}.pgm {s} {k}\n"
                                     for s in range(1, 6) for k in range(1, 7)))
        argv = ["--manifest", str(inventory)]
    out = tmp_path / "out"
    assert run(["extract", *argv, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ")
    assert "s3/2.pgm: malformed header at byte 0: unsupported magic b'P7'" in err
    assert not out.exists()


def corpus_fault(root, fault):
    """Lay one fault in the files under ``root`` (a 5 x 6 PGM tree): the
    source flags that read it and the data error it must print."""
    listed = [f"s{s}/{k}.pgm {s} {k}" for s in range(1, 6) for k in range(1, 7)]
    inventory = root / "inventory.txt"
    if fault == "directory":
        return ["--manifest", str(root / "s1")], f"[Errno 21] Is a directory: '{root / 's1'}'"
    if fault.startswith("sizes"):
        write_pgm(np.zeros((5, 4)), root / "s3" / "2.pgm")
        message = (f"all corpus images must share dimensions: {root / 's3' / '2.pgm'} "
                   f"is (5, 4), not (16, 14)")
        if fault == "sizes-data":
            return ["--data", str(root), "--subjects", "5", "--samples", "6"], message
        lines, message = listed, f"{inventory}: {message}"
    else:
        lines, message = {
            "repeated": (listed + ["s1/1.pgm 5 6"],
                         f"{inventory}:31: subject 5 sample 6 is already listed on line 30"),
            "uneven": (listed[:-1], f"{inventory}: unequal samples per subject: "
                                    "{1: 6, 2: 6, 3: 6, 4: 6, 5: 5}"),
            "empty": (["# no images", ""], f"{inventory}: empty manifest"),
            "non-integer": (["# header", "s1/1.pgm one 1", *listed],
                            f"{inventory}:2: expected 'path subject_id sample_id', "
                            "got 's1/1.pgm one 1'"),
            "fields": ([*listed, "s1/1.pgm 1 1 1"],
                       f"{inventory}:31: expected 'path subject_id sample_id', "
                       "got 's1/1.pgm 1 1 1'"),
        }[fault]
    if fault in ("repeated", "uneven"):
        # found from the listing: a listed file that is no PGM would stop a
        # run that read the files first
        (root / "s3" / "2.pgm").write_bytes(b"P7\n")
    inventory.write_text("".join(f"{line}\n" for line in lines))
    return ["--manifest", str(inventory)], message


@pytest.mark.parametrize("fault", ["sizes-data", "sizes-manifest", "repeated", "uneven",
                                   "empty", "non-integer", "fields", "directory"])
def test_files_that_form_no_corpus_are_data_errors(pgm_tree, capsys, fault):
    # each fault once exited 2 with a usage line, as if a flag were wrong, or
    # crashed; each is a data error naming the file or the manifest line
    root, _ = pgm_tree
    argv, message = corpus_fault(root, fault)
    out = root / "out"
    assert run(["extract", *argv, "--out", str(out)]) == 3
    assert capsys.readouterr().err == f"data error: {message}\n"
    assert not out.exists()


def test_train_k_is_checked_against_the_manifest(pgm_tree, capsys):
    # a manifest states its samples per subject only once it is read: its
    # 30 images relabelled as 6 subjects x 5 samples leave the default
    # --train-k 5 no probe sample
    root, _ = pgm_tree
    inventory = root / "inventory.txt"
    files = [f"s{s}/{k}.pgm" for s in range(1, 6) for k in range(1, 7)]
    inventory.write_text("".join(f"{file} {i // 5 + 1} {i % 5 + 1}\n"
                                 for i, file in enumerate(files)))
    out = root / "out"
    assert run(["extract", "--manifest", str(inventory), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err[0] == "error: --train-k 5 leaves no probe sample of the 5 per subject"
    assert err[1].startswith("usage: faceid extract ")
    assert not out.exists()
    assert run(["extract", "--manifest", str(inventory), "--train-k", "4",
                "--out", str(out)]) == 0


def test_undecodable_manifest_is_data_error(tmp_path, capsys):
    inventory = tmp_path / "inventory.txt"
    inventory.write_bytes(b"\xff\xfe\x00 1 1\n")
    out = tmp_path / "out"
    assert run(["extract", "--manifest", str(inventory), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {inventory}: 'utf-8' codec can't decode")
    assert "usage:" not in err and not out.exists()


@pytest.mark.parametrize("argv", [["extract"], ["evaluate"], ["sweep", "--axis", "dim"],
                                  ["table1", "--rows", "nn"]])
@pytest.mark.parametrize("under", [False, True])
def test_out_naming_a_file_is_refused_before_the_corpus_is_read(tmp_path, capsys,
                                                                argv, under):
    # --out is the file itself, or a directory below it; the --data tree does
    # not exist, so a run that read the corpus first would exit 3
    existing = tmp_path / "results"
    existing.write_bytes(b"not a directory\n")
    out = existing / "run" if under else existing
    assert run([*argv, "--data", str(tmp_path / "missing"), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err[0] == f"error: --out {out}: {existing} exists and is not a directory"
    assert err[1].startswith(f"usage: faceid {argv[0]} ")
    assert not any(line.startswith("error:") for line in err[1:])
    assert existing.read_bytes() == b"not a directory\n"
    assert list(tmp_path.iterdir()) == [existing]


WRITERS = ("write_features_csv", "write_result_csv", "save_model", "write_training_log",
           "write_fusion_report", "write_curve_csv", "write_table_csv", "write_manifest")


@pytest.mark.parametrize("argv", [
    ["extract"], ["evaluate", "--classifier", "fusion:mlp+pnn+rbf", "--epochs", "5"],
    ["evaluate", "--classifier", "nn:mse"],
    ["sweep", "--axis", "spread", "--classifier", "rbf", "--spreads", "0.5,1"],
    ["table1", "--rows", "nn"],
], ids=["extract", "evaluate-fusion", "evaluate-nn", "sweep", "table1"])
def test_main_writes_each_listed_output_once_then_the_manifest(tmp_path, monkeypatch, argv):
    # every writer is the faceid.cli global, called with the file's path as its
    # second positional argument (where bench/tracer.py reads the bytes written)
    written = []
    for name in WRITERS:
        def record(*args, _write=getattr(cli, name), **kwargs):
            written.append(Path(args[1]))
            return _write(*args, **kwargs)
        monkeypatch.setattr(cli, name, record)
    out = tmp_path / "out"
    assert run([*argv, "--synth", SYNTH, "--out", str(out)]) == 0
    args = Namespace(**json.loads((out / "manifest.json").read_text())["config"],
                     command=argv[0])
    assert written == [out / name for name in [*cli.output_names(args), "manifest.json"]]
    assert sorted(out.iterdir()) == sorted(written)


@pytest.mark.parametrize("argv", [
    ["extract"], ["evaluate", "--classifier", "fusion:mlp+pnn+rbf", "--epochs", "5"],
    ["sweep", "--axis", "dim"], ["table1", "--rows", "nn"],
], ids=["extract", "evaluate", "sweep", "table1"])
def test_output_name_taken_by_a_directory_is_refused_before_the_corpus_is_read(
        tmp_path, capsys, argv):
    # the names refused are the names a run writes, all of them
    written = tmp_path / "written"
    assert run([*argv, "--synth", SYNTH, "--out", str(written)]) == 0
    names = sorted(path.name for path in written.iterdir())
    assert names == sorted(["manifest.json", *json.loads(
        (written / "manifest.json").read_text())["outputs"]])
    capsys.readouterr()
    for name in names:
        # the --data tree does not exist, so a run that read the corpus
        # first would exit 3
        out = tmp_path / name / "out"
        (out / name).mkdir(parents=True)
        assert run([*argv, "--data", str(tmp_path / "missing"), "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err[0] == f"error: --out {out}: {out / name} exists and is not a regular file"
        assert err[1].startswith(f"usage: faceid {argv[0]} ")
        assert not any(line.startswith("error:") for line in err[1:])
        assert list(out.iterdir()) == [out / name]


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


# ---------------------------------------------------------------------------
# corpora a run cannot split


def shape_sources(root, subjects, samples, monkeypatch):
    """Per kind of source, the flags of the first ``subjects`` x ``samples``
    of the PGM tree at ``root`` (or a --synth corpus of that shape) and the
    text a refusal names the source by. Each corpus a run reads or builds is
    logged in the list returned with them."""
    reads = []
    for name in ("load_orl", "load_manifest", "synth_corpus"):
        def logged(*args, _read=getattr(cli, name), **kwargs):
            reads.append(_read)
            return _read(*args, **kwargs)
        monkeypatch.setattr(cli, name, logged)
    spec = f"subjects={subjects},samples={samples},rows=16,cols=14"
    inventory = root / "inventory.txt"
    inventory.write_text("".join(f"s{s}/{k}.pgm {s} {k}\n" for s in range(1, subjects + 1)
                                 for k in range(1, samples + 1)))
    return reads, {
        "synth": (["--synth", spec], f"--synth {spec!r}"),
        "data": (["--data", str(root), "--subjects", str(subjects), "--samples", str(samples)],
                 f"--data {str(root)!r}"),
        "manifest": (["--manifest", str(inventory)], f"--manifest {str(inventory)!r}")}


@pytest.mark.parametrize("source", ["synth", "data", "manifest"])
def test_identifying_among_one_subject_is_refused(tmp_path, pgm_tree, capsys, monkeypatch,
                                                  source):
    # once refused after the read with "normalization needs a (k, S) matrix of
    # at least 2 subjects", which named neither the corpus nor its count; a
    # source that states its shape is refused before it is read
    reads, sources = shape_sources(pgm_tree[0], 1, 3, monkeypatch)
    flags, name = sources[source]
    out = tmp_path / "out"
    for argv in (["evaluate"], ["sweep", "--axis", "dim"],
                 ["sweep", "--axis", "spread", "--classifier", "pnn"], ["table1", "--rows", "nn"]):
        train_k = ["--train-k", "2"] if argv[0] != "table1" else []
        assert run([*argv, *train_k, *flags, "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err[0] == f"error: {name} has 1 subject(s); {argv[0]} needs at least 2"
        assert err[1].startswith(f"usage: faceid {argv[0]} ")
        assert not out.exists()
    assert len(reads) == (4 if source == "manifest" else 0)
    # extraction needs no second subject
    assert run(["extract", "--train-k", "2", "--mask", "rect:4", *flags,
                "--out", str(out)]) == 0
    assert len(read_features_csv(out / "gallery.csv")) == 2
    assert len(read_features_csv(out / "probes.csv")) == 1


@pytest.mark.parametrize("source", ["synth", "manifest"])
def test_table1_on_one_sample_per_subject_is_refused(tmp_path, pgm_tree, capsys,
                                                     monkeypatch, source):
    # table1 takes the protocol's 5 gallery samples, or one fewer than a
    # subject has: none of one, which once exited with "k must be in 1..0,
    # got 0"; --data refuses --samples 1 as a flag
    reads, sources = shape_sources(pgm_tree[0], 3, 1, monkeypatch)
    flags, name = sources[source]
    out = tmp_path / "out"
    assert run(["table1", "--rows", "nn", *flags, "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err[0] == f"error: {name} has 1 sample(s) per subject; table1 needs at least 2"
    assert err[1].startswith("usage: faceid table1 ")
    assert not out.exists()
    assert len(reads) == (source == "manifest")


def test_a_gallery_of_rank_0_is_a_data_error(tmp_path, capsys):
    # two subjects of one constant image each: the clamped eigenface fit has
    # no component, which table1 once subscripted as None (a TypeError)
    write_pgm(np.full((6, 5), 0.5), tmp_path / "flat.pgm")
    inventory = tmp_path / "inventory.txt"
    inventory.write_text("".join(f"flat.pgm {s} {k}\n" for s in (1, 2) for k in (1, 2)))
    out = tmp_path / "out"
    assert run(["table1", "--manifest", str(inventory), "--rows", "nn",
                "--out", str(out)]) == 3
    assert capsys.readouterr().err == ("data error: requested 200 eigenfaces but the gallery "
                                       "supports only 0 (rank after mean removal)\n")
    assert not out.exists()


@pytest.mark.parametrize("argv,message", [
    (["extract"], "--mask rect:10: mask side 10 exceeds matrix dims 6x8"),
    (["evaluate", "--mask", "sector:2", "--r-low", "5"],
     "--mask sector:2 --r-low 5.0: mask retains no coefficients"),
    (["sweep", "--axis", "dim", "--grid", "1:9"], "--grid 1:9: mask side 7 exceeds matrix dims 6x8"),
    (["sweep", "--axis", "spread", "--classifier", "rbf"],
     "--mask rect:10: mask side 10 exceeds matrix dims 6x8"),
])
def test_a_mask_the_images_cannot_take_names_its_flags(tmp_path, capsys, argv, message):
    # the masks are checked once the images are read; the refusal once named
    # no flag
    out = tmp_path / "out"
    assert run([*argv, "--synth", "subjects=3,samples=6,rows=6,cols=8", "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err[0] == f"error: {message}"
    assert err[1].startswith(f"usage: faceid {argv[0]} ")
    assert not out.exists()


# ---------------------------------------------------------------------------
# the exit-code contract


@st.composite
def invocations(draw):
    """A subcommand on a tiny --synth corpus (a few of them empty, or too
    small to split), with options drawn from values that each command reads,
    some of them refused, and maybe a --config file's text (None: no file).
    A run that trains an MLP gets a few epochs."""
    command = draw(st.sampled_from(["extract", "evaluate", "sweep", "table1"]))
    # repeated values are drawn more often: most corpora can be split
    shape = draw(st.tuples(st.sampled_from([3, 2, 4, 3, 2, 3, 4, 2, 3, 4, 1, 0]),
                           st.sampled_from([4, 3, 6, 2, 5, 4, 3, 6, 4, 3, 6, 5, 1, 0]),
                           st.sampled_from([12, 10, 7, 12, 4, 12, 1]),
                           st.sampled_from([11, 10, 6, 11, 3, 11, 1])))
    spec = ",".join(f"{key}={value}" for key, value in
                    zip(("subjects", "samples", "rows", "cols"), shape))
    argv = [command, "--synth", spec, "--seed", str(draw(st.integers(0, 2)))]

    def maybe(flag, *values):
        value = draw(st.sampled_from([None, *values]))
        if value is not None:
            argv.extend([flag, str(value)])
        return value

    classifier = None
    if command == "table1":
        rows = maybe("--rows", "nn", "mlp", "pnn", "rbf", "fusion:")
        if rows not in ("nn", "mlp"):
            maybe("--spreads", "0.5,1.5", "0.2:0.6:0.2", "0.9", "0.4,2", "2:1:0.5", "1,1",
                  "1:3")
        mlp = rows in (None, "mlp")
    else:
        argv += ["--train-k", str(draw(st.sampled_from([2, 1, 3, 2, 5])))]
        transform = draw(st.sampled_from(["dct", "dft", "logdft", "klt"]))
        argv += ["--transform", transform]
        axis = (draw(st.sampled_from(["dim", "spread"])) if command == "sweep" else None)
        if axis:
            argv += ["--axis", axis]
        if axis == "dim":
            maybe("--grid", "1:3", "2,4", "1:20", "0:2", "3,3", "2.5,3.5", "5:1", "2:10:2",
                  "1:3:0.5", "1.5:4")
            maybe("--metric", "mad", "mse")
        elif transform == "klt":
            maybe("--dim", 0, 1, 3, 8, 30)
        else:
            maybe("--mask", "rect:1", "rect:3", "rect:4", "rect:8", "sector:0.5",
                  "sector:2.5", "sector:4", "sector:9", "rect:0", "wedge:3")
        if transform != "klt":
            maybe("--r-low", 0, 0.5, 1, 2, 30)
            if axis == "dim":
                maybe("--mask-shape", "rect", "sector")
        if transform in ("dft", "logdft"):
            maybe("--complex-mode", "modulus", "interleave")
        if command == "evaluate":
            classifier = draw(st.sampled_from(["nn:mad", "nn:mse", "mlp", "pnn", "rbf",
                                               "fusion:rbf+nn:mad", "fusion:mlp+pnn",
                                               "fusion:pnn", "svm"]))
        elif axis == "spread":
            classifier = draw(st.sampled_from(["pnn", "rbf", "nn:mad"]))
            maybe("--spreads", "0.5,1.5", "0.2:0.6:0.2", "0.9", "0,1", "1:3")
        if classifier:
            argv += ["--classifier", classifier]
            if command == "evaluate" and ("pnn" in classifier or "rbf" in classifier):
                maybe("--spread", 0.01, 0.5, 3, 1e6)
            if "rbf" in classifier:
                maybe("--max-centers", 1, 4, 50)
        mlp = command == "evaluate" and "mlp" in classifier
    if mlp:
        argv += ["--epochs", str(draw(st.integers(1, 4))), "--hidden", "3"]
    config = (draw(st.sampled_from(["seed = 1", "mask rect:2", "r_low = -1", "bogus = 1",
                                    "\udcff"])) if draw(st.integers(0, 4)) == 4 else None)
    return argv, config


TINY = ["--synth", "subjects=3,samples=4,rows=12,cols=11", "--seed", "0"]


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(invocations())
# each grid form on each axis, whatever the draws above reach
@example(([*"sweep --axis dim --train-k 2 --grid 2:10:2".split(), *TINY], None))
@example(([*"sweep --axis dim --train-k 2 --mask-shape sector --grid 1:3:0.5".split(),
           *TINY], None))
@example(([*"sweep --axis dim --train-k 2 --transform klt --grid 1:5:2".split(), *TINY], None))
@example(([*"sweep --axis dim --train-k 2 --transform klt --grid 1:3:0.5".split(), *TINY],
          None))
@example(([*"sweep --axis spread --train-k 2 --classifier pnn --spreads 1:3".split(), *TINY],
          None))
@example(([*"table1 --rows rbf --spreads 1:3".split(), *TINY], None))
def test_every_run_keeps_the_exit_code_contract(invocation):
    # exit 0, 2 (configuration), 3 (data) or 4 (numeric), and no traceback;
    # a configuration error names a flag or a config-file line, and a refused
    # run writes no --out
    argv, config = invocation
    command = argv[0]
    with TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        if config is not None:
            # a text that is no UTF-8 stands for a file that cannot be read
            cfg = Path(tmp) / "run.cfg"
            cfg.write_bytes(config.encode("utf-8", "surrogateescape"))
            argv = [*argv, "--config", str(cfg)]
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
            code = run([*argv, "--out", str(out)])
        assert code in (0, 2, 3, 4)
        if code:
            assert not out.exists()
    lines = stderr.getvalue().splitlines()
    if code == 2:
        (message,) = [line for line in lines if "error: " in line]
        flags = [flag(option) for option in OPTIONS if command in option.commands]
        assert any(name in message for name in flags) or "config file line" in message
    elif code:
        assert lines[0].startswith("data error: " if code == 3 else "numeric failure: ")


class _MallInfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks", "fsmblks",
        "uordblks", "fordblks", "keepcost")]


def _mapped_bytes() -> int:
    """The bytes glibc's malloc holds in blocks mapped on their own."""
    mallinfo2 = ctypes.CDLL(None).mallinfo2
    mallinfo2.restype = _MallInfo2
    return mallinfo2().hblkhd


@pytest.mark.skipif(not (sys.platform.startswith("linux")
                         and hasattr(ctypes.CDLL(None), "mallinfo2")),
                    reason="glibc's malloc only")
def test_pinned_malloc_thresholds_map_each_large_array():
    # left to adjust, freeing a 16 MB block raises the mmap threshold past
    # 4 MB, and the next 4 MB array would come from the heap and stay there
    cli.pin_malloc_thresholds()
    np.ones(16 << 20, np.uint8)
    before = _mapped_bytes()
    block = np.ones(4 << 20, np.uint8)
    assert _mapped_bytes() - before >= 4 << 20
    del block
    assert _mapped_bytes() == before
