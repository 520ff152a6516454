"""Command-line experiment harness.

Subcommands: extract (feature CSVs), evaluate (one classifier run), sweep
(dimension or spread curves), table1 (full benchmark comparison). Exit codes
are a stable contract: 0 success, 2 configuration error, 3 data error,
4 numeric failure. All randomness flows from the single --seed flag, and a
repeated run with the same configuration writes byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import fields
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

from .dataset import CorpusError, Split, corpus_checksum, load_manifest, load_orl, synth_corpus
from .transforms import (
    DCT, DFT, LOGDFT, KLT, MODULUS, INTERLEAVE, RECTANGULAR, SECTORIAL,
    ZonalMask, ZoneError,
)
from .eigenfaces import RankError
from .classifiers import DivergenceError, MLPModel, RBFModel
from .evaluation import (
    DEFAULT_MASK_SIDE, KERNEL_CLASSIFIERS, LEARNERS, MLP_NAME, RBF_NAME, SPREAD_GRID,
    TRAIN_SAMPLES, EvalConfig, dim_grid, extract_split_features, format_table,
    parse_classifier_spec, run_experiment, save_model, spread_grid, sweep_dimension,
    stop_line, sweep_spread, table1_report, table_classifiers, table_targets, write_curve_csv,
    write_features_csv, write_fusion_report, write_manifest, write_result_csv,
    write_table_csv, write_training_log,
)
from .fusion import MODES

ENV_DATA = "FACEID_DATA"
SOURCES = ("data", "manifest", "synth")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


class ConfigError(Exception):
    """Invalid flag, config-file entry, or option combination."""


# the one grammar of every --grid and --spreads (see ``parse_grid``), and the
# most points a range may expand to
GRID_FORMS = "'lo:hi' (the integers lo..hi), 'lo:hi:step' or 'a,b,c'"
MAX_GRID_POINTS = 10_000


# ---------------------------------------------------------------------------
# option plumbing
# ---------------------------------------------------------------------------

def checked(name: str, parse: Callable, test: Callable, bound: str) -> Callable:
    """An option type: ``parse(text)``, refused with "TEXT is not BOUND"
    unless ``test`` holds of it; argparse calls the type ``name`` when it
    refuses a flag's value."""
    def convert(text: str):
        value = parse(text)
        if not test(value):
            raise ValueError(f"{text.strip()!r} is not {bound}")
        return value
    convert.__name__ = convert.__qualname__ = name
    return convert


# every float option, grid value and sector radius: NaN and the infinities
# are refused, as any other value that is not a number
finite_float = checked("finite_float", float, math.isfinite, "a finite number")
unit_float = checked("unit_float", finite_float, lambda v: 0.0 <= v <= 1.0, "in [0, 1]")
positive_float = checked("positive_float", finite_float, lambda v: v > 0.0, "> 0")
nonnegative_float = checked("nonnegative_float", finite_float, lambda v: v >= 0.0, ">= 0")
positive_int = checked("positive_int", int, lambda v: v >= 1, ">= 1")
nonnegative_int = checked("nonnegative_int", int, lambda v: v >= 0, ">= 0")
# samples per subject: a split keeps at least one gallery and one probe sample
int_at_least_2 = checked("int_at_least_2", int, lambda v: v >= 2, ">= 2")


FLAG_ONLY = object()  # the default of an option only its flag sets


class Option(NamedTuple):
    """One option, stated once: the parser, the defaults, the config-file keys
    and the read rules all come from ``OPTIONS``."""
    dest: str
    commands: tuple[str, ...]    # the subcommands that declare it
    default: object = FLAG_ONLY  # FLAG_ONLY: no default, no config key
    type: Callable | None = None
    choices: list | None = None
    help: str | None = None
    required: bool = False
    # Read rules: the values of a run's selector under which it reads the
    # option (None: that selector does not govern it). The selectors are the
    # sweep axis, the transform, the classifiers the run trains (the members
    # of --classifier, or of the rows table1 --rows selects) and the dataset
    # source. They are checked in that order, so the axis refuses a flag first.
    axis: set | None = None
    transform: set | None = None
    classifier: set | None = None
    source: set | None = None


ALL = ("extract", "evaluate", "sweep", "table1")
FEATURED = ALL[:3]          # the commands that build features
ZONAL = {DCT, DFT, LOGDFT}  # the transforms a zonal mask crops

# one entry per option, in the order the usage lines list them; the
# classifier options take EvalConfig's defaults (its fields are their dests)
OPTIONS = (
    Option("data", ALL, help=f"image directory root (or ${ENV_DATA})"),
    Option("manifest", ALL, help="inventory file: path subject sample"),
    Option("synth", ALL, help="synthetic corpus, e.g. "
           "'subjects=8,samples=6,rows=24,cols=20' ('' for defaults)"),
    Option("subjects", ALL, 40, positive_int, help="subjects under --data",
           source={"data"}),
    Option("samples", ALL, 10, int_at_least_2, help="samples per subject under --data",
           source={"data"}),
    Option("config", ALL, help="key-value config file (flags win)"),
    Option("out", ALL, "faceid-out", help="output directory"),
    Option("seed", ALL, EvalConfig.seed, nonnegative_int, help="seed for all randomness"),
    Option("train_k", FEATURED, TRAIN_SAMPLES, positive_int,
           help="gallery samples per subject"),
    Option("transform", FEATURED, DCT, choices=[DCT, DFT, LOGDFT, KLT]),
    Option("mask", FEATURED, f"rect:{DEFAULT_MASK_SIDE}",
           help="zonal mask: rect:N or sector:R", axis={"spread"}, transform=ZONAL),
    Option("dim", FEATURED, None, positive_int, help="component count for --transform klt",
           axis={"spread"}, transform={KLT}),
    Option("complex_mode", FEATURED, MODULUS, choices=[MODULUS, INTERLEAVE],
           transform={DFT, LOGDFT}),
    Option("r_low", FEATURED, 0.0, nonnegative_float,
           help="drop coefficients below this radius", transform=ZONAL),
    Option("log_offset", FEATURED, 1e-4, positive_float,
           help="offset inside the log for logdft", transform={LOGDFT}),
    Option("max_centers", ALL[1:], EvalConfig.max_centers, positive_int,
           help="RBF center budget", axis={"spread"}, classifier={RBF_NAME}),
    Option("gamma", ("evaluate", "table1"), EvalConfig.gamma, unit_float,
           help="MSEREG performance ratio", classifier={MLP_NAME}),
    Option("epochs", ("evaluate", "table1"), EvalConfig.epochs, positive_int,
           help="MLP training iterations", classifier={MLP_NAME}),
    Option("hidden", ("evaluate", "table1"), EvalConfig.hidden, positive_int,
           help="MLP hidden neurons", classifier={MLP_NAME}),
    Option("fusion_mode", ("evaluate", "table1"), EvalConfig.fusion_mode,
           choices=list(MODES)),
    Option("spread", ("evaluate",), EvalConfig.spread, positive_float, help="PNN/RBF spread",
           classifier=set(KERNEL_CLASSIFIERS)),
    Option("axis", ("sweep",), choices=["dim", "spread"], required=True),
    Option("classifier", ("evaluate", "sweep"), "nn:mad", axis={"spread"},
           help="nn:mad, nn:mse, mlp, pnn, rbf, or fusion:a+b (pnn or rbf for "
           "sweep --axis spread)"),
    Option("metric", ("sweep",), "mad", choices=["mad", "mse"], axis={"dim"}),
    Option("mask_shape", ("sweep",), "rect", choices=["rect", "sector"], axis={"dim"},
           transform=ZONAL),
    Option("grid", ("sweep",), None, axis={"dim"},
           help=f"rect sides, sector radii or KLT dims: {GRID_FORMS}, e.g. '1:30'"),
    Option("rows", ("table1",), None, help="row filter prefix, e.g. nn or rbf"),
    Option("spreads", ("sweep", "table1"), None, help=f"{GRID_FORMS}, e.g. '0.1:2.0:0.1'",
           axis={"spread"}, classifier=set(KERNEL_CLASSIFIERS)),
)
_DEFAULTS = {option.dest: option.default for option in OPTIONS
             if option.default is not FLAG_ONLY}


def flag(option: Option) -> str:
    return "--" + option.dest.replace("_", "-")


def parsed(args: argparse.Namespace, dest: str, parse: Callable):
    """``parse`` of option ``dest``'s value (None if unread), refused under its flag."""
    try:
        return parse(vars(args).get(dest))
    except (ConfigError, ValueError) as exc:
        raise ConfigError(f"--{dest.replace('_', '-')}: {exc}") from exc


def read_config_file(path: str, options: dict) -> dict:
    """Lines of `key = value` (or `key value`); # starts a comment.

    ``options`` maps each key a file may set to its type and allowed values
    (see ``config_options``); a file value is converted, and refused, just as
    the flag's would be.
    """
    values = {}
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read --config file: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, value = line.partition("=" if "=" in line else " ")
        key, value = key.strip(), value.strip()
        if key not in options or not value:
            raise ConfigError(f"config file line {lineno}: bad entry {raw!r}")
        kind, allowed = options[key]
        try:
            values[key] = kind(value)
        except ValueError as exc:
            raise ConfigError(f"config file line {lineno}: {exc}") from exc
        if allowed is not None and values[key] not in allowed:
            raise ConfigError(f"config file line {lineno}: {key} must be one of "
                              f"{', '.join(allowed)}, not {value!r}")
    return values


def _subcommands(parser: argparse.ArgumentParser) -> dict:
    """Subcommand name -> its parser."""
    return next(action for action in parser._actions
                if isinstance(action, argparse._SubParsersAction)).choices


def config_options() -> dict:
    """Option name -> (type, allowed values or None) for every option a config
    file may set: each one with a default."""
    return {option.dest: (option.type or str, option.choices) for option in OPTIONS
            if option.dest in _DEFAULTS}


def _choose_source(args: argparse.Namespace) -> str:
    """Exactly one of --data / --manifest / --synth (env var fills --data);
    the others are dropped."""
    if all(getattr(args, name) is None for name in SOURCES):
        args.data = os.environ.get(ENV_DATA) or None
    chosen = [name for name in SOURCES if getattr(args, name) is not None]
    if len(chosen) != 1:
        raise ConfigError(
            "exactly one dataset source required: --data DIR, --manifest FILE, "
            f"or --synth SPEC (got {len(chosen)})")
    for name in set(SOURCES) - set(chosen):
        delattr(args, name)
    return chosen[0]


def _selector(args: argparse.Namespace, name: str) -> tuple[str, set] | None:
    """One selector of the read rules (see ``Option``): its flag as a refusal
    names it, and its values. None where the run has no such selector."""
    if name == "source":
        source = _choose_source(args)
        return f"--{source}", {source}
    if name == "classifier" and "rows" in vars(args):
        targets = table_targets(args.rows)
        if not targets:
            raise ConfigError(f"--rows {args.rows!r} matches no table rows")
        return f"--rows {args.rows}", table_classifiers(targets)
    if name not in vars(args):
        return None
    value = getattr(args, name)
    return f"--{name} {value}", (set(parsed(args, name, parse_classifier_spec))
                                 if name == "classifier" else {value})


def resolve_options(args: argparse.Namespace) -> None:
    """Keep only the options the run reads, each filled from its flag, else
    the --config file, else the default.

    An option that its read rules (see ``Option``) leave unread is refused
    when given as a flag and dropped otherwise, so it is never recorded.
    """
    file_values = read_config_file(args.config, config_options()) if args.config else {}
    given = {key for key, value in vars(args).items() if value is not None}
    for key in _DEFAULTS.keys() & vars(args).keys() - given:
        setattr(args, key, file_values.get(key, _DEFAULTS[key]))
    for name in ("axis", "transform", "classifier", "source"):
        resolved = _selector(args, name)
        if resolved is None:
            continue
        selected, values = resolved
        for option in OPTIONS:
            allowed = getattr(option, name)
            if allowed is not None and option.dest in vars(args) and not values & allowed:
                if option.dest in given:
                    raise ConfigError(f"{selected} does not read {flag(option)}")
                delattr(args, option.dest)


def output_names(args: argparse.Namespace) -> list[str]:
    """The files the run writes into --out besides manifest.json: evaluate
    saves each member that learns, an MLP's training log and, for a fusion,
    its report."""
    if args.command != "evaluate":
        return {"extract": ["gallery.csv", "probes.csv"], "sweep": ["curve.csv"],
                "table1": ["table1.csv"]}[args.command]
    members = parse_classifier_spec(args.classifier)
    names = ["result.csv", *(f"model_{name}.npz" for name in members if name in LEARNERS)]
    if MLP_NAME in members:
        names.append("training_log.csv")
    if len(members) > 1:
        names.append("fusion_report.csv")
    return names


def refuse_taken_out(args: argparse.Namespace) -> None:
    """Refuse, before any corpus is read, an --out that is or lies under an
    existing file, and an output file name in it that something other than a
    regular file takes: writing there would fail only after the run."""
    out = Path(args.out)
    for path in (out, *out.parents):
        if path.exists() and not path.is_dir():
            raise ConfigError(f"--out {out}: {path} exists and is not a directory")
    for path in (out / name for name in ["manifest.json", *output_names(args)]):
        if path.exists() and not path.is_file():
            raise ConfigError(f"--out {out}: {path} exists and is not a regular file")


def parse_mask_spec(spec: str) -> ZonalMask:
    """'rect:10' or 'sector:8.5'."""
    kind, _, size = spec.partition(":")
    kind = kind.strip().lower()
    try:
        if kind in ("rect", RECTANGULAR):
            return ZonalMask.rectangular(int(size))
        if kind in ("sector", SECTORIAL):
            return ZonalMask.sectorial(finite_float(size))
    except ValueError as exc:
        raise ConfigError(f"bad mask spec {spec!r}: {exc}") from exc
    raise ConfigError(f"bad mask spec {spec!r}: expected rect:N or sector:R")


def parse_grid(spec: str) -> list[float]:
    """Every --grid and --spreads: 'lo:hi' counts the integers from lo to hi,
    'lo:hi:step' steps from lo to hi (both inclusive), 'a,b,c' lists its
    values. A range is counted from its ends, and one of more than
    ``MAX_GRID_POINTS`` points refused, before any point is built. Which
    values an axis takes is the library's check (``dim_grid``, ``spread_grid``)."""
    try:
        if ":" not in spec:
            return [finite_float(tok) for tok in spec.split(",") if tok.strip()]
        ends = [finite_float(tok) for tok in spec.split(":")]
        if len(ends) not in (2, 3):
            raise ValueError("expected lo:hi, lo:hi:step or a comma list")
        if len(ends) == 2 and not all(end.is_integer() for end in ends):
            raise ValueError("lo:hi counts integers; give a step (lo:hi:step)")
        lo, hi, step = ends if len(ends) == 3 else (*ends, 1.0)
        if step <= 0:
            raise ValueError("step must be positive")
        # a descending range is empty; finite ends can still overflow n to +-inf
        n = max((hi - lo) / step, -1.0)
        count = round(n) + 1 if math.isfinite(n) else n
        if not count <= MAX_GRID_POINTS:
            raise ValueError(f"a range may span at most {MAX_GRID_POINTS} points")
        grid = [round(lo + i * step, 10) for i in range(count)]
        return [g for g in grid if g <= hi + 1e-12]
    except ValueError as exc:
        raise ConfigError(f"bad grid {spec!r}: {exc}") from exc


def synth_params(spec: str, seed: int) -> dict:
    """'subjects=8,samples=6,rows=24,cols=20' with all fields optional, in the
    order of ``synth_corpus``'s arguments."""
    params = {"seed": seed, "subjects": 10, "samples": 6, "rows": 32, "cols": 28}
    if spec.strip():
        for token in spec.split(","):
            key, eq, value = token.partition("=")
            key = key.strip()
            if not eq or key not in params:
                raise ConfigError(f"bad --synth token {token!r}")
            try:
                params[key] = (nonnegative_int if key == "seed" else positive_int)(value)
            except ValueError as exc:
                raise ConfigError(f"bad --synth token {token!r}: {exc}") from exc
    return params


def read_spreads(spec: str | None) -> list[float]:
    """--spreads (``SPREAD_GRID`` without it) ascending, positive, none repeated."""
    return spread_grid(parse_grid(spec) if spec else SPREAD_GRID)


def load_split(args: argparse.Namespace) -> Split:
    """The run's split of the corpus from the one source it chose: the first
    --train-k samples of every subject, or without that flag (table1) the
    protocol's TRAIN_SAMPLES where a probe sample remains.

    A corpus the run cannot split is refused, naming its source; identifying
    needs two subjects, extracting one. A source that states its shape (--data
    with --subjects and --samples, or a --synth spec) is checked before it is
    read, a manifest once it is read.
    """
    name = next(name for name in SOURCES if name in vars(args))
    source = f"--{name} {vars(args)[name]!r}"
    if name == "manifest":
        corpus = load_manifest(args.manifest)
        subjects, samples, read = corpus.n_subjects, corpus.samples_per_subject, lambda: corpus
    elif name == "data":
        subjects, samples = args.subjects, args.samples
        read = lambda: load_orl(args.data, subjects, samples)
    else:
        params = synth_params(args.synth, args.seed)
        subjects, samples = params["subjects"], params["samples"]
        read = lambda: synth_corpus(*params.values())
    if subjects < 2 and args.command != "extract":
        raise ConfigError(f"{source} has {subjects} subject(s); {args.command} "
                          f"needs at least 2")
    k = vars(args).get("train_k", min(TRAIN_SAMPLES, samples - 1))
    if k < 1:
        raise ConfigError(f"{source} has {samples} sample(s) per subject; "
                          f"{args.command} needs at least 2")
    if k >= samples:
        raise ConfigError(f"--train-k {k} leaves no probe sample of the {samples} "
                          f"per subject")
    return Split(read(), k)


def make_eval_config(args: argparse.Namespace) -> EvalConfig:
    """The classifier knobs the run reads (``EvalConfig`` field = dest)."""
    return EvalConfig(**{f.name: getattr(args, f.name) for f in fields(EvalConfig)
                         if hasattr(args, f.name)})


def feature_options(args: argparse.Namespace) -> dict:
    """The transform options the run reads, as ``extract_split_features`` (or
    ``sweep_dimension``) keywords, checked before any corpus is read."""
    if "dim" in vars(args) and args.dim is None:  # dim is kept only under klt
        raise ConfigError("--transform klt requires --dim")
    # the options a transform rule governs are the feature keywords
    options = {option.dest: getattr(args, option.dest) for option in OPTIONS
               if option.transform is not None and option.dest in vars(args)}
    options["kind"] = args.transform
    if "mask" in options:
        options["mask"] = parsed(args, "mask", parse_mask_spec)
    if "mask_shape" in options:
        options["mask_shape"] = {"rect": RECTANGULAR, "sector": SECTORIAL}[args.mask_shape]
    return options


def emit_manifest(out: Path, args: argparse.Namespace, split: Split) -> None:
    """Write manifest.json, listing the run's outputs; warn (but proceed) if
    an earlier manifest in the same directory recorded a different dataset."""
    checksum = corpus_checksum(split.corpus)
    path = out / "manifest.json"
    if path.exists():
        try:
            previous = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            previous = None
        # a file that is not a JSON object is no earlier manifest to compare
        if (isinstance(previous, dict)
                and previous.get("dataset_checksum") not in (None, checksum)):
            print(f"warning: dataset checksum differs from earlier manifest "
                  f"in {out}", file=sys.stderr)
    config = {key: value for key, value in vars(args).items()
              if key not in ("config", "command")}
    write_manifest({"command": args.command, "config": config,
                    "seed": args.seed, "dataset_checksum": checksum,
                    "outputs": sorted(output_names(args))}, path)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_extract(args: argparse.Namespace) -> tuple[Split, dict, str]:
    options = feature_options(args)
    split = load_split(args)
    gal, probes = extract_split_features(split, **options)
    return split, {"gallery.csv": partial(write_features_csv, gal),
                   "probes.csv": partial(write_features_csv, probes)}, (
        f"wrote {len(gal)} gallery + {len(probes)} probe vectors "
        f"(dim {gal.dim}) to {Path(args.out)}")


def cmd_evaluate(args: argparse.Namespace) -> tuple[Split, dict, str]:
    options = feature_options(args)
    split = load_split(args)
    gal, probes = extract_split_features(split, **options)
    result = run_experiment(args.classifier, gal, probes, make_eval_config(args))
    writers = {"result.csv": partial(write_result_csv, result),
               "fusion_report.csv": partial(write_fusion_report, result)}
    for name, model in result.models.items():
        writers[f"model_{name}.npz"] = partial(save_model, model)
        if isinstance(model, MLPModel):
            writers["training_log.csv"] = partial(write_training_log, model.curve)
            print(stop_line(name, model), file=sys.stderr)
        elif isinstance(model, RBFModel):
            # the network's own arg-max: one subject when it has collapsed,
            # however few probes sit exactly at the bias
            subjects = len(set(result.scores[name].argmax(axis=1).tolist()))
            print(f"{name}: {model.n_centers} centers, {model.tied_picks} picked "
                  f"by the tie rule, final residual {model.residuals[-1]:.6g}, "
                  f"{result.collapsed[name]}/{len(probes)} probes at the bias, predictions "
                  f"span {subjects}/{model.subject_ids.size} subjects", file=sys.stderr)
        else:  # PNN
            print(f"{name}: {result.collapsed[name]}/{len(probes)} probes "
                  f"took the nearest-neighbor fallback (every activation underflowed "
                  f"at spread {model.spread:g})", file=sys.stderr)
    return split, writers, f"identification rate: {result.rate:.1f}%"


def cmd_sweep(args: argparse.Namespace) -> tuple[Split, dict, str]:
    options = feature_options(args)
    if args.axis == "dim":
        # without --grid, the default grid follows the corpus shape
        grid = parsed(args, "grid", lambda spec: dim_grid(
            args.transform, parse_grid(spec), options.get("mask_shape", RECTANGULAR))
            if spec else None)
        split = load_split(args)
        points = sweep_dimension(split, grid=grid, metric=args.metric, **options)
    else:
        members = parse_classifier_spec(args.classifier)
        if len(members) > 1 or members[0] not in KERNEL_CLASSIFIERS:
            raise ConfigError("--axis spread requires --classifier "
                              + " or ".join(KERNEL_CLASSIFIERS))
        spreads = parsed(args, "spreads", read_spreads)
        split = load_split(args)
        gal, probes = extract_split_features(split, **options)
        points = sweep_spread(gal, probes, args.classifier, spreads,
                              make_eval_config(args), partial(print, file=sys.stderr))
    best = max(points, key=lambda pt: pt.rate)
    column = "param" if args.axis == "dim" else "spread"
    return split, {"curve.csv": partial(write_curve_csv, points, param_name=column)}, (
        f"{len(points)} points; best rate {best.rate:.1f}% at {args.axis}={best.param:g}")


def cmd_table1(args: argparse.Namespace) -> tuple[Split, dict, str]:
    spreads = parsed(args, "spreads", read_spreads)
    split = load_split(args)
    rows = table1_report(split, make_eval_config(args), rows_filter=args.rows, spreads=spreads,
                         log=partial(print, file=sys.stderr))
    return split, {"table1.csv": partial(write_table_csv, rows)}, format_table(rows)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

# subcommand -> (its function, its line in the top-level help)
COMMANDS = {
    "extract": (cmd_extract, "write feature CSVs"),
    "evaluate": (cmd_evaluate, "run one classifier"),
    "sweep": (cmd_sweep, "dimension or spread curves"),
    "table1": (cmd_table1, "benchmark comparison table"),
}


def build_parser() -> argparse.ArgumentParser:
    # no abbreviations: a flag a command lacks must not pass as a longer one
    parser = argparse.ArgumentParser(
        prog="faceid", allow_abbrev=False,
        description="Transform-domain face identification experiments")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (_, summary) in COMMANDS.items():
        sub = subs.add_parser(name, allow_abbrev=False, help=summary)
        source = sub.add_argument_group("dataset source (exactly one)")
        for option in OPTIONS:
            if name in option.commands:
                (source if option.dest in SOURCES else sub).add_argument(
                    flag(option), type=option.type, choices=option.choices,
                    required=option.required, help=option.help)
    return parser


def pin_malloc_thresholds() -> None:
    """Fix glibc's malloc thresholds: an array of 1 MiB or more is mapped on its
    own and unmapped when freed. Left to adjust, they rose with a freed 12-16 MB
    eigenface buffer, and peak RSS moved by up to 11 MB between equal runs."""
    if sys.platform.startswith("linux"):
        import ctypes
        mallopt = ctypes.CDLL(None).mallopt
        mallopt(-3, 1 << 20)    # M_MMAP_THRESHOLD; once set, it no longer adjusts
        mallopt(-1, 4 << 20)    # M_TRIM_THRESHOLD: the free heap top kept for reuse


def main(argv: list[str] | None = None) -> int:
    pin_malloc_thresholds()
    parser = build_parser()
    args, unknown = parser.parse_known_args(argv)
    command = _subcommands(parser)[args.command]
    if unknown:
        command.error(f"unrecognized arguments: {' '.join(unknown)}")
    try:
        resolve_options(args)
        refuse_taken_out(args)
        # the command's split, a writer per output name it can produce, its summary
        split, writers, summary = COMMANDS[args.command][0](args)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        for name in output_names(args):
            writers[name](out / name)
        emit_manifest(out, args, split)
        print(summary)
        return EXIT_OK
    except DivergenceError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (CorpusError, RankError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ConfigError, ValueError) as exc:
        if isinstance(exc, ZoneError):  # checked once the images are read
            exc = " ".join(f"{flag(option)} {vars(args)[option.dest]}" for option in OPTIONS
                           if option.dest in ("mask", "grid", "r_low")
                           and vars(args).get(option.dest)) + f": {exc}"
        print(f"error: {exc}", file=sys.stderr)
        print(command.format_usage(), end="", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
