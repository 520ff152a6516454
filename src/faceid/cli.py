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
from dataclasses import asdict, fields
from pathlib import Path

from .dataset import (
    Corpus, InventoryError, PgmError,
    corpus_checksum, load_manifest, load_orl, split_first_k, synth_corpus,
)
from .transforms import (
    DCT, DFT, LOGDFT, KLT, MODULUS, INTERLEAVE, RECTANGULAR, SECTORIAL,
    ZonalMask,
)
from .eigenfaces import RankError
from .classifiers import (
    DivergenceError, MLPModel, RBFModel, collapse_counts, save_model,
    write_training_log,
)
from .evaluation import (
    KERNEL_CLASSIFIERS, MLP_NAME, RBF_NAME, SPREAD_GRID, TRAIN_SAMPLES,
    EvalConfig, dim_grid, extract_split_features, format_table,
    parse_classifier_spec, run_experiment, spread_grid, sweep_dimension,
    sweep_spread, table1_report, table_targets, write_curve_csv,
    write_features_csv, write_fusion_report, write_manifest, write_result_csv,
    write_table_csv,
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


# the most points a range grid ('lo:hi' or 'lo:hi:step') may expand to
MAX_GRID_POINTS = 10_000


# ---------------------------------------------------------------------------
# option plumbing
# ---------------------------------------------------------------------------

def finite_float(text: str) -> float:
    """The type of every float option and grid value: NaN and the
    infinities are refused, as any other value that is not a number."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text.strip()!r} is not a finite number")
    return value


def unit_float(text: str) -> float:
    """A finite float in [0, 1]: the MSEREG performance ratio."""
    value = finite_float(text)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{text.strip()!r} is not in [0, 1]")
    return value


def positive_float(text: str) -> float:
    """A finite float > 0: the offset inside logdft's log."""
    value = finite_float(text)
    if not value > 0.0:
        raise ValueError(f"{text.strip()!r} is not > 0")
    return value


def _int_at_least(low: int, name: str):
    """An integer option type that refuses a value below ``low``; argparse
    calls it ``name`` when it refuses one."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise ValueError(f"{text.strip()!r} is not >= {low}")
        return value
    parse.__name__ = parse.__qualname__ = name
    return parse


# counts of subjects, gallery samples, eigenfaces, epochs, neurons, centers
positive_int = _int_at_least(1, "positive_int")
# the seed of every random stream
nonnegative_int = _int_at_least(0, "nonnegative_int")
# samples per subject: a split keeps at least one gallery and one probe sample
int_at_least_2 = _int_at_least(2, "int_at_least_2")


def read_config_file(path: str, options: dict) -> dict:
    """Lines of `key = value` (or `key value`); # starts a comment.

    ``options`` maps each key a file may set to its type and allowed values
    (see ``config_options``); a file value is converted, and refused, just as
    the flag's would be.
    """
    values = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" in line:
            key, _, value = line.partition("=")
        else:
            key, _, value = line.partition(" ")
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


def config_options(parser: argparse.ArgumentParser) -> dict:
    """Option name -> (type, allowed values or None) for every option a config
    file may set: the subcommands' own options, but neither --config, the
    dataset source, nor the required ones."""
    return {action.dest: (action.type or str, action.choices)
            for sub in _subcommands(parser).values() for action in sub._actions
            if action.dest not in ("help", "config", *SOURCES) and not action.required}


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
    """One selector of ``_READ_UNDER``: its flag as a refusal names it, and
    its values. None where the run has no such selector."""
    if name == "source":
        source = _choose_source(args)
        return f"--{source}", {source}
    if name == "classifiers" and "rows" in vars(args):
        targets = table_targets(args.rows)
        if not targets:
            raise ConfigError(f"--rows {args.rows!r} matches no table rows")
        return f"--rows {args.rows}", {member for row in targets
                                       for member in parse_classifier_spec(row[2])}
    name = "classifier" if name == "classifiers" else name
    if name not in vars(args):
        return None
    value = getattr(args, name)
    return f"--{name} {value}", (set(parse_classifier_spec(value))
                                 if name == "classifier" else {value})


def resolve_options(args: argparse.Namespace, options: dict) -> None:
    """Keep only the options the run reads, each filled from its flag, else
    the --config file (which may set ``options``), else the default.

    An option that its selectors (see ``_READ_UNDER``) leave unread is
    refused when given as a flag and dropped otherwise, so it is never
    recorded.
    """
    file_values = read_config_file(args.config, options) if args.config else {}
    given = {key for key, value in vars(args).items() if value is not None}
    for key in _DEFAULTS.keys() & vars(args).keys() - given:
        setattr(args, key, file_values.get(key, _DEFAULTS[key]))
    for name, reads in _READ_UNDER.items():
        resolved = _selector(args, name)
        if resolved is None:
            continue
        flag, values = resolved
        for key, allowed in reads.items():
            if key in vars(args) and not values & allowed:
                if key in given:
                    raise ConfigError(f"{flag} does not read "
                                      f"--{key.replace('_', '-')}")
                delattr(args, key)


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


def refuse_long_range(spec: str, points: float) -> None:
    """Refuse a range grid of more than ``MAX_GRID_POINTS`` points (an
    uncountable one included) before any of it is built."""
    if not points <= MAX_GRID_POINTS:
        raise ConfigError(f"bad grid {spec!r}: a range may span at most "
                          f"{MAX_GRID_POINTS} points")


def parse_int_grid(spec: str) -> list[int]:
    """'1:30' (inclusive range) or '1,4,9'."""
    try:
        if ":" in spec:
            lo, hi = (int(tok) for tok in spec.split(":"))
            refuse_long_range(spec, hi - lo + 1)
            return list(range(lo, hi + 1))
        return [int(tok) for tok in spec.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad grid {spec!r}: {exc}") from exc


def parse_float_grid(spec: str) -> list[float]:
    """'0.1:2.0:0.1' (start:stop:step, inclusive) or '0.5,0.9'."""
    try:
        if ":" in spec:
            lo, hi, step = (finite_float(tok) for tok in spec.split(":"))
            if step <= 0:
                raise ConfigError(f"bad grid {spec!r}: step must be positive")
            n = (hi - lo) / step  # finite ends can still overflow it to inf
            refuse_long_range(spec, round(n) + 1 if math.isfinite(n) else n)
            n = int(round(n))
            grid = [round(lo + i * step, 10) for i in range(n + 1)]
            return [g for g in grid if g <= hi + 1e-12]
        return [finite_float(tok) for tok in spec.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad grid {spec!r}: {exc}") from exc


def parse_radius_grid(spec: str) -> list[float]:
    """Sector radii: '1:30' (inclusive, step 1), '2:6:0.5' or '2.5,3.5'."""
    if spec.count(":") == 1:
        return [float(r) for r in parse_int_grid(spec)]
    return parse_float_grid(spec)


def synth_params(spec: str, seed: int) -> dict:
    """'subjects=8,samples=6,rows=24,cols=20' with all fields optional, as
    ``synth_corpus`` keywords."""
    params = {"subjects": 10, "samples": 6, "rows": 32, "cols": 28, "seed": seed}
    if spec.strip():
        for token in spec.split(","):
            key, eq, value = token.partition("=")
            key = key.strip()
            if not eq or key not in params:
                raise ConfigError(f"bad synth spec token {token!r}")
            try:
                params[key] = int(value)
            except ValueError as exc:
                raise ConfigError(f"bad synth spec token {token!r}") from exc
    return params


def parse_synth_spec(spec: str, seed: int) -> Corpus:
    """The corpus of a --synth spec (see ``synth_params``)."""
    params = synth_params(spec, seed)
    return synth_corpus(params["seed"], params["subjects"], params["samples"],
                        params["rows"], params["cols"])


def stated_samples(args: argparse.Namespace) -> int | None:
    """Samples per subject as the source states them before it is read:
    --samples under --data, the --synth spec's; None for a manifest."""
    if "data" in vars(args):
        return args.samples
    if "synth" in vars(args):
        return synth_params(args.synth, args.seed)["samples"]
    return None


def load_source(args: argparse.Namespace) -> Corpus:
    """The corpus from the one source the run chose."""
    if "data" in vars(args):
        return load_orl(args.data, n_subjects=args.subjects,
                        samples_per_subject=args.samples)
    if "manifest" in vars(args):
        return load_manifest(args.manifest)
    return parse_synth_spec(args.synth, args.seed)


def make_eval_config(args: argparse.Namespace) -> EvalConfig:
    """The classifier knobs the run reads (``EvalConfig`` field = dest)."""
    return EvalConfig(**{f.name: getattr(args, f.name) for f in fields(EvalConfig)
                         if hasattr(args, f.name)})


def feature_options(args: argparse.Namespace) -> dict:
    """The transform options the run reads, as ``extract_split_features`` (or
    ``sweep_dimension``) keywords, checked before any corpus is read."""
    if "dim" in vars(args) and args.dim is None:  # dim is kept only under klt
        raise ConfigError("--transform klt requires --dim")
    samples = stated_samples(args)
    if samples is not None and args.train_k >= samples:
        raise ConfigError(f"--train-k {args.train_k} leaves no probe sample of "
                          f"the {samples} per subject")
    options = {key: getattr(args, key) for key in
               ("transform", "dim", "complex_mode", "r_low", "log_offset")
               if key in vars(args)}
    options["kind"] = options.pop("transform")
    if "mask" in vars(args):
        options["mask"] = parse_mask_spec(args.mask)
    if "mask_shape" in vars(args):
        options["mask_shape"] = {"rect": RECTANGULAR, "sector": SECTORIAL}[args.mask_shape]
    return options


def prepare_out(args: argparse.Namespace) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def emit_manifest(out: Path, command: str, args: argparse.Namespace,
                  corpus: Corpus, outputs: list[str]) -> None:
    """Write manifest.json; warn (but proceed) if an earlier manifest in the
    same directory recorded a different dataset."""
    checksum = corpus_checksum(corpus)
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
    config = {}
    skip = {"func", "config", "command"}
    for key, value in sorted(vars(args).items()):
        if key not in skip:
            config[key] = value
    write_manifest({"command": command, "config": config,
                    "seed": args.seed, "dataset_checksum": checksum,
                    "outputs": sorted(outputs)}, path)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_extract(args: argparse.Namespace) -> int:
    options = feature_options(args)
    corpus = load_source(args)
    gal, probes = extract_split_features(split_first_k(corpus, args.train_k), **options)
    out = prepare_out(args)
    write_features_csv(gal, out / "gallery.csv")
    write_features_csv(probes, out / "probes.csv")
    emit_manifest(out, "extract", args, corpus, ["gallery.csv", "probes.csv"])
    print(f"wrote {len(gal)} gallery + {len(probes)} probe vectors "
          f"(dim {gal.dim}) to {out}")
    return EXIT_OK


def cmd_evaluate(args: argparse.Namespace) -> int:
    options = feature_options(args)
    corpus = load_source(args)
    gal, probes = extract_split_features(split_first_k(corpus, args.train_k), **options)
    result = run_experiment(args.classifier, gal, probes, make_eval_config(args))
    out = prepare_out(args)
    outputs = ["result.csv"]
    write_result_csv(result, out / "result.csv")
    for name, model in result.models.items():
        stem = name.replace(":", "_")
        save_model(model, out / f"model_{stem}.npz")
        outputs.append(f"model_{stem}.npz")
        if isinstance(model, MLPModel):
            write_training_log(model.curve, out / "training_log.csv")
            outputs.append("training_log.csv")
            print(f"{name}: SCG stopped after {model.curve.size - 1} epochs "
                  f"({model.stop_reason}), last lambda {model.last_lambda:.6g}",
                  file=sys.stderr)
        elif isinstance(model, RBFModel):
            at_bias, subjects = collapse_counts(model, result.scores[name])
            print(f"{name}: {model.n_centers} centers, {model.tied_picks} picked "
                  f"by the tie rule, final residual {model.residuals[-1]:.6g}, "
                  f"{at_bias}/{len(probes)} probes at the bias, predictions span "
                  f"{subjects}/{model.subject_ids.size} subjects", file=sys.stderr)
    if len(result.scores) > 1:
        write_fusion_report(result, out / "fusion_report.csv")
        outputs.append("fusion_report.csv")
    emit_manifest(out, "evaluate", args, corpus, outputs)
    print(f"identification rate: {result.rate:.1f}%")
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    options = feature_options(args)
    if args.axis == "dim":
        # sector radii may be fractional; rect sides and KLT dims are integers
        parse = (parse_radius_grid if options.get("mask_shape") == SECTORIAL
                 else parse_int_grid)
        # without --grid, the default grid follows the corpus shape
        grid = dim_grid(args.transform, parse(args.grid)) if args.grid else None
        corpus = load_source(args)
        points = sweep_dimension(split_first_k(corpus, args.train_k), grid=grid,
                                 metric=args.metric, **options)
    else:
        if args.classifier not in KERNEL_CLASSIFIERS:
            raise ConfigError("--axis spread requires --classifier "
                              + " or ".join(KERNEL_CLASSIFIERS))
        spreads = spread_grid(parse_float_grid(args.spreads) if args.spreads
                              else SPREAD_GRID)
        corpus = load_source(args)
        gal, probes = extract_split_features(split_first_k(corpus, args.train_k), **options)
        points = sweep_spread(gal, probes, args.classifier, spreads,
                              make_eval_config(args))
    out = prepare_out(args)
    write_curve_csv(points, out / "curve.csv", "param" if args.axis == "dim" else "spread")
    emit_manifest(out, "sweep", args, corpus, ["curve.csv"])
    best = max(points, key=lambda pt: pt.rate)
    print(f"{len(points)} points; best rate {best.rate:.1f}% at "
          f"{args.axis}={best.param:g}")
    return EXIT_OK


def cmd_table1(args: argparse.Namespace) -> int:
    spreads = spread_grid(parse_float_grid(args.spreads)
                          if vars(args).get("spreads") else SPREAD_GRID)
    corpus = load_source(args)
    rows = table1_report(corpus, make_eval_config(args),
                         rows_filter=args.rows, spreads=spreads)
    out = prepare_out(args)
    write_table_csv(rows, out / "table1.csv")
    emit_manifest(out, "table1", args, corpus, ["table1.csv"])
    print(format_table(rows))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

# the classifier options take EvalConfig's defaults (its fields are their dests)
_DEFAULTS = {
    "out": "faceid-out", "transform": DCT, "mask": "rect:10", "metric": "mad",
    "classifier": "nn:mad", "mask_shape": "rect", "complex_mode": MODULUS,
    "grid": None, "spreads": None, "rows": None, "dim": None,
    "train_k": TRAIN_SAMPLES, "subjects": 40, "samples": 10, "r_low": 0.0,
    "log_offset": 1e-4, **asdict(EvalConfig()),
}

# Selector -> {option: the selector values under which a run reads it}. A
# run's selectors are its sweep axis, its transform, the classifiers it runs
# (the members of --classifier, or of the rows table1 --rows selects) and its
# dataset source; an option is read where its selector's values meet the
# listed ones. Checked in this order, so the axis refuses a flag first.
_READ_UNDER = {
    "axis": {**dict.fromkeys(("mask", "dim", "max_centers", "classifier", "spreads"),
                             {"spread"}),
             **dict.fromkeys(("metric", "mask_shape", "grid"), {"dim"})},
    "transform": {**dict.fromkeys(("mask", "r_low", "mask_shape"), {DCT, DFT, LOGDFT}),
                  "complex_mode": {DFT, LOGDFT}, "log_offset": {LOGDFT}, "dim": {KLT}},
    "classifiers": {**dict.fromkeys(("spread", "spreads"), set(KERNEL_CLASSIFIERS)),
                    "max_centers": {RBF_NAME},
                    **dict.fromkeys(("epochs", "hidden", "gamma"), {MLP_NAME})},
    "source": dict.fromkeys(("subjects", "samples"), {"data"}),
}


def build_parser() -> argparse.ArgumentParser:
    # each subcommand declares only the options some run of it reads, from
    # these parents
    common = argparse.ArgumentParser(add_help=False)
    src = common.add_argument_group("dataset source (exactly one)")
    src.add_argument("--data", help=f"image directory root (or ${ENV_DATA})")
    src.add_argument("--manifest", help="inventory file: path subject sample")
    src.add_argument("--synth", help="synthetic corpus, e.g. "
                     "'subjects=8,samples=6,rows=24,cols=20' ('' for defaults)")
    common.add_argument("--subjects", type=positive_int, help="subjects under --data")
    common.add_argument("--samples", type=int_at_least_2,
                        help="samples per subject under --data")
    common.add_argument("--config", help="key-value config file (flags win)")
    common.add_argument("--out", help="output directory")
    common.add_argument("--seed", type=nonnegative_int, help="seed for all randomness")
    features = argparse.ArgumentParser(add_help=False)
    features.add_argument("--train-k", dest="train_k", type=positive_int,
                          help="gallery samples per subject")
    features.add_argument("--transform", choices=[DCT, DFT, LOGDFT, KLT])
    features.add_argument("--mask", help="zonal mask: rect:N or sector:R")
    features.add_argument("--dim", type=positive_int,
                          help="component count for --transform klt")
    features.add_argument("--complex-mode", dest="complex_mode",
                          choices=[MODULUS, INTERLEAVE])
    features.add_argument("--r-low", dest="r_low", type=finite_float,
                          help="drop coefficients below this radius")
    features.add_argument("--log-offset", dest="log_offset", type=positive_float,
                          help="offset inside the log for logdft")
    rbf = argparse.ArgumentParser(add_help=False)
    rbf.add_argument("--max-centers", dest="max_centers", type=positive_int,
                     help="RBF center budget")
    mlp_fusion = argparse.ArgumentParser(add_help=False)
    mlp_fusion.add_argument("--gamma", type=unit_float, help="MSEREG performance ratio")
    mlp_fusion.add_argument("--epochs", type=positive_int, help="MLP training iterations")
    mlp_fusion.add_argument("--hidden", type=positive_int, help="MLP hidden neurons")
    mlp_fusion.add_argument("--fusion-mode", dest="fusion_mode", choices=list(MODES))

    # no abbreviations: a flag a command lacks must not pass as a longer one
    parser = argparse.ArgumentParser(
        prog="faceid", allow_abbrev=False,
        description="Transform-domain face identification experiments")
    subs = parser.add_subparsers(dest="command", required=True)

    p_extract = subs.add_parser("extract", parents=[common, features],
                                allow_abbrev=False, help="write feature CSVs")
    p_extract.set_defaults(func=cmd_extract)

    p_eval = subs.add_parser("evaluate", parents=[common, features, rbf, mlp_fusion],
                             allow_abbrev=False, help="run one classifier")
    p_eval.add_argument("--spread", type=finite_float, help="PNN/RBF spread")
    p_eval.add_argument("--classifier",
                        help="nn:mad, nn:mse, mlp, pnn, rbf, or fusion:a+b")
    p_eval.set_defaults(func=cmd_evaluate)

    p_sweep = subs.add_parser("sweep", parents=[common, features, rbf],
                              allow_abbrev=False, help="dimension or spread curves")
    p_sweep.add_argument("--axis", choices=["dim", "spread"], required=True)
    p_sweep.add_argument("--classifier", help="pnn or rbf for --axis spread")
    p_sweep.add_argument("--metric", choices=["mad", "mse"])
    p_sweep.add_argument("--mask-shape", dest="mask_shape",
                         choices=["rect", "sector"])
    p_sweep.add_argument("--grid", help="mask sides/radii or KLT dims: '1:30' or "
                         "'1,4,9'; sector radii also '2.5,3.5' or '2:6:0.5'")
    p_sweep.add_argument("--spreads", help="'0.1:2.0:0.1' or '0.5,0.9'")
    p_sweep.set_defaults(func=cmd_sweep)

    p_table = subs.add_parser("table1", parents=[common, rbf, mlp_fusion],
                              allow_abbrev=False, help="benchmark comparison table")
    p_table.add_argument("--rows", help="row filter prefix, e.g. nn or rbf")
    p_table.add_argument("--spreads", help="'0.1:2.0:0.1' or '0.5,0.9'")
    p_table.set_defaults(func=cmd_table1)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args, unknown = parser.parse_known_args(argv)
    command = _subcommands(parser)[args.command]
    if unknown:
        command.error(f"unrecognized arguments: {' '.join(unknown)}")
    try:
        resolve_options(args, config_options(parser))
        return args.func(args)
    except DivergenceError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (InventoryError, PgmError, RankError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(command.format_usage(), end="", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
