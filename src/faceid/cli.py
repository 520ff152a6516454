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
import os
import sys
from pathlib import Path

from .dataset import (
    Corpus, InventoryError, PgmError,
    corpus_checksum, load_manifest, load_orl, split_first_k, synth_corpus,
)
from .transforms import (
    DCT, DFT, LOGDFT, KLT, MODULUS, INTERLEAVE, RECTANGULAR, SECTORIAL,
    Features, ZonalMask, write_features_csv,
)
from .eigenfaces import RankError
from .classifiers import (
    DivergenceError, MLPModel, RBFModel, probes_at_bias, save_model,
    write_training_log,
)
from .evaluation import (
    DEFAULT_SPREAD, SPREAD_GRID, TRAIN_SAMPLES,
    EvalConfig, extract_split_features, format_table,
    parse_classifier_spec, run_experiment, sweep_dimension, sweep_spread,
    table1_report, write_curve_csv, write_manifest, write_result_csv,
    write_table_csv,
)
from .fusion import MINMAX, MODES, write_fusion_report

ENV_DATA = "FACEID_DATA"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


class ConfigError(Exception):
    """Invalid flag, config-file entry, or option combination."""


# ---------------------------------------------------------------------------
# option plumbing
# ---------------------------------------------------------------------------

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


def config_options(parser: argparse.ArgumentParser) -> dict:
    """Option name -> (type, allowed values or None) for every option a config
    file may set: the subcommands' own options, but not --config itself nor
    the required ones."""
    subcommands = next(action for action in parser._actions
                       if isinstance(action, argparse._SubParsersAction))
    return {action.dest: (action.type or str, action.choices)
            for sub in subcommands.choices.values() for action in sub._actions
            if action.dest not in ("help", "config") and not action.required}


def apply_config(args: argparse.Namespace, defaults: dict, options: dict) -> None:
    """Fill unset options from --config file values, then built-in defaults.

    Only options the subcommand declares are filled: argparse puts exactly
    those in ``args``, so the manifest records no option the command lacks.
    """
    file_values = read_config_file(args.config, options) if args.config else {}
    for key, default in defaults.items():
        if key in vars(args) and getattr(args, key) is None:
            setattr(args, key, file_values.get(key, default))


def parse_mask_spec(spec: str) -> ZonalMask:
    """'rect:10' or 'sector:8.5'."""
    kind, _, size = spec.partition(":")
    kind = kind.strip().lower()
    try:
        if kind in ("rect", RECTANGULAR):
            return ZonalMask.rectangular(int(size))
        if kind in ("sector", SECTORIAL):
            return ZonalMask.sectorial(float(size))
    except ValueError as exc:
        raise ConfigError(f"bad mask spec {spec!r}: {exc}") from exc
    raise ConfigError(f"bad mask spec {spec!r}: expected rect:N or sector:R")


def parse_int_grid(spec: str) -> list[int]:
    """'1:30' (inclusive range) or '1,4,9'."""
    try:
        if ":" in spec:
            lo, hi = spec.split(":")
            return list(range(int(lo), int(hi) + 1))
        return [int(tok) for tok in spec.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad grid {spec!r}: {exc}") from exc


def parse_float_grid(spec: str) -> list[float]:
    """'0.1:2.0:0.1' (start:stop:step, inclusive) or '0.5,0.9'."""
    try:
        if ":" in spec:
            lo, hi, step = (float(tok) for tok in spec.split(":"))
            if step <= 0:
                raise ConfigError(f"bad grid {spec!r}: step must be positive")
            n = int(round((hi - lo) / step))
            grid = [round(lo + i * step, 10) for i in range(n + 1)]
            return [g for g in grid if g <= hi + 1e-12]
        return [float(tok) for tok in spec.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad grid {spec!r}: {exc}") from exc


def parse_radius_grid(spec: str) -> list[float]:
    """Sector radii: '1:30' (inclusive, step 1), '2:6:0.5' or '2.5,3.5'."""
    if spec.count(":") == 1:
        return [float(r) for r in parse_int_grid(spec)]
    return parse_float_grid(spec)


def parse_synth_spec(spec: str, seed: int) -> Corpus:
    """'subjects=8,samples=6,rows=24,cols=20' with all fields optional."""
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
    return synth_corpus(params["seed"], params["subjects"], params["samples"],
                        params["rows"], params["cols"])


def load_source(args: argparse.Namespace) -> Corpus:
    """Exactly one of --data / --manifest / --synth (env var fills --data)."""
    if args.data is None and args.manifest is None and args.synth is None:
        env = os.environ.get(ENV_DATA)
        if env:
            args.data = env
    chosen = [name for name in ("data", "manifest", "synth")
              if getattr(args, name) is not None]
    if len(chosen) != 1:
        raise ConfigError(
            "exactly one dataset source required: --data DIR, --manifest FILE, "
            f"or --synth SPEC (got {len(chosen)})")
    if args.data is not None:
        return load_orl(args.data, n_subjects=args.subjects,
                        samples_per_subject=args.samples)
    if args.manifest is not None:
        return load_manifest(args.manifest)
    return parse_synth_spec(args.synth, args.seed)


def make_eval_config(args: argparse.Namespace) -> EvalConfig:
    return EvalConfig(seed=args.seed, epochs=args.epochs, hidden=args.hidden,
                      gamma=args.gamma, spread=args.spread,
                      max_centers=args.max_centers,
                      fusion_mode=args.fusion_mode)


def build_features(args: argparse.Namespace, corpus: Corpus) -> tuple[Features, Features]:
    """Resolve transform flags into gallery and probe features."""
    split = split_first_k(corpus, args.train_k)
    if args.transform == KLT:
        if args.dim is None:
            raise ConfigError("--transform klt requires --dim")
        return extract_split_features(split, KLT, dim=args.dim)
    mask = parse_mask_spec(args.mask)
    return extract_split_features(
        split, args.transform, mask=mask, complex_mode=args.complex_mode,
        r_low=args.r_low, log_offset=args.log_offset)


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
    corpus = load_source(args)
    gal, probes = build_features(args, corpus)
    out = prepare_out(args)
    write_features_csv(gal, out / "gallery.csv")
    write_features_csv(probes, out / "probes.csv")
    emit_manifest(out, "extract", args, corpus, ["gallery.csv", "probes.csv"])
    print(f"wrote {len(gal)} gallery + {len(probes)} probe vectors "
          f"(dim {gal.dim}) to {out}")
    return EXIT_OK


def cmd_evaluate(args: argparse.Namespace) -> int:
    try:
        parse_classifier_spec(args.classifier)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    corpus = load_source(args)
    gal, probes = build_features(args, corpus)
    cfg = make_eval_config(args)
    artifacts: dict = {}
    result = run_experiment(args.classifier, gal, probes, cfg, artifacts=artifacts)
    out = prepare_out(args)
    outputs = ["result.csv"]
    write_result_csv(result, out / "result.csv")
    for name, model in artifacts.get("models", {}).items():
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
            at_bias = probes_at_bias(model, probes.matrix)
            print(f"{name}: {model.n_centers} centers, {model.tied_picks} picked "
                  f"by the tie rule, final residual {model.residuals[-1]:.6g}, "
                  f"{at_bias}/{len(probes)} probes at the bias", file=sys.stderr)
    if "fusion_rows" in artifacts:
        write_fusion_report(artifacts["fusion_rows"], out / "fusion_report.csv")
        outputs.append("fusion_report.csv")
    emit_manifest(out, "evaluate", args, corpus, outputs)
    print(f"identification rate: {result.rate:.1f}%")
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    corpus = load_source(args)
    if args.axis == "dim":
        split = split_first_k(corpus, args.train_k)
        shape = {"rect": RECTANGULAR, "sector": SECTORIAL}[args.mask_shape]
        # sector radii may be fractional; rect sides and KLT dims are integers
        parse = (parse_radius_grid if shape == SECTORIAL and args.transform != KLT
                 else parse_int_grid)
        grid = parse(args.grid) if args.grid else None
        if grid is not None and len(grid) == 0:
            raise ConfigError("sweep grid is empty")
        points = sweep_dimension(split, args.transform, shape, grid,
                                 args.metric, complex_mode=args.complex_mode,
                                 r_low=args.r_low, log_offset=args.log_offset)
    else:
        if args.classifier not in ("pnn", "rbf"):
            raise ConfigError("--axis spread requires --classifier pnn or rbf")
        gal, probes = build_features(args, corpus)
        spreads = parse_float_grid(args.spreads) if args.spreads else list(SPREAD_GRID)
        if len(spreads) == 0:
            raise ConfigError("sweep grid is empty")
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
    corpus = load_source(args)
    spreads = parse_float_grid(args.spreads) if args.spreads else list(SPREAD_GRID)
    if len(spreads) == 0:
        raise ConfigError("spread grid is empty")
    rows = table1_report(corpus, make_eval_config(args),
                         rows_filter=args.rows, spreads=spreads)
    if not rows:
        raise ConfigError(f"--rows {args.rows!r} matches no table rows")
    out = prepare_out(args)
    write_table_csv(rows, out / "table1.csv")
    emit_manifest(out, "table1", args, corpus, ["table1.csv"])
    print(format_table(rows))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

_DEFAULTS = {
    "out": "faceid-out", "transform": DCT, "mask": "rect:10", "metric": "mad",
    "classifier": "nn:mad", "mask_shape": "rect", "complex_mode": MODULUS,
    "fusion_mode": MINMAX, "grid": None, "spreads": None, "rows": None,
    "dim": None, "train_k": TRAIN_SAMPLES, "seed": 0, "epochs": 15000,
    "hidden": 40, "max_centers": 100, "subjects": 40, "samples": 10,
    "gamma": 0.9, "spread": DEFAULT_SPREAD, "r_low": 0.0, "log_offset": 1e-4,
}


def _add_common(sub: argparse.ArgumentParser) -> None:
    src = sub.add_argument_group("dataset source (exactly one)")
    src.add_argument("--data", help=f"image directory root (or ${ENV_DATA})")
    src.add_argument("--manifest", help="inventory file: path subject sample")
    src.add_argument("--synth", help="synthetic corpus, e.g. "
                     "'subjects=8,samples=6,rows=24,cols=20' ('' for defaults)")
    sub.add_argument("--subjects", type=int, help="subjects under --data")
    sub.add_argument("--samples", type=int, help="samples per subject under --data")
    sub.add_argument("--config", help="key-value config file (flags win)")
    sub.add_argument("--out", help="output directory")
    sub.add_argument("--seed", type=int, help="seed for all randomness")
    sub.add_argument("--train-k", dest="train_k", type=int,
                     help="gallery samples per subject")
    sub.add_argument("--transform", choices=[DCT, DFT, LOGDFT, KLT])
    sub.add_argument("--mask", help="zonal mask: rect:N or sector:R")
    sub.add_argument("--dim", type=int, help="component count for --transform klt")
    sub.add_argument("--complex-mode", dest="complex_mode",
                     choices=[MODULUS, INTERLEAVE])
    sub.add_argument("--r-low", dest="r_low", type=float,
                     help="drop coefficients below this radius")
    sub.add_argument("--log-offset", dest="log_offset", type=float,
                     help="offset inside the log for logdft")
    sub.add_argument("--gamma", type=float, help="MSEREG performance ratio")
    sub.add_argument("--epochs", type=int, help="MLP training iterations")
    sub.add_argument("--hidden", type=int, help="MLP hidden neurons")
    sub.add_argument("--spread", type=float, help="PNN/RBF spread")
    sub.add_argument("--max-centers", dest="max_centers", type=int,
                     help="RBF center budget")
    sub.add_argument("--fusion-mode", dest="fusion_mode", choices=list(MODES))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="faceid",
        description="Transform-domain face identification experiments")
    subs = parser.add_subparsers(dest="command", required=True)

    p_extract = subs.add_parser("extract", help="write feature CSVs")
    _add_common(p_extract)
    p_extract.set_defaults(func=cmd_extract)

    p_eval = subs.add_parser("evaluate", help="run one classifier")
    _add_common(p_eval)
    p_eval.add_argument("--classifier",
                        help="nn:mad, nn:mse, mlp, pnn, rbf, or fusion:a+b")
    p_eval.set_defaults(func=cmd_evaluate)

    p_sweep = subs.add_parser("sweep", help="dimension or spread curves")
    _add_common(p_sweep)
    p_sweep.add_argument("--axis", choices=["dim", "spread"], required=True)
    p_sweep.add_argument("--classifier", help="pnn or rbf for --axis spread")
    p_sweep.add_argument("--metric", choices=["mad", "mse"])
    p_sweep.add_argument("--mask-shape", dest="mask_shape",
                         choices=["rect", "sector"])
    p_sweep.add_argument("--grid", help="mask sides/radii or KLT dims: '1:30' or "
                         "'1,4,9'; sector radii also '2.5,3.5' or '2:6:0.5'")
    p_sweep.add_argument("--spreads", help="'0.1:2.0:0.1' or '0.5,0.9'")
    p_sweep.set_defaults(func=cmd_sweep)

    p_table = subs.add_parser("table1", help="benchmark comparison table")
    _add_common(p_table)
    p_table.add_argument("--rows", help="row filter prefix, e.g. nn or rbf")
    p_table.add_argument("--spreads", help="'0.1:2.0:0.1' or '0.5,0.9'")
    p_table.set_defaults(func=cmd_table1)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        apply_config(args, _DEFAULTS, config_options(parser))
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(parser.format_usage(), end="", file=sys.stderr)
        return EXIT_CONFIG
    except DivergenceError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (InventoryError, PgmError, RankError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except FileNotFoundError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
