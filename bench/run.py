#!/usr/bin/env python3
"""faceid benchmark: end-to-end runs of the ``faceid`` CLI, traced layer by layer.

Usage (from the repository root):

    python3 bench/run.py --workload table1 --seed 0 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 40
    python3 bench/run.py --record      # rewrite bench/references.json

Workloads (see BENCHMARK.json for why each exists):

* ``table1``: ``faceid table1`` on the ORL-shaped synthetic corpus, MLP at
  the fixed epoch budget.
* ``feature_sweep``: dimension sweeps, the KLT sweep and one feature
  extraction, each reading the same corpus written once as a PGM tree.
* ``mlp_fit``: ``faceid evaluate --classifier mlp`` at the fixed epoch budget
  on corpus seed 0, four fits per pass.

``seed mod 5`` picks the inputs; seeds 0-4 have recorded reference outputs.
For ``table1`` and ``feature_sweep`` it is the corpus seed and the program
only sees the generated corpus; for ``mlp_fit`` it is the MLP's ``--seed``
(initial weights). Every command runs in this process through
``faceid.cli.main``. A pass runs all of a workload's commands and checks their
outputs. Before the first pass and after each pass the run takes a few
import samples in fresh interpreters; passes repeat until ``--seconds`` would
be exceeded, and the median pass is reported.

With ``--trace 0`` the last stdout line carries the end-to-end metrics:
``setup_s`` (median of the import samples of ``import faceid.cli``, after a
warm-up import that compiles bytecode), ``wall_s`` (median pass) and
``peak_rss_mb``. With ``--trace 1`` untraced and traced passes alternate and
the line carries the per-layer metrics of the median traced pass (see
bench/tracer.py), the import breakdown from ``python -X importtime``, the
unattributed remainder and the tracing overhead. Spans and a run record
(versions, thread counts, corpus checksum, commit, digests) are written
under bench/.work/.

A command fails when it exits non-zero, misses an output, writes a checked
output whose digest differs from the reference, writes any output that
differs from an earlier run of the same command (so traced and untraced
outputs must be byte-identical), or, for ``mlp_fit``, stops training early.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from tracer import COUNT_METRICS, TIME_METRICS, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = Path("bench/.work")          # relative to ROOT, the working directory
REFERENCES = BENCH / "references.json"

WORKLOADS = ("table1", "feature_sweep", "mlp_fit")
REFERENCE_SEEDS = 5
# The ORL-shaped corpus and the MLP epoch budget of table1 and mlp_fit. With
# the default grad_tol, SCG stops early at epoch 1344 at the soonest (corpus
# seeds 0-4 with init seed 0, and corpus seed 0 with init seeds 0-4); the
# budget stays below that so every fit does the same work on every seed.
ORL_SCALE = {"subjects": 40, "samples": 10, "rows": 112, "cols": 92,
             "epochs": 1200}
CORPUS_KEYS = ("subjects", "samples", "rows", "cols")
MLP_CORPUS_SEED = 0
# A pass repeats the fit so that it lasts several seconds, like the passes of
# the other workloads; each fit overwrites and rechecks the same outputs.
MLP_FITS_PER_PASS = 4
# import samples taken before the first pass and after each pass, so that
# setup_s spans the whole run
SETUP_SAMPLES_PER_GAP = 2
SUBPROCESS_TIMEOUT = 120

IMPORT_METRICS = {"import.numpy_s": "numpy", "import.scipy_s": "scipy",
                  "import.faceid_s": "faceid"}

IMPORT_PROBE = ("import time\nt = time.perf_counter()\nimport faceid.cli\n"
                "print(time.perf_counter() - t)")


def configure_environment() -> None:
    """One BLAS thread here and in every child interpreter (see README.md)."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path.insert(0, str(SRC))


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

@dataclass
class Command:
    name: str
    argv: list
    checked: tuple          # outputs compared with the references
    info: tuple = ()        # outputs digested for the record only


def synth_spec(scale: dict, corpus_seed: int) -> str:
    return ",".join(f"{k}={scale[k]}" for k in CORPUS_KEYS) + f",seed={corpus_seed}"


def workload_commands(workload: str, scale: dict, seed: int,
                      tree: Path) -> list[Command]:
    epochs = ["--epochs", str(scale["epochs"])]
    if workload == "table1":
        return [Command("table1", ["table1", "--synth", synth_spec(scale, seed),
                                   *epochs], ("table1.csv",))]
    if workload == "mlp_fit":
        fit = Command("mlp", ["evaluate", "--classifier", "mlp", "--synth",
                              synth_spec(scale, MLP_CORPUS_SEED), "--seed", str(seed),
                              *epochs],
                      ("result.csv",), ("model_mlp.npz", "training_log.csv"))
        return [fit] * MLP_FITS_PER_PASS
    data = ["--data", str(tree), "--subjects", str(scale["subjects"]),
            "--samples", str(scale["samples"])]
    sweep = ["sweep", "--axis", "dim", *data]
    side = min(30, scale["rows"], scale["cols"])
    return [
        Command("sweep_dct", [*sweep, "--transform", "dct"], ("curve.csv",)),
        Command("sweep_dft", [*sweep, "--transform", "dft"], ("curve.csv",)),
        Command("sweep_logdft", [*sweep, "--transform", "logdft"], ("curve.csv",)),
        Command("sweep_dct_sector", [*sweep, "--transform", "dct",
                                     "--mask-shape", "sector"], ("curve.csv",)),
        Command("sweep_dft_interleave", [*sweep, "--transform", "dft",
                                         "--complex-mode", "interleave"],
                ("curve.csv",)),
        Command("sweep_klt", [*sweep, "--transform", "klt"], ("curve.csv",)),
        Command("extract_rect30", ["extract", *data, "--mask", f"rect:{side}"],
                ("gallery.csv", "probes.csv")),
    ]


def prepare_corpus(workload: str, scale: dict, seed: int) -> Path:
    """feature_sweep reads a PGM tree, written by a child process."""
    tree = WORK / "corpus"
    if workload == "feature_sweep":
        subprocess.run([sys.executable, str(BENCH / "corpus_tree.py"), str(tree),
                        str(seed), *(str(scale[k]) for k in CORPUS_KEYS)],
                       check=True, timeout=SUBPROCESS_TIMEOUT)
    return tree


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def file_digest(path: Path) -> str:
    """SHA-256 of the bytes; of the arrays for npz files, whose zip headers
    carry write times."""
    digest = hashlib.sha256()
    if path.suffix == ".npz":
        import numpy as np
        with np.load(path) as data:
            for key in sorted(data.files):
                digest.update(key.encode())
                digest.update(data[key].tobytes())
        return digest.hexdigest()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def invoke(cli, argv: list) -> int:
    """Run one CLI command in-process; its stdout (tables, rates) is dropped."""
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            return cli.main(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            return 1


@dataclass
class Pass:
    traced: bool
    wall_s: float = 0.0
    digests: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    tracer: object = None


def run_pass(cli, commands: list[Command], epochs: int, references: dict | None,
             baseline: dict | None, tracer=None) -> Pass:
    """Run and check every command once; the clock covers both."""
    result = Pass(traced=tracer is not None, tracer=tracer)
    for cmd in commands:
        shutil.rmtree(WORK / "out" / cmd.name, ignore_errors=True)
    start = time.perf_counter()
    for cmd in commands:
        out = WORK / "out" / cmd.name
        code = invoke(cli, [*cmd.argv, "--out", str(out)])
        problems = [] if code == 0 else [f"exit code {code}"]
        for fname in (*cmd.checked, *cmd.info) if code == 0 else ():
            key = f"{cmd.name}/{fname}"
            if not (out / fname).is_file():
                problems.append(f"{fname} missing")
                continue
            digest = file_digest(out / fname)
            if (references is not None and fname in cmd.checked
                    and references.get(key) != digest):
                problems.append(f"{fname} differs from the reference")
            if (baseline or result.digests).setdefault(key, digest) != digest:
                problems.append(f"{fname} differs from an earlier run")
            result.digests[key] = digest
        if code == 0 and "training_log.csv" in cmd.info:
            with open(out / "training_log.csv") as fh:
                rows = sum(1 for _ in fh) - 1
            if rows != epochs + 1:
                problems.append(f"training stopped early: {rows} loss rows, "
                                f"expected {epochs + 1}")
        if problems:
            result.failures.append(f"{cmd.name}: " + "; ".join(problems))
    result.wall_s = time.perf_counter() - start
    return result


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def child_python(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          cwd=ROOT, timeout=SUBPROCESS_TIMEOUT, check=True)


def import_seconds() -> float:
    """``import faceid.cli`` in a fresh interpreter (import_program warmed up)."""
    return float(child_python(["-c", IMPORT_PROBE]).stdout)


def import_breakdown() -> dict[str, float]:
    """Self time per top-level package under ``-X importtime``, one interpreter."""
    stderr = child_python(["-X", "importtime", "-c", IMPORT_PROBE]).stderr
    per_package: dict[str, int] = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        self_us, _, module = (part.strip() for part in
                              line[len("import time:"):].split("|"))
        if self_us.isdigit():
            top = module.split(".")[0]
            per_package[top] = per_package.get(top, 0) + int(self_us)
    return {metric: per_package.get(package, 0) / 1e6
            for metric, package in IMPORT_METRICS.items()}


def run_passes(cli, modules: dict, commands: list[Command], epochs: int,
               references: dict | None, seconds: float, trace: bool,
               sample_setup) -> list[Pass]:
    """Repeat passes while the next one and its import samples fit in
    ``seconds`` (at least one pass of each kind); with tracing, untraced and
    traced passes alternate. ``sample_setup`` runs before the first pass and
    after each pass."""
    passes: list[Pass] = []
    baseline = None
    start = time.perf_counter()
    sample_setup()
    while True:
        traced = trace and len(passes) % 2 == 1
        tracer = Tracer() if traced else None
        if tracer is not None:
            tracer.install(modules)
        try:
            done = run_pass(cli, commands, epochs, references, baseline, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        passes.append(done)
        if baseline is None:
            baseline = done.digests
        gap_start = time.perf_counter()
        sample_setup()
        gap_s = time.perf_counter() - gap_start
        next_traced = trace and len(passes) % 2 == 1
        same_kind = [p.wall_s for p in passes if p.traced == next_traced]
        if not same_kind:
            continue
        if (time.perf_counter() - start + statistics.median(same_kind) + gap_s
                > seconds):
            return passes


def median_pass(passes: list[Pass]) -> Pass:
    """The lower middle pass by wall time, so its spans add up to its wall."""
    ordered = sorted(passes, key=lambda p: p.wall_s)
    return ordered[(len(ordered) - 1) // 2]


def layer_metrics(passes: list[Pass], imports: list[dict]) -> tuple[dict, Pass]:
    traced = median_pass([p for p in passes if p.traced])
    untraced = median_pass([p for p in passes if not p.traced])
    tracer = traced.tracer
    metrics = {}
    for metric in IMPORT_METRICS:
        metrics[metric] = (statistics.median(s[metric] for s in imports), "s")
    self_times = tracer.self_times()
    for metric in TIME_METRICS:
        metrics[metric] = (self_times[metric], "s")
    for metric, unit in COUNT_METRICS.items():
        metrics[metric] = (int(tracer.counts.get(metric, 0)), unit)
    metrics["trace.wall_s"] = (traced.wall_s, "s")
    metrics["trace.unattributed_s"] = (traced.wall_s - sum(self_times.values()), "s")
    metrics["trace.overhead_s"] = (traced.wall_s - untraced.wall_s, "s")
    return metrics, traced


# ---------------------------------------------------------------------------
# run record
# ---------------------------------------------------------------------------

def blas_versions() -> dict:
    import numpy
    import scipy
    found = {}
    for module in (numpy, scipy):
        try:
            blas = module.__config__.CONFIG["Build Dependencies"]["blas"]
            found[module.__name__] = f"{blas['name']} {blas['version']}"
        except (AttributeError, KeyError, TypeError):
            found[module.__name__] = "unknown"
    return found


def git_commit() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=30, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_record(args, seed: int, references, commands, passes) -> dict:
    import numpy
    import scipy
    checksum = None
    manifest = WORK / "out" / commands[0].name / "manifest.json"
    if manifest.is_file():
        checksum = json.loads(manifest.read_text()).get("dataset_checksum")
    return {
        "workload": args.workload, "seed": args.seed,
        "corpus_seed": MLP_CORPUS_SEED if args.workload == "mlp_fit" else seed,
        "mlp_init_seed": seed if args.workload == "mlp_fit" else 0,
        "trace": args.trace, "references_checked": references is not None,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": blas_versions(),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": len(os.sched_getaffinity(0)), "corpus_checksum": checksum,
        "git_commit": git_commit(),
        "passes": [{"traced": p.traced, "wall_s": p.wall_s, "failures": p.failures}
                   for p in passes],
        "digests": passes[0].digests,
    }


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def import_program():
    """Import faceid from this checkout's src/ or stop with an error.

    The child import also compiles bytecode, so later import samples time
    importing alone."""
    try:
        child_python(["-c", "import faceid.cli"])
    except subprocess.CalledProcessError as exc:
        raise SystemExit(f"cannot import faceid from {SRC}:\n{exc.stderr}") from None
    import faceid.classifiers.mlp
    import faceid.cli
    import faceid.evaluation
    if not Path(faceid.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"faceid imported from {faceid.__file__}, not {SRC}")
    return faceid.cli, {name: sys.modules[name] for name in
                        ("faceid.cli", "faceid.evaluation", "faceid.classifiers.mlp")}


def parse_scale(spec: str | None) -> dict:
    scale = dict(ORL_SCALE)
    for token in spec.split(",") if spec else ():
        key, _, value = token.partition("=")
        if key not in scale:
            raise SystemExit(f"bad --scale token {token!r}")
        scale[key] = int(value)
    return scale


def load_references(scale: dict, seed: int) -> dict | None:
    """Reference digests exist only for the ORL-shaped corpus."""
    if scale != ORL_SCALE:
        return None
    return json.loads(REFERENCES.read_text())["seeds"][str(seed)]


def print_metrics(metrics: dict) -> None:
    for name, (value, unit) in metrics.items():
        print(f"  {name:<26} {value:>16.6f} {unit}" if isinstance(value, float)
              else f"  {name:<26} {value:>16d} {unit}")


def run_workload(args) -> None:
    scale = parse_scale(args.scale)
    seed = args.seed % REFERENCE_SEEDS if args.scale is None else args.seed
    references = load_references(scale, seed)
    cli, modules = import_program()
    setup = []      # import seconds, or import breakdowns when tracing
    probe = import_breakdown if args.trace else import_seconds

    def sample_setup():
        setup.extend(probe() for _ in range(SETUP_SAMPLES_PER_GAP))

    tree = prepare_corpus(args.workload, scale, seed)
    commands = workload_commands(args.workload, scale, seed, tree)
    passes = run_passes(cli, modules, commands, scale["epochs"], references,
                        args.seconds, args.trace, sample_setup)

    failures = [f for p in passes for f in p.failures]
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    record = run_record(args, seed, references, commands, passes)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        metrics, traced = layer_metrics(passes, setup)
        (WORK / f"spans-{stem}.json").write_text(json.dumps(
            {"wall_s": traced.wall_s, "spans": traced.tracer.records()}))
    else:
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "wall_s": (statistics.median(p.wall_s for p in passes), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "MB"),
        }
        record["setup_samples_s"] = setup
    (WORK / f"record-{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(f"{args.workload} seed {args.seed} (inputs seed {seed}), "
          f"{len(passes)} passes, {len(setup)} import samples, references "
          f"{'checked' if references is not None else 'absent'}:")
    print_metrics(metrics)
    print(json.dumps({"record": record}))
    attempted = len(passes) * len(commands)
    failed = sum(len(p.failures) for p in passes)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))


def run_all(args) -> None:
    """Every workload untraced then traced, each in its own process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    extra = [] if args.scale is None else ["--scale", args.scale]
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace), *extra],
                capture_output=True, text=True,
                timeout=args.seconds + 2 * SUBPROCESS_TIMEOUT)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                raise SystemExit(f"{workload} (trace {trace}) exited {proc.returncode}")
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]))
            result = json.loads(lines[-1])
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))


def record_references() -> None:
    """Run each workload once per reference seed and store the digests."""
    cli, modules = import_program()
    seeds, info, tables = {}, {}, {}
    for seed in range(REFERENCE_SEEDS):
        seeds[str(seed)], info[str(seed)] = {}, {}
        for workload in WORKLOADS:
            tree = prepare_corpus(workload, ORL_SCALE, seed)
            commands = workload_commands(workload, ORL_SCALE, seed, tree)
            done = run_pass(cli, commands, ORL_SCALE["epochs"], None, None)
            if done.failures:
                raise SystemExit(f"seed {seed}: {done.failures}")
            for cmd in commands:
                for fname in cmd.checked:
                    key = f"{cmd.name}/{fname}"
                    seeds[str(seed)][key] = done.digests[key]
                for fname in cmd.info:
                    key = f"{cmd.name}/{fname}"
                    info[str(seed)][key] = done.digests[key]
            if workload == "table1":
                tables[str(seed)] = (
                    WORK / "out" / "table1" / "table1.csv").read_text().splitlines()
        print(f"seed {seed} recorded", file=sys.stderr)
    REFERENCES.write_text(json.dumps({
        "scale": ORL_SCALE, "seeds": seeds,
        "info_not_checked": info, "table1_csv": tables}, indent=1) + "\n")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", help="corpus shape and MLP epochs override, e.g. "
                        "'subjects=5,samples=6,rows=24,cols=20,epochs=100' "
                        "(outputs then have no references)")
    parser.add_argument("--record", action="store_true",
                        help="rewrite the reference digests and exit")
    args = parser.parse_args()
    if not args.record and args.workload is None:
        parser.error("--workload is required")
    os.chdir(ROOT)
    configure_environment()
    WORK.mkdir(parents=True, exist_ok=True)
    if args.record:
        record_references()
    elif args.workload == "all":
        run_all(args)
    else:
        run_workload(args)


if __name__ == "__main__":
    main()
