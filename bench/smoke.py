#!/usr/bin/env python3
"""Smoke test of the benchmark harness on a tiny synthetic corpus.

Usage (from the repository root): python3 bench/smoke.py

Runs every workload untraced and traced for one pass each and checks that
the run is correct, that every metric BENCHMARK.json names is emitted with
its unit, that traced and untraced passes wrote identical outputs, that the
tracer sees the layers each workload exercises and no others, that the
unattributed remainder of the traced pass is small and not negative, and that
the benchmark refuses to run without the program's sources.

The self times plus the unattributed remainder equal the traced wall time by
definition (run.py computes the remainder as the difference), so that sum is
not checked; a remainder below zero would mean overlapping spans.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
TINY = "subjects=5,samples=6,rows=24,cols=20,epochs=100"
EPOCHS = 100
MLP_FITS_PER_PASS = 4
WORKLOADS = ("table1", "feature_sweep", "mlp_fit")
# per workload: counters the traced pass must reach (exact value, or None for
# any positive count), and counters it must leave at 0
REACHED = {
    "table1": ({"rbf.trains": None, "rbf.centers": None, "rbf.probes": None,
                "pnn.probes": None, "fusion.score_sets": None,
                "eigenfaces.projections": None, "mlp.epochs": EPOCHS,
                "evaluation.experiments": None},
               ("transforms.csv_bytes", "store.bytes")),
    "feature_sweep": ({"dataset.images": None, "transforms.images": None,
                       "transforms.features": None, "transforms.csv_bytes": None,
                       "nearest.probes": None, "evaluation.experiments": None},
                      ("rbf.trains", "pnn.probes", "mlp.epochs", "store.bytes")),
    "mlp_fit": ({"mlp.epochs": EPOCHS * MLP_FITS_PER_PASS, "mlp.grad_evals": None,
                 "mlp.loss_evals": None, "store.bytes": None},
                ("rbf.trains", "pnn.probes", "transforms.csv_bytes")),
}


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"smoke test failed: {message}")


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "all", "--seed", "3",
         "--seconds", "1", "--scale", TINY],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    check(proc.returncode == 0, f"run.py exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    check(result["correct"] and result["failed"] == 0,
          f"run not correct:\n{proc.stderr}")
    check(result["attempted"] >= 2 * len(WORKLOADS), "too few commands attempted")

    metrics = result["metrics"]
    for workload in WORKLOADS:
        for entry in (*spec["end_to_end"], *spec["per_layer"]):
            name = f"{workload}.{entry['name']}"
            check(name in metrics, f"{name} not emitted")
            check(metrics[name]["unit"] == entry["unit"], f"{name} has the wrong unit")
        reached, untouched = REACHED[workload]
        for name, expected in reached.items():
            value = metrics[f"{workload}.{name}"]["value"]
            check(value == expected if expected is not None else value > 0,
                  f"{workload}: {name} is {value}, expected {expected or '> 0'}")
        for name in untouched:
            value = metrics[f"{workload}.{name}"]["value"]
            check(value == 0, f"{workload}: {name} is {value}, expected 0")
        wall = metrics[f"{workload}.trace.wall_s"]["value"]
        rest = metrics[f"{workload}.trace.unattributed_s"]["value"]
        check(0 <= rest < 0.5 * wall,
              f"{workload}: unattributed {rest:.4f} s of a {wall:.4f} s traced pass")
        check(metrics[f"{workload}.setup_s"]["value"] > 0, f"{workload}: no setup time")

    records = [json.loads(line)["record"] for line in lines
               if line.startswith('{"record"')]
    for workload in WORKLOADS:
        digests = [r["digests"] for r in records if r["workload"] == workload]
        check(len(digests) == 2 and digests[0] == digests[1] and digests[0],
              f"{workload}: traced and untraced outputs differ")

    bare = BENCH / ".work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns(".work"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "table1", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          "run.py produced a result without the program's sources")
    print("smoke test passed")


if __name__ == "__main__":
    main()
