"""Span tracer that wraps faceid's public functions at their binding sites.

The program carries no instrumentation of its own, so the tracer replaces
module attributes: every name that ``faceid.cli`` or ``faceid.evaluation``
looks up at call time (plus the MSEREG loss and gradient inside
``faceid.classifiers.mlp``) is swapped for a wrapper that records one span
(name, start, end, parent) or, for the per-epoch SCG calls, only a count.
Wrappers pass arguments and results through untouched, so traced outputs are
byte-identical to untraced ones; ``uninstall`` restores the originals.

A span's self time is its duration minus the durations of its direct
children. Each wrapped function charges its self time to one per-layer time
metric, so the self times of all spans sum to the time covered by root
spans, and the rest of a pass is the unattributed remainder.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable


def _images(args, kwargs, result):
    return {"dataset.images": len(result.images)}


def _file_bytes(metric: str) -> Callable:
    def count(args, kwargs, result):
        return {metric: os.path.getsize(args[1])}
    return count


def _const(metric: str) -> Callable:
    return lambda args, kwargs, result: {metric: 1}


def _rbf_trained(args, kwargs, result):
    return {"rbf.trains": 1, "rbf.centers": result.n_centers}


# function name -> (time metric charged with the span's self time, counter).
# A name is wrapped wherever one of the binding modules holds it.
SPANS: dict[str, tuple[str, Callable | None]] = {
    "main": ("cli.self_s", None),
    "load_orl": ("dataset.load_s", _images),
    "load_manifest": ("dataset.load_s", _images),
    "synth_corpus": ("dataset.load_s", _images),
    "corpus_checksum": ("dataset.checksum_s", None),
    "split_first_k": ("dataset.split_s", None),
    "transform_corpus": ("transforms.transform_s",
                         lambda a, k, r: {"transforms.images": len(a[0])}),
    "mask_features": ("transforms.mask_s",
                      lambda a, k, r: {"transforms.features": len(r)}),
    "write_features_csv": ("transforms.csv_write_s",
                           _file_bytes("transforms.csv_bytes")),
    "train_eigenbasis": ("eigenfaces.basis_s", None),
    "attainable_rank": ("eigenfaces.rank_s", None),
    "project": ("eigenfaces.project_s", _const("eigenfaces.projections")),
    "nn_scores": ("nearest.score_s", _const("nearest.probes")),
    "nn_classify_batch": ("nearest.score_s",
                          lambda a, k, r: {"nearest.probes": len(r)}),
    "rbf_train": ("rbf.train_s", _rbf_trained),
    "rbf_scores": ("rbf.score_s", _const("rbf.probes")),
    "pnn_train": ("pnn.train_s", None),
    "pnn_classify": ("pnn.score_s", _const("pnn.probes")),
    "normalize_scores": ("fusion.normalize_s", _const("fusion.score_sets")),
    "fuse_mean": ("fusion.fuse_s", None),
    "mlp_train": ("mlp.train_s",
                  lambda a, k, r: {"mlp.epochs": len(r.curve) - 1}),
    "mlp_scores": ("mlp.score_s", None),
    "save_model": ("store.save_s", _file_bytes("store.bytes")),
    "write_training_log": ("store.save_s", _file_bytes("store.bytes")),
    "run_experiment": ("evaluation.self_s", _const("evaluation.experiments")),
    "sweep_dimension": ("evaluation.self_s",
                        lambda a, k, r: {"evaluation.experiments": len(r)}),
    "sweep_spread": ("evaluation.self_s", None),
    "table1_report": ("evaluation.self_s", None),
    "extract_split_features": ("evaluation.self_s", None),
    "format_table": ("evaluation.self_s", None),
    "write_manifest": ("evaluation.write_s", None),
    "write_result_csv": ("evaluation.write_s", None),
    "write_curve_csv": ("evaluation.write_s", None),
    "write_table_csv": ("evaluation.write_s", None),
    "write_fusion_report": ("evaluation.write_s", None),
}

# SCG calls these once or twice per epoch: counted, never spanned.
COUNTS = {
    "msereg_loss": "mlp.loss_evals",
    "msereg_gradient": "mlp.grad_evals",
}

SPAN_MODULES = ("faceid.cli", "faceid.evaluation")
COUNT_MODULES = ("faceid.classifiers.mlp",)

TIME_METRICS = sorted({metric for metric, _ in SPANS.values()})
# every counter the wrappers above can bump, with its unit
COUNT_METRICS = {
    "dataset.images": "count", "transforms.images": "count",
    "transforms.features": "count", "transforms.csv_bytes": "bytes",
    "eigenfaces.projections": "count", "nearest.probes": "count",
    "rbf.trains": "count", "rbf.centers": "count", "rbf.probes": "count",
    "pnn.probes": "count", "fusion.score_sets": "count",
    "mlp.epochs": "count", "mlp.grad_evals": "count",
    "mlp.loss_evals": "count", "store.bytes": "bytes",
    "evaluation.experiments": "count",
}


@dataclass
class Tracer:
    """In-memory spans and counts for one traced pass."""

    spans: list = field(default_factory=list)   # [name, metric, start, end, parent]
    counts: dict = field(default_factory=lambda: defaultdict(int))
    _stack: list = field(default_factory=lambda: [-1])
    _patched: list = field(default_factory=list)

    def _span(self, fn: Callable, name: str, metric: str,
              counter: Callable | None) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, metric, time.perf_counter_ns(), 0, stack[-1]]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    for key, value in counter(args, kwargs, result).items():
                        counts[key] += value
                return result
            finally:
                span[3] = time.perf_counter_ns()
                stack.pop()
        return traced

    def _count(self, fn: Callable, metric: str) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[metric] += 1
            return fn(*args, **kwargs)
        return counted

    def install(self, modules: dict) -> None:
        """Swap wrappers into ``modules`` (import name -> module object)."""
        sites = ([(m, name) for m in SPAN_MODULES for name in SPANS]
                 + [(m, name) for m in COUNT_MODULES for name in COUNTS])
        wrappers: dict[int, Callable] = {}
        for mod_name, name in sites:
            module = modules[mod_name]
            fn = getattr(module, name, None)
            if fn is None:
                continue
            # one wrapper per function, whichever module binds it
            if id(fn) not in wrappers:
                wrappers[id(fn)] = (self._count(fn, COUNTS[name]) if name in COUNTS
                                    else self._span(fn, name, *SPANS[name]))
            self._patched.append((module, name, fn))
            setattr(module, name, wrappers[id(fn)])

    def uninstall(self) -> None:
        for module, name, fn in reversed(self._patched):
            setattr(module, name, fn)
        self._patched.clear()

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per time metric, every metric present."""
        child_ns = [0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        totals = dict.fromkeys(TIME_METRICS, 0)
        for (_, metric, start, end, _), children in zip(self.spans, child_ns):
            totals[metric] += end - start - children
        return {metric: ns / 1e9 for metric, ns in totals.items()}

    def records(self) -> list:
        """Spans as (name, start_ns, end_ns, parent index) for writing out."""
        return [[name, start, end, parent]
                for name, _, start, end, parent in self.spans]
