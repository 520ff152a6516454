"""Opinion fusion: rescale each classifier's score matrix and average them.

Distances and network outputs live on incommensurable scales, so each
classifier's (k, S) score matrix is first mapped, row by row, to a common
similarity scale: min-max over the probe's own scores, after negating
lower-is-better matrices. The fused opinion is the element-wise mean, and
each probe's answer is its arg-max column, the lowest subject id on ties.
A single classifier goes through the same rule. A z-score mode is kept for
sensitivity checks; its outputs are deliberately left unclamped since
min-max applied after a z-score would reproduce plain min-max exactly.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Sequence

import numpy as np

from .classifiers.common import HIGHER, LOWER

MINMAX = "minmax"
ZSCORE = "zscore"

MODES = (MINMAX, ZSCORE)


def normalize_scores(scores: np.ndarray, polarity: str,
                     mode: str = MINMAX) -> np.ndarray:
    """Map one classifier's (k, S) scores onto the fusion scale, row by row.

    Lower-is-better matrices are negated first. Min-max sends each probe's
    worst subject to 0 and best to 1; a constant row carries no opinion and
    maps to all 0.5 in either mode.
    """
    vals = np.array(scores, dtype=np.float64)
    if vals.ndim != 2 or vals.shape[1] < 2:
        raise ValueError("normalization needs a (k, S) matrix of at least 2 subjects")
    if not np.all(np.isfinite(vals)):
        raise ValueError("raw scores must all be finite")
    if polarity == LOWER:
        vals = -vals
    elif polarity != HIGHER:
        raise ValueError(f"polarity must be {HIGHER!r} or {LOWER!r}")
    if mode == MINMAX:
        center = vals.min(axis=1, keepdims=True)
        scale = vals.max(axis=1, keepdims=True) - center
    elif mode == ZSCORE:
        center = vals.mean(axis=1, keepdims=True)
        scale = vals.std(axis=1, keepdims=True)
    else:
        raise ValueError(f"mode must be one of {MODES}")
    flat = scale[:, 0] == 0.0
    scaled = (vals - center) / np.where(flat[:, None], 1.0, scale)
    scaled[flat] = 0.5
    return scaled


def fuse_mean(opinions: Sequence[np.ndarray],
              subject_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Element-wise mean of normalized (k, S) opinions, and each row's winner.

    Columns are ``subject_ids``, ascending, so the first maximal column (the
    lowest subject id) wins a tie. Returns (predicted ids, fused matrix).
    """
    if not opinions:
        raise ValueError("fusion needs at least one score matrix")
    shape = opinions[0].shape
    if any(op.shape != shape for op in opinions):
        raise ValueError("score matrices have mismatched shapes")
    subject_ids = np.asarray(subject_ids)
    if subject_ids.shape != shape[1:] or np.any(np.diff(subject_ids) <= 0):
        raise ValueError("subject_ids must be ascending, one per score column")
    fused = np.mean(opinions, axis=0)
    return subject_ids[np.argmax(fused, axis=1)], fused


def write_fusion_report(rows: Sequence[tuple[str, int, int, float]],
                        path: str | Path) -> None:
    """CSV of per-probe fusion outcomes: probe, truth, prediction, top score."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["probe", "subject_true", "subject_pred", "fused_score"])
        for probe, true_id, pred_id, score in rows:
            writer.writerow([probe, true_id, pred_id, repr(float(score))])
