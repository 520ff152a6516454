"""Opinion fusion: rescale each classifier's score matrix and average them.

Every classifier scores higher-is-better (nearest neighbor negates its
distances), but negated distances and network outputs live on
incommensurable scales, so each classifier's (k, S) score matrix is first
mapped, row by row, to a common similarity scale: min-max over the probe's
own scores. The fused opinion is the element-wise mean, and each probe's
answer is its arg-max column, the lowest subject id on ties. A single
classifier goes through the same rule. A z-score mode is kept for
sensitivity checks; its outputs are deliberately left unclamped since
min-max applied after a z-score would reproduce plain min-max exactly.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

MINMAX = "minmax"
ZSCORE = "zscore"

MODES = (MINMAX, ZSCORE)


def normalize_scores(scores: np.ndarray, mode: str = MINMAX) -> np.ndarray:
    """Map one classifier's higher-is-better (k, S) scores onto the fusion
    scale, row by row.

    Min-max sends each probe's worst subject to 0 and best to 1; a constant
    row carries no opinion and maps to all 0.5 in either mode.
    """
    vals = np.array(scores, dtype=np.float64)
    if vals.ndim != 2 or vals.shape[1] < 2:
        raise ValueError("normalization needs a (k, S) matrix of at least 2 subjects")
    if not np.all(np.isfinite(vals)):
        raise ValueError("raw scores must all be finite")
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
