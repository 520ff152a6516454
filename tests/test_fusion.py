"""Score normalization and mean-rule opinion fusion on (k, S) score matrices."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faceid.classifiers import HIGHER, LOWER
from faceid.fusion import (
    MINMAX, ZSCORE, fuse_mean, normalize_scores, write_fusion_report,
)


def ids(n):
    return np.arange(1, n + 1)


def row(scores, polarity=HIGHER, mode=MINMAX):
    """One probe's scores, normalized as a 1-row matrix."""
    return normalize_scores(np.array([scores], dtype=float), polarity, mode)


def winner(opinions):
    preds, _ = fuse_mean(opinions, ids(opinions[0].shape[1]))
    return preds.tolist()


def test_lower_is_better_flips_to_higher():
    norm = row([0.0, 10.0], polarity=LOWER)
    assert norm[0] == pytest.approx([1.0, 0.0])
    assert winner([norm]) == [1]


def test_constant_scores_become_half():
    norm = normalize_scores(np.array([[0.2, 0.2, 0.2], [0.0, 1.0, 0.5]]), HIGHER)
    assert np.array_equal(norm[0], [0.5, 0.5, 0.5])  # only the flat row
    assert np.array_equal(norm[1], [0.0, 1.0, 0.5])


def test_minmax_three_point_example():
    assert row([-0.9, 0.1, -0.4])[0] == pytest.approx([0.0, 1.0, 0.5])


def test_rowwise_normalization_matches_per_row_loop():
    # the batch result equals normalizing every probe on its own, bit for bit,
    # and a naive per-row formula
    rng = np.random.default_rng(4)
    scores = rng.normal(size=(9, 7))
    scores[3] = 1.25  # a flat row
    for polarity in (HIGHER, LOWER):
        vals = scores if polarity == HIGHER else -scores
        for mode in (MINMAX, ZSCORE):
            batch = normalize_scores(scores, polarity, mode)
            singles = np.vstack([normalize_scores(r[None, :], polarity, mode)
                                 for r in scores])
            assert np.array_equal(batch, singles)
            for got, v in zip(batch, vals):
                if v.max() == v.min():
                    want = [0.5] * v.size
                elif mode == MINMAX:
                    want = [(x - min(v)) / (max(v) - min(v)) for x in v]
                else:
                    mean = sum(v) / v.size
                    std = (sum((x - mean) ** 2 for x in v) / v.size) ** 0.5
                    want = [(x - mean) / std for x in v]
                assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


@settings(max_examples=60)
@given(st.lists(st.integers(-400, 400), min_size=2, max_size=12, unique=True),
       st.sampled_from([HIGHER, LOWER]))
def test_normalization_preserves_the_winner(values, polarity):
    # integer grid: gaps stay resolvable after the affine rescale
    scores = np.array([v * 0.25 for v in values])
    raw_best = np.argmax(scores) if polarity == HIGHER else np.argmin(scores)
    norm = row(scores, polarity)
    assert winner([norm]) == [raw_best + 1]
    assert norm.min() == 0.0 and norm.max() == 1.0


def test_exact_ties_go_to_lowest_subject_id():
    subject_ids = np.array([3, 5, 8, 13])
    raw = np.array([[0.5, 0.9, 0.9, 0.1],    # tie between columns 1 and 2
                    [0.7, 0.2, 0.7, 0.7],    # three-way tie including column 0
                    [0.4, 0.4, 0.4, 0.4],    # flat: every subject tied
                    [0.1, 0.2, 0.3, 0.3]])   # tie in the last two columns
    preds, _ = fuse_mean([normalize_scores(raw, HIGHER)], subject_ids)
    assert preds.tolist() == [5, 3, 3, 8]
    preds, _ = fuse_mean([normalize_scores(-raw, LOWER)], subject_ids)
    assert preds.tolist() == [5, 3, 3, 8]


def test_nonfinite_scores_are_refused():
    for bad in (np.nan, np.inf, -np.inf):
        scores = np.array([[0.1, 0.2, 0.3], [0.4, bad, 0.6]])
        for mode in (MINMAX, ZSCORE):
            with pytest.raises(ValueError, match="finite"):
                normalize_scores(scores, HIGHER, mode)


def test_zscore_mode_is_unbounded():
    norm = row([0.0, 0.0, 100.0], mode=ZSCORE)
    assert norm.max() > 1.0  # z units, deliberately unclamped
    assert winner([norm]) == [3]
    constant = row([3.0, 3.0], mode=ZSCORE)
    assert np.array_equal(constant, [[0.5, 0.5]])


def test_normalize_validation():
    with pytest.raises(ValueError, match="2 subjects"):
        normalize_scores(np.array([[1.0]]), HIGHER)
    with pytest.raises(ValueError, match="mode"):
        row([1.0, 2.0], mode="rank")


def test_fuse_mean_is_elementwise_average():
    a = normalize_scores(np.array([[0.0, 1.0, 0.5], [2.0, 1.0, 0.0]]), HIGHER)
    # lower is better: (1, 0, 0.5) flips to (0, 1, 0.5)
    b = normalize_scores(np.array([[1.0, 0.0, 0.5], [0.0, 3.0, 1.0]]), LOWER)
    preds, fused = fuse_mean([a, b], ids(3))
    assert fused == pytest.approx((a + b) / 2)
    assert preds.tolist() == (np.argmax(fused, axis=1) + 1).tolist()


def test_fused_scores_stay_in_unit_interval():
    rng = np.random.default_rng(0)
    opinions = [normalize_scores(rng.normal(size=(20, 6)), HIGHER) for _ in range(3)]
    _, fused = fuse_mean(opinions, ids(6))
    assert np.all(fused >= 0.0) and np.all(fused <= 1.0)


def test_fusion_single_set_is_identity():
    a = normalize_scores(np.array([[0.3, 0.9, 0.1], [0.8, 0.2, 0.5]]), HIGHER)
    preds, fused = fuse_mean([a], ids(3))
    assert np.array_equal(fused, a)
    assert preds.tolist() == [2, 1]


def test_fusion_respects_unanimous_winner():
    a = row([0.0, 2.0, 1.0])
    b = row([0.1, 5.0, 0.2])
    assert winner([a, b]) == [2]


def test_fusion_order_changes_only_the_id():
    # member order changes nothing in the fused opinion or the decision
    a = row([0.0, 2.0, 1.0])
    b = row([3.0, 1.0, 2.0])
    preds_ab, fused_ab = fuse_mean([a, b], ids(3))
    preds_ba, fused_ba = fuse_mean([b, a], ids(3))
    assert preds_ab.tolist() == preds_ba.tolist()
    assert np.array_equal(fused_ab, fused_ba)


def test_fusion_can_overturn_a_single_vote():
    # classifier a narrowly prefers subject 1; b strongly prefers subject 2
    a = np.array([[0.55, 0.45]])
    b = np.array([[0.0, 1.0]])
    assert winner([a, b]) == [2]


def test_fusion_mismatch_errors():
    a = row([0.0, 1.0])
    short = row([0.0, 1.0, 0.5])
    with pytest.raises(ValueError, match="shapes"):
        fuse_mean([a, short], ids(2))
    with pytest.raises(ValueError, match="subject_ids"):
        fuse_mean([a, a], ids(3))
    with pytest.raises(ValueError, match="at least one"):
        fuse_mean([], ids(2))


def test_normalized_set_validation():
    # columns are subject ids in ascending order, one per column
    a = row([0.1, 0.2])
    with pytest.raises(ValueError, match="ascending"):
        fuse_mean([a], np.array([2, 1]))
    with pytest.raises(ValueError, match="ascending"):
        fuse_mean([a], np.array([4, 4]))
    # a probe block is 2-D: one row per probe
    with pytest.raises(ValueError, match=r"\(k, S\)"):
        normalize_scores(np.array([0.1, 0.2]), HIGHER)


def test_fusion_report_csv(tmp_path):
    path = tmp_path / "report.csv"
    write_fusion_report([("s1_6", 1, 1, 0.93), ("s2_6", 2, 5, 0.41)], path)
    lines = path.read_text().splitlines()
    assert lines[0] == "probe,subject_true,subject_pred,fused_score"
    assert lines[1].startswith("s1_6,1,1,")
    assert float(lines[2].rsplit(",", 1)[1]) == 0.41
