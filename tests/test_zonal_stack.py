"""The array front end (cropped coefficient stack + one gather per mask)
against a frozen copy of the per-image path it replaced, the dimension
sweep's running distance matrix against a direct computation, plus their
memory bounds and error contracts."""

import hashlib

import numpy as np
import pytest
from scipy.fft import dctn
from scipy.spatial.distance import cdist

from faceid import cli, evaluation
from faceid.classifiers import MAD, MSE, nearest, nn_scores
from faceid.dataset import (
    Corpus, Split, _parse_pgm, corpus_checksum, load_orl, synth_corpus, write_pgm,
)
from faceid.eigenfaces import project, train_eigenbasis
from faceid.evaluation import (
    Outcome, decide, extract_split_features, sweep_dimension,
)
from faceid.fusion import MODES, normalize_scores
from faceid.transforms import (
    DCT, DFT, INTERLEAVE, KLT, LOGDFT, MODULUS, RECTANGULAR, SECTORIAL,
    ZonalMask, mask_features, transform_corpus, zone_keeps,
)

from conftest import (
    FROZEN_LOWER, compared, corpus_pixels, frozen_normalize_scores, gallery_of,
)

# ---------------------------------------------------------------------------
# frozen copy of the per-image path: full transform of every image, the mask
# array rebuilt for each one, one feature vector at a time


def frozen_mask_array(mask, rows, cols):
    if mask.shape == RECTANGULAR:
        side = int(mask.size)
        if side > min(rows, cols):
            raise ValueError(f"mask side {side} exceeds matrix dims {rows}x{cols}")
        out = np.zeros((rows, cols), dtype=np.uint8)
        out[:side, :side] = 1
        return out
    f1 = np.arange(rows)[:, None]
    f2 = np.arange(cols)[None, :]
    return (np.sqrt(f1 * f1 + f2 * f2) < mask.size).astype(np.uint8)


def frozen_vector(values, mask, complex_mode, r_low):
    rows, cols = values.shape
    keep = frozen_mask_array(mask, rows, cols).astype(bool)
    if r_low > 0.0:
        f1 = np.arange(rows)[:, None]
        f2 = np.arange(cols)[None, :]
        keep &= np.sqrt(f1 * f1 + f2 * f2) >= r_low
    retained = values[keep]
    if retained.size == 0:
        raise ValueError("mask retains no coefficients")
    if np.iscomplexobj(retained):
        if complex_mode == MODULUS:
            retained = np.abs(retained)
        else:
            retained = np.column_stack([retained.real, retained.imag]).ravel()
    return np.asarray(retained, dtype=np.float64)


FROZEN_TRANSFORMS = {
    DCT: lambda px: dctn(px, type=2, norm="ortho"),
    DFT: np.fft.fft2,
    LOGDFT: lambda px: np.fft.fft2(np.log(px + 1e-4)),
}


def frozen_transform(images, kind):
    return [FROZEN_TRANSFORMS[kind](pixels) for pixels in images]


def halves(split, per_image):
    """A split's gallery and probe parts of a per-image array, each flattened
    to (n, ...)."""
    return [half.reshape(-1, *per_image.shape[1:]) for half in split.halves(per_image)]


def frozen_matrix(coeffs, mask, complex_mode, r_low):
    return np.stack([frozen_vector(c, mask, complex_mode, r_low) for c in coeffs])


def frozen_sweep(split, kind, mask_shape, grid, complex_mode, r_low):
    gal_coeffs, probe_coeffs = (frozen_transform(half, kind)
                                for half in halves(split, corpus_pixels(split.corpus)))
    gal_labels, probe_labels = halves(split, split.corpus.subject_ids)
    points = []
    for value in sorted(grid):
        mask = (ZonalMask.rectangular(int(value)) if mask_shape == RECTANGULAR
                else ZonalMask.sectorial(float(value)))
        gal = frozen_matrix(gal_coeffs, mask, complex_mode, r_low)
        gallery = gallery_of(gal, gal_labels)
        scores = nn_scores(frozen_matrix(probe_coeffs, mask, complex_mode, r_low),
                           gallery, MAD)
        preds, _ = decide([scores], gallery.subject_ids)
        points.append((float(value), gal.shape[1], Outcome(probe_labels, preds).rate,
                       preds.tolist()))
    return points


def assert_split_features_equal(split, kind, mask, complex_mode, r_low):
    gal, probes = extract_split_features(split, kind, mask=mask,
                                         complex_mode=complex_mode, r_low=r_low)
    corpus = split.corpus
    for feats, images, labels, samples in zip(
            (gal, probes), halves(split, corpus_pixels(corpus)),
            halves(split, corpus.subject_ids), halves(split, corpus.sample_ids)):
        want = frozen_matrix(frozen_transform(images, kind), mask, complex_mode, r_low)
        assert feats.matrix.dtype == np.float64
        assert np.array_equal(feats.matrix, want)
        assert np.array_equal(feats.labels, labels)
        assert np.array_equal(feats.sample_ids, samples)
        assert feats.source == kind


def assert_sweep_equal(split, kind, mask_shape, grid, complex_mode, r_low):
    points = sweep_dimension(split, kind, mask_shape, grid,
                             complex_mode=complex_mode, r_low=r_low)
    want = frozen_sweep(split, kind, mask_shape, grid, complex_mode, r_low)
    assert [(pt.param, pt.dim, pt.rate, pt.preds.tolist()) for pt in points] == want
    return points


MASKS = [ZonalMask.rectangular(5), ZonalMask.sectorial(6.5)]
CONFIGS = [(kind, mode, r_low) for kind in (DCT, DFT, LOGDFT)
           for mode in (MODULUS, INTERLEAVE) for r_low in (0.0, 1.5)]
# rect sides from 3 and radii from 2.5, so r_low 1.5 leaves every point a coefficient
GRIDS = {RECTANGULAR: [3, 4, 7, 12, 20], SECTORIAL: [2.5, 3.0, 5.5, 9.0, 14.5]}
# no coefficient lies at a radius in [4.5, 5.0): the step to 5.0 adds nothing
EMPTY_STEP_GRID = [2.5, 4.5, 5.0, 5.5]


# ---------------------------------------------------------------------------
# bit equality with the frozen path


@pytest.mark.parametrize("mask", MASKS, ids=["rect", "sector"])
@pytest.mark.parametrize("kind,complex_mode,r_low", CONFIGS)
def test_split_features_bit_equal_frozen_path(small_split, kind, complex_mode,
                                              r_low, mask):
    assert_split_features_equal(small_split, kind, mask, complex_mode, r_low)


@pytest.mark.parametrize("mask_shape,grid", [
    (RECTANGULAR, GRIDS[RECTANGULAR]), (SECTORIAL, GRIDS[SECTORIAL]),
    (SECTORIAL, EMPTY_STEP_GRID),
], ids=[RECTANGULAR, SECTORIAL, "sectorial-empty-step"])
@pytest.mark.parametrize("kind,complex_mode,r_low", CONFIGS)
def test_sweep_bit_equal_frozen_path(small_split, kind, complex_mode, r_low,
                                     mask_shape, grid):
    points = assert_sweep_equal(small_split, kind, mask_shape, grid, complex_mode, r_low)
    if grid is EMPTY_STEP_GRID:
        assert (points[2].dim, points[2].rate) == (points[1].dim, points[1].rate)


@pytest.mark.parametrize("kind,mask,complex_mode,r_low", [
    (DCT, ZonalMask.rectangular(10), MODULUS, 0.0),
    (DFT, ZonalMask.sectorial(8.5), INTERLEAVE, 1.5),
    (LOGDFT, ZonalMask.rectangular(30), MODULUS, 1.5),
])
def test_orl_shaped_split_features_bit_equal_frozen_path(orl_split, kind, mask,
                                                         complex_mode, r_low):
    assert_split_features_equal(orl_split, kind, mask, complex_mode, r_low)


@pytest.mark.parametrize("kind,mask_shape,grid,complex_mode,r_low", [
    (DFT, RECTANGULAR, range(1, 31), MODULUS, 0.0),
    (DFT, SECTORIAL, [2.5, 7.0, 16.5, 30.0], INTERLEAVE, 1.5),
    (LOGDFT, RECTANGULAR, [3, 10, 25], INTERLEAVE, 0.0),
])
def test_orl_shaped_sweep_bit_equal_frozen_path(orl_split, kind, mask_shape, grid,
                                                complex_mode, r_low):
    assert_sweep_equal(orl_split, kind, mask_shape, list(grid), complex_mode, r_low)


@pytest.fixture()
def pgm_split(pgm_tree):
    """The pgm_tree corpus as loaded (uint8 levels over maxval 255), split 3/3."""
    return Split(load_orl(pgm_tree[0], n_subjects=5, samples_per_subject=6), 3)


@pytest.mark.parametrize("kind", [DCT, DFT, LOGDFT])
def test_loaded_split_bit_equal_frozen_path(pgm_split, kind):
    # the frozen path reads each file's float pixels; the stack keeps its bytes
    assert pgm_split.corpus.levels.dtype == np.uint8
    assert_split_features_equal(pgm_split, kind, ZonalMask.sectorial(6.5), INTERLEAVE, 1.5)
    assert_sweep_equal(pgm_split, kind, RECTANGULAR, [3, 4, 7, 12], MODULUS, 0.0)


def test_loaded_split_features_equal_its_float_copy(pgm_split):
    corpus = pgm_split.corpus
    floats = Split(Corpus(corpus_pixels(corpus), corpus.subject_ids,
                          corpus.sample_ids), 3)
    for kind, options in ((KLT, {"dim": 5}), (DCT, {"mask": ZonalMask.rectangular(5)}),
                          (LOGDFT, {"mask": ZonalMask.sectorial(4.5)})):
        for got, want in zip(extract_split_features(pgm_split, kind, **options),
                             extract_split_features(floats, kind, **options)):
            assert np.array_equal(got.matrix, want.matrix)
    assert ([compared(pt) for pt in sweep_dimension(pgm_split, KLT, grid=[1, 2, 5, 9])]
            == [compared(pt) for pt in sweep_dimension(floats, KLT, grid=[1, 2, 5, 9])])
    assert corpus_checksum(corpus) == corpus_checksum(floats.corpus)


def test_extract_features_is_one_row_of_the_stack(small_split):
    image = corpus_pixels(small_split.corpus)[0]
    mask = ZonalMask.sectorial(4.5)
    keep = mask.keep(*image.shape, 1.5)
    for kind in (DCT, DFT, LOGDFT):
        stack = transform_corpus(image[None], kind, image.shape)
        (values,) = frozen_transform([image], kind)
        assert np.array_equal(stack[0], values)
        for mode in (MODULUS, INTERLEAVE):
            assert np.array_equal(mask_features(stack, keep, mode)[0],
                                  frozen_vector(values, mask, mode, 1.5))


# ---------------------------------------------------------------------------
# the cropped stack


def test_zone_keeps_crop_to_the_union_extent():
    # sector 4.5 reaches (4, 0) and (0, 4); rect 3 stays inside that block
    keeps = zone_keeps([ZonalMask.rectangular(3), ZonalMask.sectorial(4.5)], (24, 20))
    assert [k.shape for k in keeps] == [(5, 5), (5, 5)]
    assert keeps[0].sum() == 9 and keeps[0][:3, :3].all()
    # r_low does not move the far edge
    (keep,) = zone_keeps([ZonalMask.rectangular(7)], (24, 20), r_low=1.5)
    assert keep.shape == (7, 7) and keep.sum() == 49 - 4


def test_transform_corpus_keeps_the_leading_block(small_split):
    images = corpus_pixels(small_split.corpus)[:4]
    for kind in (DCT, DFT):
        stack = transform_corpus(images, kind, (6, 4))
        assert stack.shape == (4, 6, 4)
        for img, block in zip(images, stack):
            assert np.array_equal(block, FROZEN_TRANSFORMS[kind](img)[:6, :4])
    # stored levels are divided by their own maxval, one image at a time
    maxval = np.array([255.0, 200.0, 13.0, 1.0])
    levels = np.rint(images * maxval[:, None, None]).astype(np.uint8)
    for kind in (DCT, DFT, LOGDFT):
        assert np.array_equal(transform_corpus(levels, kind, (6, 4), maxval=maxval),
                              transform_corpus(levels / maxval[:, None, None], kind, (6, 4)))
    with pytest.raises(ValueError, match="maxvals do not align"):
        transform_corpus(levels, DCT, (6, 4), maxval=maxval[:3])
    with pytest.raises(ValueError, match="smaller than"):
        transform_corpus(images, DCT, (25, 4))
    with pytest.raises(ValueError, match="unknown transform"):
        transform_corpus(images, "wavelet", (2, 2))


# odd, even and prime image shapes; for each, a 1x1 box, a box with r != c
# and the full-size box
DFT_BLOCK_CASES = [(shape, box) for shape, boxes in (
    ((15, 9), [(1, 1), (4, 7), (15, 9)]),
    ((12, 8), [(1, 1), (6, 3), (12, 8)]),
    ((13, 7), [(1, 1), (2, 5), (13, 7)]),
) for box in boxes]


@pytest.mark.parametrize("shape,box", DFT_BLOCK_CASES)
@pytest.mark.parametrize("kind", [DFT, LOGDFT])
def test_cropped_dft_is_bit_equal_to_full_fft2(kind, shape, box):
    rng = np.random.default_rng(shape[0] * 100 + box[1])
    images = rng.uniform(0.0, 255.0, size=(3, *shape))
    stack = transform_corpus(images, kind, box, log_offset=0.5)
    rows, cols = box
    for image, block in zip(images, stack):
        pixels = np.log(image + 0.5) if kind == LOGDFT else image
        assert np.array_equal(block, np.fft.fft2(pixels)[:rows, :cols])


@pytest.mark.parametrize("shape", [(15, 9), (12, 8), (13, 7)])
def test_full_box_transforms_are_bit_equal_to_fft2(shape):
    image = np.random.default_rng(shape[1]).uniform(0.0, 255.0, size=shape)
    assert np.array_equal(transform_corpus(image[None], DFT, shape)[0], np.fft.fft2(image))
    assert np.array_equal(transform_corpus(image[None], LOGDFT, shape, log_offset=0.5)[0],
                          np.fft.fft2(np.log(image + 0.5)))
    with pytest.raises(ValueError, match="offset"):
        transform_corpus(image[None], LOGDFT, (2, 2), log_offset=0.0)


def test_mask_features_reduces_complex_blocks():
    stack = np.array([[[1 + 2j, 3 - 4j], [5 + 0j, -6 + 7j]]])
    keep = np.array([[True, False], [True, True]])
    assert np.array_equal(mask_features(stack, keep, INTERLEAVE),
                          [[1.0, 2.0, 5.0, 0.0, -6.0, 7.0]])
    assert np.array_equal(mask_features(stack, keep, MODULUS),
                          [np.abs([1 + 2j, 5 + 0j, -6 + 7j])])
    with pytest.raises(ValueError, match="complex_mode"):
        mask_features(stack, keep, "argand")


# ---------------------------------------------------------------------------
# errors keep their type, and come before any transform


@pytest.mark.parametrize("mask_shape,grid,r_low,match", [
    (RECTANGULAR, [3, 21], 0.0, "exceeds"),       # the split's images are 24 x 20
    (SECTORIAL, [1.0, 4.0], 1.5, "retains no"),
    (RECTANGULAR, [1, 2, 3], 1.5, "retains no"),
])
def test_sweep_refuses_bad_grid_before_transforming(small_split, monkeypatch,
                                                    mask_shape, grid, r_low, match):
    def refuse(*args, **kwargs):
        raise AssertionError("transform ran before the grid was checked")

    monkeypatch.setattr(evaluation, "transform_corpus", refuse)
    with pytest.raises(ValueError, match=match):
        sweep_dimension(small_split, DFT, mask_shape, grid, r_low=r_low)


@pytest.mark.parametrize("argv,match", [
    (["sweep", "--axis", "dim", "--grid", "1,21"], "exceeds"),
    (["sweep", "--axis", "dim", "--r-low", "27"], "retains no"),  # past rect:20
    (["extract", "--mask", "rect:21"], "exceeds"),
    (["extract", "--mask", "sector:2", "--r-low", "3"], "retains no"),
])
def test_mask_errors_are_config_errors(tmp_path, capsys, argv, match):
    out = tmp_path / "o"
    code = cli.main(argv + ["--synth", "subjects=4,samples=6,rows=24,cols=20",
                            "--out", str(out)])
    assert code == 2
    assert match in capsys.readouterr().err
    assert not out.exists() or not any(out.glob("*.csv"))


@pytest.mark.parametrize("shape", ["rect", "sector"])
def test_default_grid_starts_where_r_low_leaves_a_coefficient(tmp_path, shape):
    # rect:1-2 and sector:1-2 keep nothing at or beyond radius 1.5
    curves = []
    for grid in ([], ["--grid", "3:20"]):
        out = tmp_path / shape / str(len(grid))
        code = cli.main(["sweep", "--axis", "dim", "--transform", "dct",
                         "--mask-shape", shape, "--r-low", "1.5", *grid,
                         "--synth", "subjects=8,samples=6,rows=24,cols=20,seed=0",
                         "--out", str(out)])
        assert code == 0
        curves.append((out / "curve.csv").read_text())
    assert curves[0] == curves[1]
    assert curves[0].splitlines()[1].startswith("3.0,")


# ---------------------------------------------------------------------------
# the running distance matrix of a dimension sweep


def direct_features(split, kind, mask_shape, grid, complex_mode, r_low):
    """Each grid point's full (n, d) feature matrix, built on its own."""
    gallery, probes = halves(split, corpus_pixels(split.corpus))
    images = np.concatenate([gallery, probes])
    if kind == KLT:
        basis = train_eigenbasis(gallery, max(grid))
        full = project(images, basis)
        return [full[:, :d] for d in grid]
    make = ZonalMask.rectangular if mask_shape == RECTANGULAR else ZonalMask.sectorial
    coeffs = frozen_transform(images, kind)
    return [frozen_matrix(coeffs, make(value), complex_mode, r_low) for value in grid]


def running_snapshots(monkeypatch):
    """Copies of the sweep's running distance matrix after each band that
    holds a column. Each band's scores must normalise bit for bit as the
    per-subject minima of the running distances did under the frozen
    lower-is-better path."""
    seen = []

    def recording(probes, gallery, *args, **kwargs):
        scores = nn_scores(probes, gallery, *args, **kwargs)
        if gallery.dim:
            running = kwargs["running"].copy()
            seen.append(running)
            nearest = np.stack([running[:, gallery.labels == sid].min(axis=1)
                                for sid in gallery.subject_ids], axis=1)
            for mode in MODES:
                assert np.array_equal(normalize_scores(scores, mode),
                                      frozen_normalize_scores(nearest, FROZEN_LOWER, mode))
        return scores

    monkeypatch.setattr(evaluation, "nn_scores", recording)
    return seen


RUNNING_CASES = (
    [(DFT, shape, GRIDS[shape], mode, r_low) for shape in (RECTANGULAR, SECTORIAL)
     for mode in (MODULUS, INTERLEAVE) for r_low in (0.0, 1.5)]
    + [(DCT, shape, GRIDS[shape], MODULUS, 1.5) for shape in (RECTANGULAR, SECTORIAL)]
    + [(KLT, None, [2, 5, 9, 17], MODULUS, 0.0)]
    + [(DFT, SECTORIAL, EMPTY_STEP_GRID, MODULUS, 0.0),
       (DCT, SECTORIAL, EMPTY_STEP_GRID, MODULUS, 1.5)])


@pytest.mark.parametrize("metric", [MAD, MSE])
@pytest.mark.parametrize("kind,mask_shape,grid,complex_mode,r_low", RUNNING_CASES)
def test_running_distances_match_direct_cdist(small_split, monkeypatch, metric, kind,
                                              mask_shape, grid, complex_mode, r_low):
    seen = running_snapshots(monkeypatch)
    points = sweep_dimension(small_split, kind, mask_shape, grid, metric,
                             complex_mode=complex_mode, r_low=r_low)
    n = small_split.k * small_split.corpus.n_subjects
    wanted = direct_features(small_split, kind, mask_shape, grid, complex_mode, r_low)
    dims = [feats.shape[1] for feats in wanted]
    # a step that adds no column takes no snapshot and repeats the point before it
    grew = [dim > prev for dim, prev in zip(dims, [0, *dims])]
    assert len(seen) == sum(grew) and len(points) == len(wanted)
    snapshots = iter(seen)
    for pt, prev, feats, step_grew in zip(points, [None, *points], wanted, grew):
        assert pt.dim == feats.shape[1]
        if not step_grew:
            assert (pt.dim, pt.rate) == (prev.dim, prev.rate)
            continue
        direct = cdist(feats[n:], feats[:n],
                       "cityblock" if metric == MAD else "sqeuclidean")
        np.testing.assert_allclose(next(snapshots), direct, rtol=1e-12, atol=0)
    if grid is EMPTY_STEP_GRID:
        assert grew == [True, True, False, True]


@pytest.mark.parametrize("mask_shape", [RECTANGULAR, SECTORIAL])
@pytest.mark.parametrize("r_low", [0.0, 1.5])
def test_bands_partition_the_largest_zone(small_split, monkeypatch, mask_shape, r_low):
    bands = []

    def recording(stack, keep, complex_mode=MODULUS):
        bands.append(keep.copy())
        return mask_features(stack, keep, complex_mode)

    monkeypatch.setattr(evaluation, "mask_features", recording)
    grid = GRIDS[mask_shape]
    sweep_dimension(small_split, DFT, mask_shape, grid, r_low=r_low)
    make = ZonalMask.rectangular if mask_shape == RECTANGULAR else ZonalMask.sectorial
    keeps = zone_keeps([make(value) for value in grid], (24, 20), r_low)
    assert len(bands) == len(grid)
    cover = np.sum(bands, axis=0)
    assert cover.max() == 1
    assert np.array_equal(cover == 1, keeps[-1])
    for i, keep in enumerate(keeps):
        assert np.array_equal(np.logical_or.reduce(bands[:i + 1]), keep)


def test_sector_step_that_adds_nothing_repeats_the_point(small_split, monkeypatch):
    # radius 3.05 adds the two coefficients at radius 3; nothing lies in [3.05, 3.1)
    widths = []

    def recording(x, y, metric):
        widths.append(x.shape[1])
        return cdist(x, y, metric)

    monkeypatch.setattr(nearest, "cdist", recording)
    points = sweep_dimension(small_split, DFT, SECTORIAL, [3.0, 3.05, 3.1])
    assert [pt.dim for pt in points] == [9, 11, 11]
    assert points[2].rate == points[1].rate
    assert widths == [9, 2]


@pytest.mark.parametrize("kind,grid", [(DFT, [3, 4, 7]), (KLT, [2, 5, 9])])
def test_nonfinite_feature_in_the_last_band_is_refused(small_split, monkeypatch,
                                                       tmp_path, capsys, kind, grid):
    # the NaN lies only in the last point's band: every earlier point is fine
    if kind == KLT:
        real = evaluation.project
        halves_seen = []

        def poisoned(images, *args):
            weights = real(images, *args)
            halves_seen.append(images)
            if len(halves_seen) == 2:  # the probe half
                weights[-1, -1] = np.nan
            return weights

        monkeypatch.setattr(evaluation, "project", poisoned)
    else:
        real = evaluation.transform_corpus

        def poisoned(*args, **kwargs):
            stack = real(*args, **kwargs)
            stack[-1, 6, 6] = np.nan
            return stack

        monkeypatch.setattr(evaluation, "transform_corpus", poisoned)
    with pytest.raises(ValueError, match="finite"):
        sweep_dimension(small_split, kind, grid=grid)
    if kind != KLT:
        out = tmp_path / "o"
        code = cli.main(["sweep", "--axis", "dim", "--transform", kind, "--grid", "3,4,7",
                         "--synth", "subjects=4,samples=6,rows=24,cols=20",
                         "--out", str(out)])
        assert code == 2
        assert "finite" in capsys.readouterr().err
        assert not (out / "curve.csv").exists()


# ---------------------------------------------------------------------------
# memory: only the masks' block is kept (tracemalloc peaks, ORL-shaped split)


def test_dft_sweep_memory_is_bounded(orl_split, peak_bytes):
    # every image's full DFT was kept before: a 73.5 MB peak; now 17.5 MB
    assert peak_bytes(sweep_dimension, orl_split, DFT, grid=range(1, 31)) < 24e6


def test_split_extraction_memory_is_bounded(orl_split, peak_bytes):
    # full DCTs of both halves were kept before: a 17.0 MB peak; now 0.76 MB
    peak = peak_bytes(extract_split_features, orl_split, DCT,
                      mask=ZonalMask.rectangular(10))
    assert peak < 1.5e6


def test_loaded_corpus_stays_below_its_float_stack(tmp_path, peak_bytes):
    # 10 subjects x 6 images of 48 x 40, split 3/3. Held as one float64 stack,
    # loading, checksumming and a DCT and a KLT extraction peaked at 1.66x
    # that stack's size; the stored levels take one byte per pixel.
    n, rows, cols = 60, 48, 40
    for image in synth_corpus(3, 10, 6, rows, cols).images:
        folder = tmp_path / f"s{image.subject_id}"
        folder.mkdir(exist_ok=True)
        write_pgm(image, folder / f"{image.sample_id}.pgm")

    def run():
        corpus = load_orl(tmp_path, n_subjects=10, samples_per_subject=6)
        corpus_checksum(corpus)
        split = Split(corpus, 3)
        extract_split_features(split, DCT, mask=ZonalMask.rectangular(10))
        extract_split_features(split, KLT, dim=5)

    assert peak_bytes(run) < n * rows * cols * 8
    corpus = load_orl(tmp_path, n_subjects=10, samples_per_subject=6)
    assert corpus.levels.dtype == np.uint8 and corpus.levels.nbytes == n * rows * cols


# ---------------------------------------------------------------------------
# corpus loading


def frozen_orl_checksum(root, n_subjects, samples):
    """The per-image hashing loop corpus_checksum ran over the images load_orl
    read one file at a time."""
    digest = hashlib.sha256()
    for s in range(1, n_subjects + 1):
        for k in range(1, samples + 1):
            path = root / f"s{s}" / f"{k}.pgm"
            rows, cols, maxval, raw = _parse_pgm(path.read_bytes(), str(path))
            pixels = raw.reshape(rows, cols).astype(np.float64) / maxval
            digest.update(f"{s},{k},{rows}x{cols};".encode())
            digest.update(pixels.astype("<f8").tobytes())
    return digest.hexdigest()


def test_load_orl_checksum_matches_frozen_loop(pgm_tree):
    root, _ = pgm_tree
    corpus = load_orl(root, n_subjects=5, samples_per_subject=6)
    assert corpus_checksum(corpus) == frozen_orl_checksum(root, 5, 6)
