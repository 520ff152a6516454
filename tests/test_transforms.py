"""Transform correctness against direct summation, mask geometry, features."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.fft import dctn as scipy_dctn
from scipy.fft import idctn

from faceid.classifiers import Features
from faceid.dataset import Split, synth_corpus
from faceid.evaluation import extract_split_features, write_features_csv
from faceid.transforms import (
    DCT, DFT, INTERLEAVE, LOGDFT, MODULUS, ZonalMask,
    dctn, mask_features, transform_corpus,
)

from conftest import read_features_csv


def coeffs(image, kind, log_offset=1e-4):
    """One image's full coefficient matrix."""
    px = getattr(image, "pixels", image)
    return transform_corpus(px[None], kind, px.shape, log_offset)[0]


def features(image, kind, mask, complex_mode=MODULUS, r_low=0.0):
    """One image's feature row under a zonal mask."""
    px = getattr(image, "pixels", image)
    stack = transform_corpus(px[None], kind, px.shape)
    return mask_features(stack, mask.keep(*px.shape, r_low), complex_mode)[0]


def naive_dct2(px):
    """Orthonormal type-II DCT by direct summation (oracle)."""
    m, n = px.shape
    x = np.arange(m)
    y = np.arange(n)
    out = np.empty((m, n))
    for u in range(m):
        au = np.sqrt(1.0 / m) if u == 0 else np.sqrt(2.0 / m)
        cu = np.cos((2 * x + 1) * u * np.pi / (2 * m))
        for v in range(n):
            av = np.sqrt(1.0 / n) if v == 0 else np.sqrt(2.0 / n)
            cv = np.cos((2 * y + 1) * v * np.pi / (2 * n))
            out[u, v] = au * av * np.sum(px * np.outer(cu, cv))
    return out


def naive_dft2(px):
    """Unnormalized negative-exponent DFT by direct summation (oracle)."""
    m, n = px.shape
    x = np.arange(m)
    y = np.arange(n)
    out = np.empty((m, n), dtype=complex)
    for u in range(m):
        eu = np.exp(-2j * np.pi * u * x / m)
        for v in range(n):
            ev = np.exp(-2j * np.pi * v * y / n)
            out[u, v] = np.sum(px * np.outer(eu, ev))
    return out


@pytest.fixture(scope="module")
def face16():
    corpus = synth_corpus(seed=3, n_subjects=1, samples=1, rows=16, cols=16)
    return corpus.images[0]


def test_dct_matches_direct_summation(face16):
    got = coeffs(face16, DCT)
    want = naive_dct2(face16.pixels)
    assert np.abs(got - want).max() < 1e-10


def test_dct_rectangular_input():
    rng = np.random.default_rng(1)
    px = rng.random((12, 9))
    assert np.abs(coeffs(px, DCT) - naive_dct2(px)).max() < 1e-10


@pytest.mark.parametrize("shape", [(112, 92), (13, 7), (1, 9), (9, 1)])
def test_dct_is_bit_equal_to_scipy_dctn(shape):
    # dctn makes the pocketfft call scipy.fft.dctn makes, on the compiled
    # kernel alone: every coefficient keeps scipy's bits
    rng = np.random.default_rng(shape[0] * 1000 + shape[1])
    for _ in range(3):
        px = rng.random(shape)
        assert np.array_equal(dctn(px), scipy_dctn(px, type=2, norm="ortho"))


def test_dft_matches_direct_summation(face16):
    got = coeffs(face16, DFT)
    want = naive_dft2(face16.pixels)
    assert np.abs(got - want).max() < 1e-9


def test_dft_dc_is_pixel_sum(face16):
    assert coeffs(face16, DFT)[0, 0] == pytest.approx(face16.pixels.sum())


def test_logdft_is_dft_of_log(face16):
    got = coeffs(face16, LOGDFT, log_offset=1e-4)
    want = naive_dft2(np.log(face16.pixels + 1e-4))
    assert np.abs(got - want).max() < 1e-9
    with pytest.raises(ValueError, match="offset"):
        coeffs(face16, LOGDFT, log_offset=0.0)


def test_dct_parseval(face16):
    px = face16.pixels
    assert np.sum(coeffs(px, DCT)**2) == pytest.approx(np.sum(px**2), abs=1e-9)


def test_dct_inverse_pair(face16):
    # scipy's inverse orthonormal DCT-II is the oracle
    back = idctn(coeffs(face16, DCT), type=2, norm="ortho")
    assert np.abs(back - face16.pixels).max() < 1e-12


def test_dct_linearity():
    rng = np.random.default_rng(7)
    a, b = rng.random((8, 8)), rng.random((8, 8))
    lhs = coeffs(2.0 * a + 3.0 * b, DCT)
    rhs = 2.0 * coeffs(a, DCT) + 3.0 * coeffs(b, DCT)
    assert np.abs(lhs - rhs).max() < 1e-12


def test_ids_propagate():
    split = Split(synth_corpus(seed=3, n_subjects=3, samples=3, rows=8, cols=8), 2)
    want = [([1, 1, 2, 2, 3, 3], [1, 2, 1, 2, 1, 2]), ([1, 2, 3], [3, 3, 3])]
    for feats, (labels, samples) in zip(
            extract_split_features(split, DCT, mask=ZonalMask.rectangular(4)), want):
        assert feats.labels.tolist() == labels
        assert feats.sample_ids.tolist() == samples
        assert feats.source == DCT and feats.matrix.shape == (len(labels), 16)


# ---------------------------------------------------------------------------
# Zonal masks


def test_rect_mask_dim_on_face_matrix():
    # the standard 10x10 block on a 112x92 matrix keeps 100 coefficients
    assert ZonalMask.rectangular(10).keep(112, 92).sum() == 100


def test_rect_mask_side_exceeds_dims():
    with pytest.raises(ValueError, match="mask side 20 exceeds"):
        ZonalMask.rectangular(20).keep(16, 14)


def test_sector_mask_strict_inequality():
    # radius 2: (0,0),(0,1),(1,0),(1,1) are < 2; (0,2) and (2,0) are not
    mask = ZonalMask.sectorial(2.0).keep(8, 8)
    assert mask.sum() == 4
    assert mask[0, 2] == 0 and mask[2, 0] == 0 and mask[1, 1] == 1


def test_sector_mask_boundary_excluded():
    # sqrt(3^2 + 4^2) == 5 exactly: must be excluded at radius 5
    mask = ZonalMask.sectorial(5.0).keep(8, 8)
    assert mask[3, 4] == 0 and mask[4, 3] == 0
    assert mask[3, 3] == 1  # sqrt(18) < 5


def test_mask_validation():
    for side in (2.5, np.inf, np.nan):
        with pytest.raises(ValueError, match="integer"):
            ZonalMask.rectangular(side)
    for radius in (0.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="radius"):
            ZonalMask.sectorial(radius)
    # a bad r_low is a plain ValueError, not a ZoneError: no mask keeps too little
    for r_low in (-1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="r_low must be finite and >= 0") as caught:
            ZonalMask.rectangular(3).keep(3, 3, r_low)
        assert type(caught.value) is ValueError
    with pytest.raises(ValueError, match="unknown mask shape"):
        ZonalMask(shape="oval", size=3)


@given(side=st.integers(min_value=1, max_value=12))
def test_rect_mask_dim_is_side_squared(side):
    assert ZonalMask.rectangular(side).keep(12, 12).sum() == side * side


@given(radius=st.floats(min_value=0.5, max_value=10.0),
       rows=st.integers(min_value=4, max_value=12),
       cols=st.integers(min_value=4, max_value=12))
@settings(max_examples=50)
def test_sector_dim_matches_enumeration(radius, rows, cols):
    want = sum(1 for f1 in range(rows) for f2 in range(cols)
               if np.hypot(f1, f2) < radius)
    assert ZonalMask.sectorial(radius).keep(rows, cols).sum() == want


# ---------------------------------------------------------------------------
# Feature extraction


def test_features_row_major_order(face16):
    values = coeffs(face16, DCT)
    fv = features(face16, DCT, ZonalMask.rectangular(3))
    manual = [values[u, v] for u in range(3) for v in range(3)]
    assert np.array_equal(fv, manual)


def test_modulus_reduction(face16):
    fv = features(face16, DFT, ZonalMask.rectangular(4), complex_mode=MODULUS)
    assert fv.size == 16
    assert fv[0] == pytest.approx(abs(coeffs(face16, DFT)[0, 0]))
    assert np.all(fv >= 0)


def test_interleave_reduction(face16):
    fv = features(face16, DFT, ZonalMask.rectangular(4), complex_mode=INTERLEAVE)
    dc = coeffs(face16, DFT)[0, 0]
    assert fv.size == 32
    assert fv[0] == pytest.approx(dc.real)
    assert fv[1] == pytest.approx(dc.imag)
    with pytest.raises(ValueError, match="complex_mode"):
        features(face16, DFT, ZonalMask.rectangular(4), complex_mode="argand")


def test_modulus_noop_for_real_coeffs(face16):
    fv = features(face16, DCT, ZonalMask.rectangular(4))
    block = coeffs(face16, DCT)[:4, :4].ravel()
    assert np.array_equal(fv, block)  # sign preserved, no abs


def test_r_low_drops_near_dc(face16):
    full = features(face16, DCT, ZonalMask.rectangular(4))
    banded = features(face16, DCT, ZonalMask.rectangular(4), r_low=1.5)
    # drops (0,0), (0,1), (1,0), (1,1): all with radius < 1.5
    assert banded.size == full.size - 4
    assert banded[0] == pytest.approx(coeffs(face16, DCT)[0, 2])


def test_empty_mask_rejected():
    with pytest.raises(ValueError, match="retains no coefficients"):
        features(np.ones((6, 6)), DCT, ZonalMask.sectorial(0.5), r_low=3.0)


def test_mask_apply_reconstruction(face16):
    # zeroing the coefficients outside a mask and inverting (scipy's inverse
    # DCT as the oracle) leaves a partial error; keeping everything, none
    def relative_error(side):
        values = coeffs(face16, DCT) * ZonalMask.rectangular(side).keep(16, 16)
        recon = idctn(values, type=2, norm="ortho")
        return np.linalg.norm(face16.pixels - recon) / np.linalg.norm(face16.pixels)

    assert 0.0 < relative_error(12) < 0.5
    assert relative_error(16) < 1e-12


# ---------------------------------------------------------------------------
# the labelled feature matrix and its CSV


def test_features_refuse_misshapen_input():
    matrix = np.ones((3, 2))
    with pytest.raises(ValueError, match="nonempty"):
        Features(np.ones(3), [1, 2, 3], [1, 1, 1], DCT)
    with pytest.raises(ValueError, match="nonempty"):
        Features(np.ones((0, 2)), [], [], DCT)
    with pytest.raises(ValueError, match="nonempty"):
        Features(np.ones((3, 0)), [1, 2, 3], [1, 1, 1], DCT)
    with pytest.raises(ValueError, match="labels"):
        Features(matrix, [1, 2], [1, 1, 1], DCT)
    with pytest.raises(ValueError, match="sample_ids"):
        Features(matrix, [1, 2, 3], [[1, 1, 1]], DCT)
    feats = Features(matrix[:, :1], [1, 2, 3], [4, 5, 6], DCT)
    assert feats.matrix.flags.c_contiguous and len(feats) == 3 and feats.dim == 1


def test_features_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(5)
    matrix = np.vstack([rng.normal(scale=1e3, size=(3, 6)),
                        [-0.0, 1e-300, 5e-324, 1 / 3, 1e22, np.pi]])
    feats = Features(matrix, [2, 2, 7, 11], [1, 3, 1, 10], DFT)
    path = tmp_path / "f.csv"
    write_features_csv(feats, path)
    back = read_features_csv(path)
    assert back.matrix.tobytes() == feats.matrix.tobytes()  # repr() is lossless
    assert np.array_equal(back.labels, feats.labels)
    assert np.array_equal(back.sample_ids, feats.sample_ids)
    assert back.source == DFT


@pytest.mark.parametrize("ids", [",3", "2,", "x,3", "2,1.5"])
def test_features_csv_refuses_bad_ids(tmp_path, ids):
    path = tmp_path / "f.csv"
    path.write_text(f"subject,sample,source,dim,c0\n1,1,dct,1,0.5\n{ids},dct,1,0.25\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}:3: subject ") + ".* must be integers"):
        read_features_csv(path)


def test_features_csv_bytes_match_per_element_repr(tmp_path):
    # the per-element formatter the row join replaced
    values = [-0.0, 1e-300, 5e-324, 1 / 3, -2.5, 1e22, 123456789.125]
    feats = Features(np.array([values, [-v for v in values]]), [1, 3], [2, 4], DCT)
    path = tmp_path / "f.csv"
    write_features_csv(feats, path)
    want = ["subject,sample,source,dim," + ",".join(f"c{i}" for i in range(len(values)))]
    for row, ids in zip(feats.matrix, ("1,2", "3,4")):
        want.append(f"{ids},{DCT},{len(values)}," + ",".join(repr(float(c)) for c in row))
    assert path.read_bytes() == ("\n".join(want) + "\n").encode()
    assert "-0.0,1e-300,5e-324,0.3333333333333333," in path.read_text()


def test_features_csv_rejects_mixed_dims(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("subject,sample,source,dim,c0,c1\n1,1,dct,2,0.5,1.0\n1,2,dct,1,0.5\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}:3: mixed dims 2 and 1")):
        read_features_csv(path)
