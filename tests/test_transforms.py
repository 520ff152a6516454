"""Transform correctness against direct summation, mask geometry, features."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faceid.dataset import Image, synth_corpus
from faceid.transforms import (
    DCT, DFT, INTERLEAVE, LOGDFT, MODULUS, CoeffMatrix, FeatureVector, ZonalMask,
    dct2, dft2, extract_features, idct2, log_dft2, mask_apply,
    read_features_csv, relative_l2_error, write_features_csv,
)


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
    got = dct2(face16).values
    want = naive_dct2(face16.pixels)
    assert np.abs(got - want).max() < 1e-10


def test_dct_rectangular_input():
    rng = np.random.default_rng(1)
    px = rng.random((12, 9))
    assert np.abs(dct2(px).values - naive_dct2(px)).max() < 1e-10


def test_dft_matches_direct_summation(face16):
    got = dft2(face16).values
    want = naive_dft2(face16.pixels)
    assert np.abs(got - want).max() < 1e-9


def test_dft_dc_is_pixel_sum(face16):
    assert dft2(face16).values[0, 0] == pytest.approx(face16.pixels.sum())


def test_logdft_is_dft_of_log(face16):
    got = log_dft2(face16, offset=1e-4).values
    want = naive_dft2(np.log(face16.pixels + 1e-4))
    assert np.abs(got - want).max() < 1e-9
    with pytest.raises(ValueError, match="offset"):
        log_dft2(face16, offset=0.0)


def test_dct_parseval(face16):
    px = face16.pixels
    coeffs = dct2(px).values
    assert np.sum(coeffs**2) == pytest.approx(np.sum(px**2), abs=1e-9)


def test_dct_inverse_pair(face16):
    back = idct2(dct2(face16))
    assert np.abs(back - face16.pixels).max() < 1e-12
    with pytest.raises(ValueError, match="DCT"):
        idct2(dft2(face16))


def test_dct_linearity():
    rng = np.random.default_rng(7)
    a, b = rng.random((8, 8)), rng.random((8, 8))
    lhs = dct2(2.0 * a + 3.0 * b).values
    rhs = 2.0 * dct2(a).values + 3.0 * dct2(b).values
    assert np.abs(lhs - rhs).max() < 1e-12


def test_ids_propagate(face16):
    coeffs = dct2(face16)
    assert (coeffs.subject_id, coeffs.sample_id) == (1, 1)
    fv = extract_features(coeffs, ZonalMask.rectangular(4))
    assert (fv.label, fv.sample_id) == (1, 1)
    assert fv.source == DCT


# ---------------------------------------------------------------------------
# Zonal masks


def test_rect_mask_dim_on_face_matrix():
    # the standard 10x10 block on a 112x92 matrix keeps 100 coefficients
    assert ZonalMask.rectangular(10).dim(112, 92) == 100


def test_rect_mask_side_exceeds_dims():
    with pytest.raises(ValueError, match="mask side 20 exceeds"):
        ZonalMask.rectangular(20).array(16, 14)


def test_sector_mask_strict_inequality():
    # radius 2: (0,0),(0,1),(1,0),(1,1) are < 2; (0,2) and (2,0) are not
    mask = ZonalMask.sectorial(2.0).array(8, 8)
    assert mask.sum() == 4
    assert mask[0, 2] == 0 and mask[2, 0] == 0 and mask[1, 1] == 1


def test_sector_mask_boundary_excluded():
    # sqrt(3^2 + 4^2) == 5 exactly: must be excluded at radius 5
    mask = ZonalMask.sectorial(5.0).array(8, 8)
    assert mask[3, 4] == 0 and mask[4, 3] == 0
    assert mask[3, 3] == 1  # sqrt(18) < 5


def test_mask_validation():
    with pytest.raises(ValueError, match="integer"):
        ZonalMask.rectangular(2.5)
    with pytest.raises(ValueError, match="radius"):
        ZonalMask.sectorial(0.0)
    with pytest.raises(ValueError, match="unknown mask shape"):
        ZonalMask(shape="oval", size=3)


@given(side=st.integers(min_value=1, max_value=12))
def test_rect_mask_dim_is_side_squared(side):
    assert ZonalMask.rectangular(side).dim(12, 12) == side * side


@given(radius=st.floats(min_value=0.5, max_value=10.0),
       rows=st.integers(min_value=4, max_value=12),
       cols=st.integers(min_value=4, max_value=12))
@settings(max_examples=50)
def test_sector_dim_matches_enumeration(radius, rows, cols):
    want = sum(1 for f1 in range(rows) for f2 in range(cols)
               if np.hypot(f1, f2) < radius)
    assert ZonalMask.sectorial(radius).dim(rows, cols) == want


# ---------------------------------------------------------------------------
# Feature extraction


def test_features_row_major_order(face16):
    coeffs = dct2(face16)
    fv = extract_features(coeffs, ZonalMask.rectangular(3))
    manual = [coeffs.values[u, v] for u in range(3) for v in range(3)]
    assert np.array_equal(fv.coeffs, manual)
    assert fv.dim == 9


def test_modulus_reduction(face16):
    coeffs = dft2(face16)
    fv = extract_features(coeffs, ZonalMask.rectangular(4), complex_mode=MODULUS)
    assert fv.dim == 16
    assert fv.coeffs[0] == pytest.approx(abs(coeffs.values[0, 0]))
    assert np.all(fv.coeffs >= 0)


def test_interleave_reduction(face16):
    coeffs = dft2(face16)
    fv = extract_features(coeffs, ZonalMask.rectangular(4), complex_mode=INTERLEAVE)
    assert fv.dim == 32
    assert fv.coeffs[0] == pytest.approx(coeffs.values[0, 0].real)
    assert fv.coeffs[1] == pytest.approx(coeffs.values[0, 0].imag)
    with pytest.raises(ValueError, match="complex_mode"):
        extract_features(coeffs, ZonalMask.rectangular(4), complex_mode="argand")


def test_modulus_noop_for_real_coeffs(face16):
    coeffs = dct2(face16)
    fv = extract_features(coeffs, ZonalMask.rectangular(4))
    block = coeffs.values[:4, :4].ravel()
    assert np.array_equal(fv.coeffs, block)  # sign preserved, no abs


def test_r_low_drops_near_dc(face16):
    coeffs = dct2(face16)
    full = extract_features(coeffs, ZonalMask.rectangular(4))
    banded = extract_features(coeffs, ZonalMask.rectangular(4), r_low=1.5)
    # drops (0,0), (0,1), (1,0), (1,1): all with radius < 1.5
    assert banded.dim == full.dim - 4
    assert banded.coeffs[0] == pytest.approx(coeffs.values[0, 2])


def test_empty_mask_rejected():
    coeffs = dct2(np.ones((6, 6)))
    with pytest.raises(ValueError, match="retains no coefficients"):
        extract_features(coeffs, ZonalMask.sectorial(0.5), r_low=3.0)


def test_mask_apply_reconstruction(face16):
    coeffs = mask_apply(dct2(face16), ZonalMask.rectangular(12))
    recon = idct2(coeffs)
    err = relative_l2_error(face16, recon)
    assert 0.0 < err < 0.5
    # keeping everything reconstructs exactly
    full = idct2(mask_apply(dct2(face16), ZonalMask.rectangular(16)))
    assert relative_l2_error(face16, full) < 1e-12


# ---------------------------------------------------------------------------
# CSV roundtrip


def test_features_csv_roundtrip(tmp_path, face16):
    coeffs = dct2(face16)
    fvs = [extract_features(coeffs, ZonalMask.rectangular(s)) for s in (3, 3)]
    path = tmp_path / "f.csv"
    write_features_csv(fvs, path)
    back = read_features_csv(path)
    assert len(back) == 2
    for orig, rt in zip(fvs, back):
        assert np.array_equal(orig.coeffs, rt.coeffs)  # repr() is lossless
        assert rt.label == orig.label and rt.source == orig.source


def test_features_csv_bytes_match_per_element_repr(tmp_path):
    # the per-element formatter the row join replaced
    values = [-0.0, 1e-300, 5e-324, 1 / 3, -2.5, 1e22, 123456789.125]
    fvs = [FeatureVector(coeffs=np.array(values), source=DCT, label=1, sample_id=2),
           FeatureVector(coeffs=-np.array(values), source=DCT)]
    path = tmp_path / "f.csv"
    write_features_csv(fvs, path)
    want = ["subject,sample,source,dim," + ",".join(f"c{i}" for i in range(len(values)))]
    for fv, ids in zip(fvs, ("1,2", ",")):
        want.append(f"{ids},{DCT},{fv.dim}," + ",".join(repr(float(c)) for c in fv.coeffs))
    assert path.read_bytes() == ("\n".join(want) + "\n").encode()
    assert "-0.0,1e-300,5e-324,0.3333333333333333," in path.read_text()


def test_features_csv_rejects_mixed_dims(tmp_path, face16):
    coeffs = dct2(face16)
    fvs = [extract_features(coeffs, ZonalMask.rectangular(s)) for s in (3, 4)]
    with pytest.raises(ValueError, match="mixed dims"):
        write_features_csv(fvs, tmp_path / "f.csv")
