import numpy as np
import pytest

from hbq.errors import ShapeError
from hbq.haar import Axis, HaarCoeffs, haar_matrix, inverse_haar_matrix


def haar_forward_1d(v):
    """(low, high) of one sequence, through the ROW matrix transform."""
    c = haar_matrix(np.asarray(v, np.float32).reshape(1, -1), Axis.ROW)
    return c.mat[0, : c.band_split], c.mat[0, c.band_split :]


def haar_inverse_1d(low, high):
    """Synthesis of one (low, high) pair, through the ROW matrix inverse."""
    lo = np.asarray(low, np.float32)
    c = np.concatenate([lo, np.asarray(high, np.float32)]).reshape(1, -1)
    return inverse_haar_matrix(HaarCoeffs(c, Axis.ROW, lo.shape[0]))[0]


def test_forward_known_vector():
    low, high = haar_forward_1d([2.0, 4.0, 6.0, 10.0])
    assert np.array_equal(low, np.array([3.0, 8.0], dtype=np.float32))
    assert np.array_equal(high, np.array([-1.0, -2.0], dtype=np.float32))


def test_forward_constant_high_band_exactly_zero():
    for c in (0.0, 1.0, -3.5, 1e-3):
        low, high = haar_forward_1d([c, c, c, c])
        assert np.array_equal(low, np.full(2, c, dtype=np.float32))
        assert np.all(high == 0.0)


def test_forward_rejects_odd_and_short():
    with pytest.raises(ShapeError):
        haar_forward_1d([1.0, 2.0, 3.0])
    with pytest.raises(ShapeError):
        haar_forward_1d([1.0])
    with pytest.raises(ShapeError):
        haar_forward_1d([])


def test_energy_identity():
    # direct-summation oracle: sum(v^2) == 2*(sum(l^2) + sum(h^2)),
    # from (a+b)^2/4 + (a-b)^2/4 == (a^2 + b^2)/2
    rng = np.random.default_rng(5)
    v = rng.normal(size=128).astype(np.float32)
    low, high = haar_forward_1d(v)
    lhs = float(np.sum(v.astype(np.float64) ** 2))
    rhs = 2.0 * float(
        np.sum(low.astype(np.float64) ** 2) + np.sum(high.astype(np.float64) ** 2)
    )
    assert lhs == pytest.approx(rhs, rel=1e-6)


def test_inverse_known_vector():
    v = haar_inverse_1d([3.0, 8.0], [-1.0, -2.0])
    assert np.array_equal(v, np.array([2.0, 4.0, 6.0, 10.0], dtype=np.float32))
    assert np.array_equal(
        haar_inverse_1d([7.5], [0.0]), np.array([7.5, 7.5], dtype=np.float32)
    )


def test_inverse_rejects_mismatch_and_empty():
    with pytest.raises(ShapeError):
        haar_inverse_1d([1.0, 2.0], [1.0])
    with pytest.raises(ShapeError):
        haar_inverse_1d([], [])


def test_roundtrip_many_vectors():
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(1000):
        v = rng.normal(scale=3.0, size=128).astype(np.float32)
        back = haar_inverse_1d(*haar_forward_1d(v))
        worst = max(worst, float(np.max(np.abs(back - v))))
    assert worst <= 1e-6


def test_linearity():
    rng = np.random.default_rng(13)
    for _ in range(50):
        u = rng.normal(size=64).astype(np.float32)
        v = rng.normal(size=64).astype(np.float32)
        a, b = rng.normal(size=2)
        lo1, hi1 = haar_forward_1d(a * u + b * v)
        lo_u, hi_u = haar_forward_1d(u)
        lo_v, hi_v = haar_forward_1d(v)
        assert np.allclose(lo1, a * lo_u + b * lo_v, atol=1e-5)
        assert np.allclose(hi1, a * hi_u + b * hi_v, atol=1e-5)


def test_matrix_row_example():
    m = [[2.0, 4.0, 6.0, 10.0], [1.0, 1.0, 1.0, 1.0]]
    c = haar_matrix(m, Axis.ROW)
    assert c.band_split == 2
    assert c.axis is Axis.ROW
    want = np.array([[3, 8, -1, -2], [1, 1, 0, 0]], dtype=np.float32)
    assert np.array_equal(c.mat, want)


def test_matrix_col_example():
    m = [[2.0], [4.0], [6.0], [10.0]]
    c = haar_matrix(m, Axis.COL)
    assert c.band_split == 2
    want = np.array([[3], [8], [-1], [-2]], dtype=np.float32)
    assert np.array_equal(c.mat, want)


def test_matrix_roundtrip_both_axes():
    rng = np.random.default_rng(21)
    m = rng.normal(scale=2.0, size=(64, 128)).astype(np.float32)
    for axis in (Axis.ROW, Axis.COL):
        back = inverse_haar_matrix(haar_matrix(m, axis))
        assert np.max(np.abs(back - m)) <= 1e-6


def test_matrix_rejects_odd_axis():
    with pytest.raises(ShapeError):
        haar_matrix(np.zeros((2, 5), dtype=np.float32), Axis.ROW)
    with pytest.raises(ShapeError):
        haar_matrix(np.zeros((5, 2), dtype=np.float32), Axis.COL)
    # the untransformed axis may be odd
    haar_matrix(np.zeros((5, 2), dtype=np.float32), Axis.ROW)
    haar_matrix(np.zeros((2, 5), dtype=np.float32), Axis.COL)


def test_coeffs_validate_band_split():
    with pytest.raises(ShapeError):
        HaarCoeffs(mat=np.zeros((2, 4), dtype=np.float32), axis=Axis.ROW, band_split=1)
    with pytest.raises(ShapeError):
        HaarCoeffs(mat=np.zeros((2, 5), dtype=np.float32), axis=Axis.ROW, band_split=2)
    c = HaarCoeffs(mat=np.zeros((2, 4), dtype=np.float32), axis=Axis.ROW, band_split=2)
    assert c.mat.dtype == np.float32
