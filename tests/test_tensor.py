import numpy as np
import pytest

from hbq.errors import ShapeError
from hbq.tensor import as_matrix, frobenius_error


def test_as_matrix_accepts_lists_and_sets_dtype():
    m = as_matrix([[1, 2], [3, 4]])
    assert m.dtype == np.float32
    assert m.flags["C_CONTIGUOUS"]
    assert m.shape == (2, 2)


def test_as_matrix_rejects_wrong_rank():
    with pytest.raises(ShapeError):
        as_matrix([1.0, 2.0, 3.0])
    with pytest.raises(ShapeError):
        as_matrix(np.zeros((2, 2, 2)))


def test_as_matrix_rejects_empty():
    with pytest.raises(ShapeError):
        as_matrix(np.zeros((0, 4)))


def test_as_matrix_finite_check():
    bad = np.array([[1.0, np.nan]], dtype=np.float32)
    as_matrix(bad)  # allowed when not checking
    with pytest.raises(ShapeError):
        as_matrix(bad, check_finite=True)


def test_frobenius_identity_and_triangle_values():
    a = np.array([[3.0, 4.0]])
    assert frobenius_error(a, a) == 0.0
    assert frobenius_error(a, np.zeros((1, 2))) == pytest.approx(5.0, abs=0.0)


def test_frobenius_matches_elementwise_oracle():
    rng = np.random.default_rng(17)
    a = rng.normal(size=(16, 16)).astype(np.float32)
    b = rng.normal(size=(16, 16)).astype(np.float32)
    want = np.sqrt(
        sum(
            (float(a[i, j]) - float(b[i, j])) ** 2
            for i in range(16)
            for j in range(16)
        )
    )
    assert frobenius_error(a, b) == pytest.approx(want, rel=1e-9)


def test_frobenius_symmetry_and_triangle():
    rng = np.random.default_rng(23)
    for _ in range(20):
        a = rng.normal(size=(6, 5)).astype(np.float32)
        b = rng.normal(size=(6, 5)).astype(np.float32)
        c = rng.normal(size=(6, 5)).astype(np.float32)
        assert frobenius_error(a, b) == frobenius_error(b, a)
        assert frobenius_error(a, c) <= frobenius_error(a, b) + frobenius_error(b, c) + 1e-12


def test_frobenius_shape_error():
    with pytest.raises(ShapeError):
        frobenius_error(np.zeros((2, 2)), np.zeros((2, 3)))
