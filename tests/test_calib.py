import numpy as np
import pytest
from scipy.linalg import lapack

from hbq.calib import (
    build_calib_stats,
    build_hessian,
    damped_cholesky_inverse,
    resolve_damping,
    saliency_matrix,
)
from hbq.errors import ConfigError, NumericError, ShapeError


def test_hessian_diagonal_case():
    h = build_hessian([[1.0, 0.0], [0.0, 2.0]])
    assert np.array_equal(h, np.array([[2, 0], [0, 8]], dtype=np.float32))


def test_hessian_rank_one():
    h = build_hessian([[1.0], [1.0]])
    assert np.array_equal(h, np.full((2, 2), 2.0, dtype=np.float32))


def test_hessian_matches_product_oracle():
    from conftest import reference_product

    rng = np.random.default_rng(7)
    x = rng.normal(size=(8, 32)).astype(np.float32)
    h = build_hessian(x)
    want = reference_product(2.0 * x, x.T).astype(np.float64)
    denom = np.maximum(np.abs(want), 1e-12)
    assert np.max(np.abs(h.astype(np.float64) - want) / denom) < 1e-6


def test_hessian_exactly_symmetric():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(16, 64)).astype(np.float32)
    h = build_hessian(x)
    assert np.max(np.abs(h - h.T)) == 0.0


def test_hessian_bits_match_float64_sum_rounded_once():
    # H is the float64 p + p.T, p = X X^T, rounded to float32 once
    rng = np.random.default_rng(12)
    # 300x700 is large enough for BLAS to block the product: if numpy ever
    # stops mirroring a @ a.T into an exactly symmetric p, 2p != p + p.T
    for m, n in ((1, 1), (3, 7), (16, 64), (65, 33), (300, 700)):
        x = (rng.normal(size=(m, n)) * 10.0 ** rng.uniform(-3, 3, (m, 1)))
        x = x.astype(np.float32)
        x64 = x.astype(np.float64)
        p = x64 @ x64.T
        want = (p + p.T).astype(np.float32)
        assert build_hessian(x).tobytes() == want.tobytes()


def test_hessian_rejects_bad_input():
    with pytest.raises(ShapeError):
        build_hessian(np.zeros((0, 4)))
    with pytest.raises(ShapeError):
        build_hessian([1.0, 2.0])
    with pytest.raises(ShapeError):
        build_hessian(np.array([[1.0, np.inf]]))


def test_damping_auto_rule():
    h = np.diag([2.0, 4.0]).astype(np.float32)
    assert resolve_damping(h, "auto") == pytest.approx(0.03)
    assert resolve_damping(h, None) == pytest.approx(0.03)
    assert resolve_damping(h, 0.5) == 0.5
    assert resolve_damping(h, 0.0) == 0.0
    with pytest.raises(ConfigError):
        resolve_damping(h, -1.0)
    with pytest.raises(ConfigError):
        resolve_damping(h, float("nan"))


def test_cholesky_inverse_diagonal_case():
    u, hinv = damped_cholesky_inverse(4.0 * np.eye(2, dtype=np.float32), 1.0)
    assert np.allclose(u, np.sqrt(0.2) * np.eye(2), atol=1e-6)
    assert u[0, 0] == pytest.approx(0.44721, abs=1e-5)
    assert np.allclose(hinv, [0.2, 0.2], atol=1e-12)


def test_cholesky_inverse_negative_damping_is_a_config_error():
    with pytest.raises(ConfigError, match="damping"):
        damped_cholesky_inverse(np.eye(2, dtype=np.float32), -1.0)


def test_cholesky_inverse_pure_damping():
    u, hinv = damped_cholesky_inverse(np.zeros((3, 3), dtype=np.float32), 1.0)
    assert np.allclose(u, np.eye(3), atol=1e-7)
    assert np.allclose(hinv, np.ones(3), atol=1e-12)


def test_cholesky_inverse_multiply_back():
    rng = np.random.default_rng(13)
    a = rng.normal(size=(16, 16))
    h = (a @ a.T + 16 * np.eye(16)).astype(np.float32)
    lam = 0.1
    u, hinv = damped_cholesky_inverse(h, lam)
    prod = u.astype(np.float64).T @ u.astype(np.float64)
    target = h.astype(np.float64) + lam * np.eye(16)
    assert np.max(np.abs(prod @ target - np.eye(16))) < 1e-4
    # exposed diagonal agrees with a direct inverse oracle
    want_diag = np.diag(np.linalg.inv(target))
    assert np.allclose(hinv, want_diag, rtol=1e-8)


def test_cholesky_inverse_upper_triangular_positive_diag():
    rng = np.random.default_rng(17)
    a = rng.normal(size=(8, 8))
    u, _ = damped_cholesky_inverse((a @ a.T).astype(np.float32), 0.5)
    assert np.array_equal(np.tril(u, -1), np.zeros((8, 8), dtype=np.float32))
    assert np.all(np.diag(u) > 0)


def test_cholesky_inverse_non_pd_names_pivot():
    h = np.array([[1.0, 2.0], [2.0, 1.0]], dtype=np.float32)  # eigvals 3, -1
    with pytest.raises(NumericError, match="pivot 1"):
        damped_cholesky_inverse(h, 0.0)


def test_cholesky_inverse_non_pd_names_column():
    # reversed elimination meets column 2 first: pivot 0 is column 2
    h = np.diag([1.0, 1.0, -1.0]).astype(np.float32)
    with pytest.raises(NumericError, match=r"pivot 0 \(column 2\)"):
        damped_cholesky_inverse(h, 0.0)


def two_factorization_reference(h, lam):
    """The upper factor of (H + lam I)^-1 by the long way round.

    Factor A = H + lam I = U0^T U0, invert T = U0^-1 so that A^-1 = T T^T,
    then factor that inverse again. diag(A^-1) is the row sums of T*T.
    """
    a = np.asarray(h, np.float64) + lam * np.eye(len(h))
    u0, info = lapack.dpotrf(a, lower=0, clean=1)
    assert info == 0
    t, info = lapack.dtrtri(u0, lower=0)
    assert info == 0
    u, info = lapack.dpotrf(t @ t.T, lower=0, clean=1)
    assert info == 0
    return u.astype(np.float32), np.einsum("ij,ij->i", t, t)


@pytest.mark.parametrize("m", [1, 2, 5, 64, 257])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cholesky_inverse_matches_two_factorization_reference(m, seed):
    # activation features with unequal scales, few samples: a wide spread
    # of pivots, as in calibration
    rng = np.random.default_rng([seed, m])
    scale = rng.lognormal(0.0, 1.0, (m, 1))
    x = (rng.standard_normal((m, m + 8)) * scale).astype(np.float32)
    h = build_hessian(x)
    lam = resolve_damping(h, "auto")
    u, hinv = damped_cholesky_inverse(h, lam)
    u_ref, hinv_ref = two_factorization_reference(h, lam)
    assert u.dtype == np.float32 and u.shape == (m, m)
    assert np.array_equal(np.tril(u, -1), np.zeros((m, m), np.float32))
    ulp = np.spacing(np.maximum(np.abs(u), np.abs(u_ref)))
    assert np.all(np.abs(u - u_ref) <= ulp)
    np.testing.assert_allclose(hinv, hinv_ref, rtol=1e-12, atol=0)


def fortran_order_reference(h, lam):
    """damped_cholesky_inverse as it factored before: J (H + lam I) J
    copied straight into Fortran order, which reads H transposed."""
    m = h.shape[0]
    a = np.array(h[::-1, ::-1], dtype=np.float64, order="F")
    a[np.diag_indices(m)] += lam
    c, info = lapack.dpotrf(a, lower=1, clean=1, overwrite_a=1)
    assert info == 0
    c, info = lapack.dtrtri(c, lower=1, overwrite_c=1)
    assert info == 0
    u = c[::-1, ::-1]
    return u.astype(np.float32), np.einsum("ij,ij->j", u, u)


@pytest.mark.parametrize("m", [1, 2, 5, 64, 257])
def test_cholesky_inverse_matches_fortran_order_copy_bitwise(m):
    # H is exactly symmetric, so the transpose of a C-order copy of J H J
    # hands LAPACK the same bytes as a Fortran-order copy
    rng = np.random.default_rng([3, m])
    scale = rng.lognormal(0.0, 1.0, (m, 1))
    h = build_hessian((rng.standard_normal((m, m + 8)) * scale).astype(np.float32))
    lam = resolve_damping(h, "auto")
    u, hinv = damped_cholesky_inverse(h, lam)
    u_ref, hinv_ref = fortran_order_reference(h, lam)
    assert u.tobytes() == u_ref.tobytes()
    assert hinv.tobytes() == hinv_ref.tobytes()


def test_cholesky_inverse_rejects_non_square():
    with pytest.raises(ShapeError):
        damped_cholesky_inverse(np.zeros((2, 3), dtype=np.float32), 1.0)


def test_more_damping_never_breaks_factorization():
    rng = np.random.default_rng(19)
    s = rng.normal(size=(6, 6))
    h = (s + s.T).astype(np.float32)  # symmetric, typically indefinite
    lam = float(1.5 * abs(np.linalg.eigvalsh(h.astype(np.float64)).min()) + 0.1)
    damped_cholesky_inverse(h, lam)  # succeeds
    damped_cholesky_inverse(h, 2 * lam)  # more damping still succeeds
    with pytest.raises(NumericError):
        damped_cholesky_inverse(h, 0.0)  # undamped indefinite fails


def test_build_calib_stats_fields():
    rng = np.random.default_rng(23)
    x = rng.normal(size=(12, 48)).astype(np.float32)
    stats = build_calib_stats(x)
    h = build_hessian(x)
    assert stats.damping == pytest.approx(0.01 * float(np.mean(np.diag(h))))
    assert stats.chol_inv.shape == (12, 12)
    assert stats.hinv_diag.shape == (12,)
    assert np.all(stats.hinv_diag > 0)
    prod = stats.chol_inv.astype(np.float64).T @ stats.chol_inv.astype(np.float64)
    target = h.astype(np.float64) + stats.damping * np.eye(12)
    assert np.max(np.abs(prod @ target - np.eye(12))) < 1e-4


def test_saliency_unit_diag_squares_weights():
    w = np.array([[1.0, -2.0], [3.0, 0.5]], dtype=np.float32)
    s = saliency_matrix(w, [1.0, 1.0])
    assert np.array_equal(s, w.astype(np.float64) ** 2)


def test_saliency_known_entry():
    s = saliency_matrix([[2.0]], [2.0])
    assert s[0, 0] == 1.0


def test_saliency_matches_elementwise_oracle():
    rng = np.random.default_rng(29)
    w = rng.normal(size=(8, 8)).astype(np.float32)
    d = rng.uniform(0.5, 2.0, 8)
    s = saliency_matrix(w, d)
    for i in range(8):
        for j in range(8):
            want = float(w[i, j]) ** 2 / float(d[j]) ** 2
            assert s[i, j] == pytest.approx(want, rel=1e-9)


def test_saliency_doubling_weight_quadruples():
    rng = np.random.default_rng(31)
    w = rng.normal(size=(4, 4)).astype(np.float32)
    d = rng.uniform(0.5, 2.0, 4)
    assert np.array_equal(saliency_matrix(2.0 * w, d), 4.0 * saliency_matrix(w, d))


def test_saliency_rejects_bad_diag():
    w = np.ones((2, 2), dtype=np.float32)
    with pytest.raises(NumericError):
        saliency_matrix(w, [1.0, 0.0])
    with pytest.raises(NumericError):
        saliency_matrix(w, [1.0, -2.0])
    with pytest.raises(ShapeError):
        saliency_matrix(w, [1.0, 1.0, 1.0])
