import numpy as np
import numpy.testing as npt
import pytest

from narekit.errors import (
    InvalidProblem,
    SingularMatrix,
)
from narekit.kernel import (
    eigenvalues,
    frobenius_norm,
    lu_solve,
    read_matrix_market,
    smallest_singular_value,
    spectral_norm,
    thin_qr,
    write_matrix_market,
)


class TestLuSolve:
    def test_identity(self):
        b = np.array([[1.0], [2.0], [3.0]])
        npt.assert_allclose(lu_solve(np.eye(3), b), b)

    def test_diagonal(self):
        x = lu_solve(np.diag([2.0, 4.0]), np.array([[2.0], [8.0]]))
        npt.assert_allclose(x, [[1.0], [2.0]])

    def test_random_roundtrip(self):
        rng = np.random.default_rng(0)
        m = np.eye(8) + 0.2 * rng.standard_normal((8, 8))
        x0 = rng.standard_normal((8, 3))
        x = lu_solve(m, m @ x0)
        assert frobenius_norm(x - x0) <= 1e-12 * frobenius_norm(x0)

    def test_singular_raises(self):
        with pytest.raises(SingularMatrix):
            lu_solve(np.array([[1.0, 2.0], [2.0, 4.0]]), np.eye(2))

    def test_shape_checks(self):
        with pytest.raises(InvalidProblem):
            lu_solve(np.ones((2, 3)), np.ones((2, 1)))
        with pytest.raises(InvalidProblem):
            lu_solve(np.eye(2), np.ones((3, 1)))


class TestThinQr:
    def test_orthonormal_input(self):
        m = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        q, r = thin_qr(m)
        npt.assert_allclose(q, m, atol=1e-15)
        npt.assert_allclose(r, np.eye(2), atol=1e-15)

    def test_single_column(self):
        q, r = thin_qr(np.array([[3.0], [4.0]]))
        npt.assert_allclose(q, [[0.6], [0.8]])
        npt.assert_allclose(r, [[5.0]])

    def test_reconstruction_and_orthogonality(self):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((10, 3))
        q, r = thin_qr(m)
        scale = frobenius_norm(m)
        assert frobenius_norm(q @ r - m) <= 1e-13 * scale
        assert frobenius_norm(q.T @ q - np.eye(3)) <= 1e-13
        assert np.all(np.diag(r) >= 0.0)

    def test_wide_input_rejected(self):
        with pytest.raises(InvalidProblem):
            thin_qr(np.ones((2, 3)))


class TestEigenvalues:
    def test_diagonal(self):
        ev = np.sort(eigenvalues(np.diag([1.0, -2.0, 3.0])).real)
        npt.assert_allclose(ev, [-2.0, 1.0, 3.0], atol=1e-14)

    def test_rotation(self):
        ev = eigenvalues(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        npt.assert_allclose(np.sort(ev.imag), [-1.0, 1.0], atol=1e-14)
        npt.assert_allclose(ev.real, 0.0, atol=1e-14)

    def test_companion(self):
        # companion matrix of z^3 - 6z^2 + 11z - 6 = (z-1)(z-2)(z-3)
        comp = np.array([[6.0, -11.0, 6.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        ev = np.sort(eigenvalues(comp).real)
        npt.assert_allclose(ev, [1.0, 2.0, 3.0], atol=1e-10)

    def test_conjugation_closure(self):
        # a real matrix's eigenvalues come in exactly conjugate pairs
        rng = np.random.default_rng(2)
        ev = eigenvalues(rng.standard_normal((12, 12)))
        assert np.any(ev.imag != 0.0)
        npt.assert_array_equal(np.sort_complex(ev), np.sort_complex(ev.conj()))

    def test_no_dimension_cap(self):
        # no size ceiling: 1040 was refused by the former cap of 1024
        npt.assert_array_equal(eigenvalues(np.eye(1040)), np.ones(1040))


class TestSingularValues:
    def test_diagonal(self):
        assert smallest_singular_value(np.diag([3.0, 1.0, 5.0])) == pytest.approx(1.0)

    def test_orthogonal(self):
        q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((5, 5)))
        assert smallest_singular_value(q) == pytest.approx(1.0, abs=1e-12)

    def test_matches_svd_oracle(self):
        rng = np.random.default_rng(4)
        m = rng.standard_normal((6, 6))
        oracle = np.linalg.svd(m, compute_uv=False)[-1]
        assert smallest_singular_value(m) == pytest.approx(oracle, rel=1e-12)


class TestNorms:
    def test_identity(self):
        m = np.eye(3)
        npt.assert_allclose((frobenius_norm(m), spectral_norm(m)), (np.sqrt(3.0), 1.0))

    def test_row_vector(self):
        m = np.array([[3.0, 4.0]])
        npt.assert_allclose((frobenius_norm(m), spectral_norm(m)), (5.0, 5.0))

    def test_norm_sandwich(self):
        rng = np.random.default_rng(7)
        m = rng.standard_normal((6, 4))
        fro, spec = frobenius_norm(m), spectral_norm(m)
        rank = np.linalg.matrix_rank(m)
        assert spec <= fro + 1e-12
        assert fro <= np.sqrt(rank) * spec + 1e-12


def test_matrix_market_roundtrip(tmp_path):
    rng = np.random.default_rng(8)
    m = rng.standard_normal((5, 3))
    path = tmp_path / "m.mtx"
    write_matrix_market(path, m)
    back = read_matrix_market(path)
    npt.assert_allclose(back, m, atol=1e-15)
    assert path.read_text().startswith("%%MatrixMarket matrix array real general")
