import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg

import narekit as nk
from narekit.errors import (
    InvalidProblem,
    SingularMatrix,
)
from narekit.kernel import (
    eigenvalues,
    frobenius_norm,
    lu_factor,
    lu_solve,
    smallest_singular_value,
    spectral_norm,
    thin_qr,
)


class TestLuFactor:
    def test_singular_raises(self):
        with pytest.raises(SingularMatrix):
            lu_factor(np.array([[1.0, 2.0], [2.0, 4.0]]))

    def test_non_square_raises(self):
        with pytest.raises(InvalidProblem):
            lu_factor(np.ones((2, 3)))
        with pytest.raises(InvalidProblem):
            lu_factor(np.ones((0, 0)))

    def test_non_finite_raises_given_error(self):
        with pytest.raises(SingularMatrix):
            lu_factor(np.array([[1.0, np.inf], [0.0, 1.0]]))
        with pytest.raises(SingularMatrix):
            lu_factor(np.array([[np.nan]]))

    def test_zero_pivot_tol_accepts_nearly_singular(self):
        m = np.diag([1.0, 1e-17])
        with pytest.raises(SingularMatrix):
            lu_factor(m)
        lu, _ = lu_factor(m, pivot_tol=0.0)
        assert abs(lu[1, 1]) == 1e-17

    def test_guards_raise_the_given_error(self):
        with pytest.raises(SingularMatrix, match="non-finite"):
            lu_factor(np.array([[1.0, np.nan], [0.0, 1.0]]))
        exact = np.array([[1.0, 2.0], [2.0, 4.0]])  # second pivot exactly 0
        with pytest.raises(SingularMatrix, match="smallest pivot 0.000e"):
            lu_factor(exact, pivot_tol=0.0)
        with pytest.raises(SingularMatrix, match="smallest pivot 1.000e-03"):
            lu_factor(np.diag([1.0, 1e-3]), pivot_tol=1e-2)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_input_unchanged(self, order):
        a = np.asarray(np.random.default_rng(8).standard_normal((5, 5)), order=order)
        kept = a.copy()
        lu, _ = lu_factor(a)
        npt.assert_array_equal(a, kept)
        assert not np.shares_memory(lu, a)


class TestLuSolve:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("trans", [0, 1])
    @pytest.mark.parametrize("shape", [(6,), (6, 3)])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_bit_identical_to_scipy(self, dtype, trans, shape, order):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((6, 6)).astype(dtype)
        b = np.asarray(rng.standard_normal(shape).astype(dtype), order=order)
        kept = b.copy()
        factor = lu_factor(a)
        ref_factor = scipy.linalg.lu_factor(a)
        for got, ref in zip(factor, ref_factor):
            assert got.dtype == ref.dtype
            npt.assert_array_equal(got, ref)
        x = lu_solve(factor, b, trans=trans)
        ref = scipy.linalg.lu_solve(ref_factor, b, trans=trans)
        assert x.dtype == ref.dtype and x.shape == ref.shape
        npt.assert_array_equal(x, ref)
        npt.assert_array_equal(b, kept)

    def test_precision_from_lu_and_b(self):
        a = np.array([[4.0, 1.0], [1.0, 3.0]], dtype=np.float32)
        b = np.array([1.0, 1.0 / 3.0])
        factor = lu_factor(a)
        x = lu_solve(factor, b)
        assert x.dtype == np.float64
        npt.assert_array_equal(x, scipy.linalg.lu_solve(factor, b))

    def test_solvers_bypass_scipy_lu_wrappers(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("scipy.linalg LU wrapper called")

        monkeypatch.setattr(scipy.linalg, "lu_factor", refuse)
        monkeypatch.setattr(scipy.linalg, "lu_solve", refuse)
        p = nk.transport_problem(nk.TransportSpec.near_critical(16, 1e-6))
        assert nk.sda_solve(p).residual <= 1e-12
        assert nk.sushi_solve(p)[0].residual <= 1e-12


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
