import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg

import narekit as nk
from narekit import kernel
from narekit.errors import (
    InvalidProblem,
    SingularMatrix,
)
from narekit.kernel import (
    eigenvalues,
    frobenius_norm,
    lu_factor,
    lu_factor_cond,
    lu_solve,
    one_norm,
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


class TestLuFactorCond:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_factor_and_condition_estimate(self, dtype):
        rng = np.random.default_rng(9)
        a = (rng.standard_normal((6, 6)) + 3 * np.eye(6)).astype(dtype)
        kept = a.copy()
        factor, cond, inv_norm = lu_factor_cond(a)
        npt.assert_array_equal(a, kept)
        for got, want in zip(factor, lu_factor(a, pivot_tol=0.0), strict=True):
            assert got.tobytes() == want.tobytes()
        exact = np.linalg.cond(a.astype(np.float64), 1)
        assert exact / 3 <= cond <= exact * (1 + 1e-4)
        assert inv_norm == cond / one_norm(a)

    @pytest.mark.parametrize("entry", [np.nan, np.inf])
    def test_non_finite_entry_is_infinitely_conditioned(self, entry):
        a = np.eye(3)
        a[0, 2] = entry
        assert lu_factor_cond(a) == (None, np.inf, np.inf)

    def test_exact_zero_pivot_is_infinitely_conditioned(self):
        assert lu_factor_cond(np.array([[1.0, 2.0], [2.0, 4.0]])) == (None, np.inf, np.inf)


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

    @staticmethod
    def _numpy_qr(m):
        """The sign-fixed np.linalg.qr that thin_qr replaced."""
        q, r = np.linalg.qr(m)
        sign = np.sign(np.diag(r))
        sign[sign == 0] = 1.0
        return q * sign, sign[:, None] * r

    @pytest.mark.parametrize("shape", [(8, 8), (64, 2), (512, 9)])
    def test_matches_numpy_qr(self, shape):
        m = np.random.default_rng(9).standard_normal(shape)
        q, r = thin_qr(m)
        ref_q, ref_r = self._numpy_qr(m)
        assert q.shape == ref_q.shape and r.shape == ref_r.shape
        eps = np.finfo(np.float64).eps
        assert np.abs(q - ref_q).max() <= 8 * eps
        assert np.abs(r - ref_r).max() <= 8 * eps * np.abs(ref_r).max()
        assert np.all(np.tril(r, -1) == 0.0) and np.all(np.diag(r) >= 0.0)

    def test_zero_column(self):
        m = np.random.default_rng(10).standard_normal((6, 3))
        m[:, 1] = 0.0
        q, r = thin_qr(m)
        assert r[1, 1] == 0.0
        ref_q, ref_r = self._numpy_qr(m)
        npt.assert_allclose(r, ref_r, atol=1e-14)
        npt.assert_allclose(q[:, [0, 2]], ref_q[:, [0, 2]], atol=1e-14)
        assert frobenius_norm(q.T @ q - np.eye(3)) <= 1e-14

    @staticmethod
    def _triu_qr(m):
        """thin_qr as written with np.triu and one cast per factor: the
        reference for its bits."""
        m = np.asarray(m)
        a = np.array(m, dtype=np.float64, order="F")
        geqrf, orgqr = scipy.linalg.get_lapack_funcs(("geqrf", "orgqr"), (a,))
        a, tau = geqrf(a, overwrite_a=True)[:2]
        sign = np.sign(a.diagonal())
        sign[sign == 0] = 1.0
        r = np.triu(a[:m.shape[1]]) * sign[:, None]
        q = orgqr(a, tau, overwrite_a=True)[0] * sign
        out = np.result_type(m.dtype, np.float32)
        return q.astype(out, copy=False), r.astype(out, copy=False)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("zero", [None, 0.0, -0.0])
    def test_bitwise_equal_to_triu_formula(self, dtype, zero):
        # every bit of q and r, signed zeros included: a row of R whose
        # diagonal is negative has -0.0 below it, and an exactly zero
        # column has a zero diagonal, whose sign counts as +1
        rng = np.random.default_rng(12)
        negative_zeros = 0
        for cols in range(1, 10):
            for rows in sorted({cols, cols + 1, 64, 512}):
                m = rng.standard_normal((rows, cols)).astype(dtype)
                if zero is not None:
                    m[:, cols // 2] = zero
                q, r = thin_qr(m)
                ref_q, ref_r = self._triu_qr(m)
                assert (q.dtype, r.dtype) == (ref_q.dtype, ref_r.dtype) == (dtype, dtype)
                assert q.shape == ref_q.shape and r.shape == ref_r.shape
                assert q.tobytes() == ref_q.tobytes()
                assert r.tobytes() == ref_r.tobytes()
                negative_zeros += np.signbit(r[np.tril_indices(cols, -1)]).sum()
        assert negative_zeros > 0

    def test_triangle_mask_cache_is_bounded_and_read_only(self):
        mask = kernel._upper(3)
        assert kernel._upper(3) is mask
        npt.assert_array_equal(mask, np.triu(np.ones((3, 3), dtype=bool)))
        with pytest.raises(ValueError):
            mask[1, 0] = True
        for cols in range(1, 40):
            thin_qr(np.ones((cols, cols)))
        info = kernel._upper.cache_info()
        assert info.currsize <= info.maxsize

    @pytest.mark.parametrize("shape", [(8, 8), (64, 2), (512, 9)])
    def test_float32_bit_identical_to_numpy(self, shape):
        # both factor float32 input in float64 and round the factors once
        m = np.random.default_rng(11).standard_normal(shape).astype(np.float32)
        q, r = thin_qr(m)
        ref_q, ref_r = self._numpy_qr(m)
        assert q.dtype == r.dtype == np.float32
        npt.assert_array_equal(q, ref_q)
        npt.assert_array_equal(r, ref_r)


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

    @pytest.mark.parametrize("shape", [(64, 2), (512, 9), (10, 9), (7, 7), (3, 8)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_spectral_norm_matches_svd(self, shape, dtype):
        # thin shapes take the Gram path, square and wide ones the SVD
        m = np.random.default_rng(12).standard_normal(shape).astype(dtype)
        oracle = np.linalg.svd(m.astype(np.float64), compute_uv=False)[0]
        assert abs(spectral_norm(m) - oracle) <= 4 * np.finfo(dtype).eps * oracle

    @pytest.mark.parametrize("shape", [(64, 2), (5, 5), (2, 6)])
    def test_spectral_norm_of_zero(self, shape):
        assert spectral_norm(np.zeros(shape)) == 0.0

    @pytest.mark.parametrize("scale", [1e-300, 1e-160, 1e160, 1e300])
    def test_thin_spectral_norm_at_extreme_scales(self, scale):
        # an unscaled Gram would overflow to inf or underflow to 0 here
        m = np.random.default_rng(15).standard_normal((40, 3)) * scale
        oracle = np.linalg.svd(m, compute_uv=False)[0]
        assert abs(spectral_norm(m) - oracle) <= 4 * np.finfo(np.float64).eps * oracle

    def test_thin_spectral_norm_of_non_finite(self):
        # syevd would read a Gram with nan entries as finite
        m = np.ones((6, 2))
        m[3, 1] = np.nan
        assert np.isnan(spectral_norm(m))
        m[3, 1] = np.inf
        assert spectral_norm(m) == np.inf

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_one_norm_is_numpy_one_norm(self, dtype):
        m = np.random.default_rng(13).standard_normal((9, 5)).astype(dtype)
        got, ref = one_norm(m), np.linalg.norm(m, 1)
        assert got == ref and type(got) is type(ref)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape, order", [((9, 5), "C"), ((96, 96), "C"),
                                              ((97, 96), "C"), ((64, 5), "F")],
                             ids=["lange", "lange-largest", "numpy", "numpy-F"])
    def test_one_norm_bitwise_on_both_paths(self, dtype, shape, order):
        # lange below the size limit and numpy above it or off C order, on
        # magnitudes spread wide enough that the order of the sums shows
        rng = np.random.default_rng(13)
        m = rng.standard_normal(shape) * 10.0 ** rng.uniform(-6, 6, shape)
        m = np.asarray(m.astype(dtype), order=order)
        got, ref = one_norm(m), np.linalg.norm(m, 1)
        assert got == ref and type(got) is type(ref)

    @pytest.mark.parametrize("size", [3, 100])
    def test_one_norm_of_non_finite(self, size):
        m = np.ones((size, size))
        m[1, 2] = np.inf
        assert one_norm(m) == np.inf
        m[2, 1] = np.nan
        assert np.isnan(one_norm(m))
