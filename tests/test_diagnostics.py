import json

from hypothesis import given, settings, strategies as st
import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg

import narekit as nk
from narekit import diagnostics
from narekit.diagnostics import _complete_basis, stable_basis
from narekit.errors import (
    InvalidProblem,
    MatchFailure,
    NoConvergence,
    NotInvariant,
)
from narekit.kernel import frobenius_norm
from oracles import solution_distance_bound


class TestGap:
    def test_two_by_two(self):
        h = nk.LinearizingMatrix(np.diag([1.0, -1.0]), 1, 1)
        assert nk.gap_of(h) == pytest.approx(2.0)

    def test_critical_cayley_gap_is_one(self):
        p = nk.transport_problem(nk.TransportSpec(n=4, alpha=0.0, c=1.0))
        h = nk.build_h(p)
        assert nk.cayley_gap(h, nk.gamma_star(p)) == pytest.approx(1.0, abs=1e-6)

    def test_cayley_gap_at_most_one_for_mnare(self):
        for alpha in (0.3, 0.01):
            p = nk.transport_problem(nk.TransportSpec(n=8, alpha=alpha, c=0.9))
            h = nk.build_h(p)
            assert nk.cayley_gap(h, nk.gamma_star(p)) <= 1.0 + 1e-12

    def test_cayley_gap_scaling_invariance(self):
        # scaling H by a factor and gamma by the same factor leaves the
        # Cayley gap unchanged, since C_{t*gamma}(t*z) = C_gamma(z)
        p = nk.transport_problem(nk.TransportSpec.near_critical(8, 1e-3))
        h = nk.build_h(p)
        gamma = nk.gamma_star(p)
        base = nk.cayley_gap(h, gamma)
        for t in (0.25, 7.0):
            scaled = nk.LinearizingMatrix(t * h.H, h.n, h.m)
            assert nk.cayley_gap(scaled, t * gamma) == pytest.approx(base, rel=1e-12)

    @pytest.mark.parametrize("gamma", [0.0, -1.0, np.inf, np.nan])
    def test_bad_cayley_parameter_raises(self, gamma):
        # gamma = -1 used to give a "rate" of 607.9 here, gamma = nan a nan
        h = nk.build_h(nk.transport_problem(nk.TransportSpec.near_critical(8, 1e-3)))
        with pytest.raises(InvalidProblem):
            nk.cayley_gap(h, gamma)
        with pytest.raises(InvalidProblem):
            nk.report_for(h, gamma)


class TestSep:
    def test_scalar(self):
        assert nk.sep_f([[2.0]], [[5.0]]) == pytest.approx(3.0)

    def test_diagonal_rule(self):
        assert nk.sep_f(np.diag([1.0, 2.0]), np.diag([4.0, 7.0])) == pytest.approx(2.0)

    def test_nonnormal_much_smaller_than_gap(self):
        # eigenvalue distance is 0 - 0... use distinct: [[1,100],[0,1]] vs [[0]]
        # gap = 1 but sep collapses under the large off-diagonal coupling
        m = np.array([[1.0, 100.0], [0.0, 1.0]])
        n = np.array([[0.0]])
        assert nk.sep_f(m, n) < 0.05 < 1.0

    def test_block_triangular_dominance(self):
        # sep(A11, B) >= sep(A, B) when A is block upper triangular
        rng = np.random.default_rng(30)
        for _ in range(20):
            a11 = rng.standard_normal((3, 3))
            a12 = rng.standard_normal((3, 3))
            a22 = rng.standard_normal((3, 3))
            a = np.block([[a11, a12], [np.zeros((3, 3)), a22]])
            b = rng.standard_normal((3, 3))
            sep_a = nk.sep_f(a, b)
            assert nk.sep_f(a11, b) >= sep_a - 1e-10
            assert nk.sep_f(a22, b) >= sep_a - 1e-10


def kron_oracle(m, n):
    """Matrix of X -> M X - X N under column stacking: I (x) M - N^T (x) I."""
    m = np.asarray(m, dtype=np.float64)
    n = np.asarray(n, dtype=np.float64)
    return np.kron(np.eye(len(n)), m) - np.kron(n.T, np.eye(len(m)))


def sep_oracle(m, n):
    return float(np.linalg.svd(kron_oracle(m, n), compute_uv=False)[-1])


class TestKronOracle:
    def test_scalar(self):
        npt.assert_allclose(kron_oracle([[3.0]], [[1.0]]), [[2.0]])

    def test_diagonal(self):
        op = kron_oracle(np.diag([1.0, 2.0]), [[4.0]])
        npt.assert_allclose(op, np.diag([-3.0, -2.0]))

    def test_vec_identity(self):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((3, 3))
        n = rng.standard_normal((3, 3))
        x = rng.standard_normal((3, 3))
        lhs = kron_oracle(m, n) @ x.flatten(order="F")
        rhs = (m @ x - x @ n).flatten(order="F")
        npt.assert_allclose(lhs, rhs, atol=1e-12)


def _sep_pair(rng, p, q, kind):
    if kind == "normal":
        pair = []
        for dim in (p, q):
            u, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
            pair.append(u @ np.diag(rng.uniform(-3.0, 3.0, dim)) @ u.T)
        return pair
    m, n = rng.standard_normal((p, p)), rng.standard_normal((q, q))
    if kind == "block_triangular":
        m[(p + 1) // 2:, : (p + 1) // 2] = 0.0
        n[(q + 1) // 2:, : (q + 1) // 2] = 0.0
    return m, n


@settings(max_examples=300, deadline=None)
@given(p=st.integers(1, 6), q=st.integers(1, 6),
       kind=st.sampled_from(["random", "normal", "block_triangular"]),
       dtype=st.sampled_from([np.float64, np.float32]),
       seed=st.integers(0, 2**32 - 1))
def test_sep_f_matches_kron_oracle(p, q, kind, dtype, seed):
    m, n = (a.astype(dtype) for a in _sep_pair(np.random.default_rng(seed), p, q, kind))
    got, want = nk.sep_f(m, n), sep_oracle(m, n)
    scale = frobenius_norm(m) + frobenius_norm(n)
    assert got >= want - 1e-12 * scale
    # the SVD oracle itself is only accurate to about eps * ||T||
    assert abs(got - want) <= 1e-10 * want + np.finfo(np.float64).eps * scale


@settings(max_examples=200, deadline=None)
@given(p=st.integers(1, 6), q=st.integers(1, 6), lower=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_sep_f_common_eigenvalue(p, q, lower, seed):
    # triangular M and N with the same diagonal entry lam share that
    # eigenvalue exactly, so the operator is singular
    rng = np.random.default_rng(seed)
    m, n = np.triu(rng.standard_normal((p, p))), np.triu(rng.standard_normal((q, q)))
    lam = rng.standard_normal()
    i, j = rng.integers(p), rng.integers(q)
    m[i, i], n[j, j] = lam, lam
    if lower:
        n = n.T.copy()
    scale = frobenius_norm(m) + frobenius_norm(n)
    assert nk.sep_f(m, n) <= np.finfo(np.float64).eps * scale * p * q


class TestSepIteration:
    def test_sigma_min_is_operator_minimum(self):
        # sep_f is the minimum of ||MX - XN||_F over unit-Frobenius X,
        # probed by random sampling plus the oracle's singular-vector minimizer
        rng = np.random.default_rng(6)
        for dim in (2, 3):
            m = rng.standard_normal((dim, dim))
            n = rng.standard_normal((dim, dim))
            sep = nk.sep_f(m, n)
            for _ in range(200):
                x = rng.standard_normal((dim, dim))
                x /= frobenius_norm(x)
                assert frobenius_norm(m @ x - x @ n) >= sep - 1e-12
            _, _, vt = np.linalg.svd(kron_oracle(m, n))
            xmin = vt[-1].reshape((dim, dim), order="F")
            assert frobenius_norm(m @ xmin - xmin @ n) == pytest.approx(sep, rel=1e-10)

    def test_no_svd(self, monkeypatch):
        calls = []

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(np.linalg, "svd", counted(np.linalg.svd))
        monkeypatch.setattr(scipy.linalg, "svd", counted(scipy.linalg.svd))
        rng = np.random.default_rng(7)
        sep = nk.sep_f(rng.standard_normal((32, 32)), rng.standard_normal((32, 32)))
        assert sep > 0.0
        assert calls == []

    def test_step_cap_raises_with_diagnostics(self, monkeypatch):
        monkeypatch.setattr(diagnostics, "SEP_MAX_STEPS", 1)
        rng = np.random.default_rng(8)
        with pytest.raises(NoConvergence) as info:
            nk.sep_f(rng.standard_normal((3, 3)), rng.standard_normal((3, 3)))
        assert info.value.diagnostics["steps"] == 1
        assert info.value.diagnostics["estimate"] > 0.0

    def test_rejects_non_square(self):
        with pytest.raises(InvalidProblem):
            nk.sep_f(np.ones((2, 3)), np.eye(2))


class TestRelsep:
    def test_normal_block_diagonal_equals_eigengap(self):
        rng = np.random.default_rng(31)
        q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        d1 = np.diag([1.0, 2.0])
        d2 = np.diag([5.0, 8.0, 11.0])
        h = q @ scipy.linalg.block_diag(d1, d2) @ q.T
        basis = q[:, :2]
        relsep = nk.relsep_of_subspace(h, basis)
        assert relsep * frobenius_norm(h) == pytest.approx(3.0, rel=1e-8)

    def test_not_invariant_rejected(self):
        rng = np.random.default_rng(32)
        h = rng.standard_normal((6, 6))
        basis, _ = np.linalg.qr(rng.standard_normal((6, 2)))
        with pytest.raises(NotInvariant):
            nk.relsep_of_subspace(h, basis)

    def test_schur_basis_is_invariant(self):
        rng = np.random.default_rng(33)
        h = rng.standard_normal((8, 8))
        w = stable_basis(h)
        # must pass the invariance check inside relsep_of_subspace
        assert nk.relsep_of_subspace(h, w) > 0.0

    def test_complete_basis_is_unitary(self):
        rng = np.random.default_rng(34)
        basis, _ = np.linalg.qr(rng.standard_normal((6, 2)))
        q = _complete_basis(basis)
        npt.assert_allclose(q.T @ q, np.eye(6), atol=1e-12)
        npt.assert_allclose(q[:, :2], basis)


class TestSubspaceDistance:
    def test_identical(self):
        b = np.eye(3)[:, :2]
        assert nk.subspace_distance(b, b) == 0.0

    def test_orthogonal_lines(self):
        e1 = np.array([[1.0], [0.0]])
        e2 = np.array([[0.0], [1.0]])
        assert nk.subspace_distance(e1, e2) == pytest.approx(1.0)

    def test_principal_angle(self):
        theta = np.pi / 6.0
        b1 = np.array([[1.0], [0.0]])
        b2 = np.array([[np.cos(theta)], [np.sin(theta)]])
        assert nk.subspace_distance(b1, b2) == pytest.approx(np.sin(theta), abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidProblem):
            nk.subspace_distance(np.eye(3)[:, :1], np.eye(4)[:, :1])

    @staticmethod
    def _projector_distance(b1, b2):
        # the dense reference: spectral norm of the projector difference
        return np.linalg.norm(b1 @ b1.T - b2 @ b2.T, 2)

    def test_matches_projector_formula(self):
        rng = np.random.default_rng(35)
        for _ in range(40):
            dim = int(rng.integers(8, 65))
            k = int(rng.integers(1, 5))
            b1, _ = np.linalg.qr(rng.standard_normal((dim, k)))
            b2, _ = np.linalg.qr(rng.standard_normal((dim, k)))
            assert abs(nk.subspace_distance(b1, b2)
                       - self._projector_distance(b1, b2)) <= 1e-13

    def test_nearly_equal_bases(self):
        # B2 = B1 cos(theta) + W sin(theta) with W orthonormal and
        # orthogonal to B1: every principal angle is theta
        rng = np.random.default_rng(36)
        for dist in np.logspace(-14, -6, 9):
            dim = int(rng.integers(8, 65))
            k = int(rng.integers(1, 5))
            b1, _ = np.linalg.qr(rng.standard_normal((dim, k)))
            w = rng.standard_normal((dim, k))
            w, _ = np.linalg.qr(w - b1 @ (b1.T @ w))
            theta = np.arcsin(dist)
            b2 = np.cos(theta) * b1 + np.sin(theta) * w
            got = nk.subspace_distance(b1, b2)
            assert abs(got - self._projector_distance(b1, b2)) <= 1e-13
            assert got == pytest.approx(dist, rel=1e-6, abs=1e-15)

    def test_unequal_widths(self):
        # projectors of different ranks are at distance 1 (the value the
        # dense projector formula gives)
        rng = np.random.default_rng(41)
        b1, _ = np.linalg.qr(rng.standard_normal((10, 1)))
        b2, _ = np.linalg.qr(rng.standard_normal((10, 3)))
        e = np.eye(5)
        for x, y in ((b1, b2), (e[:, :1], e[:, :2])):
            assert nk.subspace_distance(x, y) == pytest.approx(1.0, abs=1e-13)
            assert nk.subspace_distance(y, x) == pytest.approx(1.0, abs=1e-13)


class TestSolutionDistanceBound:
    def test_zero_solutions(self):
        x = np.zeros((3, 4))  # n = 4 columns, so the bound is n * d
        assert solution_distance_bound(x, x, 0.5) == pytest.approx(4 * 0.5)

    def test_dominates_actual_difference(self):
        rng = np.random.default_rng(35)
        x = rng.standard_normal((3, 3))
        assert solution_distance_bound(x, x, 0.0) == 0.0


class TestDeltaCentral:
    def test_diagonal(self):
        h = nk.LinearizingMatrix(np.diag([0.1, 2.0, -0.1, -3.0]), 2, 2)
        assert nk.delta_central(h, [0.1, -0.1]) == pytest.approx(1.9)

    def test_match_failure(self):
        h = nk.LinearizingMatrix(np.diag([1.0, -1.0]), 1, 1)
        with pytest.raises(MatchFailure):
            nk.delta_central(h, [5.0])


class TestCondUv:
    def test_identical_bases(self):
        b = np.eye(4)[:, :2]
        assert nk.cond_uv(b, b) == pytest.approx(1.0)

    def test_one_dimensional_angle(self):
        theta = 0.4
        u = np.array([[1.0], [0.0]])
        v = np.array([[np.cos(theta)], [np.sin(theta)]])
        assert nk.cond_uv(u, v) == pytest.approx(1.0 / np.cos(theta), rel=1e-12)

    def test_orthogonal_bases_rejected(self):
        # a measurement, not a refusal: inf for an exactly singular U^T V,
        # which CentralSubspaces then refuses
        assert nk.cond_uv(np.eye(4)[:, :2], np.eye(4)[:, 2:]) == np.inf


class TestShiftImprovesGaps:
    def test_gap_up_cayley_down(self):
        p = nk.transport_problem(nk.TransportSpec.near_critical(16, 1e-6))
        h = nk.build_h(p)
        gamma = nk.gamma_star(p)
        _, cs2, plan, _ = nk.sushi_solve(p)
        shifted = nk.build_shifted_h(h, cs2, plan.s)
        assert nk.gap_of(shifted) > nk.gap_of(h)
        assert nk.cayley_gap(shifted, gamma) < nk.cayley_gap(h, gamma)

    def test_shifted_matrix_has_its_own_spectrum(self):
        p = nk.transport_problem(nk.TransportSpec.near_critical(16, 1e-6))
        h = nk.build_h(p)
        before = nk.gap_of(h)  # H's spectrum is read, and kept, first
        _, cs, plan, _ = nk.sushi_solve(p)
        shifted = nk.build_shifted_h(h, cs, plan.s)
        assert nk.ordered_eigenvalues(shifted) is not nk.ordered_eigenvalues(h)
        assert nk.gap_of(shifted) != before == nk.gap_of(h)


class TestReport:
    # the Table-1 problems; at n = 4, beta = 1e-3 the pair's inverse
    # iteration stalls in a transient before its basis is invariant
    @pytest.mark.parametrize("n, beta", [(8, 1e-3), (4, 1e-3), (4, 1e-6), (4, 1e-12)])
    def test_report_for_full(self, n, beta):
        p = nk.transport_problem(nk.TransportSpec.near_critical(n, beta))
        h = nk.build_h(p)
        cs = nk.compute_central_pair(h.H, 2)
        report = nk.report_for(h, nk.gamma_star(p),
                               stable_basis=stable_basis(h.H),
                               central_pair=cs)
        assert report.gap > 0.0
        assert report.cayley_gap <= 1.0 + 1e-12
        assert report.sep_f_stable <= report.gap + 1e-10
        assert report.relsep_central > report.relsep_stable
        assert report.cond_uv >= 1.0
        payload = json.loads(report.to_json())
        assert payload["gap"] == report.gap
        table = report.to_table()
        assert len(table.splitlines()) == 2

    def test_transport_n128_stable_sep(self):
        # the stable pair is 128 x 128 each: a 16384-square Kronecker matrix
        p = nk.transport_problem(nk.TransportSpec.near_critical(128, 1e-6))
        h = nk.build_h(p)
        report = nk.report_for(h, nk.gamma_star(p), stable_basis=stable_basis(h.H))
        assert 0.0 < report.sep_f_stable <= report.gap

    def test_one_spectrum_of_h(self, monkeypatch):
        p = nk.transport_problem(nk.TransportSpec.near_critical(8, 1e-3))
        h = nk.build_h(p)
        cs = nk.compute_central_pair(h.H, 2)
        basis = stable_basis(h.H)
        calls = []
        eigvals = np.linalg.eigvals

        def counted(a):
            calls.append(np.shape(a))
            return eigvals(a)

        monkeypatch.setattr(np.linalg, "eigvals", counted)
        report = nk.report_for(h, nk.gamma_star(p), basis, cs)
        assert calls.count(h.H.shape) == 1
        assert report.gap == nk.gap_of(h)
        assert report.cayley_gap == nk.cayley_gap(h, nk.gamma_star(p))
        assert report.delta_central == nk.delta_central(h, cs.central_eigs)

    def test_one_spectrum_for_all_three_metrics(self, monkeypatch):
        p = nk.transport_problem(nk.TransportSpec.near_critical(8, 1e-3))
        h = nk.build_h(p)
        cs = nk.compute_central_pair(h.H, 2)
        calls = []
        eigvals = np.linalg.eigvals

        def counted(a):
            calls.append(np.shape(a))
            return eigvals(a)

        monkeypatch.setattr(np.linalg, "eigvals", counted)
        nk.gap_of(h)
        nk.cayley_gap(h, nk.gamma_star(p))
        nk.delta_central(h, cs.central_eigs)
        assert calls.count(h.H.shape) == 1

    def test_unsplit_spectrum_refused(self):
        # H = diag(-2, -1): both eigenvalues stable, where n = 1 must not be;
        # the Cayley gap of such a spectrum is no doubling rate
        p = nk.NareProblem(A=[[1.0]], B=[[0.0]], C=[[0.0]], D=[[-2.0]])
        with pytest.raises(InvalidProblem, match="does not split"):
            nk.report_for(nk.build_h(p), nk.gamma_star(p))

    def test_cond_uv_read_from_central_pair(self, monkeypatch):
        p = nk.transport_problem(nk.TransportSpec.near_critical(8, 1e-3))
        h = nk.build_h(p)
        cs = nk.compute_central_pair(h.H, 2)
        calls = []
        svd = np.linalg.svd

        def counted(*args, **kwargs):
            calls.append(np.shape(args[0]))
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        report = nk.report_for(h, nk.gamma_star(p), central_pair=cs)
        assert calls == []
        assert report.cond_uv == cs.cond_uv == nk.cond_uv(cs.U, cs.V)

    def test_to_table_skips_missing(self):
        report = nk.DiagnosticsReport(gap=1.0, cayley_gap=0.5)
        head = report.to_table().splitlines()[0]
        assert "sep(W)" not in head
