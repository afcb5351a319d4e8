import dataclasses

from hypothesis import given, settings, strategies as st
import numpy as np
import numpy.testing as npt
import pytest

import narekit as nk
from narekit import core
from narekit.core import ordered_eigenvalues, require_mmatrix
from narekit.errors import InvalidProblem, NoConvergence, SingularMatrix
from narekit.kernel import frobenius_norm, lu_factor
from oracles import central_real_pair, relative_error


def scalar_problem(a, b, c, d):
    return nk.NareProblem(A=[[a]], B=[[b]], C=[[c]], D=[[d]])


def scalar_solution(a, b, c, d):
    """Minimal root of c x^2 - (a + d) x + b = 0 by the quadratic formula."""
    s = a + d
    disc = np.sqrt(s * s - 4.0 * b * c)
    return (s - disc) / (2.0 * c)


class TestProblemModel:
    def test_dimension_checks(self):
        with pytest.raises(InvalidProblem):
            nk.NareProblem(A=np.eye(2), B=np.ones((2, 2)), C=np.ones((2, 2)),
                           D=np.eye(3))
        with pytest.raises(InvalidProblem):
            nk.NareProblem(A=[[np.nan]], B=[[1.0]], C=[[1.0]], D=[[1.0]])

    def test_json_roundtrip(self):
        p = nk.transport_problem(nk.TransportSpec(n=4, alpha=0.1, c=0.9))
        back = nk.NareProblem.from_json(p.to_json())
        npt.assert_array_equal(back.A, p.A)
        npt.assert_array_equal(back.B, p.B)
        npt.assert_array_equal(back.C, p.C)
        npt.assert_array_equal(back.D, p.D)
        assert back.metadata["family"] == "transport"

    def test_dual_swaps_blocks(self):
        p = scalar_problem(2.0, 3.0, 5.0, 7.0)
        q = p.dual()
        assert q.A[0, 0] == 7.0 and q.B[0, 0] == 5.0
        assert q.C[0, 0] == 3.0 and q.D[0, 0] == 2.0


class TestBuildH:
    def test_scalar_assembly(self):
        h = nk.build_h(scalar_problem(2.0, 1.0, 1.0, 2.0))
        npt.assert_array_equal(h.H, [[2.0, -1.0], [1.0, -2.0]])

    def test_decoupled_blocks(self):
        p = nk.NareProblem(A=np.diag([1.0, 2.0]), B=np.zeros((2, 2)),
                           C=np.zeros((2, 2)), D=np.diag([3.0, 4.0]))
        h = nk.build_h(p)
        npt.assert_array_equal(h.H[:2, 2:], 0.0)
        npt.assert_array_equal(h.H[2:, :2], 0.0)
        npt.assert_array_equal(h.H[2:, 2:], -p.A)

    def test_block_accessors_invert_assembly(self):
        p = nk.transport_problem(nk.TransportSpec(n=4, alpha=0.2, c=0.8))
        h = nk.build_h(p)
        q = h.to_problem()
        npt.assert_array_equal(q.A, p.A)
        npt.assert_array_equal(q.B, p.B)
        npt.assert_array_equal(q.C, p.C)
        npt.assert_array_equal(q.D, p.D)

    def test_build_m_sign_flips(self):
        p = scalar_problem(2.0, 1.0, 1.0, 2.0)
        npt.assert_array_equal(nk.build_m(p), [[2.0, -1.0], [-1.0, 2.0]])


class TestClassifyMmatrix:
    def test_nonsingular(self):
        assert nk.classify_mmatrix([[2.0, -1.0], [-1.0, 2.0]]).tag == "NonsingularM"

    def test_singular(self):
        cls = nk.classify_mmatrix([[1.0, -1.0], [-1.0, 1.0]])
        assert cls.tag == "SingularM"
        assert cls.is_mmatrix()

    def test_positive_offdiagonal(self):
        assert nk.classify_mmatrix([[1.0, 0.5], [0.0, 1.0]]).tag == "NotM"

    def test_transport_family(self, monkeypatch):
        p = nk.transport_problem(nk.TransportSpec(n=8, alpha=1e-3, c=1 - 1e-3))
        assert nk.classify_mmatrix(nk.build_m(p)).tag == "NonsingularM"
        critical = nk.transport_problem(nk.TransportSpec(n=8, alpha=0.0, c=1.0))
        monkeypatch.setattr(core, "ZERO_TOL", 1e-8)
        assert nk.classify_mmatrix(nk.build_m(critical)).tag == "SingularM"

    def test_beyond_former_eigensolver_cap(self):
        # 2n = 1040 was refused with DimensionCap by the dense eig this
        # classification used to make
        p = nk.transport_problem(nk.TransportSpec.near_critical(520, 1e-3))
        assert nk.classify_mmatrix(nk.build_m(p)).tag == "NonsingularM"

    def test_no_eigenvalue_call(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("classify_mmatrix computed eigenvalues")

        monkeypatch.setattr(np.linalg, "eigvals", refuse)
        p = nk.transport_problem(nk.TransportSpec.near_critical(16, 1e-12))
        assert nk.classify_mmatrix(nk.build_m(p)).is_mmatrix()

    def test_require_mmatrix(self):
        p = nk.transport_problem(nk.TransportSpec.near_critical(8, 1e-3))
        assert require_mmatrix(p).tag == "NonsingularM"
        with pytest.raises(InvalidProblem):
            require_mmatrix(scalar_problem(1.0, 2.0, 3.0, 1.0))


def _eig_oracle(m, zero_tol):
    """(tag, s - rho(N), tau) of the Z-matrix m = s*I - N from a dense eig."""
    m = np.asarray(m, dtype=np.float64)
    s = float(np.max(np.diag(m)))
    margin = s - float(np.max(np.abs(np.linalg.eigvals(s * np.eye(len(m)) - m))))
    tau = zero_tol * max(abs(s), 1.0)
    tag = "NonsingularM" if margin > tau else "SingularM" if margin > -tau else "NotM"
    return tag, margin, tau


@settings(max_examples=150, deadline=None)
@given(size=st.integers(1, 12),
       kind=st.sampled_from(["dense", "diagonal", "reducible"]),
       where=st.sampled_from([10.0, 0.5, 0.0, -0.5, -10.0]),
       dtype=st.sampled_from([np.float64, np.float32]),
       seed=st.integers(0, 2**32 - 1))
def test_certificate_matches_eig_oracle(size, kind, where, dtype, seed):
    # M = (rho(N) + alpha) I - N with N >= 0 has s - rho(N) = alpha; alpha
    # is placed at where * tau, above tau, inside +-tau or below -tau
    rng = np.random.default_rng(seed)
    nmat = rng.uniform(0.0, 1.0, (size, size))
    if kind == "diagonal":
        nmat = np.diag(np.diag(nmat))
    elif kind == "reducible":
        nmat[size // 2:, : size // 2] = 0.0
    zero_tol = 1e-10 if dtype == np.float64 else 1e-4
    rho = float(np.max(np.abs(np.linalg.eigvals(nmat))))
    tau = zero_tol * max(rho - np.min(np.diag(nmat)), 1.0)
    m = ((rho + where * tau) * np.eye(size) - nmat).astype(dtype)
    tag, margin, tau = _eig_oracle(m, zero_tol)
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(core, "ZERO_TOL", zero_tol)
        got = nk.classify_mmatrix(m)
    assert got.tag == tag
    evidence = got.spectral_abscissa_evidence
    if tag == "NotM":
        assert np.isnan(evidence)
    else:
        # a certified lower bound of s - rho(N), on the right side of +-tau
        assert evidence > (tau if tag == "NonsingularM" else -tau)
        assert evidence <= margin + 1e-3 * tau


def _guard_accepts(p, factor=None):
    try:
        return require_mmatrix(p, factor).is_mmatrix()
    except InvalidProblem:
        return False


@settings(max_examples=120, deadline=None)
@given(family=st.sampled_from(["random", "transport", "critical"]),
       sizes=st.tuples(st.integers(1, 8), st.integers(1, 8)),
       log_param=st.floats(-12.0, 0.0),
       perturb=st.sampled_from([None, "positive_offdiag", "s_below_rho"]),
       log_gap=st.floats(-6.0, -1.0),
       dtype=st.sampled_from([np.float64, np.float32]),
       seed=st.integers(0, 2**32 - 1))
def test_guard_on_shared_factor_agrees_with_classifier(family, sizes, log_param,
                                                       perturb, log_gap, dtype, seed):
    # require_mmatrix with H's LU accepts exactly the problems it accepts
    # without one: random M-NAREs with m != n and alpha in [1e-12, 1],
    # transport with beta in [1e-12, 0.5] and at the critical point, their
    # float32 casts, and M-structure broken by a positive off-diagonal
    # entry or by s below rho(N)
    rng = np.random.default_rng(seed)
    n, m = sizes
    if family == "random":
        m = m if m != n else n + 1
        big = rng.uniform(0.0, 1.0, (n + m, n + m))
        rho = float(np.max(np.abs(np.linalg.eigvals(big))))
        mm = (rho + 10.0 ** log_param) * np.eye(n + m) - big
    else:
        spec = (nk.TransportSpec.near_critical(n, min(10.0 ** log_param, 0.5))
                if family == "transport" else nk.TransportSpec(n=n, alpha=0.0, c=1.0))
        mm = nk.build_m(nk.transport_problem(spec))
    dim = mm.shape[0]
    if perturb == "positive_offdiag":
        i, j = rng.choice(dim, 2, replace=False)
        mm[i, j] = 10.0 ** log_gap * np.abs(mm).max()
    elif perturb == "s_below_rho":
        margin = float(np.min(np.linalg.eigvals(mm).real))  # s - rho(N)
        mm = mm - (margin + 10.0 ** log_gap * np.max(np.diag(mm))) * np.eye(dim)
    p = nk.NareProblem(A=mm[n:, n:], B=-mm[n:, :n], C=-mm[:n, n:],
                       D=mm[:n, :n]).astype(dtype)
    try:
        factor = lu_factor(nk.build_h(p).H, pivot_tol=0.0)
    except SingularMatrix:
        factor = None
    accepted = _guard_accepts(p, factor)
    assert accepted == _guard_accepts(p)
    if perturb is not None:
        assert not accepted


def test_guard_shortcut_evidence_and_tag():
    # the shortcut certifies min(M x / x), about 1/max(x), for H x = J 1 and
    # tags it by tau; the classifier's tau-shifted solve proves NonsingularM
    # where that bound cannot
    p = nk.transport_problem(nk.TransportSpec.near_critical(256, 1e-6))
    h = nk.build_h(p).H
    factor = lu_factor(h, pivot_tol=0.0)
    shortcut = require_mmatrix(p, factor)
    x = np.linalg.solve(h, np.repeat([1.0, -1.0], [p.n, p.m]))
    assert x.min() > 0.0
    assert shortcut.spectral_abscissa_evidence == pytest.approx(1.0 / x.max(), rel=1e-6)
    assert shortcut.tag == "SingularM"
    assert require_mmatrix(p).tag == "NonsingularM"


def test_guard_certifies_by_tau_rule_on_shared_factor(monkeypatch):
    # near a singular M roundoff leaves min(M x / x) just below 0; a bound
    # above -tau is classify_mmatrix's SingularM certificate (M + tau I) x > 0,
    # so the guard needs no LU of M -+ tau I
    def refuse(m):
        raise AssertionError("require_mmatrix fell back to classify_mmatrix")

    p = nk.transport_problem(nk.TransportSpec.near_critical(512, 1e-12))
    factor = lu_factor(nk.build_h(p).H, pivot_tol=0.0)
    monkeypatch.setattr(core, "classify_mmatrix", refuse)
    got = require_mmatrix(p, factor)
    assert got.tag == "SingularM"
    assert got.spectral_abscissa_evidence > -core._z_tau([nk.build_m(p)])


class TestResiduals:
    def test_zero_solution_gives_b(self):
        p = nk.transport_problem(nk.TransportSpec(n=4, alpha=0.1, c=0.9))
        npt.assert_array_equal(nk.residual(p, np.zeros((4, 4))), p.B)
        assert nk.relative_residual(p, np.zeros((4, 4))) == pytest.approx(1.0)

    def test_scalar_exact_solution(self):
        a, b, c, d = 2.0, 1.0, 1.0, 3.0
        x = scalar_solution(a, b, c, d)
        p = scalar_problem(a, b, c, d)
        assert abs(nk.residual(p, [[x]])[0, 0]) <= 1e-14

    def test_reverse_engineered_solution(self):
        rng = np.random.default_rng(9)
        x0 = rng.uniform(0.0, 1.0, (5, 5))
        a = np.diag(rng.uniform(5.0, 6.0, 5))
        c = rng.uniform(0.0, 0.2, (5, 5))
        d = np.diag(rng.uniform(5.0, 6.0, 5))
        p = nk.reverse_engineered_problem(x0, a, c, d)
        scale = frobenius_norm(p.B)
        assert frobenius_norm(nk.residual(p, x0)) <= 1e-13 * scale
        assert nk.relative_residual(p, x0) <= 1e-14

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("m, n", [(7, 4), (3, 9)])
    def test_relative_residual_bit_equal_to_residual_norm(self, m, n, dtype):
        rng = np.random.default_rng(13)
        p = nk.NareProblem(A=rng.standard_normal((m, m)),
                           B=rng.standard_normal((m, n)),
                           C=rng.standard_normal((n, m)),
                           D=rng.standard_normal((n, n))).astype(dtype)
        x = rng.uniform(0.0, 1.0, (m, n)).astype(dtype)
        den = (frobenius_norm(x @ p.C @ x + p.B)
               + frobenius_norm(p.A @ x + x @ p.D))
        got = nk.relative_residual(p, x)
        assert got == frobenius_norm(nk.residual(p, x)) / den

    def test_degenerate_denominator(self):
        # ||R||_F <= ||X C X + B||_F + ||A X + X D||_F, so a zero
        # denominator means R = 0
        p = nk.NareProblem(A=[[0.0]], B=[[0.0]], C=[[1.0]], D=[[0.0]])
        assert nk.relative_residual(p, [[0.0]]) == 0.0

    def test_relative_error(self):
        x = np.ones((2, 2))
        assert relative_error(x, x) == 0.0
        assert relative_error(2 * x, x) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            relative_error(x, np.zeros((2, 2)))


class TestGammaAndCayley:
    def test_gamma_star_max_diagonal(self):
        p = nk.NareProblem(A=np.diag([2.0, 5.0]), B=np.ones((2, 2)),
                           C=np.ones((2, 2)), D=np.diag([3.0, 1.0]))
        assert nk.gamma_star(p) == 5.0
        p = nk.NareProblem(A=np.eye(2), B=np.ones((2, 2)),
                           C=np.ones((2, 2)), D=np.eye(2))
        assert nk.gamma_star(p) == 1.0

    def test_gamma_star_transport_scan_oracle(self):
        p = nk.transport_problem(nk.TransportSpec(n=4, alpha=1e-3, c=1 - 1e-3))
        oracle = max(max(np.diag(p.A)), max(np.diag(p.D)))
        assert nk.gamma_star(p) == oracle

    def test_cayley_values(self):
        assert nk.cayley(0.0, 1.0) == -1.0
        assert nk.cayley(3.0, 3.0) == 0.0
        assert nk.cayley(1.0, 3.0) == -0.5

    def test_cayley_pole(self):
        assert np.isinf(nk.cayley(-2.0, 2.0))

    @pytest.mark.parametrize("gamma", [0.0, -1.0, np.inf, np.nan])
    def test_cayley_rejects_bad_parameter(self, gamma):
        with pytest.raises(InvalidProblem):
            nk.cayley(1.0, gamma)


class TestEigenvalueOrdering:
    def test_split_across_axis(self):
        p = nk.transport_problem(nk.TransportSpec(n=8, alpha=1e-3, c=1 - 1e-3))
        h = nk.build_h(p)
        lam = ordered_eigenvalues(h)
        scale = frobenius_norm(h.H)
        assert np.all(lam[: h.n].real >= -1e-10 * scale)
        assert np.all(lam[h.n:].real <= 1e-10 * scale)

    def test_central_pair_real(self):
        p = nk.transport_problem(nk.TransportSpec(n=8, alpha=1e-3, c=1 - 1e-3))
        lam_n, lam_n1 = central_real_pair(nk.build_h(p))
        assert lam_n > 0.0 > lam_n1

    def test_spectrum_computed_once_per_matrix(self, monkeypatch):
        h = nk.LinearizingMatrix(np.diag([2.0, -1.0, 1.0]), 2, 1)
        calls = []
        eigvals = np.linalg.eigvals

        def counted(a):
            calls.append(np.shape(a))
            return eigvals(a)

        monkeypatch.setattr(np.linalg, "eigvals", counted)
        first = ordered_eigenvalues(h)
        assert ordered_eigenvalues(h) is first
        npt.assert_array_equal(first, [2.0, 1.0, -1.0])
        assert calls == [(3, 3)]
        # the kept spectrum is no field: equality, repr and replace ignore it
        assert h == nk.LinearizingMatrix(h.H, 2, 1)
        assert "_spectrum" not in repr(h)
        other = dataclasses.replace(h, H=np.diag([3.0, -1.0, 1.0]))
        npt.assert_array_equal(ordered_eigenvalues(other), [3.0, 1.0, -1.0])
        assert calls == [(3, 3), (3, 3)]

    def test_failed_spectrum_is_not_kept(self, monkeypatch):
        h = nk.LinearizingMatrix(np.diag([2.0, -1.0]), 1, 1)
        eigvals = np.linalg.eigvals

        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvals", fail)
        with pytest.raises(NoConvergence):
            ordered_eigenvalues(h)
        monkeypatch.setattr(np.linalg, "eigvals", eigvals)
        npt.assert_array_equal(ordered_eigenvalues(h), [2.0, -1.0])
