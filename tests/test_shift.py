from hypothesis import given, settings, strategies as st
import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg

import narekit as nk
from narekit.errors import (
    CentralPairIllConditioned,
    DegenerateSpectrum,
    InvalidProblem,
    KMaxReached,
    NoConvergence,
    OrthogonalPair,
    SingularH,
    SingularMatrix,
    UVSingular,
)
from narekit.kernel import frobenius_norm
from narekit import shift
from narekit.shift import (
    CentralSubspaces,
    estimate_next_modulus,
    newton_polish,
)
from conftest import planted_matrix


class TestInverseIteration:
    def test_diagonal_well_separated(self):
        h = np.diag([0.1, 0.2, 5.0, 7.0])
        q, steps, t = nk.inverse_orthogonal_iteration(h, 2)
        target = np.zeros((4, 2))
        target[0, 0] = target[1, 1] = 1.0
        assert nk.subspace_distance(q, target) <= 1e-12
        assert steps >= 1

    def test_rate_estimate_tracks_eigenvalue_ratio(self):
        rng = np.random.default_rng(20)
        eigs = np.concatenate([[0.01, 0.02], rng.uniform(1.0, 2.0, 10)])
        h, _ = planted_matrix(rng, eigs)
        _, _, t = nk.inverse_orthogonal_iteration(h, 2)
        true_ratio = 0.02 / np.min(np.abs(eigs[2:]))
        assert true_ratio / 3.0 <= t <= true_ratio * 3.0

    def test_no_convergence_carries_best_iterate(self):
        rng = np.random.default_rng(21)
        eigs = np.concatenate([[0.5, 0.55], rng.uniform(0.6, 0.9, 8)])
        h, _ = planted_matrix(rng, eigs)
        with pytest.raises(NoConvergence) as err:
            nk.inverse_orthogonal_iteration(h, 2, max_iters=4)
        assert err.value.diagnostics["basis"].shape == (10, 2)
        assert err.value.diagnostics["steps"] == 4

    def test_singular_h_rejected(self):
        with pytest.raises(SingularH):
            nk.inverse_orthogonal_iteration(np.zeros((3, 3)), 1)

    def test_bad_k_rejected(self):
        with pytest.raises(InvalidProblem):
            nk.inverse_orthogonal_iteration(np.eye(3), 5)


class TestComputeCentralPair:
    def test_symmetric_left_equals_right(self):
        rng = np.random.default_rng(22)
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        h = q @ np.diag([0.1, -0.2, 2.0, 3.0, -4.0, 5.0]) @ q.T
        cs = nk.compute_central_pair(h, 2)
        assert nk.subspace_distance(cs.U, cs.V) <= 1e-10
        assert cs.cond_uv == pytest.approx(1.0, abs=1e-10)

    def test_diagonal_central_eigenvalues(self):
        h = np.diag([0.01, -0.02, 1.0, -1.0])
        cs = nk.compute_central_pair(h, 2)
        got = np.sort(cs.central_eigs.real)
        npt.assert_allclose(got, [-0.02, 0.01], atol=1e-12)

    def test_bases_are_orthonormal(self):
        p = nk.transport_problem(nk.TransportSpec.near_critical(16, 1e-6))
        cs = nk.compute_central_pair(nk.build_h(p).H, 2)
        npt.assert_allclose(cs.V.T @ cs.V, np.eye(2), atol=1e-12)
        npt.assert_allclose(cs.U.T @ cs.U, np.eye(2), atol=1e-12)

    def test_left_basis_orthogonal_to_complementary_right(self):
        # left and right invariant subspaces of different eigenvalues are
        # orthogonal; check U against the complementary right subspace from
        # an exact eigendecomposition oracle
        rng = np.random.default_rng(23)
        eigs = np.concatenate([[0.05, -0.06], rng.uniform(1.0, 2.0, 8)])
        h, t = planted_matrix(rng, eigs)
        cs = nk.compute_central_pair(h, 2)
        w, _ = np.linalg.qr(t[:, 2:])
        assert frobenius_norm(cs.U.T @ w) <= 1e-8


    def test_cond_uv_is_norm_of_coupling_inverse(self):
        p = nk.transport_problem(nk.TransportSpec.near_critical(32, 1e-6))
        cs = nk.compute_central_pair(nk.build_h(p).H, 2)
        assert cs.cond_uv == pytest.approx(nk.cond_uv(cs.U, cs.V))

    def test_ill_conditioned_single_eigenvalue_refused(self, monkeypatch):
        # k = 1: U^T V is 1 x 1, so only 1 / sigma_min can see that the
        # eigenvalue 0.01, coupled to 1.0 by 1e5, has condition about 1e5
        rng = np.random.default_rng(25)
        t = np.diag([0.01, 1.0, 2.0, 3.0])
        t[0, 1] = 1e5
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        h = q @ t @ q.T
        monkeypatch.setattr(shift, "COND_CAP", 1e3)
        with pytest.raises(CentralPairIllConditioned) as err:
            nk.compute_central_pair(h, 1)
        assert "e+05" in str(err.value)


class TestSharedFactor:
    def test_one_lu_of_h_per_solve(self, monkeypatch):
        # the classification factors M -/+ tau*I, of H's size but not H
        p = nk.transport_problem(nk.TransportSpec.near_critical(16, 1e-6))
        h = nk.build_h(p).H
        of_h = []
        lu_factor = scipy.linalg.lu_factor

        def counting(a, *args, **kwargs):
            of_h.append(np.array_equal(a, h))
            return lu_factor(a, *args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "lu_factor", counting)
        nk.sushi_solve(p)
        assert sum(of_h) == 1

    def test_no_eig_larger_than_k(self, monkeypatch):
        p = nk.transport_problem(nk.TransportSpec.near_critical(16, 1e-6))
        shapes = []
        for mod, name in [(np.linalg, "eigvals"), (np.linalg, "eig"),
                          (scipy.linalg, "eigvals"), (scipy.linalg, "eig")]:
            def counting(a, *args, _fn=getattr(mod, name), **kwargs):
                shapes.append(np.shape(a))
                return _fn(a, *args, **kwargs)
            monkeypatch.setattr(mod, name, counting)
        nk.sda_solve(p)
        assert shapes == []
        _, cs, _, _ = nk.sushi_solve(p)
        assert shapes and all(max(shape) <= cs.k for shape in shapes)

    def test_left_basis_from_transposed_solves(self):
        # the left basis, from solves with H^T on H's factor, spans the
        # subspace that inverse iteration on H^T itself finds
        rng = np.random.default_rng(28)
        eigs = np.concatenate([[0.05, -0.06], rng.uniform(1.0, 2.0, 8)])
        h, _ = planted_matrix(rng, eigs)
        cs = nk.compute_central_pair(h, 2)
        u, _, _ = nk.inverse_orthogonal_iteration(h.T, 2)
        assert nk.subspace_distance(cs.U, u) <= 1e-10

    def test_rectangular_blocks(self):
        # m = 10, n = 6 blocks of a random near-critical 16 x 16 M-matrix
        rng = np.random.default_rng(0)
        big = rng.uniform(0.0, 1.0, (16, 16))
        m = (np.max(np.abs(np.linalg.eigvals(big))) + 1e-3) * np.eye(16) - big
        n = 6
        p = nk.NareProblem(A=m[n:, n:], B=-m[n:, :n], C=-m[:n, n:], D=m[:n, :n])
        solution, _, _, _ = nk.sushi_solve(p)
        x = solution.X
        assert x.shape == (10, 6)
        assert solution.residual <= 1e-12
        assert x.min() >= -np.finfo(float).eps * frobenius_norm(x)
        assert nk.relative_error(x, nk.sda_solve(p).X) <= 1e-12


class TestDetectK:
    def test_planted_cluster_of_four(self):
        rng = np.random.default_rng(24)
        eigs = np.concatenate([[0.010, 0.011, 0.012, 0.013],
                               rng.uniform(1.0, 2.0, 8)])
        h, _ = planted_matrix(rng, eigs)
        assert nk.detect_k(h) == 4

    def test_transport_uses_two(self):
        p = nk.transport_problem(nk.TransportSpec.near_critical(32, 1e-6))
        assert nk.detect_k(nk.build_h(p).H) == 2

    @pytest.mark.parametrize("beta", [1e-2, 3e-3, 1e-3])
    def test_settled_probe_counts_as_fast(self, beta):
        # the k = 2 probe ends its steps just above tol with no measurable
        # contraction window; it has settled, so k = 2 is accepted
        p = nk.transport_problem(nk.TransportSpec.near_critical(8, beta))
        assert nk.detect_k(nk.build_h(p).H) == 2
        solution, cs, _, _ = nk.sushi_solve(p)
        assert cs.k == 2 and solution.residual <= 1e-12

    def test_no_separation_raises(self, monkeypatch):
        # all eigenvalues on the unit circle: no modulus gap anywhere
        angles = np.linspace(0.3, 2.8, 5)
        blocks = [np.array([[np.cos(a), np.sin(a)], [-np.sin(a), np.cos(a)]])
                  for a in angles]
        h = scipy.linalg.block_diag(*blocks)
        monkeypatch.setattr(shift, "K_MAX", 4)
        with pytest.raises(KMaxReached):
            nk.detect_k(h)


class TestShiftSelection:
    def _pair(self, central_eigs):
        central_eigs = np.asarray(central_eigs, dtype=complex)
        k = central_eigs.size
        v = np.eye(4)[:, :k]
        return CentralSubspaces(V=v, U=v, k=k, central_eigs=central_eigs,
                                inv_iter_steps=1, rate_estimate_t=0.0, cond_uv=1.0)

    def test_rule_arithmetic(self):
        plan = nk.choose_shift_s(self._pair([0.5, 0.6]), xi_next=2.5, h_norm=1.0)
        assert plan.s == pytest.approx(4.0)
        assert plan.k == 2

    def test_clamp_when_no_separation(self):
        plan = nk.choose_shift_s(self._pair([1.0, 1.0]), xi_next=1.0, h_norm=1.0)
        assert plan.s == 0.1
        assert plan.rationale["clamped"]

    def test_degenerate_spectrum(self):
        with pytest.raises(DegenerateSpectrum):
            nk.choose_shift_s(self._pair([0.0, 1.0]), xi_next=2.0, h_norm=1.0)
        with pytest.raises(DegenerateSpectrum):  # below eps * ||H||_F
            nk.choose_shift_s(self._pair([1e-20, 1.0]), xi_next=2.0, h_norm=1.0)

    def test_next_modulus_estimate_diagonal(self, monkeypatch):
        h = np.diag([0.1, 0.2, 5.0, 7.0, 9.0])
        # the default step count only buys the leading digit; it must land
        # between |xi_3| and the largest modulus
        est = estimate_next_modulus(h, 2)
        assert 5.0 <= est <= 9.0
        # with enough steps the probe converges to |xi_3| exactly
        monkeypatch.setattr(shift, "NEXT_MODULUS_STEPS", 40)
        assert estimate_next_modulus(h, 2) == pytest.approx(5.0, rel=1e-6)


class TestBuildShiftedH:
    def test_zero_shift_is_identity(self):
        p = nk.transport_problem(nk.TransportSpec.near_critical(8, 1e-3))
        h = nk.build_h(p)
        cs = nk.compute_central_pair(h.H, 2)
        shifted = nk.build_shifted_h(h, cs, 0.0)
        npt.assert_allclose(shifted.H, h.H, atol=1e-14)

    def test_diagonal_instance(self):
        h = nk.LinearizingMatrix(np.diag([0.01, -0.02, 1.0, -1.0]), 2, 2)
        v = np.eye(4)[:, :2]
        cs = CentralSubspaces(V=v, U=v, k=2,
                              central_eigs=np.array([0.01, -0.02]),
                              inv_iter_steps=0, rate_estimate_t=0.0, cond_uv=1.0)
        shifted = nk.build_shifted_h(h, cs, 9.0)
        got = np.sort(np.linalg.eigvals(shifted.H).real)
        npt.assert_allclose(got, [-1.0, -0.2, 0.1, 1.0], atol=1e-12)

    def test_uv_rule_reads_stored_cond(self, monkeypatch):
        # the eps * k rule of diagnostics.cond_uv is applied to cs.cond_uv;
        # no SVD of U^T V is taken, and an exactly singular U^T V that
        # slips past the rule fails in the k x k solve
        def refuse(*args, **kwargs):
            raise AssertionError("build_shifted_h took an SVD")

        monkeypatch.setattr(np.linalg, "svd", refuse)
        h = nk.LinearizingMatrix(np.diag([0.01, -0.02, 1.0, -1.0]), 2, 2)
        v = np.eye(4)[:, :2]
        for u, cond in ((v, 1e17), (np.eye(4)[:, 2:], 1.0)):
            cs = CentralSubspaces(V=v, U=u, k=2, central_eigs=np.array([0.01, -0.02]),
                                  inv_iter_steps=0, rate_estimate_t=0.0, cond_uv=cond)
            with pytest.raises(UVSingular):
                nk.build_shifted_h(h, cs, 9.0)

    def test_spectrum_split_random(self):
        rng = np.random.default_rng(25)
        for s in (1.0, 3.0, 10.0):
            eigs = np.concatenate([[0.05, -0.07], rng.uniform(1.0, 2.0, 8)])
            h, t = planted_matrix(rng, eigs)
            v, _ = np.linalg.qr(t[:, :2])
            u, _ = np.linalg.qr(np.linalg.inv(t).T[:, :2])
            cs = CentralSubspaces(V=v, U=u, k=2, central_eigs=eigs[:2],
                                  inv_iter_steps=0, rate_estimate_t=0.0,
                                  cond_uv=1.0)
            shifted = nk.build_shifted_h(nk.LinearizingMatrix(h, 5, 5), cs, s)
            got = np.sort(np.linalg.eigvals(shifted.H).real)
            want = np.sort(np.concatenate([(1 + s) * eigs[:2], eigs[2:]]))
            npt.assert_allclose(got, want, rtol=1e-8, atol=1e-8)

    def test_right_invariant_subspace_preserved(self):
        rng = np.random.default_rng(26)
        eigs = np.concatenate([[0.05, -0.07], rng.uniform(1.0, 2.0, 8)])
        h, t = planted_matrix(rng, eigs)
        cs = nk.compute_central_pair(h, 2)
        shifted = nk.build_shifted_h(nk.LinearizingMatrix(h, 5, 5), cs, 4.0)
        # the antistable subspace of h (an invariant subspace disjoint from
        # the center) must still be invariant for the shifted matrix
        w, _ = np.linalg.qr(t[:, 2:])
        compressed = w.T @ shifted.H @ w
        defect = frobenius_norm(shifted.H @ w - w @ compressed)
        assert defect <= 1e-8 * frobenius_norm(shifted.H)


class TestClassicalShift:
    def test_triangular_example(self):
        t = np.array([[0.0, 1.0], [0.0, 2.0]])
        shifted = nk.classical_shift(t, [1.0, 0.0], [1.0, 0.0], 3.0)
        npt.assert_allclose(shifted, [[3.0, 1.0], [0.0, 2.0]])
        got = np.sort(np.linalg.eigvals(shifted).real)
        npt.assert_allclose(got, [2.0, 3.0], atol=1e-12)

    def test_zero_shift_unchanged(self):
        rng = np.random.default_rng(27)
        h = rng.standard_normal((4, 4))
        v = rng.standard_normal(4)
        npt.assert_allclose(nk.classical_shift(h, v, v, 0.0), h, atol=1e-14)

    def test_orthogonal_pair_rejected(self):
        with pytest.raises(OrthogonalPair):
            nk.classical_shift(np.eye(2), [1.0, 0.0], [0.0, 1.0], 1.0)

    def test_critical_transport_kernel_shift(self):
        # at the critical point lambda_n = lambda_{n+1} = 0 form a 2x2
        # Jordan block whose single eigenvector comes from ker(M); the
        # rank-one shift sends that eigenvector's eigenvalue to s and
        # leaves its Jordan chain partner (and all other eigenvalues) alone
        p = nk.transport_problem(nk.TransportSpec(n=4, alpha=0.0, c=1.0))
        h = nk.build_h(p)
        m = nk.build_m(p)
        _, _, vt = np.linalg.svd(m)
        v = vt[-1]  # H = diag(I, -I) M, so ker(M) is a null vector of H too
        u = v.copy()
        before = np.sort(np.abs(np.linalg.eigvals(h.H)))
        scale = frobenius_norm(h.H)
        assert before[1] <= 1e-8 * scale  # double zero eigenvalue
        shifted = nk.classical_shift(h.H, v, u, 1.0)
        after = np.sort(np.abs(np.linalg.eigvals(shifted)))
        assert after[0] <= 1e-8 * scale  # the Jordan partner stays at zero
        assert after[1] == pytest.approx(1.0, abs=1e-7)  # the moved one
        npt.assert_allclose(after[2:], before[2:], rtol=1e-8)


class TestSushiSolve:
    def test_classification_guard(self):
        p = nk.NareProblem(A=[[1.0]], B=[[2.0]], C=[[3.0]], D=[[1.0]])
        assert not nk.classify_mmatrix(nk.build_m(p)).is_mmatrix()
        with pytest.raises(InvalidProblem):
            nk.sushi_solve(p)

    def test_matches_plain_sda_far_from_critical(self):
        p = nk.random_mnare(nk.RandomMnareSpec(n=12, alpha=0.5, seed=5))
        plain = nk.sda_solve(p, nk.SdaConfig())
        solution, cs, plan, outcome = nk.sushi_solve(p)
        assert nk.relative_error(solution.X, plain.X) <= 1e-8
        assert solution.residual <= 1e-13
        assert outcome.steps <= plain.steps

    def test_fixed_k_and_s_respected(self):
        p = nk.transport_problem(nk.TransportSpec.near_critical(16, 1e-6))
        solution, cs, plan, _ = nk.sushi_solve(
            p, nk.SushiOptions(k=2, s=100.0))
        assert cs.k == 2
        assert plan.s == 100.0
        assert solution.residual <= 1e-12

    @pytest.mark.parametrize("s", [-2.0, -1.0, float("nan")])
    def test_fixed_shift_needs_one_plus_s_positive(self, s):
        # 1 + s < 0 moves the central eigenvalues across the imaginary
        # axis, so doubling converges to another nonnegative solution with a
        # tiny residual; 1 + s = 0 makes the shifted H singular
        p = nk.transport_problem(nk.TransportSpec.near_critical(8, 1e-3))
        with pytest.raises(InvalidProblem):
            nk.sushi_solve(p, nk.SushiOptions(s=s))

    def test_fixed_shift_above_minus_one_is_minimal(self):
        p = nk.transport_problem(nk.TransportSpec.near_critical(8, 1e-3))
        plain = nk.sda_solve(p, nk.SdaConfig())
        solution, _, plan, _ = nk.sushi_solve(p, nk.SushiOptions(s=-0.5))
        assert plan.s == -0.5
        assert nk.relative_error(solution.X, plain.X) <= 1e-10
        assert solution.residual <= 1e-13

    def test_plan_records_elapsed_time(self):
        p = nk.transport_problem(nk.TransportSpec.near_critical(16, 1e-6))
        solution, cs, plan, outcome = nk.sushi_solve(p)
        assert plan.rationale["elapsed_s"] > 0.0
        assert "xi_1" in plan.rationale
        report = nk.sushi_report(solution, cs, plan, outcome)
        assert report["timings"]["total_s"] == plan.rationale["elapsed_s"]

    def test_report_schema(self):
        p = nk.transport_problem(nk.TransportSpec.near_critical(16, 1e-6))
        report = nk.sushi_report(*nk.sushi_solve(p))
        assert {"k", "s", "central_eigs", "inv_iter_steps", "cond_uv",
                "sda_steps", "residual", "dual_residual", "timings"} <= set(report)
        assert report["k"] == 2
        assert report["residual"] <= 1e-12

    def test_dual_residual_of_iterated_equation(self):
        # G converges to the dual solution of the shifted equation
        p = nk.transport_problem(nk.TransportSpec.near_critical(32, 1e-12))
        _, _, _, outcome = nk.sushi_solve(p)
        assert outcome.dual_residual <= 1e-13

    def test_residual_not_degraded_vs_plain(self, transport_bench):
        runs, _ = transport_bench
        for cell in runs.values():
            assert cell["solution"].residual <= 10.0 * cell["plain"].residual


def _polish(p, x):
    """newton_polish from x's own residual, with Cayley parameter gamma*."""
    return newton_polish(p, x, nk.relative_residual(p, x), nk.gamma_star(p))


def test_newton_polish_improves_residual():
    p = nk.transport_problem(nk.TransportSpec.near_critical(16, 1e-6))
    out = nk.sda_solve(p, nk.SdaConfig())
    rough = out.X + 1e-8 * np.ones_like(out.X)
    polished, res = _polish(p, rough)
    assert res < nk.relative_residual(p, rough)
    assert res <= 1e-12


def test_newton_polish_reuses_given_residual(monkeypatch):
    p = nk.transport_problem(nk.TransportSpec.near_critical(16, 1e-6))
    out = nk.sda_solve(p, nk.SdaConfig())
    calls = []
    monkeypatch.setattr("narekit.shift.relative_residual",
                        lambda *args: calls.append(args) or 0.0)
    x, res = newton_polish(p, out.X, out.residual, nk.gamma_star(p))
    assert calls == []
    assert x is out.X and res == out.residual


def _bartels_stewart_polish(p, x):
    """Reference: the same Newton steps with a Schur-based Sylvester solve."""
    floor = 100.0 * np.finfo(x.dtype).eps
    res = nk.relative_residual(p, x)
    for _ in range(shift.POLISH_MAX_STEPS):
        if res <= floor:
            break
        delta = scipy.linalg.solve_sylvester(
            p.A - x @ p.C, p.D - p.C @ x, nk.residual(p, x))
        new_res = nk.relative_residual(p, x + delta)
        if not new_res < res:
            break
        x, res = x + delta, new_res
    return x, res


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 10), m=st.integers(1, 10),
       log_margin=st.floats(-6.0, 0.0), scale=st.floats(1e-8, 1e-4),
       seed=st.integers(0, 2**32 - 1))
def test_newton_polish_matches_bartels_stewart(n, m, log_margin, scale, seed):
    # random M-NARE with m x n solution, started off the minimal solution
    rng = np.random.default_rng(seed)
    big = rng.uniform(0.0, 1.0, (n + m, n + m))
    rho = np.max(np.abs(np.linalg.eigvals(big)))
    mm = (rho + 10.0 ** log_margin) * np.eye(n + m) - big
    p = nk.NareProblem(A=mm[n:, n:], B=-mm[n:, :n], C=-mm[:n, n:], D=mm[:n, :n])
    x_min = nk.sda_solve(p).X
    x = x_min + scale * frobenius_norm(x_min) * rng.uniform(0.0, 1.0, x_min.shape)
    want, want_res = _bartels_stewart_polish(p, x)
    got, got_res = _polish(p, x)
    assert got.shape == (m, n)
    assert frobenius_norm(got - want) <= 1e-12 * frobenius_norm(want)
    assert got_res <= 10.0 * max(want_res, np.finfo(float).eps)


def test_sushi_solve_makes_no_schur_form(monkeypatch):
    p = nk.transport_problem(nk.TransportSpec.near_critical(32, 1e-6))
    calls = []
    for name in ("solve_sylvester", "schur"):
        def counting(*args, _fn=getattr(scipy.linalg, name), _name=name, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(scipy.linalg, name, counting)
    solution, _, _, outcome = nk.sushi_solve(p)
    assert solution.residual < outcome.residual  # the polish ran
    assert calls == []


@pytest.mark.parametrize("doublings", [2, shift.POLISH_MAX_DOUBLINGS])
def test_newton_polish_keeps_x_when_doubling_diverges(monkeypatch, doublings):
    # 3x^2 - 2x + 2 = 0 has no real root: P = Q = -1/2 at x = 1/2, the
    # Cayley factors have modulus 3, and the doubling diverges
    monkeypatch.setattr(shift, "POLISH_MAX_DOUBLINGS", doublings)
    p = nk.NareProblem(A=[[1.0]], B=[[2.0]], C=[[3.0]], D=[[1.0]])
    x = np.array([[0.5]])
    with np.errstate(all="raise"):
        got, res = _polish(p, x)
    assert got is x
    assert res == nk.relative_residual(p, x)


def test_newton_polish_keeps_x_when_a_factor_is_singular(monkeypatch):
    def singular(*args, **kwargs):
        raise SingularMatrix("forced")

    monkeypatch.setattr(shift, "lu_factor", singular)
    p = nk.transport_problem(nk.TransportSpec.near_critical(8, 1e-3))
    x = nk.sda_solve(p).X + 1e-8
    res = nk.relative_residual(p, x)
    assert res > 100.0 * np.finfo(float).eps  # above the polish's floor
    got, got_res = _polish(p, x)
    assert got is x
    assert got_res == res
