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
    SingularMatrix,
)
from narekit.kernel import frobenius_norm, lu_factor
from narekit import core, diagnostics, sda, shift
from narekit.sda import residual_bound
from narekit.shift import (
    CentralSubspaces,
    detect_k,
    inverse_orthogonal_iteration,
    newton_polish,
    smallest_moduli,
)
from conftest import carved_mnare, planted_matrix
from oracles import relative_error


def _lu(h):
    """H's LU as sushi_solve factors it: what the iteration stages take."""
    return lu_factor(np.asarray(h), pivot_tol=0.0)


class TestInverseIteration:
    def test_diagonal_well_separated(self):
        h = np.diag([0.1, 0.2, 5.0, 7.0])
        q, steps = inverse_orthogonal_iteration(_lu(h), 2, 1e-12)
        target = np.zeros((4, 2))
        target[0, 0] = target[1, 1] = 1.0
        assert nk.subspace_distance(q, target) <= 1e-12
        assert steps >= 1

    def test_rate_estimate_tracks_eigenvalue_ratio(self):
        rng = np.random.default_rng(20)
        eigs = np.concatenate([[0.01, 0.02], rng.uniform(1.0, 2.0, 10)])
        h, _ = planted_matrix(rng, eigs)
        moduli = smallest_moduli(_lu(h), 3)
        t = moduli[1] / moduli[2]
        true_ratio = 0.02 / np.min(np.abs(eigs[2:]))
        assert true_ratio / 3.0 <= t <= true_ratio * 3.0

    def test_no_convergence_carries_best_iterate(self, monkeypatch):
        rng = np.random.default_rng(21)
        eigs = np.concatenate([[0.5, 0.55], rng.uniform(0.6, 0.9, 8)])
        h, _ = planted_matrix(rng, eigs)
        monkeypatch.setattr(shift, "PAIR_MAX_ITERS", 4)
        with pytest.raises(NoConvergence) as err:
            inverse_orthogonal_iteration(_lu(h), 2, 1e-12)
        assert err.value.diagnostics["basis"].shape == (10, 2)
        assert err.value.diagnostics["steps"] == 4

    def test_overflowing_solve_is_no_convergence(self):
        # the solve against the pivot 1e-310 overflows, so the first
        # distance is nan: a NoConvergence at step 1, not numpy's
        # LinAlgError from an SVD nor 100 steps on nan
        factor = lu_factor(np.diag([1e-310, 1.0, 2.0, 3.0, 4.0, 5.0]), pivot_tol=0.0)
        with pytest.raises(NoConvergence) as err:
            inverse_orthogonal_iteration(factor, 2, 1e-12)
        assert err.value.diagnostics["steps"] == 1
        assert not np.isfinite(err.value.diagnostics["distance"])
        assert err.value.diagnostics["basis"].shape == (6, 2)

    def test_singular_h_rejected(self):
        with pytest.raises(SingularMatrix):
            nk.compute_central_pair(np.zeros((3, 3)), 1)

    def test_bad_k_rejected(self):
        # a central subspace leaves at least one eigenvalue outside
        for k in (0, 3, 5):
            with pytest.raises(InvalidProblem):
                inverse_orthogonal_iteration(_lu(np.eye(3)), k, 1e-12)

    def test_stall_ends_only_on_invariant_basis(self):
        # transport n = 4, beta = 1e-3: the distance stalls in a transient at
        # step 4, where the basis's invariance defect is still 8.0e-7
        h = nk.build_h(nk.transport_problem(nk.TransportSpec.near_critical(4, 1e-3))).H
        v, _ = inverse_orthogonal_iteration(_lu(h), 2, 1e-12)
        defect = frobenius_norm(h @ v - v @ (v.T @ h @ v)) / frobenius_norm(h)
        assert defect <= diagnostics.DEFECT_TOL


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
        assert cs.k == cs.V.shape[1] == 2
        assert cs.cond_uv == nk.cond_uv(cs.U, cs.V)

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


class TestCentralSubspaces:
    """k and cond(U^T V) are read off the bases; COND_CAP is checked once,
    at construction."""

    def _pair(self, u, v):
        return CentralSubspaces(V=v, U=u, central_eigs=np.zeros(np.shape(v)[1]),
                                central_vecs=np.eye(np.shape(v)[1]), inv_iter_steps=0)

    def test_orthogonal_bases_refused(self):
        with pytest.raises(CentralPairIllConditioned) as err:
            self._pair(np.eye(4)[:, 2:], np.eye(4)[:, :2])
        assert err.value.diagnostics["cond_uv"] == np.inf

    @pytest.mark.parametrize("factor, accepted", [(1.0 + 1e-6, False), (1.0 - 1e-6, True)])
    def test_refused_just_above_cap(self, factor, accepted):
        # one column: U^T V = cos(theta), so cond(U^T V) = 1 / cos(theta)
        c = 1.0 / (shift.COND_CAP * factor)
        u, v = np.array([[1.0], [0.0]]), np.array([[c], [np.sqrt(1.0 - c * c)]])
        if accepted:
            assert self._pair(u, v).cond_uv == pytest.approx(shift.COND_CAP * factor)
        else:
            with pytest.raises(CentralPairIllConditioned):
                self._pair(u, v)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_basis_is_invalid(self, bad):
        good, broken = np.eye(4)[:, :2], np.eye(4)[:, :2]
        broken[1, 1] = bad
        for u, v in ((broken, good), (good, broken)):
            with pytest.raises(InvalidProblem):
                self._pair(u, v)

    def test_mismatched_bases_are_invalid(self):
        with pytest.raises(InvalidProblem):
            self._pair(np.eye(4)[:, :2], np.eye(4)[:, :3])
        with pytest.raises(InvalidProblem):
            self._pair(np.eye(4)[:, :2], np.eye(5)[:, :2])

    def test_k_and_cond_read_off_hand_built_bases(self):
        rng = np.random.default_rng(30)
        eigs = np.concatenate([[0.05, -0.06, 0.07], rng.uniform(1.0, 2.0, 7)])
        _, t = planted_matrix(rng, eigs)
        v, _ = np.linalg.qr(t[:, :3])
        u, _ = np.linalg.qr(np.linalg.inv(t).T[:, :3])
        cs = self._pair(u, v)
        assert cs.k == cs.V.shape[1] == 3
        assert cs.cond_uv == nk.cond_uv(cs.U, cs.V) > 1.0
        with pytest.raises(TypeError):  # derived, not passed
            CentralSubspaces(V=v, U=u, k=3, central_eigs=eigs[:3],
                             central_vecs=np.eye(3), inv_iter_steps=0)


class TestSharedFactor:
    def test_one_lu_of_h_per_solve(self, monkeypatch):
        # every LU of the package, in each module that binds lu_factor; the
        # classification factors M -/+ tau I and the polish m x m and n x n
        # matrices, not H
        p = nk.transport_problem(nk.TransportSpec.near_critical(16, 1e-6))
        h = nk.build_h(p).H
        of_h = []
        for mod in (core, sda, shift):
            def counting(a, *args, _fn=mod.lu_factor, **kwargs):
                of_h.append(np.array_equal(a, h))
                return _fn(a, *args, **kwargs)
            monkeypatch.setattr(mod, "lu_factor", counting)
        nk.sushi_solve(p)
        assert sum(of_h) == 1

    @pytest.mark.parametrize("beta", [1e-12, 1e-6])
    def test_one_big_lu_per_solve(self, monkeypatch, beta):
        # the guard certifies on H's LU instead of factoring M -/+ tau I, so
        # the whole solve factors one (n + m)-square matrix
        p = nk.transport_problem(nk.TransportSpec.near_critical(16, beta))
        shapes = []
        for mod in (core, sda, shift):
            def counting(a, *args, _fn=mod.lu_factor, **kwargs):
                shapes.append(np.shape(a))
                return _fn(a, *args, **kwargs)
            monkeypatch.setattr(mod, "lu_factor", counting)
        nk.sushi_solve(p)
        assert shapes.count((p.n + p.m, p.n + p.m)) == 1

    @pytest.mark.parametrize("n, k, s, columns", [
        (16, 2, 100.0, [3]), (16, 2, None, [3]), (16, None, 100.0, [shift.K_MAX + 1]),
        (16, None, None, [shift.K_MAX + 1]), (4, None, None, [8])])
    def test_one_moduli_probe_per_solve(self, monkeypatch, n, k, s, columns):
        # min(k or K_MAX, N - 1) + 1 columns, also when k and s are both
        # fixed: the polish's Cayley parameter reads |xi_{k+1}|
        p = nk.transport_problem(nk.TransportSpec.near_critical(n, 1e-6))
        counts = []

        def counting(factor, count, _fn=shift.smallest_moduli):
            counts.append(count)
            return _fn(factor, count)

        monkeypatch.setattr(shift, "smallest_moduli", counting)
        nk.sushi_solve(p, nk.SushiOptions(k=k, s=s))
        assert counts == columns

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
        u, _ = inverse_orthogonal_iteration(_lu(h.T), 2, 1e-12)
        assert nk.subspace_distance(cs.U, u) <= 1e-10

    def test_rectangular_blocks(self):
        # m = 10, n = 6 blocks of a random near-critical 16 x 16 M-matrix
        rng = np.random.default_rng(0)
        big = rng.uniform(0.0, 1.0, (16, 16))
        m = (np.max(np.abs(np.linalg.eigvals(big))) + 1e-3) * np.eye(16) - big
        n = 6
        p = nk.NareProblem(A=m[n:, n:], B=-m[n:, :n], C=-m[:n, n:], D=m[:n, :n])
        result, *_ = nk.sushi_solve(p)
        x = result.X
        assert x.shape == (10, 6)
        assert result.residual <= 1e-12
        assert x.min() >= -np.finfo(float).eps * frobenius_norm(x)
        assert relative_error(x, nk.sda_solve(p).X) <= 1e-12


class TestDetectK:
    def test_planted_cluster_of_four(self):
        rng = np.random.default_rng(24)
        eigs = np.concatenate([[0.010, 0.011, 0.012, 0.013],
                               rng.uniform(1.0, 2.0, 8)])
        h, _ = planted_matrix(rng, eigs)
        assert detect_k(smallest_moduli(_lu(h), 9)) == 4

    def test_transport_uses_two(self):
        p = nk.transport_problem(nk.TransportSpec.near_critical(32, 1e-6))
        assert detect_k(smallest_moduli(_lu(nk.build_h(p).H), 9)) == 2

    @pytest.mark.parametrize("beta", [1e-2, 3e-3, 1e-3])
    def test_settled_probe_counts_as_fast(self, beta):
        # the central pair settles within the probe's few steps; the probe's
        # moduli still show the gap after |xi_2|, so k = 2 is accepted
        p = nk.transport_problem(nk.TransportSpec.near_critical(8, beta))
        assert detect_k(smallest_moduli(_lu(nk.build_h(p).H), 9)) == 2
        result, cs, _, _ = nk.sushi_solve(p)
        assert cs.k == 2 and result.residual <= 1e-12

    def test_no_separation_raises(self, monkeypatch):
        # all eigenvalues on the unit circle: no modulus gap anywhere
        angles = np.linspace(0.3, 2.8, 5)
        blocks = [np.array([[np.cos(a), np.sin(a)], [-np.sin(a), np.cos(a)]])
                  for a in angles]
        h = scipy.linalg.block_diag(*blocks)
        monkeypatch.setattr(shift, "K_MAX", 4)
        with pytest.raises(KMaxReached):
            detect_k(smallest_moduli(_lu(h), 5))

    @pytest.mark.parametrize("moduli, k", [
        ([0.01, 0.02, 1.0, 1.1, 1.2], 2),
        # |xi_1| / |xi_2| never counts: a central subspace has k >= 2
        ([0.001, 0.010, 0.011, 0.012, 1.0, 1.1], 4),
    ], ids=["gap-after-two", "cluster-of-four"])
    def test_first_gap_in_moduli(self, moduli, k):
        assert detect_k(np.array(moduli)) == k

    def test_no_gap_in_moduli_raises(self):
        moduli = np.geomspace(1.0, 1.5, 6)
        with pytest.raises(KMaxReached) as err:
            detect_k(moduli)
        assert err.value.diagnostics["k_max"] == 5
        assert err.value.diagnostics["t_estimate"] == pytest.approx(moduli[4] / moduli[5])

    @pytest.mark.parametrize("n, beta", [(8, 2e-9), (16, 1e-8), (32, 1.8e-9), (64, 1e-8)])
    def test_near_critical_transport_takes_two(self, n, beta):
        # |xi_2| / |xi_3| is far below SLOW_RATE at each of these betas
        p = nk.transport_problem(nk.TransportSpec.near_critical(n, beta))
        result, cs, _, _ = nk.sushi_solve(p)
        assert cs.k == 2 and result.converged

    def test_transport_n4_takes_two(self):
        p = nk.transport_problem(nk.TransportSpec.near_critical(4, 1e-9))
        result, cs, _, _ = nk.sushi_solve(p)
        assert cs.k == 2 and result.steps <= 8

    @pytest.mark.parametrize("beta", np.geomspace(1e-6, 1e-4, 16))
    def test_float32_transport_near_critical(self, beta):
        p = nk.transport_problem(nk.TransportSpec.near_critical(32, float(beta)))
        reference = nk.sda_solve(p).X
        result, *_ = nk.sushi_solve(p.astype(np.float32),
                                    nk.SushiOptions(tol=1e-7, iter_tol=1e-6))
        assert result.X.dtype == np.float32
        assert relative_error(result.X.astype(np.float64), reference) <= 1e-4

    @pytest.mark.parametrize("problem", [
        lambda: nk.transport_problem(nk.TransportSpec.near_critical(1, 1e-3)),
        lambda: nk.transport_problem(nk.TransportSpec.near_critical(1, 1e-12)),
        lambda: nk.random_mnare(nk.RandomMnareSpec(n=1, alpha=1e-3, seed=0)),
        lambda: carved_mnare(1, 4, 1e-6),
        lambda: carved_mnare(4, 1, 1e-6),
    ], ids=["transport-1-1e-3", "transport-1-1e-12", "random-1", "n1-m4", "n4-m1"])
    def test_no_central_subspace_of_full_order(self, problem):
        # k = n + m leaves no xi_{k+1}: detect_k stops below the order of H
        p = problem()
        with pytest.raises(KMaxReached) as err:
            nk.sushi_solve(p)
        assert err.value.diagnostics["k_max"] == min(shift.K_MAX, p.n + p.m - 1)


class TestShiftSelection:
    def _pair(self, central_eigs):
        central_eigs = np.asarray(central_eigs, dtype=complex)
        k = central_eigs.size
        v = np.eye(4)[:, :k]
        return CentralSubspaces(V=v, U=v, central_eigs=central_eigs,
                                central_vecs=np.eye(k), inv_iter_steps=1)

    def test_rule_arithmetic(self):
        plan = nk.choose_shift_s(self._pair([0.5, 0.6]), xi_next=2.5, h_norm=1.0)
        assert plan.s == pytest.approx(4.0)

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
        est = smallest_moduli(_lu(h), 3)[2]
        assert 5.0 <= est <= 9.0
        # with enough steps the probe converges to |xi_3| exactly
        monkeypatch.setattr(shift, "PROBE_ITERS", 40)
        assert smallest_moduli(_lu(h), 3)[2] == pytest.approx(5.0, rel=1e-6)


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
        cs = CentralSubspaces(V=v, U=v, central_eigs=np.array([0.01, -0.02]),
                              central_vecs=np.eye(2), inv_iter_steps=0)
        shifted = nk.build_shifted_h(h, cs, 9.0)
        got = np.sort(np.linalg.eigvals(shifted.H).real)
        npt.assert_allclose(got, [-1.0, -0.2, 0.1, 1.0], atol=1e-12)

    def test_uv_rule_reads_stored_cond(self, monkeypatch):
        # the COND_CAP rule runs once, when the pair is built, so an exactly
        # singular U^T V never reaches build_shifted_h, which takes no SVD
        def refuse(*args, **kwargs):
            raise AssertionError("build_shifted_h took an SVD")

        h = nk.LinearizingMatrix(np.diag([0.01, -0.02, 1.0, -1.0]), 2, 2)
        v, eigs = np.eye(4)[:, :2], np.array([0.01, -0.02])
        with pytest.raises(CentralPairIllConditioned):
            CentralSubspaces(V=v, U=np.eye(4)[:, 2:], central_eigs=eigs,
                             central_vecs=np.eye(2), inv_iter_steps=0)
        cs = CentralSubspaces(V=v, U=v, central_eigs=eigs, central_vecs=np.eye(2),
                              inv_iter_steps=0)
        monkeypatch.setattr(np.linalg, "svd", refuse)
        shifted = nk.build_shifted_h(h, cs, 9.0)
        npt.assert_allclose(np.diag(shifted.H), [0.1, -0.2, 1.0, -1.0], atol=1e-15)

    def test_spectrum_split_random(self):
        rng = np.random.default_rng(25)
        for s in (1.0, 3.0, 10.0):
            eigs = np.concatenate([[0.05, -0.07], rng.uniform(1.0, 2.0, 8)])
            h, t = planted_matrix(rng, eigs)
            v, _ = np.linalg.qr(t[:, :2])
            u, _ = np.linalg.qr(np.linalg.inv(t).T[:, :2])
            cs = CentralSubspaces(V=v, U=u, central_eigs=eigs[:2],
                                  central_vecs=np.eye(2), inv_iter_steps=0)
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


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(3, 16), k=st.integers(1, 3),
       log_s=st.floats(-1.0, 6.0), seed=st.integers(0, 2**32 - 1))
def test_rank_k_update_matches_product_form(dim, k, log_s, seed):
    # H + s (H V)((U^T V)^-1 U^T) is H (I + s V (U^T V)^-1 U^T) up to the
    # rounding of the products, which s and cond(U^T V) amplify
    rng = np.random.default_rng(seed)
    k = min(k, dim - 1)
    eigs = np.concatenate([rng.uniform(0.01, 0.1, k) * rng.choice([-1, 1], k),
                           rng.uniform(1.0, 2.0, dim - k) * rng.choice([-1, 1], dim - k)])
    h, t = planted_matrix(rng, eigs)
    v, _ = np.linalg.qr(t[:, :k])
    u, _ = np.linalg.qr(np.linalg.inv(t).T[:, :k])
    cs = CentralSubspaces(V=v, U=u, central_eigs=eigs[:k],
                          central_vecs=np.eye(k), inv_iter_steps=0)
    s = 10.0 ** log_s
    got = nk.build_shifted_h(nk.LinearizingMatrix(h, dim // 2, dim - dim // 2), cs, s).H
    want = h @ (np.eye(dim) + s * v @ np.linalg.solve(u.T @ v, u.T))
    bound = 4.0 * dim * np.finfo(float).eps * (1.0 + s) * cs.cond_uv * frobenius_norm(h)
    assert frobenius_norm(got - want) <= bound


def test_build_shifted_h_makes_no_cubic_product():
    # every product has a dimension of at most k: no N x N x N product
    h = nk.LinearizingMatrix(np.diag([0.01, -0.02, 1.0, -1.0, 2.0, -2.0]), 3, 3)
    v = np.eye(6)[:, :2]
    shapes = []

    class Tracked(np.ndarray):
        """Records the operand shapes of every product it takes part in."""

        def __matmul__(self, other):
            shapes.append((np.shape(self), np.shape(other)))
            return (np.asarray(self) @ np.asarray(other)).view(Tracked)

        def __rmatmul__(self, other):
            shapes.append((np.shape(other), np.shape(self)))
            return (np.asarray(other) @ np.asarray(self)).view(Tracked)

    cs = CentralSubspaces(V=v.view(Tracked), U=v.view(Tracked),
                          central_eigs=np.array([0.01, -0.02]), central_vecs=np.eye(2),
                          inv_iter_steps=0)
    nk.build_shifted_h(h, cs, 9.0)
    assert shapes and all(min(a[0], a[1], b[1]) <= 2 for a, b in shapes)


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
        with pytest.raises(InvalidProblem):
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

    def test_guard_before_singular_h(self):
        # M = [[1, 1], [1, 1]] has a positive off-diagonal entry and
        # H = [[1, 1], [-1, -1]] an exact zero pivot: the guard speaks first
        p = nk.NareProblem(A=[[1.0]], B=[[-1.0]], C=[[-1.0]], D=[[1.0]])
        with pytest.raises(SingularMatrix):
            nk.sushi_solve(p, nk.SushiOptions(force=True))
        with pytest.raises(InvalidProblem):
            nk.sushi_solve(p)

    def test_matches_plain_sda_far_from_critical(self):
        p = nk.random_mnare(nk.RandomMnareSpec(n=12, alpha=0.5, seed=5))
        plain = nk.sda_solve(p, nk.SdaConfig())
        result, *_ = nk.sushi_solve(p)
        assert relative_error(result.X, plain.X) <= 1e-8
        assert result.residual <= 1e-13
        assert result.steps <= plain.steps

    def test_fixed_k_and_s_respected(self):
        p = nk.transport_problem(nk.TransportSpec.near_critical(16, 1e-6))
        result, cs, plan, _ = nk.sushi_solve(p, nk.SushiOptions(k=2, s=100.0))
        assert cs.k == 2
        assert plan.s == 100.0
        assert result.residual <= 1e-12

    @pytest.mark.parametrize("k", [-3, 0, 32])
    def test_out_of_range_k_rejected(self, k):
        # the inverse iteration's own message, after the one moduli probe
        p = nk.transport_problem(nk.TransportSpec.near_critical(16, 1e-6))
        with pytest.raises(InvalidProblem, match="central dimension"):
            nk.sushi_solve(p, nk.SushiOptions(k=k))

    @pytest.mark.parametrize("s", [-2.0, -1.0, float("nan"), float("inf")])
    def test_fixed_shift_needs_one_plus_s_positive(self, s):
        # 1 + s < 0 moves the central eigenvalues across the imaginary
        # axis, so doubling converges to another nonnegative solution with a
        # tiny residual; 1 + s = 0 makes the shifted H singular, and an
        # infinite s fills it with NaN
        p = nk.transport_problem(nk.TransportSpec.near_critical(8, 1e-3))
        with pytest.raises(InvalidProblem, match="shift s="):
            nk.sushi_solve(p, nk.SushiOptions(s=s))

    def test_fixed_shift_above_minus_one_is_minimal(self):
        p = nk.transport_problem(nk.TransportSpec.near_critical(8, 1e-3))
        plain = nk.sda_solve(p, nk.SdaConfig())
        result, _, plan, _ = nk.sushi_solve(p, nk.SushiOptions(s=-0.5))
        assert plan.s == -0.5
        assert relative_error(result.X, plain.X) <= 1e-10
        assert result.residual <= 1e-13

    def test_plan_records_elapsed_time(self):
        p = nk.transport_problem(nk.TransportSpec.near_critical(16, 1e-6))
        _, _, plan, _ = nk.sushi_solve(p)
        assert plan.rationale["elapsed_s"] > 0.0
        assert "xi_1" in plan.rationale

    def test_report_schema(self):
        # the shifted solve answers in sda_solve's type, so in its report
        p = nk.transport_problem(nk.TransportSpec.near_critical(16, 1e-6))
        result, *_ = nk.sushi_solve(p)
        assert isinstance(result, nk.SdaOutcome)
        report = result.report()
        assert set(report) == set(nk.sda_solve(p).report())
        assert report["residual"] <= 1e-12
        assert report["converged"] is True

    def test_dual_residual_of_iterated_equation(self):
        # G converges to the dual solution of the shifted equation
        p = nk.transport_problem(nk.TransportSpec.near_critical(32, 1e-12))
        _, _, _, shifted = nk.sushi_solve(p)
        assert shifted.dual_residual <= 1e-13

    @pytest.mark.parametrize("problem", [
        nk.transport_problem(nk.TransportSpec.near_critical(32, 1e-12)),
        nk.random_mnare(nk.RandomMnareSpec(n=24, alpha=1e-3, seed=1)),
        carved_mnare(7, 11, 1e-6),
    ], ids=["transport-32", "random-24", "carved-7x11"])
    def test_result_answers_the_original_equation(self, problem):
        # the polished X and Y, unpolished, of the original equation and its
        # dual; the doubling's count, gamma and tail from the shifted solve
        result, _, _, shifted = nk.sushi_solve(problem)
        assert result.residual == nk.relative_residual(problem, result.X)
        assert result.converged == (result.residual <= residual_bound(problem, 1e-15))
        assert result.Y is shifted.Y
        assert result.dual_residual == nk.relative_residual(problem.dual(), result.Y)
        assert result.dual_residual <= 1e-6
        assert (result.steps, result.gamma, result.tail_from) == (
            shifted.steps, shifted.gamma, shifted.tail_from)
        assert result.gamma == nk.gamma_star(problem)

    def test_residual_not_degraded_vs_plain(self, transport_bench):
        runs, _ = transport_bench
        for cell in runs.values():
            assert cell["result"].residual <= 10.0 * cell["plain"].residual


def _no_modes(p):
    """newton_polish's modes with no columns: nothing deflated."""
    dim = p.n + p.m
    return np.zeros(0, dtype=bool), np.zeros((dim, 0)), np.zeros((0, dim))


def _polish(p, x):
    """newton_polish from x's own residual, with Cayley parameter gamma*."""
    x, res, _ = newton_polish(p, x, nk.residual(p, x), nk.relative_residual(p, x),
                              nk.gamma_star(p), _no_modes(p))
    return x, res


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
    r, calls = nk.residual(p, out.X), []
    for mod, name in ((core, "_residual_with_size"), (shift, "_residual_with_size"),
                      (core, "residual"), (shift, "_smith_correction")):
        monkeypatch.setattr(mod, name, lambda *args: calls.append(args))
    x, res, _ = newton_polish(p, out.X, r, out.residual, nk.gamma_star(p),
                              _no_modes(p))
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


@pytest.mark.parametrize("problem", [
    lambda: nk.transport_problem(nk.TransportSpec.near_critical(32, 1e-12)),
    lambda: nk.transport_problem(nk.TransportSpec.near_critical(64, 1e-12)),
    lambda: carved_mnare(20, 12, 1e-8),
], ids=["transport-32", "transport-64", "carved-20x12"])
def test_deflated_polish_matches_bartels_stewart(problem):
    # the shifted doubling's X, polished with the central pair's slow block
    # solved exactly, against the same Newton steps by a Schur-based solve
    p = problem()
    result, _, plan, shifted = nk.sushi_solve(p)
    assert plan.rationale["polish_doublings"]  # a deflated correction ran
    want, _ = _bartels_stewart_polish(p, shifted.X)
    assert frobenius_norm(result.X - want) <= 1e-12 * frobenius_norm(want)


def test_deflated_polish_doublings():
    # Smith runs at g = sqrt(|xi_3| gamma*) = 31 once the slow pair is
    # deflated; at sqrt(|xi_1| gamma*) = 0.044 it took 17 doublings
    p = nk.transport_problem(nk.TransportSpec.near_critical(256, 1.5e-12))
    result, _, plan, _ = nk.sushi_solve(p)
    assert result.converged
    assert plan.rationale["polish_g"] ** 2 == pytest.approx(
        plan.rationale["xi_next_estimate"] * nk.gamma_star(p))
    assert 1 <= max(plan.rationale["polish_doublings"]) <= 10


@pytest.mark.parametrize("seed", [0, 1])
def test_clamped_shift_matches_plain(seed):
    # |xi_3| / |xi_1| - 1 is 2.3e11 and 4.2e10 here, clamped to S_MAX.  The
    # polished X is plain doubling's, not a nearby second solution.  Y is
    # not polished and keeps the shifted equation's eps * (1 + s) error:
    # unclamped, the dual residual is 4.2e-5 and 8.3e-6.  Seeds 2 and 3
    # miss 1e-6 even at s = 10 (ROADMAP item 5)
    p = nk.random_mnare(nk.RandomMnareSpec(n=256, alpha=1e-12, seed=seed))
    result, _, plan, _ = nk.sushi_solve(p)
    assert plan.s == shift.S_MAX and plan.rationale["clamped"]
    assert result.converged and result.dual_residual <= 1e-6
    plain = nk.sda_solve(p).X
    assert frobenius_norm(result.X - plain) <= 1e-12 * frobenius_norm(plain)


def test_sushi_solve_makes_no_schur_form(monkeypatch):
    p = nk.transport_problem(nk.TransportSpec.near_critical(32, 1e-6))
    calls = []
    for name in ("solve_sylvester", "schur"):
        def counting(*args, _fn=getattr(scipy.linalg, name), _name=name, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(scipy.linalg, name, counting)
    result, _, _, shifted = nk.sushi_solve(p)
    assert result.residual < nk.relative_residual(p, shifted.X)  # the polish ran
    assert calls == []


def test_sushi_solve_residual_calls(monkeypatch):
    # X C X is formed twice in the doubling (primal and dual), once for its
    # X on the original equation, once per polish correction and once for
    # its Y on the original dual equation
    formed, corrections = [], []
    for mod, name in ((core, "_residual_with_size"), (shift, "_residual_with_size"),
                      (core, "residual")):
        def counting(p, x, _fn=getattr(mod, name)):
            formed.append(x.shape)
            return _fn(p, x)
        monkeypatch.setattr(mod, name, counting)

    def correcting(*args, _fn=shift._smith_correction):
        delta = _fn(*args)
        corrections.append(delta is not None)
        return delta

    monkeypatch.setattr(shift, "_smith_correction", correcting)
    p = nk.transport_problem(nk.TransportSpec.near_critical(32, 1e-6))
    result, *_ = nk.sushi_solve(p)
    assert result.residual <= 1e-12
    assert sum(corrections) >= 1  # the polish ran
    assert len(formed) == 4 + sum(corrections)


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
