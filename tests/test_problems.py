import numpy as np
import numpy.testing as npt
import pytest

import narekit as nk
from narekit.errors import InvalidProblem
from narekit.kernel import frobenius_norm
from narekit.problems import gauss_legendre_nodes
from oracles import central_real_pair


class TestSpecs:
    def test_transport_validation(self):
        with pytest.raises(InvalidProblem):
            nk.TransportSpec(n=0, alpha=0.1, c=0.9)
        with pytest.raises(InvalidProblem):
            nk.TransportSpec(n=4, alpha=1.0, c=0.9)
        with pytest.raises(InvalidProblem):
            nk.TransportSpec(n=4, alpha=0.1, c=0.0)

    def test_near_critical_family(self):
        spec = nk.TransportSpec.near_critical(8, 1e-3)
        assert spec.alpha == 1e-3 and spec.c == 1 - 1e-3

    def test_random_validation(self):
        with pytest.raises(InvalidProblem):
            nk.RandomMnareSpec(n=4, alpha=0.0, seed=0)
        with pytest.raises(InvalidProblem):
            nk.RandomMnareSpec(n=0, alpha=0.1, seed=0)


class TestQuadrature:
    def test_plain_rule(self):
        nodes, weights = gauss_legendre_nodes(6)
        assert np.all((nodes > 0) & (nodes < 1))
        assert np.sum(weights) == pytest.approx(1.0)
        # a degree-11 rule integrates x^5 exactly
        assert np.sum(weights * nodes ** 5) == pytest.approx(1.0 / 6.0)

    def test_composite_rule(self):
        nodes, weights = gauss_legendre_nodes(8)
        assert nodes.size == 8 and weights.size == 8
        assert np.sum(weights) == pytest.approx(1.0)
        # composite nodes stay well inside (0, 1); largest node of each
        # 4-point panel is bounded away from the right endpoint
        assert nodes.max() < 1.0 - 1e-3
        assert np.sum(weights * nodes ** 4) == pytest.approx(0.2)

    def test_guard_rejects_a_broken_rule(self, broken_leggauss):
        # a node on the boundary of (0, 1) would divide by zero in the
        # transport coefficients
        with pytest.raises(InvalidProblem):
            nk.transport_problem(nk.TransportSpec.near_critical(5, 1e-3))


class TestTransportProblem:
    def test_table_gap(self):
        p = nk.transport_problem(nk.TransportSpec.near_critical(4, 1e-3))
        assert nk.gap_of(nk.build_h(p)) == pytest.approx(0.11, rel=0.05)

    def test_critical_boundary_eigenvalues(self):
        p = nk.transport_problem(nk.TransportSpec(n=4, alpha=0.0, c=1.0))
        h = nk.build_h(p)
        lam_n, lam_n1 = central_real_pair(h)
        scale = frobenius_norm(h.H)
        assert abs(lam_n) <= 1e-8 * scale
        assert abs(lam_n1) <= 1e-8 * scale

    def test_gap_decreases_with_beta(self):
        gaps = [nk.gap_of(nk.build_h(
            nk.transport_problem(nk.TransportSpec.near_critical(4, b))))
            for b in (1e-3, 1e-6, 1e-12)]
        assert gaps[0] > gaps[1] > gaps[2]

    def test_eigenvalue_split(self):
        p = nk.transport_problem(nk.TransportSpec(n=12, alpha=0.2, c=0.8))
        h = nk.build_h(p)
        lam = np.linalg.eigvals(h.H)
        assert np.sum(lam.real > 0) == 12
        assert np.sum(lam.real < 0) == 12

    def test_metadata(self):
        p = nk.transport_problem(nk.TransportSpec(n=4, alpha=0.1, c=0.9))
        assert p.metadata["family"] == "transport"
        assert p.metadata["alpha"] == 0.1


class TestRandomMnare:
    def test_deterministic(self):
        a = nk.random_mnare(nk.RandomMnareSpec(n=10, alpha=0.3, seed=42))
        b = nk.random_mnare(nk.RandomMnareSpec(n=10, alpha=0.3, seed=42))
        npt.assert_array_equal(a.A, b.A)
        npt.assert_array_equal(a.B, b.B)

    def test_classifies_nonsingular(self):
        p = nk.random_mnare(nk.RandomMnareSpec(n=10, alpha=0.3, seed=1))
        assert nk.classify_mmatrix(nk.build_m(p)).tag == "NonsingularM"

    def test_approaches_singularity_with_alpha(self):
        for alpha in (1e-2, 1e-5):
            p = nk.random_mnare(nk.RandomMnareSpec(n=8, alpha=alpha, seed=2))
            m = nk.build_m(p)
            min_real = np.min(np.linalg.eigvals(m).real)
            assert 0.0 < min_real <= alpha * (1.0 + 1e-8)

    def test_dominant_converges_quickly(self):
        p = nk.random_mnare(nk.RandomMnareSpec(n=10, alpha=1e3, seed=3))
        out = nk.sda_solve(p, nk.SdaConfig())
        assert out.steps <= 8

    def test_metadata_records_prng(self):
        p = nk.random_mnare(nk.RandomMnareSpec(n=4, alpha=0.5, seed=7))
        assert p.metadata["prng"] == "PCG64"
        assert p.metadata["seed"] == 7


class TestReverseEngineered:
    def test_zero_solution(self):
        p = nk.reverse_engineered_problem(np.zeros((2, 2)), np.eye(2),
                                          np.eye(2), np.eye(2))
        npt.assert_array_equal(p.B, 0.0)

    def test_scalar_arithmetic(self):
        p = nk.reverse_engineered_problem([[1.0]], [[2.0]], [[1.0]], [[2.0]])
        assert p.B[0, 0] == pytest.approx(3.0)

    def test_random_instance(self):
        rng = np.random.default_rng(36)
        x0 = rng.uniform(0.0, 1.0, (5, 5))
        a = np.diag(rng.uniform(4.0, 5.0, 5))
        c = rng.uniform(0.0, 0.3, (5, 5))
        d = np.diag(rng.uniform(4.0, 5.0, 5))
        p = nk.reverse_engineered_problem(x0, a, c, d)
        scale = max(frobenius_norm(p.B), 1.0)
        assert frobenius_norm(nk.residual(p, x0)) <= 1e-13 * scale
