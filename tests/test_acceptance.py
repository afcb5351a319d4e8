"""Acceptance gate: end-to-end reproduction of the published benchmark
figures plus the randomized property suites backing the shift theory."""

import time

import numpy as np
import pytest
import scipy.linalg

import narekit as nk
from narekit import diagnostics
from narekit.core import ordered_eigenvalues
from narekit.diagnostics import _complete_basis, schur_basis, stable_basis
from narekit.kernel import frobenius_norm, spectral_norm
from narekit.shift import CentralSubspaces
from conftest import TRANSPORT_GRID, planted_matrix
from oracles import relative_error, solution_distance_bound


def match_sorted(got, want, rel=1e-8):
    """Multiset comparison of two real spectra with relative tolerance."""
    got = np.sort(np.asarray(got))
    want = np.sort(np.asarray(want))
    assert got.size == want.size
    scale = np.maximum(np.abs(want), 1.0)
    assert np.all(np.abs(got - want) <= rel * scale)


# --- criterion 1: separation-measures table, transport n = 4 -----------------

TABLE1 = {
    1e-3: dict(gap=0.11, rsep_w=4.5e-3, cayley=0.98, rsep_u=2.9e-2,
               gap_shifted=2.5, rsep_w_shifted=2.3e-2, cayley_shifted=0.69),
    1e-6: dict(gap=3.5e-3, rsep_w=1.4e-4, cayley=0.9995, rsep_u=2.9e-2,
               gap_shifted=2.5, rsep_w_shifted=7.1e-4, cayley_shifted=0.69),
    1e-12: dict(gap=3.5e-6, rsep_w=1.4e-7, cayley=None, rsep_u=2.9e-2,
                gap_shifted=2.5, rsep_w_shifted=7.1e-7, cayley_shifted=0.69),
}


def test_separation_table_transport_n4(monkeypatch):
    t0 = time.perf_counter()
    for beta, want in TABLE1.items():
        p = nk.transport_problem(nk.TransportSpec.near_critical(4, beta))
        h = nk.build_h(p)
        gamma = nk.gamma_star(p)
        moduli = np.sort(np.abs(np.linalg.eigvals(h.H)))
        s = moduli[2] / moduli[0] - 1.0  # exact xi_3 / xi_1 - 1

        assert nk.gap_of(h) == pytest.approx(want["gap"], rel=0.05)
        if want["cayley"] is None:  # essentially critical: the gap saturates
            assert nk.cayley_gap(h, gamma) == pytest.approx(1.0, abs=1e-3)
        else:
            assert nk.cayley_gap(h, gamma) == pytest.approx(want["cayley"],
                                                            rel=0.05)

        w = stable_basis(h.H)
        assert nk.relsep_of_subspace(h.H, w) == pytest.approx(want["rsep_w"],
                                                              rel=0.05)

        # central-subspace relsep, normalized by the spectral norm
        threshold = 0.5 * (moduli[1] + moduli[2])
        u_basis = schur_basis(h.H, lambda re, im: np.hypot(re, im) < threshold)
        q = _complete_basis(u_basis)
        t = q.T @ h.H @ q
        rsep_u = nk.sep_f(t[:2, :2], t[2:, 2:]) / spectral_norm(h.H)
        assert rsep_u == pytest.approx(want["rsep_u"], rel=0.05)

        cs = nk.compute_central_pair(h.H, 2)
        shifted = nk.build_shifted_h(h, cs, s)
        assert nk.gap_of(shifted) == pytest.approx(want["gap_shifted"], rel=0.05)
        assert nk.cayley_gap(shifted, gamma) == pytest.approx(
            want["cayley_shifted"], rel=0.05)
        ws = stable_basis(shifted.H)
        with monkeypatch.context() as patched:
            patched.setattr(diagnostics, "DEFECT_TOL", 1e-6)
            assert nk.relsep_of_subspace(shifted.H, ws) == (
                pytest.approx(want["rsep_w_shifted"], rel=0.08))
    assert time.perf_counter() - t0 < 1.0


# --- criterion 2: transport iteration counts ----------------------------------

TABLE2 = {
    (32, 1e-3): dict(sda=15, sushi=11, orth=12),
    (32, 1e-6): dict(sda=20, sushi=11, orth=6),
    (32, 1e-12): dict(sda=27, sushi=11, orth=3),
    (128, 1e-3): dict(sda=17, sushi=13, orth=12),
    (128, 1e-6): dict(sda=21, sushi=13, orth=6),
    (128, 1e-12): dict(sda=30, sushi=12, orth=4),
}


def test_transport_iteration_counts(transport_bench):
    runs, elapsed = transport_bench
    assert elapsed < 30.0
    for key, want in TABLE2.items():
        cell = runs[key]
        assert abs(cell["plain"].steps - want["sda"]) <= 2, key
        assert abs(cell["result"].steps - want["sushi"]) <= 2, key
        assert abs(cell["cs"].inv_iter_steps - want["orth"]) <= 3, key
        assert cell["plain"].residual <= 1e-12, key
        assert cell["result"].residual <= 1e-12, key


def test_table2_solves_report_converged(transport_bench):
    runs, _ = transport_bench
    for key, cell in runs.items():
        assert cell["plain"].converged, key
        assert cell["shifted"].converged, key
        assert cell["result"].converged, key


# --- criterion 3: random family, qualitative ----------------------------------

def test_random_family_shift_beats_plain():
    for n in (50, 100):
        for seed in range(5):
            p = nk.random_mnare(nk.RandomMnareSpec(n=n, alpha=1e-3, seed=seed))
            plain = nk.sda_solve(p, nk.SdaConfig())
            result, *_ = nk.sushi_solve(p)
            assert plain.steps >= 10, (n, seed)
            assert result.steps <= 6, (n, seed)


# --- criterion 4: single-precision mode ---------------------------------------

def test_single_precision_accuracy():
    p64 = nk.transport_problem(nk.TransportSpec.near_critical(4, 1e-3))
    reference, *_ = nk.sushi_solve(p64)
    p32 = p64.astype(np.float32)

    plain32 = nk.sda_solve(p32, nk.SdaConfig(tol=1e-7))
    assert plain32.X.dtype == np.float32
    err_plain = relative_error(plain32.X, reference.X)

    sol32, *_ = nk.sushi_solve(p32, nk.SushiOptions(tol=1e-7, iter_tol=1e-6))
    assert sol32.X.dtype == np.float32
    err_shift = relative_error(sol32.X, reference.X)

    assert err_plain <= 1e-6
    assert err_shift <= 1e-6
    ratio = err_shift / err_plain
    assert 1.0 / 3.0 <= ratio <= 3.0


# --- criterion 5: rank-k shift spectrum invariance -----------------------------

def test_spectrum_invariance_randomized():
    rng = np.random.default_rng(100)
    shifts = (0.5, 1.0, 10.0)
    for trial in range(200):
        dim = int(rng.integers(6, 21))
        k = int(rng.integers(1, 4))
        s = shifts[trial % 3]
        # keep (1+s)*central below the outer cluster and all eigenvalues
        # well spaced, so the eigensolver resolves the planted spectrum far
        # beyond the 1e-8 matching tolerance
        central = np.linspace(0.02, 0.08, k) * rng.choice([-1.0, 1.0], k)
        rest = 1.2 + np.cumsum(rng.uniform(0.05, 0.15, dim - k))
        eigs = np.concatenate([central, rest])
        h, t = planted_matrix(rng, eigs, coupling=0.15)
        v, _ = np.linalg.qr(t[:, :k])
        u, _ = np.linalg.qr(np.linalg.inv(t).T[:, :k])
        cs = CentralSubspaces(V=v, U=u, central_eigs=central,
                              central_vecs=np.eye(k), inv_iter_steps=0)
        n_part = dim // 2
        shifted = nk.build_shifted_h(
            nk.LinearizingMatrix(h, n_part, dim - n_part), cs, s)
        got = np.linalg.eigvals(shifted.H)
        assert np.max(np.abs(got.imag)) <= 1e-8 * max(1.0, np.abs(got).max())
        match_sorted(got.real, np.concatenate([(1 + s) * central, rest]))


# --- criterion 6: rank-one eigenvalue shift ------------------------------------

def test_rank_one_shift_randomized():
    rng = np.random.default_rng(101)
    for trial in range(200):
        eigs = np.sort(rng.uniform(-5.0, 5.0, 10))
        while np.min(np.diff(eigs)) < 0.05:  # keep the spectrum simple
            eigs = np.sort(rng.uniform(-5.0, 5.0, 10))
        h, t = planted_matrix(rng, eigs, coupling=0.2)
        j = int(rng.integers(0, 10))
        v = t[:, j] / np.linalg.norm(t[:, j])
        u = rng.standard_normal(10)  # any vector not orthogonal to v
        s = float(rng.uniform(0.5, 4.0))
        shifted = nk.classical_shift(h, v, u, s)
        got = np.linalg.eigvals(shifted)
        want = eigs.copy()
        want[j] += s
        assert np.max(np.abs(got.imag)) <= 1e-8 * max(1.0, np.abs(got).max())
        match_sorted(got.real, want)


# --- criterion 7: metric consistency -------------------------------------------

def test_sep_bounded_by_eigenvalue_gap():
    rng = np.random.default_rng(102)
    for _ in range(500):
        p = int(rng.integers(2, 5))
        q = int(rng.integers(2, 5))
        m = rng.standard_normal((p, p))
        n = rng.standard_normal((q, q))
        mu = np.linalg.eigvals(m)
        nu = np.linalg.eigvals(n)
        gap = np.min(np.abs(mu[:, None] - nu[None, :]))
        assert nk.sep_f(m, n) <= gap + 1e-10


def test_sep_equals_gap_for_normal_pairs():
    rng = np.random.default_rng(103)
    for _ in range(100):
        p = int(rng.integers(2, 5))
        q = int(rng.integers(2, 5))
        q1, _ = np.linalg.qr(rng.standard_normal((p, p)))
        q2, _ = np.linalg.qr(rng.standard_normal((q, q)))
        d1 = rng.uniform(-3.0, 3.0, p)
        d2 = rng.uniform(-3.0, 3.0, q)
        m = q1 @ np.diag(d1) @ q1.T
        n = q2 @ np.diag(d2) @ q2.T
        gap = np.min(np.abs(d1[:, None] - d2[None, :]))
        assert nk.sep_f(m, n) == pytest.approx(gap, abs=1e-8)


def test_cayley_gap_general_form_reduces_to_boundary_ratio(transport_bench,
                                                           random_bench):
    runs, _ = transport_bench
    problems = [cell["problem"] for cell in runs.values()]
    problems += [cell["problem"] for cell in random_bench.values()]
    problems.append(nk.transport_problem(nk.TransportSpec.near_critical(4, 1e-3)))
    for p in problems:
        h = nk.build_h(p)
        gamma = nk.gamma_star(p)
        lam = ordered_eigenvalues(h)
        boundary = abs(nk.cayley(lam[h.n - 1], gamma)) / abs(
            nk.cayley(lam[h.n], gamma))
        assert nk.cayley_gap(h, gamma) == pytest.approx(boundary, rel=1e-10)


# --- criterion 8: plain and shifted solves agree --------------------------------

def test_solution_equivalence(transport_bench, random_bench):
    runs, _ = transport_bench
    cells = list(runs.values()) + list(random_bench.values())
    for cell in cells:
        p = cell["problem"]
        x_plain = cell["plain"].X
        x_shift = cell["result"].X
        assert relative_error(x_shift, x_plain) <= 1e-8
        assert nk.relative_residual(p, x_plain) <= 1e-12
        assert nk.relative_residual(p, x_shift) <= 1e-12


# --- criterion 9: conditioning bounds -------------------------------------------

def test_cond_uv_bounded_by_sylvester_oracle():
    rng = np.random.default_rng(104)
    for _ in range(50):
        dim = int(rng.integers(6, 13))
        k = int(rng.integers(1, 4))
        central = rng.uniform(0.02, 0.3, k) * rng.choice([-1.0, 1.0], k)
        rest = rng.uniform(1.0, 3.0, dim - k)
        h, _ = planted_matrix(rng, np.concatenate([central, rest]),
                              coupling=0.3)
        threshold = 0.5 * (np.max(np.abs(central)) + np.min(np.abs(rest)))
        v = schur_basis(h, lambda re, im: np.hypot(re, im) < threshold)
        u = schur_basis(h.T, lambda re, im: np.hypot(re, im) < threshold)
        measured = nk.cond_uv(u, v)
        # reduce along V: Q^T H Q = [[A11, A12], [0, A22]]; the coupling
        # matrix Z with A11 Z - Z A22 = -A12 block-diagonalizes the form and
        # ||(U^T V)^-1|| = sqrt(1 + ||Z||^2)
        q = _complete_basis(v)
        t = q.T @ h @ q
        a11, a12, a22 = t[:k, :k], t[:k, k:], t[k:, k:]
        z = scipy.linalg.solve_sylvester(a11, -a22, -a12)
        bound = np.sqrt(1.0 + spectral_norm(z) ** 2)
        assert measured <= bound + 1e-6


def test_solution_difference_bounded_by_subspace_distance():
    rng = np.random.default_rng(105)
    for trial in range(50):
        n = int(rng.integers(3, 7))
        p = nk.random_mnare(nk.RandomMnareSpec(n=n, alpha=1.0,
                                               seed=200 + trial))
        x = nk.sda_solve(p, nk.SdaConfig()).X
        perturbed = nk.NareProblem(
            p.A, p.B + 1e-6 * rng.standard_normal((n, n)), p.C, p.D)
        xt = nk.sda_solve(perturbed, nk.SdaConfig()).X
        b1, _ = np.linalg.qr(np.vstack([np.eye(n), x]))
        b2, _ = np.linalg.qr(np.vstack([np.eye(n), xt]))
        dist = nk.subspace_distance(b1, b2)
        bound = solution_distance_bound(x, xt, dist)
        assert frobenius_norm(x - xt) <= bound + 1e-6
