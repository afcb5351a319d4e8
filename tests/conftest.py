import time

import numpy as np
import pytest

import narekit as nk

def carved_mnare(n, m, alpha, seed=0):
    """M-NARE with an m x n solution, carved from (rho(N) + alpha) I - N."""
    big = np.random.default_rng(seed).uniform(0.0, 1.0, (n + m, n + m))
    mm = (np.max(np.abs(np.linalg.eigvals(big))) + alpha) * np.eye(n + m) - big
    return nk.NareProblem(A=mm[n:, n:], B=-mm[n:, :n], C=-mm[:n, n:], D=mm[:n, :n])


TRANSPORT_GRID = [
    (32, 1e-3), (32, 1e-6), (32, 1e-12),
    (128, 1e-3), (128, 1e-6), (128, 1e-12),
]


@pytest.fixture(scope="session")
def transport_bench():
    """Plain and shifted solves on the six-cell transport grid, timed."""
    runs = {}
    t0 = time.perf_counter()
    for n, beta in TRANSPORT_GRID:
        p = nk.transport_problem(nk.TransportSpec.near_critical(n, beta))
        plain = nk.sda_solve(p, nk.SdaConfig())
        solution, cs, plan, outcome = nk.sushi_solve(p)
        runs[(n, beta)] = {
            "problem": p, "plain": plain, "solution": solution,
            "cs": cs, "plan": plan, "outcome": outcome,
        }
    elapsed = time.perf_counter() - t0
    return runs, elapsed


@pytest.fixture(scope="session")
def random_bench():
    """Plain and shifted solves on the random family, n in {50, 100}, seed 0."""
    runs = {}
    for n in (50, 100):
        p = nk.random_mnare(nk.RandomMnareSpec(n=n, alpha=1e-3, seed=0))
        plain = nk.sda_solve(p, nk.SdaConfig())
        solution, cs, plan, outcome = nk.sushi_solve(p)
        runs[n] = {
            "problem": p, "plain": plain, "solution": solution,
            "cs": cs, "plan": plan, "outcome": outcome,
        }
    return runs


def planted_matrix(rng, eigs, coupling=0.3):
    """Real matrix with prescribed eigenvalues via a moderate similarity.

    Returns (h, t) with h = t @ diag(eigs) @ t^-1.
    """
    eigs = np.asarray(eigs, dtype=float)
    dim = eigs.size
    t = np.eye(dim) + coupling * rng.standard_normal((dim, dim))
    h = t @ np.diag(eigs) @ np.linalg.inv(t)
    return h, t


def _node_at_zero(n):
    """A rule on [-1, 1] whose first node maps to 0.0 on (0, 1)."""
    return np.linspace(-1.0, 0.5, n), np.full(n, 2.0 / n)


def _linalg_error(n):
    raise np.linalg.LinAlgError("eigenvalues did not converge")


@pytest.fixture(params=[_node_at_zero, _linalg_error],
                ids=["node-at-zero", "linalg-error"])
def broken_leggauss(request, monkeypatch):
    """numpy's Gauss-Legendre rule replaced by one the quadrature guard of
    problems.gauss_legendre_nodes must reject."""
    monkeypatch.setattr(np.polynomial.legendre, "leggauss", request.param)
