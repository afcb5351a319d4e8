"""Properties that define the minimal solution, checked on both solvers.

Whenever `sda_solve` or `sushi_solve` returns, its X is nonnegative up to
roundoff, A - X C and D - C X are M-matrices (X is the minimal solution),
and a converged flag means a residual, recomputed here with plain numpy,
within `sda.residual_bound`.  When both return, they agree.  Two float64
families: random M-NAREs with m x n solutions, m != n allowed, and the
transport family.  `sushi_solve` may refuse a random problem with
`KMaxReached` (no separated central cluster), nothing else.
"""

from hypothesis import given, seed, settings, strategies as st
import numpy as np

import narekit as nk
from narekit.errors import KMaxReached
from narekit.sda import residual_bound

EPS = np.finfo(np.float64).eps


def _random_mnare(n, m, alpha, rng_seed):
    """M-NARE with an m x n solution, carved from (rho(N) + alpha) I - N."""
    big = np.random.default_rng(rng_seed).uniform(0.0, 1.0, (n + m, n + m))
    mm = (np.max(np.abs(np.linalg.eigvals(big))) + alpha) * np.eye(n + m) - big
    return nk.NareProblem(A=mm[n:, n:], B=-mm[n:, :n], C=-mm[:n, n:], D=mm[:n, :n])


def _numpy_residual(p, x):
    """||X C X - X D - A X + B||_F / (||X C X + B||_F + ||A X + X D||_F)."""
    xcx, ax, xd = x @ p.C @ x, p.A @ x, x @ p.D
    r = xcx - xd - ax + p.B
    return np.linalg.norm(r) / (np.linalg.norm(xcx + p.B) + np.linalg.norm(ax + xd))


def _check_minimal(p, x, converged):
    assert x.min() >= -10.0 * EPS * np.linalg.norm(x)
    assert nk.classify_mmatrix(p.A - x @ p.C).is_mmatrix()
    assert nk.classify_mmatrix(p.D - p.C @ x).is_mmatrix()
    if converged:
        assert _numpy_residual(p, x) <= residual_bound(p, 1e-15)


def _check_both_solvers(p, may_refuse):
    plain = nk.sda_solve(p)
    _check_minimal(p, plain.X, plain.converged)
    try:
        solution, *_ = nk.sushi_solve(p)
    except KMaxReached:
        assert may_refuse
        return
    _check_minimal(p, solution.X, solution.converged)
    diff = np.linalg.norm(plain.X - solution.X)
    assert diff <= 1e-8 * np.linalg.norm(plain.X)


@seed(20120601)
@settings(max_examples=100, deadline=None)
@given(n=st.integers(2, 10), m=st.integers(2, 10), log_alpha=st.floats(-8.0, 0.0),
       rng_seed=st.integers(0, 2**32 - 1))
def test_random_family_minimal_solution(n, m, log_alpha, rng_seed):
    _check_both_solvers(_random_mnare(n, m, 10.0 ** log_alpha, rng_seed), True)


@seed(20120601)
@settings(max_examples=100, deadline=None)
@given(n=st.sampled_from([4, 8, 16, 32]), log_beta=st.floats(-10.0, -2.0))
def test_transport_family_minimal_solution(n, log_beta):
    p = nk.transport_problem(nk.TransportSpec.near_critical(n, 10.0 ** log_beta))
    _check_both_solvers(p, False)
