"""Properties that define the minimal solution, checked on both solvers.

Whenever `sda_solve` or `sushi_solve` returns, its X is nonnegative up to
roundoff, A - X C and D - C X are M-matrices (X is the minimal solution),
and a converged flag means a residual, recomputed here with plain numpy,
within `sda.residual_bound`.  When both return, they agree.  Two float64
families: random M-NAREs with m x n solutions, m != n allowed, and the
transport family.  `sushi_solve` may refuse a random problem with
`KMaxReached` (no separated central cluster), nothing else.  Float32
casts of the transport family go through `sushi_solve` only: it converges
and agrees with float64 `sda_solve` to 1e-4.  Plain float32 doubling is
left out: at beta below eps_32 it can break down, and its error reaches
5e-3.  Both solvers are invariant under scaling the equation by c = 10^k,
|k| <= 30: the same steps, X to 1e-10, and the same refusal.  Critical
transport fails through both solvers; two strict xfails pin that until
ROADMAP item 4 mends it.
"""

from hypothesis import example, given, seed, settings, strategies as st
import numpy as np
import pytest

import narekit as nk
from narekit.errors import KMaxReached, NarekitError, NoConvergence
from narekit.sda import residual_bound
from conftest import carved_mnare

EPS = np.finfo(np.float64).eps


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
        result, *_ = nk.sushi_solve(p)
    except KMaxReached:
        assert may_refuse
        return
    _check_minimal(p, result.X, result.converged)
    diff = np.linalg.norm(plain.X - result.X)
    assert diff <= 1e-8 * np.linalg.norm(plain.X)


@seed(20120601)
@settings(max_examples=100, deadline=None)
@given(n=st.integers(2, 10), m=st.integers(2, 10), log_alpha=st.floats(-8.0, 0.0),
       rng_seed=st.integers(0, 2**32 - 1))
def test_random_family_minimal_solution(n, m, log_alpha, rng_seed):
    _check_both_solvers(carved_mnare(n, m, 10.0 ** log_alpha, rng_seed), True)


@seed(20120601)
@settings(max_examples=100, deadline=None)
@given(n=st.sampled_from([4, 8, 16, 32]), log_beta=st.floats(-10.0, -2.0))
def test_transport_family_minimal_solution(n, log_beta):
    p = nk.transport_problem(nk.TransportSpec.near_critical(n, 10.0 ** log_beta))
    _check_both_solvers(p, False)


@seed(20120601)
@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from([4, 8, 16, 32]), log_beta=st.floats(-6.0, -2.0))
def test_float32_transport_shifted_solution(n, log_beta):
    p = nk.transport_problem(nk.TransportSpec.near_critical(n, 10.0 ** log_beta))
    reference = nk.sda_solve(p).X
    result, *_ = nk.sushi_solve(p.astype(np.float32), nk.SushiOptions(tol=1e-7))
    assert result.X.dtype == np.float32
    assert result.converged
    err = np.linalg.norm(result.X.astype(np.float64) - reference)
    assert err <= 1e-4 * np.linalg.norm(reference)


def _check_scale_invariance(p, log_c):
    c = 10.0 ** log_c
    scaled = nk.NareProblem(c * p.A, c * p.B, c * p.C, c * p.D)
    for solve in (nk.sda_solve, lambda q: nk.sushi_solve(q)[0]):
        try:
            base = solve(p)
        except NarekitError as exc:  # sushi_solve refuses some random equations
            with pytest.raises(type(exc)):
                solve(scaled)
            continue
        out = solve(scaled)
        assert out.converged and base.converged
        assert out.steps == base.steps
        assert np.linalg.norm(out.X - base.X) <= 1e-10 * np.linalg.norm(base.X)


@seed(20120601)
@settings(max_examples=50, deadline=None)
@given(n=st.integers(2, 16), log_beta=st.floats(-8.0, -2.0),
       log_c=st.integers(-30, 30))
@example(n=16, log_beta=-6.0, log_c=-17)  # solved at a residual denominator of 1e-16
def test_transport_scale_invariance(n, log_beta, log_c):
    p = nk.transport_problem(nk.TransportSpec.near_critical(n, 10.0 ** log_beta))
    _check_scale_invariance(p, log_c)


@seed(20120601)
@settings(max_examples=50, deadline=None)
@given(n=st.integers(2, 10), m=st.integers(2, 10), log_alpha=st.floats(-8.0, 0.0),
       rng_seed=st.integers(0, 2**32 - 1), log_c=st.integers(-30, 30))
def test_random_scale_invariance(n, m, log_alpha, rng_seed, log_c):
    _check_scale_invariance(carved_mnare(n, m, 10.0 ** log_alpha, rng_seed), log_c)


# Critical transport (alpha = 0, c = 1, M singular) through both solvers.
# Both fail today; ROADMAP item 4's fix is expected to flip them.
CRITICAL = nk.TransportSpec(n=8, alpha=0.0, c=1.0)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 4: plain SDA on critical transport runs to "
                          "its 60-step cap with converged false")
def test_critical_transport_plain_converges():
    assert nk.sda_solve(nk.transport_problem(CRITICAL)).converged


@pytest.mark.xfail(strict=True, raises=NoConvergence,
                   reason="ROADMAP item 4: the central pair's inverse iteration "
                          "does not settle on critical transport")
def test_critical_transport_shifted_returns():
    nk.sushi_solve(nk.transport_problem(CRITICAL))
