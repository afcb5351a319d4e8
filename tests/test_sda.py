import io
import json

from hypothesis import assume, given, settings, strategies as st
import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg

import narekit as nk
from narekit.errors import Breakdown, ClassificationAmbiguous, InitSingular
from narekit.errors import InvalidProblem, NoConvergence
from narekit.kernel import frobenius_norm
from narekit.sda import BREAKDOWN_COND, SdaState, trace_writer


def scalar_problem(a, b, c, d):
    return nk.NareProblem(A=[[a]], B=[[b]], C=[[c]], D=[[d]])


class TestInit:
    def test_scalar_hand_computed(self):
        # a = d = 2, b = c = 1, gamma = 2:
        #   A_g = D_g = 4, W = V = 4 - 1/4 = 15/4,
        #   E0 = F0 = 1 - 2*gamma/V = 1 - 16/15 = -1/15,
        #   G0 = H0 = 2*gamma * (1/4) * (4/15) = 4/15.
        s = nk.sda_init(scalar_problem(2.0, 1.0, 1.0, 2.0), gamma=2.0)
        npt.assert_allclose(s.E, [[-1.0 / 15.0]], rtol=1e-14)
        npt.assert_allclose(s.F, [[-1.0 / 15.0]], rtol=1e-14)
        npt.assert_allclose(s.G, [[4.0 / 15.0]], rtol=1e-14)
        npt.assert_allclose(s.Hm, [[4.0 / 15.0]], rtol=1e-14)
        assert s.step == 0

    def test_decoupled(self):
        d = np.diag([1.0, 3.0])
        p = nk.NareProblem(A=np.diag([2.0, 4.0]), B=np.zeros((2, 2)),
                           C=np.zeros((2, 2)), D=d)
        s = nk.sda_init(p, gamma=1.0)
        npt.assert_array_equal(s.G, 0.0)
        npt.assert_array_equal(s.Hm, 0.0)
        npt.assert_allclose(s.E, np.eye(2) - 2.0 * np.linalg.inv(d + np.eye(2)))

    def test_init_singular_names_culprit(self):
        p = scalar_problem(-1.0, 0.0, 0.0, 2.0)  # A + gamma*I = 0 at gamma = 1
        with pytest.raises(InitSingular) as err:
            nk.sda_init(p, gamma=1.0)
        assert "A+gamma*I" in err.value.which

    @pytest.mark.parametrize("gamma", [0.0, -1.0, np.nan, np.inf])
    def test_gamma_must_be_finite_and_positive(self, gamma):
        # gamma = 0 used to start at the fixed point E0 = F0 = I,
        # G0 = H0 = 0 and report converged with residual 1
        p = nk.transport_problem(nk.TransportSpec.near_critical(8, 1e-3))
        with pytest.raises(InvalidProblem):
            nk.sda_solve(p, nk.SdaConfig(gamma=gamma))


class TestStep:
    def test_zero_coupling_squares_e_and_f(self):
        rng = np.random.default_rng(11)
        e = rng.standard_normal((3, 3))
        f = rng.standard_normal((2, 2))
        s = SdaState(E=e, F=f, G=np.zeros((3, 2)), Hm=np.zeros((2, 3)))
        out = nk.sda_step(s)
        npt.assert_allclose(out.E, e @ e, atol=1e-13)
        npt.assert_allclose(out.F, f @ f, atol=1e-13)
        npt.assert_array_equal(out.G, 0.0)
        npt.assert_array_equal(out.Hm, 0.0)
        assert out.step == 1

    def test_scalar_recurrence_oracle(self):
        s = nk.sda_init(scalar_problem(2.0, 1.0, 1.0, 2.0), gamma=2.0)
        e, f, g, h = s.E[0, 0], s.F[0, 0], s.G[0, 0], s.Hm[0, 0]
        out = nk.sda_step(s)
        igh = 1.0 / (1.0 - g * h)
        npt.assert_allclose(out.G[0, 0], g + e * igh * g * f, rtol=1e-14)
        npt.assert_allclose(out.Hm[0, 0], h + f * igh * h * e, rtol=1e-14)
        npt.assert_allclose(out.E[0, 0], e * igh * e, rtol=1e-14)
        npt.assert_allclose(out.F[0, 0], f * igh * f, rtol=1e-14)

    def test_breakdown_on_singular_coupling(self):
        s = SdaState(E=np.eye(1), F=np.eye(1), G=np.array([[1.0]]),
                     Hm=np.array([[1.0]]))
        with pytest.raises(Breakdown) as err:
            nk.sda_step(s)
        assert err.value.step == 0

    def test_breakdown_on_condition_estimate(self):
        # I - G@H = diag(1, 1e-15): a nonzero pivot, but a condition
        # estimate above BREAKDOWN_COND
        s = SdaState(E=np.eye(2), F=np.eye(2), G=np.diag([0.0, 1.0]),
                     Hm=np.diag([0.0, 1.0 - 1e-15]), step=5)
        with pytest.raises(Breakdown) as err:
            nk.sda_step(s)
        assert err.value.step == 5
        assert BREAKDOWN_COND < err.value.cond_estimate < np.inf
        assert err.value.cond_estimate == pytest.approx(1.0e15, rel=0.2)

    def test_one_transposed_solve_per_factor(self, monkeypatch):
        # each factor is applied once, by a transposed solve on E^T (n
        # columns) or F^T (m columns)
        n, m = 7, 4
        rng = np.random.default_rng(12)
        s = SdaState(E=_unit_spectral(rng, n, n, np.float64),
                     F=_unit_spectral(rng, m, m, np.float64),
                     G=_unit_spectral(rng, n, m, np.float64, 0.5),
                     Hm=_unit_spectral(rng, m, n, np.float64, 0.5))
        calls = []
        lu_solve = scipy.linalg.lu_solve

        def recording(factor, b, trans=0, **kwargs):
            calls.append((factor[0].shape[0], np.shape(b), trans))
            return lu_solve(factor, b, trans=trans, **kwargs)

        monkeypatch.setattr(scipy.linalg, "lu_solve", recording)
        nk.sda_step(s)
        assert calls == [(n, (n, n), 1), (m, (m, m), 1)]

    def test_doubling_consistency_decoupled(self):
        # with B = C = 0 the coupling never activates, so after k steps
        # E equals E0^(2^k)
        p = nk.NareProblem(A=np.diag([2.0, 3.0]), B=np.zeros((2, 2)),
                           C=np.zeros((2, 2)), D=np.diag([1.0, 4.0]))
        s = nk.sda_init(p, gamma=1.5)
        e0 = s.E.copy()
        for k in range(1, 6):
            s = nk.sda_step(s)
            npt.assert_allclose(s.E, np.linalg.matrix_power(e0, 2 ** k),
                                atol=1e-13)


def _unit_spectral(rng, rows, cols, dtype, scale=1.0):
    a = rng.standard_normal((rows, cols))
    return (scale / np.linalg.norm(a, 2) * a).astype(dtype)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 10), m=st.integers(1, 10),
       dtype=st.sampled_from([np.float64, np.float32]),
       seed=st.integers(0, 2**32 - 1))
def test_step_matches_explicit_formulas(n, m, dtype, seed):
    # m != n, so a slip in the shape of a transposed solve or of a
    # product shows as a shape error or a wrong block
    assume(m != n)
    rng = np.random.default_rng(seed)
    e = _unit_spectral(rng, n, n, dtype)
    f = _unit_spectral(rng, m, m, dtype)
    g = _unit_spectral(rng, n, m, dtype, 0.5)  # ||G@H||_2 <= 1/4
    h = _unit_spectral(rng, m, n, dtype, 0.5)
    out = nk.sda_step(SdaState(E=e, F=f, G=g, Hm=h, step=3))
    e, f, g, h = (a.astype(np.float64) for a in (e, f, g, h))
    igh = np.eye(n) - g @ h
    ihg = np.eye(m) - h @ g
    want = {
        "E": e @ np.linalg.solve(igh, e),
        "F": f @ np.linalg.solve(ihg, f),
        "G": g + e @ np.linalg.solve(igh, g) @ f,
        "Hm": h + f @ np.linalg.solve(ihg, h) @ e,
    }
    tol = 1e-12 if dtype is np.float64 else 1e-5
    for name, ref in want.items():
        got = getattr(out, name)
        assert got.dtype == dtype and got.shape == ref.shape, name
        assert frobenius_norm(got - ref) <= tol * max(frobenius_norm(ref), 1.0), name
    assert out.step == 4


class TestSolve:
    def test_four_lus_to_start_then_two_per_step(self, monkeypatch):
        p = nk.random_mnare(nk.RandomMnareSpec(n=10, alpha=0.5, seed=3))
        calls = []
        lu_factor = scipy.linalg.lu_factor

        def counting(a, *args, **kwargs):
            calls.append(np.shape(a))
            return lu_factor(a, *args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "lu_factor", counting)
        out = nk.sda_solve(p, nk.SdaConfig())
        assert len(calls) == 4 + 2 * out.steps

    def test_random_mnare_converges_nonnegative(self):
        p = nk.random_mnare(nk.RandomMnareSpec(n=10, alpha=0.5, seed=3))
        out = nk.sda_solve(p, nk.SdaConfig())
        assert out.converged
        assert out.residual <= 1e-13
        assert out.dual_residual <= 1e-13
        floor = -1e-12 * frobenius_norm(out.X)
        assert np.all(out.X >= floor)
        assert np.all(out.Y >= -1e-12 * frobenius_norm(out.Y))

    def test_residual_tail_monotone(self):
        p = nk.random_mnare(nk.RandomMnareSpec(n=10, alpha=0.5, seed=3))
        out = nk.sda_solve(p, nk.SdaConfig())
        tail = out.residual_history[-5:]
        assert all(b <= a * (1 + 1e-12) for a, b in zip(tail, tail[1:]))

    def test_step_count_respects_rate_envelope(self):
        p = nk.transport_problem(nk.TransportSpec(n=8, alpha=0.3, c=0.7))
        nu = nk.cayley_gap(nk.build_h(p), nk.gamma_star(p))
        assert nu < 0.99
        out = nk.sda_solve(p, nk.SdaConfig())
        envelope = np.ceil(np.log2(np.log(1e-15) / np.log(nu))) + 4
        assert out.steps <= envelope

    def test_no_convergence_raises_with_history(self):
        p = nk.transport_problem(nk.TransportSpec.near_critical(16, 1e-9))
        with pytest.raises(NoConvergence) as err:
            nk.sda_solve(p, nk.SdaConfig(max_steps=3))
        assert len(err.value.diagnostics["residual_history"]) == 3

    def test_gamma_default_is_gamma_star(self):
        p = nk.random_mnare(nk.RandomMnareSpec(n=6, alpha=1.0, seed=0))
        out = nk.sda_solve(p, nk.SdaConfig())
        assert out.gamma == nk.gamma_star(p)

    def test_residual_problem_redirects_measurement(self):
        # solving a problem while measuring residuals against itself must
        # agree with the default path
        p = nk.random_mnare(nk.RandomMnareSpec(n=6, alpha=1.0, seed=1))
        a = nk.sda_solve(p, nk.SdaConfig())
        b = nk.sda_solve(p, nk.SdaConfig(), residual_problem=p)
        npt.assert_array_equal(a.X, b.X)
        assert a.residual == b.residual


class TestPredictedRate:
    """The rate doubling is predicted to converge at: diagnostics.cayley_gap."""

    def test_exact_cayley_zero(self):
        # the stable eigenvalue -1 sits on the pole of the transform at gamma = 1
        h = nk.LinearizingMatrix(np.diag([1.0, -1.0]), 1, 1)
        assert nk.cayley_gap(h, 1.0) == 0.0

    def test_transport_table_value(self):
        p = nk.transport_problem(nk.TransportSpec.near_critical(4, 1e-3))
        rate = nk.cayley_gap(nk.build_h(p), nk.gamma_star(p))
        assert rate == pytest.approx(0.98, rel=0.01)

    def test_no_split_is_ambiguous(self):
        # both eigenvalues antistable: no rate, although the formula gives 0.4
        h = nk.LinearizingMatrix(np.diag([2.0, 1.0]), 1, 1)
        with pytest.raises(ClassificationAmbiguous):
            nk.cayley_gap(h, 3.0)


def test_trace_writer_emits_json_lines():
    buf = io.StringIO()
    p = nk.random_mnare(nk.RandomMnareSpec(n=6, alpha=1.0, seed=2))
    out = nk.sda_solve(p, nk.SdaConfig(trace=trace_writer(buf)))
    lines = [json.loads(line) for line in buf.getvalue().splitlines()]
    assert len(lines) == out.steps
    assert {"step", "delta_rel", "residual", "cond"} <= set(lines[0])
    assert all(np.isfinite(line["cond"]) and line["cond"] >= 1.0 for line in lines)
