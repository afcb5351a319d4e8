import io
import json

from hypothesis import assume, given, settings, strategies as st
import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg

import narekit as nk
from narekit import kernel, sda
from narekit.errors import Breakdown, InvalidProblem, NoConvergence
from narekit.kernel import BREAKDOWN_COND, frobenius_norm
from narekit.sda import SdaState, trace_writer

from conftest import carved_mnare


def scalar_problem(a, b, c, d):
    return nk.NareProblem(A=[[a]], B=[[b]], C=[[c]], D=[[d]])


def decoupled_problem():
    """A = diag(2, 1), B = 0.1, C = 0, D = diag(1.5, 1): Y = 0 solves the dual."""
    return nk.NareProblem(A=np.diag([2.0, 1.0]), B=np.full((2, 2), 0.1),
                          C=np.zeros((2, 2)), D=np.diag([1.5, 1.0]))


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
        with pytest.raises(Breakdown) as err:
            nk.sda_init(p, gamma=1.0)
        assert err.value.diagnostics == {"which": "A+gamma*I", "cond_estimate": np.inf}

    def test_init_refuses_past_the_step_cap(self):
        # a nonzero pivot is not enough: A + gamma*I = diag(1, 1e-14) has
        # cond 1e14, above the cap every doubling step's I - G@H is held to
        p = nk.NareProblem(A=np.diag([0.0, 1e-14 - 1.0]), B=np.zeros((2, 2)),
                           C=np.zeros((2, 2)), D=np.eye(2))
        with pytest.raises(Breakdown) as err:
            nk.sda_init(p, gamma=1.0)
        assert err.value.diagnostics["which"] == "A+gamma*I"
        assert BREAKDOWN_COND < err.value.diagnostics["cond_estimate"] < np.inf

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
        assert err.value.diagnostics["step"] == 0

    def test_breakdown_on_condition_estimate(self):
        # I - G@H = diag(1, 1e-15): a nonzero pivot, but a condition
        # estimate above BREAKDOWN_COND
        s = SdaState(E=np.eye(2), F=np.eye(2), G=np.diag([0.0, 1.0]),
                     Hm=np.diag([0.0, 1.0 - 1e-15]), step=5)
        with pytest.raises(Breakdown) as err:
            nk.sda_step(s)
        assert err.value.diagnostics["step"] == 5
        assert BREAKDOWN_COND < err.value.diagnostics["cond_estimate"] < np.inf
        assert err.value.diagnostics["cond_estimate"] == pytest.approx(1.0e15, rel=0.2)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("factored", [False, True], ids=["dense", "factored"])
    def test_breakdown_on_overflow(self, factored):
        # E' = E @ E overflows to inf with I - G@H = I perfectly conditioned
        big = np.array([[1e200]])
        s = SdaState(E=big, F=np.eye(1), G=np.zeros((1, 1)), Hm=np.zeros((1, 1)), step=3)
        if factored:
            s = sda._switch(s, (big, np.eye(1)), (np.eye(1), np.eye(1)))
        with pytest.raises(Breakdown) as err:
            nk.sda_step(s)
        assert err.value.diagnostics == {"step": 3, "cond_estimate": 1.0}

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("field, entry", [("G", np.nan), ("Hm", np.inf)])
    def test_breakdown_on_non_finite_coupling(self, field, entry):
        # I - G@H is not finite: no factor, an infinite condition estimate
        rng = np.random.default_rng(14)
        s = SdaState(E=np.eye(3), F=np.eye(2), G=rng.random((3, 2)) / 9,
                     Hm=rng.random((2, 3)) / 9, step=4)
        getattr(s, field)[1, 1] = entry
        with pytest.raises(Breakdown) as err:
            nk.sda_step(s)
        assert err.value.diagnostics == {"step": s.step, "cond_estimate": np.inf}

    @pytest.mark.filterwarnings("error")
    def test_breakdown_on_nan_in_e(self):
        s = SdaState(E=np.array([[np.nan, 0.0], [0.0, 1.0]]), F=np.eye(2),
                     G=np.zeros((2, 2)), Hm=np.zeros((2, 2)), step=2)
        with pytest.raises(Breakdown, match="E or F overflowed") as err:
            nk.sda_step(s)
        assert err.value.diagnostics == {"step": 2, "cond_estimate": 1.0}

    def test_lapack_calls_per_step(self, monkeypatch):
        # a dense step fetches one getrf, gecon and getrs per half, in that
        # order; a tail step none of them
        n, m = 7, 4
        rng = np.random.default_rng(15)
        s = SdaState(E=_unit_spectral(rng, n, n, np.float64),
                     F=_unit_spectral(rng, m, m, np.float64),
                     G=_unit_spectral(rng, n, m, np.float64, 0.5),
                     Hm=_unit_spectral(rng, m, n, np.float64, 0.5))
        tail = sda._switch(s, (s.E, np.eye(n)), (s.F, np.eye(m)))
        fetched = []
        lapack = scipy.linalg.get_lapack_funcs

        def lookup(names, *args, **kwargs):
            if names in ("getrf", "gecon", "getrs"):
                fetched.append(names)
            return lapack(names, *args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "get_lapack_funcs", lookup)
        nk.sda_step(s)
        assert fetched == ["getrf", "gecon", "getrs"] * 2
        fetched.clear()
        nk.sda_step(nk.sda_step(tail))
        assert fetched == []

    def test_one_transposed_solve_per_factor(self, monkeypatch):
        # each factor is applied once, by a transposed solve on E^T (n
        # columns) or F^T (m columns); a tail state has no factor to apply
        n, m = 7, 4
        rng = np.random.default_rng(12)
        s = SdaState(E=_unit_spectral(rng, n, n, np.float64),
                     F=_unit_spectral(rng, m, m, np.float64),
                     G=_unit_spectral(rng, n, m, np.float64, 0.5),
                     Hm=_unit_spectral(rng, m, n, np.float64, 0.5))
        calls = []
        lu_solve = sda.lu_solve

        def recording(factor, b, trans=0, **kwargs):
            calls.append((factor[0].shape[0], np.shape(b), trans))
            return lu_solve(factor, b, trans=trans, **kwargs)

        monkeypatch.setattr(sda, "lu_solve", recording)
        nk.sda_step(s)
        assert calls == [(n, (n, n), 1), (m, (m, m), 1)]
        tail = sda._switch(s, (s.E, np.eye(n)), (s.F, np.eye(m)))
        nk.sda_step(nk.sda_step(tail))
        assert calls == [(n, (n, n), 1), (m, (m, m), 1)]

    @pytest.mark.parametrize("n, m, r", [(7, 4, 2), (3, 9, 2), (7, 4, 1), (3, 9, 1)],
                             ids=["7-4", "3-9", "7-4-rank1", "3-9-rank1"])
    def test_factored_step_matches_dense_step(self, monkeypatch, n, m, r):
        # a tail state made by the switch from E = el @ er, F = fl @ fr steps
        # like its dense product, keeping the left factors, with no LU and
        # no solve; three steps, so the Woodbury terms are not all zero.
        # r = 1 is the width _thin gives a rank-one E or F: broadcast
        # products and the rank-one ||E'||_1
        rng = np.random.default_rng(13)
        el, er = rng.standard_normal((n, r)), rng.standard_normal((r, n)) / (2 * n)
        fl, fr = rng.standard_normal((m, r)), rng.standard_normal((r, m)) / (2 * m)
        g = _unit_spectral(rng, n, m, np.float64, 0.5)
        h = _unit_spectral(rng, m, n, np.float64, 0.5)
        dense = [SdaState(E=el @ er, F=fl @ fr, G=g, Hm=h, step=2)]
        for _ in range(3):
            dense.append(nk.sda_step(dense[-1]))
        out = sda._switch(dense[0], (el, er), (fl, fr))
        calls, lapack = [], scipy.linalg.get_lapack_funcs

        def lookup(names, *args, **kwargs):  # every LU entry of kernel looks up getrf
            if names in ("getrf", "gecon", "getrs", "getri"):
                calls.append(names)
            return lapack(names, *args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "get_lapack_funcs", lookup)
        for before, ref in zip(dense, dense[1:]):
            out = nk.sda_step(out)
            assert out.E.left is el and out.F.left is fl and out.step == ref.step
            g, h = sda._iterates(out)
            for got, want in [(out.E.left @ out.E.right, ref.E), (g, ref.G),
                              (out.F.left @ out.F.right, ref.F), (h, ref.Hm)]:
                assert frobenius_norm(got - want) <= 1e-13 * max(frobenius_norm(want), 1.0)
            # exact norms, where the dense step reads gecon's estimates
            gh, hg = np.eye(n) - before.G @ before.Hm, np.eye(m) - before.Hm @ before.G
            cond = max(np.linalg.cond(gh, 1), np.linalg.cond(hg, 1))
            err_est = (np.linalg.norm(ref.E, 1) * np.linalg.norm(ref.F, 1)
                       * np.linalg.norm(np.linalg.inv(gh), 1))
            assert out.cond == pytest.approx(cond, rel=1e-12)
            assert out.err_est == pytest.approx(err_est, rel=1e-12)
        assert calls == []

    def test_singular_woodbury_matrix_is_breakdown(self, monkeypatch):
        # a tail step that cannot invert its 2r x 2r Woodbury matrix C
        # reads an infinite condition estimate and breaks down
        rng = np.random.default_rng(16)
        n, m = 6, 5
        s = SdaState(E=np.zeros((n, n)), F=np.zeros((m, m)),
                     G=_unit_spectral(rng, n, m, np.float64, 0.5),
                     Hm=_unit_spectral(rng, m, n, np.float64, 0.5), step=3)
        tail = sda._switch(s, (rng.standard_normal((n, 2)), np.zeros((2, n))),
                           (rng.standard_normal((m, 2)), np.zeros((2, m))))

        def singular(a):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "inv", singular)
        with pytest.raises(Breakdown) as err:
            nk.sda_step(tail)
        assert err.value.diagnostics == {"step": 3, "cond_estimate": np.inf}

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


class TestStepKernels:
    """sda_step keeps its input state and takes np.linalg.norm's 1-norms."""

    PROBLEMS = {
        "transport-32": lambda: nk.transport_problem(nk.TransportSpec.near_critical(32, 1e-6)),
        "random-64": lambda: nk.random_mnare(nk.RandomMnareSpec(64, 1e-3, 0)),
    }

    @pytest.mark.parametrize("factored", [False, True])
    def test_input_state_unchanged(self, factored):
        rng = np.random.default_rng(14)
        n, m = 6, 5
        g = _unit_spectral(rng, n, m, np.float64, 0.5)
        h = _unit_spectral(rng, m, n, np.float64, 0.5)
        e, f = _unit_spectral(rng, n, n, np.float64), _unit_spectral(rng, m, m, np.float64)
        s = SdaState(E=e, F=f, G=g, Hm=h)
        if factored:  # a tail state one step past the switch: coef is not 0
            s = nk.sda_step(sda._switch(
                s, (rng.standard_normal((n, 2)), rng.standard_normal((2, n)) / (2 * n)),
                (rng.standard_normal((m, 2)), rng.standard_normal((2, m)) / (2 * m))))

        def arrays(state):  # all but a tail's scratch array
            return [a for v in (state.E, state.F, state.G, state.Hm)
                    for a in (v[:-1] if isinstance(v, sda._Tail) else (v,))]

        kept = [a.copy() for a in arrays(s)]
        nk.sda_step(s)
        for before, after in zip(kept, arrays(s), strict=True):
            npt.assert_array_equal(before, after)

    @pytest.mark.parametrize("name", sorted(PROBLEMS))
    def test_bit_identical_to_numpy_one_norm(self, monkeypatch, name):
        # the oracle is the step with np.linalg.norm(., 1) patched back in
        p = self.PROBLEMS[name]()
        start = nk.sda_init(p, nk.gamma_star(p))
        got, want = [start], [start]
        for _ in range(4):
            got.append(nk.sda_step(got[-1]))
        monkeypatch.setattr(sda, "one_norm", lambda mat: np.linalg.norm(mat, 1))
        for _ in range(4):
            want.append(nk.sda_step(want[-1]))
        for a, b in zip(got[1:], want[1:]):
            for field in ("E", "F", "G", "Hm"):
                x, y = getattr(a, field), getattr(b, field)
                assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), field
            assert (a.cond, a.err_est, a.step) == (b.cond, b.err_est, b.step)


@pytest.mark.parametrize("par_min_dim", [1, None])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("n", [32, 128])
def test_dense_step_bit_equal_to_its_formulas(monkeypatch, n, dtype, par_min_dim):
    # each half byte for byte as written out: Z = E (I - G H)^-1 by a
    # transposed solve, E' = Z E and G' = G + Z (G F), on one thread or two
    if par_min_dim is not None:
        monkeypatch.setattr(kernel, "PAR_MIN_DIM", par_min_dim)
    p = nk.transport_problem(nk.TransportSpec.near_critical(n, 1e-6)).astype(dtype)
    s = nk.sda_step(nk.sda_init(p, nk.gamma_star(p)))

    def half(e, f, g, h):
        factor = scipy.linalg.lu_factor(np.eye(len(g), dtype=g.dtype) - g @ h)
        z = scipy.linalg.lu_solve(factor, e.T, trans=1).T
        return z @ e, g + z @ (g @ f)

    out = nk.sda_step(s)
    want = dict(zip("EG", half(s.E, s.F, s.G, s.Hm)))
    want.update(zip(("F", "Hm"), half(s.F, s.E, s.Hm, s.G)))
    for name, ref in want.items():
        got = getattr(out, name)
        assert got.dtype == ref.dtype and got.flags.c_contiguous == ref.flags.c_contiguous
        assert got.tobytes() == ref.tobytes(), name


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
        # two per dense step and two at the switch; a tail step takes none;
        # counted as getrf lookups, which every LU entry of kernel makes
        calls = []
        lapack = scipy.linalg.get_lapack_funcs

        def counting(names, *args, **kwargs):
            if names == "getrf":
                calls.append(names)
            return lapack(names, *args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "get_lapack_funcs", counting)
        for spec, tail in [(nk.RandomMnareSpec(n=10, alpha=0.5, seed=3), False),
                           (nk.RandomMnareSpec(n=64, alpha=1e-3, seed=3), True)]:
            p = nk.random_mnare(spec)
            calls.clear()
            out = nk.sda_solve(p)
            assert (out.tail_from is not None) == tail
            if tail:
                assert out.tail_from < out.steps
                assert len(calls) == 4 + 2 * out.tail_from + 2
            else:
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

    @pytest.mark.filterwarnings("error")
    def test_overflow_breaks_down_in_its_own_step(self):
        # float32 transport with beta below eps_32: E and F grow until one
        # overflows; the step that overflows raises, no nan err_est is traced
        p = nk.transport_problem(nk.TransportSpec.near_critical(8, 1e-6))
        trace = []
        with pytest.raises(Breakdown) as err:
            nk.sda_solve(p.astype(np.float32), nk.SdaConfig(tol=1e-7, trace=trace.append))
        assert trace and all(np.isfinite(r["err_est"]) for r in trace)
        assert err.value.diagnostics["step"] == trace[-1]["step"]
        assert err.value.diagnostics["cond_estimate"] < BREAKDOWN_COND

    def test_err_est_tail_falls(self):
        p = nk.random_mnare(nk.RandomMnareSpec(n=10, alpha=0.5, seed=3))
        records = []
        nk.sda_solve(p, nk.SdaConfig(trace=records.append))
        tail = [r["err_est"] for r in records[-4:]]
        assert all(b < a for a, b in zip(tail, tail[1:]))

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
        diagnostics = err.value.diagnostics
        assert set(diagnostics) == {"err_est", "residual"}
        assert all(np.isfinite(v) for v in diagnostics.values())

    def test_step_cap_below_residual_bound_returns_unconverged(self):
        # at the step cap the residual 6.9e-13 is above 100 tol = 1e-13 but
        # within residual_bound = 100 (n + m) eps = 1.4e-12: one threshold
        # decides, so the outcome returns, flagged not converged
        p = nk.transport_problem(nk.TransportSpec.near_critical(32, 1e-6))
        out = nk.sda_solve(p, nk.SdaConfig(max_steps=18))
        assert out.steps == 18 and not out.converged
        assert 100 * 1e-15 < out.residual <= sda.residual_bound(p, 1e-15)

    def test_residual_check_flags_a_false_stop(self):
        # gamma = 1e9 (gamma* = 27.6) stops on its error estimate at the
        # Cayley start's cancellation level, a residual of 2.7e-8
        p = nk.transport_problem(nk.TransportSpec.near_critical(8, 1e-3))
        out = nk.sda_solve(p, nk.SdaConfig(gamma=1e9))
        assert out.residual > sda.residual_bound(p, 1e-15)
        assert not out.converged

    @pytest.mark.parametrize("max_steps", [0, -3, 2.5])
    @pytest.mark.parametrize("solver", ["sda", "sushi"])
    def test_step_cap_must_be_a_positive_integer(self, solver, max_steps):
        # a usage error, not "doubling did not converge in 0 steps"
        p = nk.transport_problem(nk.TransportSpec.near_critical(8, 1e-3))
        with pytest.raises(InvalidProblem):
            if solver == "sda":
                nk.sda_solve(p, nk.SdaConfig(max_steps=max_steps))
            else:
                nk.sushi_solve(p, nk.SushiOptions(max_steps=max_steps))

    @pytest.mark.parametrize("tol", [float("nan"), float("inf")])
    def test_non_finite_tol_rejected(self, tol):
        # a NaN tol never stops the iteration, and says nothing about it
        p = nk.transport_problem(nk.TransportSpec.near_critical(8, 1e-3))
        with pytest.raises(InvalidProblem):
            nk.sda_solve(p, nk.SdaConfig(tol=tol))

    def test_zero_b_solves_to_zero(self):
        # B = 0: X = 0 is the minimal solution, with a zero residual denominator
        p = nk.transport_problem(nk.TransportSpec.near_critical(8, 1e-3))
        out = nk.sda_solve(nk.NareProblem(p.A, np.zeros_like(p.B), p.C, p.D))
        assert out.converged
        assert not out.X.any()
        assert out.residual == 0.0

    def test_zero_c_solves_with_zero_dual(self):
        # C = 0: Y = 0 solves the dual equation Y B Y - Y A - D Y + C = 0
        out = nk.sda_solve(decoupled_problem())
        assert out.converged
        assert not out.Y.any()
        assert out.dual_residual == 0.0

    def test_gamma_default_is_gamma_star(self):
        p = nk.random_mnare(nk.RandomMnareSpec(n=6, alpha=1.0, seed=0))
        out = nk.sda_solve(p, nk.SdaConfig())
        assert out.gamma == nk.gamma_star(p)

    @pytest.mark.parametrize("problem", [
        lambda: nk.random_mnare(nk.RandomMnareSpec(n=10, alpha=0.5, seed=3)),
        lambda: nk.transport_problem(nk.TransportSpec.near_critical(32, 1e-12)),
    ], ids=["random", "transport"])
    def test_one_primal_and_one_dual_residual(self, monkeypatch, problem):
        calls = []
        relative_residual = nk.relative_residual

        def counting(p, x):
            calls.append(x.shape)
            return relative_residual(p, x)

        monkeypatch.setattr("narekit.sda.relative_residual", counting)
        p = problem()
        out = nk.sda_solve(p, nk.SdaConfig())
        assert out.converged
        assert calls == [(p.m, p.n), (p.n, p.m)]


def _dense_loop(p, tol=1e-15):
    """sda_solve's loop on dense states only (no tail): the final state and
    the converged flag as sda_solve defines it."""
    stop = max(tol, sda.TOL_FLOOR_EPS * float(np.finfo(p.dtype).eps))
    state = nk.sda_init(p, nk.gamma_star(p))
    while state.step < nk.SdaConfig().max_steps:
        state = nk.sda_step(state)
        if state.err_est <= stop:
            return state, nk.relative_residual(p, state.Hm) <= sda.residual_bound(p, tol)
    return state, False


class TestTail:
    """sda_solve's factored tail against the dense loop it replaces."""

    # trailing comments: the step after which the tail began, as measured
    @pytest.mark.parametrize("problem, tol", [
        *[(lambda seed=seed: nk.random_mnare(nk.RandomMnareSpec(n=128, alpha=1e-3, seed=seed)),
           1e-15) for seed in range(3)],  # 4
        (lambda: nk.transport_problem(nk.TransportSpec.near_critical(128, 1e-12)), 1e-15),  # 14
        (lambda: nk.transport_problem(nk.TransportSpec.near_critical(256, 1.5e-12)), 1e-15),  # 15
        (lambda: carved_mnare(64, 96, 1e-6), 1e-15),  # 4
        (lambda: carved_mnare(100, 70, 1e-9), 1e-15),  # 4
        (lambda: nk.transport_problem(nk.TransportSpec.near_critical(128, 1e-4))
         .astype(np.float32), 1e-7),  # 12
    ], ids=["random-0", "random-1", "random-2", "transport-128", "transport-256", "m64-n96",
            "m100-n70", "transport-128-f32"])
    def test_tail_matches_dense_loop(self, problem, tol):
        p = problem()
        out = nk.sda_solve(p, nk.SdaConfig(tol=tol))
        state, converged = _dense_loop(p, tol)
        assert out.tail_from is not None and out.tail_from < out.steps
        assert (out.steps, out.converged) == (state.step, converged)
        eps = float(np.finfo(p.dtype).eps)
        x, ref = out.X.astype(np.float64), state.Hm.astype(np.float64)
        rel = 1e-12 if p.dtype == np.float64 else 1e-6
        assert frobenius_norm(x - ref) <= rel * frobenius_norm(ref)
        assert x.min() >= -eps * frobenius_norm(x)

    def test_switch_rule_tolerance(self):
        # the factors are as wide as the sketch's numerical rank: rank 1
        # plus noise at 1 eps of its norm takes one column and rank 3 three;
        # a rank-two part at 1e-10 of the norm, under the sqrt(eps) rank
        # test but over the 8-eps gap, takes TAIL_RANK; noise at 100 eps
        # and a full-rank matrix are not thin
        rng = np.random.default_rng(14)
        n = 64

        def low_rank(r, scale=1.0):
            a = rng.standard_normal((n, r)) @ rng.standard_normal((r, n))
            return a * (scale / frobenius_norm(a))

        a = low_rank(1)
        noise = low_rank(n, np.finfo(np.float64).eps)
        sketch = rng.standard_normal((n, sda.TAIL_RANK + 1))
        for mat, width in [(a + noise, 1), (low_rank(3), 3),
                           (a + low_rank(2, 1e-10), sda.TAIL_RANK)]:
            left, right = sda._thin(mat, sketch)
            assert left.shape == (n, width) and right.shape == (width, n)
            tol = sda.TAIL_TOL_EPS * np.finfo(np.float64).eps * frobenius_norm(mat)
            assert frobenius_norm(left @ right - mat) <= tol
        assert sda._thin(a + 100 * noise, sketch) is None
        assert sda._thin(rng.standard_normal((n, n)), sketch) is None

    def test_below_floor_is_the_dense_loop(self):
        p = nk.transport_problem(nk.TransportSpec.near_critical(32, 1e-12))
        out = nk.sda_solve(p, nk.SdaConfig())
        state, converged = _dense_loop(p)
        assert out.tail_from is None
        assert (out.steps, out.converged) == (state.step, converged)
        npt.assert_array_equal(out.X, state.Hm)

    @pytest.mark.parametrize("n", [64, 128])
    def test_critical_parity(self, n):
        # parity only: at n = 128 both paths still run to the 60-step cap
        p = nk.transport_problem(nk.TransportSpec(n=n, alpha=0.0, c=1.0))
        out = nk.sda_solve(p, nk.SdaConfig())
        state, converged = _dense_loop(p)
        assert out.tail_from is not None
        assert (out.steps, out.converged) == (state.step, converged)
        assert out.residual <= sda.residual_bound(p, 1e-15)
        assert frobenius_norm(out.X - state.Hm) <= 1e-6 * frobenius_norm(state.Hm)


    @pytest.mark.parametrize("problem", [
        lambda: nk.transport_problem(nk.TransportSpec.near_critical(128, 1e-12)),
        lambda: nk.transport_problem(nk.TransportSpec.near_critical(256, 1.5e-12)),
        lambda: nk.random_mnare(nk.RandomMnareSpec(n=128, alpha=1e-3, seed=0)),
    ], ids=["transport-128", "transport-256", "random-128"])
    def test_woodbury_inverse_matches_fresh_solve(self, monkeypatch, problem):
        # each tail step's (I - G H)^-1 and (I - H G)^-1, left in the halves'
        # scratch arrays, against a fresh LU solve, within kappa eps
        seen = []
        step = sda.sda_step

        def recording(s):
            out = step(s)
            if isinstance(s.E, sda._Tail):
                g, h = sda._iterates(s)
                seen.extend([(np.eye(len(g)) - g @ h, s.E.work.copy()),
                             (np.eye(len(h)) - h @ g, s.F.work.copy())])
            return out

        monkeypatch.setattr(sda, "sda_step", recording)
        out = nk.sda_solve(problem())
        assert len(seen) == 2 * (out.steps - out.tail_from)
        eps = np.finfo(np.float64).eps
        for mat, inv in seen:
            ref = np.linalg.solve(mat, np.eye(len(mat)))
            kappa = np.linalg.norm(mat, 1) * np.linalg.norm(ref, 1)
            assert np.linalg.norm(inv - ref, 1) <= kappa * eps * np.linalg.norm(ref, 1)

    def test_no_lu_after_the_switch(self, monkeypatch):
        # no getrf on an n x n or m x m matrix in a tail step
        p = carved_mnare(100, 70, 1e-9)
        factored, in_tail = [], [False]
        step, lapack = sda.sda_step, scipy.linalg.get_lapack_funcs

        def stepping(s):
            in_tail[0] = isinstance(s.E, sda._Tail)
            try:
                return step(s)
            finally:
                in_tail[0] = False

        def lookup(names, arrays=(), *args, **kwargs):
            func = lapack(names, arrays, *args, **kwargs)

            def getrf(a, *rest, **kw):
                factored.append((a.shape, in_tail[0]))
                return func(a, *rest, **kw)
            return getrf if names == "getrf" else func

        monkeypatch.setattr(sda, "sda_step", stepping)
        monkeypatch.setattr(scipy.linalg, "get_lapack_funcs", lookup)
        out = nk.sda_solve(p)
        assert out.tail_from is not None and out.tail_from < out.steps - 1
        assert factored and not any(tail for _, tail in factored)


ESTIMATE_PROBLEMS = (
    [nk.TransportSpec.near_critical(n, beta)
     for n in (8, 32) for beta in (1e-3, 1e-6, 1e-12)]
    + [nk.RandomMnareSpec(n=n, alpha=alpha, seed=seed)
       for n in (10, 40) for alpha in (1e-3, 0.5) for seed in (0, 1)]
)


@pytest.mark.parametrize("spec", ESTIMATE_PROBLEMS)
def test_err_est_tracks_true_error(spec):
    # err_est estimates ||X - H_k||_1 / ||X||_1 through the lagged factor and
    # gecon's norm estimate, so it may undershoot, but never by much
    if isinstance(spec, nk.TransportSpec):
        p = nk.transport_problem(spec)
    else:
        p = nk.random_mnare(spec)
    out = nk.sda_solve(p, nk.SdaConfig())
    x_norm = np.linalg.norm(out.X, 1)
    state = nk.sda_init(p, out.gamma)
    for _ in range(out.steps):
        state = nk.sda_step(state)
        err = np.linalg.norm(out.X - state.Hm, 1) / x_norm
        if err > 1e-13:
            assert state.err_est >= 0.25 * err, (state.step, err, state.err_est)


@pytest.mark.parametrize("beta, sda_steps, sushi_steps",
                         [(1e-3, 14, 9), (5e-4, 15, 9), (2e-4, 15, 9)])
def test_single_precision_steps_not_above_change_test(beta, sda_steps, sushi_steps):
    # the step counts the former relative-change stopping test took; the
    # 10 eps floor of the tolerance keeps float32 solves from missing 1e-7
    p = nk.transport_problem(nk.TransportSpec.near_critical(32, beta))
    p32 = p.astype(np.float32)
    assert nk.sda_solve(p32, nk.SdaConfig(tol=1e-7)).steps <= sda_steps
    result, *_ = nk.sushi_solve(p32, nk.SushiOptions(tol=1e-7))
    assert result.steps <= sushi_steps


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

    def test_stable_eigenvalue_on_the_pole(self):
        # A = diag(2, 1), D = diag(1.5, 1), C = 0: H = [[D, 0], [B, -A]] has
        # eigenvalues 1.5, 1, -2, -1, and -2 sits on the pole at gamma* = 2;
        # the rate is |C(1)| / |C(-1)| = (1/3) / 3
        p = decoupled_problem()
        assert nk.gamma_star(p) == 2.0
        assert nk.cayley_gap(nk.build_h(p), 2.0) == pytest.approx(1.0 / 9.0, rel=1e-14)

    def test_no_split_is_ambiguous(self):
        # both eigenvalues antistable: no rate, although the formula gives 0.4
        h = nk.LinearizingMatrix(np.diag([2.0, 1.0]), 1, 1)
        with pytest.raises(InvalidProblem):
            nk.cayley_gap(h, 3.0)


def test_trace_writer_emits_json_lines():
    buf = io.StringIO()
    p = nk.random_mnare(nk.RandomMnareSpec(n=6, alpha=1.0, seed=2))
    out = nk.sda_solve(p, nk.SdaConfig(trace=trace_writer(buf)))
    lines = [json.loads(line) for line in buf.getvalue().splitlines()]
    assert len(lines) == out.steps
    assert all(set(line) == {"step", "err_est", "cond"} for line in lines)
    assert all(np.isfinite(line["cond"]) and line["cond"] >= 1.0 for line in lines)
